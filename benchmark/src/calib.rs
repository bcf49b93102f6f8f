//! The calibration kernel: a fixed slice of work, owned by the benchmark,
//! that a timed rep pauses for at regular intervals. Each stretch of work
//! is priced in the slices timed right after it; requests divided by the
//! sum is "requests per calibration slice" — the rate with the machine's
//! speed at that moment divided out.
//!
//! On a shared box the clock rate and the caches' contents drift by 10 to
//! 20 % over seconds; a calibration run before and after a rep misses
//! most of that, one every ~40 ms of work tracks it.
//!
//! A slice has three phases of about a third each, covering what the
//! request path leans on: integer ALU (a splitmix chain), cache-resident
//! dependent loads (a pointer chase over 256 KiB) and small ordered-map
//! churn with allocation (`BTreeMap` insert/remove).

use crate::workload::Probe;
use lightwave::par::splitmix;
use lightwave::service::{ServiceCore, ServiceEvent};
use lightwave::units::Nanos;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const CHAIN_STEPS: u64 = 470_000;
const CHASE_SLOTS: usize = 256 * 1024 / std::mem::size_of::<u32>();
const CHASE_STEPS: usize = 600_000;
const MAP_KEYS: u64 = 64;
const MAP_STEPS: u64 = 37_000;

/// Pauses a timed rep of a service workload makes.
pub const PAUSES_PER_REP: u64 = 64;

/// The kernel's inputs, built once per process.
pub struct Calibrator {
    /// A single cycle through all slots, so the chase never shortcuts.
    next: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Builds the pointer-chase cycle (Sattolo's shuffle on a fixed
    /// stream, so every process chases the same cycle).
    pub fn new() -> Calibrator {
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = (splitmix(0xCA11_B8A7, i as u64) % i as u64) as usize;
            next.swap(i, j);
        }
        Calibrator { next }
    }

    /// Runs one slice (about 8 ms).
    pub fn slice(&self) {
        let mut x = 0u64;
        for i in 0..CHAIN_STEPS {
            x = splitmix(x, i);
        }
        black_box(x);
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        let mut map = BTreeMap::new();
        for i in 0..MAP_STEPS {
            map.insert(splitmix(1, i) % MAP_KEYS, i);
            map.remove(&(splitmix(2, i) % MAP_KEYS));
        }
        black_box(map.len());
    }
}

/// Share of the work since the last pause that a pause spends on
/// calibration slices, at least: a 40 ms chunk of requests gets one
/// slice, a 0.8 s experiment seventeen.
const CALIB_SHARE: f64 = 1.0 / 6.0;

/// A stopwatch that splits a rep's wall time into the workload's share
/// and the calibration slices it pauses for, and prices every stretch of
/// work in the slices timed right after it.
pub struct Interleave<'a> {
    calib: &'a Calibrator,
    every: u64,
    /// Requests left before the next pause.
    left: u64,
    last: Instant,
    work_s: f64,
    work_slices: f64,
    /// Mean slice time of the latest pause; prices the tail.
    slice_s: f64,
}

/// What an interleaved rep's work cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    /// Seconds the workload ran.
    pub work_s: f64,
    /// The same work in calibration slices: each stretch between two
    /// pauses divided by the mean slice time of the pause that ended it
    /// (0 when the rep never paused).
    pub work_slices: f64,
}

impl<'a> Interleave<'a> {
    /// Starts the stopwatch; as a [`Probe`] it pauses after every `every`
    /// requests (`u64::MAX`: never).
    pub fn start(calib: &'a Calibrator, every: u64) -> Interleave<'a> {
        let every = every.max(1);
        Interleave {
            calib,
            every,
            left: every,
            last: Instant::now(),
            work_s: 0.0,
            work_slices: 0.0,
            slice_s: 0.0,
        }
    }

    /// Books the time since the last pause to the workload, then runs
    /// slices for [`CALIB_SHARE`] of that time (one at least).
    pub fn pause(&mut self) {
        let paused = Instant::now();
        let work = (paused - self.last).as_secs_f64();
        let mut slices = 0.0;
        let calib_s = loop {
            self.calib.slice();
            slices += 1.0;
            self.last = Instant::now();
            let calib_s = (self.last - paused).as_secs_f64();
            if calib_s >= CALIB_SHARE * work {
                break calib_s;
            }
        };
        self.slice_s = calib_s / slices;
        self.work_s += work;
        self.work_slices += work / self.slice_s;
    }

    /// Stops the stopwatch.
    pub fn stop(self) -> Shares {
        let tail = self.last.elapsed().as_secs_f64();
        let tail_slices = if self.slice_s > 0.0 {
            tail / self.slice_s
        } else {
            0.0
        };
        Shares {
            work_s: self.work_s + tail,
            work_slices: self.work_slices + tail_slices,
        }
    }
}

impl Probe for Interleave<'_> {
    #[inline]
    fn batch(&mut self, _request: u64, _now: Nanos, _events: &[ServiceEvent], _core: &ServiceCore) {
        self.left -= 1;
        if self.left == 0 {
            self.left = self.every;
            self.pause();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stopwatch_prices_work_in_the_slices_next_to_it() {
        let calib = Calibrator::new();
        let core = ServiceCore::new(Default::default());
        let started = Instant::now();
        let mut watch = Interleave::start(&calib, 2);
        for request in 0..6 {
            if request == 3 {
                // A stretch of work worth about two slices.
                calib.slice();
                calib.slice();
            }
            watch.batch(request, Nanos(0), &[], &core);
        }
        let shares = watch.stop();
        let total = started.elapsed().as_secs_f64();
        // Three pauses in six requests; the work between them was those
        // two slices and nothing else.
        assert!(shares.work_s > 0.0 && shares.work_s < total);
        assert!(
            shares.work_slices > 1.0 && shares.work_slices < 4.0,
            "two slices of work, priced in slices: {}",
            shares.work_slices
        );
    }

    #[test]
    fn a_watch_that_never_pauses_prices_nothing() {
        let calib = Calibrator::new();
        let mut watch = Interleave::start(&calib, u64::MAX);
        let core = ServiceCore::new(Default::default());
        watch.batch(0, Nanos(0), &[], &core);
        let shares = watch.stop();
        assert_eq!(shares.work_slices, 0.0);
        assert!(shares.work_s >= 0.0);
    }
}
