//! Streaming detectors: EWMA drift, CUSUM change-point, windowed
//! rate-spike.
//!
//! Each detector is O(1) per sample, holds only integer state, and is a
//! **pure function of the sample sequence** — no wall clock, no
//! randomness, no floats whose value could depend on worker count
//! (property-tested below). Samples arrive pre-quantized in the
//! micro-units of [`crate::timeseries`].
//!
//! Detectors are *sticky*: once tripped they report `tripped()` forever
//! and `ingest` returns `true` exactly once, so one creeping port raises
//! one alarm, not one per subsequent sample.
//!
//! The thresholds are constants, tuned against the deterministic chaos
//! corpus (`tests/fleet_health.rs`): the seed-2024 clean corpus must
//! produce zero trips while every generated slow-degradation schedule
//! trips before its hard failure — determinism makes that an exact
//! invariant, not a statistical claim.

use lightwave_units::Nanos;

/// CUSUM per-step allowance subtracted before accumulating (the noise
/// floor): 10 mdB per sample.
pub(crate) const CUSUM_SLACK_MICROS: i64 = 10_000;
/// CUSUM cumulative-sum decision threshold: 100 mdB.
pub(crate) const CUSUM_DECISION_MICROS: i64 = 100_000;
/// Minimum distinct positive increments before a CUSUM trip is allowed.
///
/// This gate separates *creep* (many small rises) from a single
/// legitimate step — e.g. a spare-mirror swap can move a port's drift by
/// hundreds of milli-dB in one jump, which must not trip.
pub(crate) const CUSUM_MIN_RISES: u32 = 4;

/// One-sided (upward) CUSUM change-point detector over a level signal.
///
/// State: `s = max(0, s + (x_n − x_{n−1}) − slack)`, plus a count of
/// distinct positive increments. Trips when `s ≥`
/// [`CUSUM_DECISION_MICROS`] **and** `rises ≥` [`CUSUM_MIN_RISES`]. The
/// baseline starts at zero because the signals it watches (port drift)
/// are deviations from as-built by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Cusum {
    s_micros: i64,
    rises: u32,
    last_micros: i64,
    tripped: bool,
}

impl Cusum {
    /// Folds in one sample; returns `true` exactly once, on the trip.
    pub fn ingest(&mut self, value_micros: i64) -> bool {
        let inc = value_micros - self.last_micros;
        self.last_micros = value_micros;
        if inc > 0 {
            self.rises += 1;
        }
        self.s_micros = (self.s_micros + inc - CUSUM_SLACK_MICROS).max(0);
        if !self.tripped && self.s_micros >= CUSUM_DECISION_MICROS && self.rises >= CUSUM_MIN_RISES
        {
            self.tripped = true;
            return true;
        }
        false
    }

    /// Whether the detector has ever tripped.
    pub fn tripped(&self) -> bool {
        self.tripped
    }
}

/// EWMA smoothing as an arithmetic shift: `α = 2^-shift` = 1/8 (integer
/// EWMA).
pub(crate) const EWMA_SHIFT: u32 = 3;
/// Deviation (sample − EWMA) that counts as "over": 60 mdB.
pub(crate) const EWMA_THRESHOLD_MICROS: i64 = 60_000;
/// Samples required before deviations are evaluated at all.
pub(crate) const EWMA_MIN_SAMPLES: u32 = 4;
/// Consecutive over-threshold samples required to trip.
pub(crate) const EWMA_MIN_OVER: u32 = 3;

/// Integer EWMA drift detector: trips when a signal runs persistently
/// above its own smoothed history.
///
/// The update `ewma += (x − ewma) >> EWMA_SHIFT` is pure integer
/// arithmetic, so the smoothed baseline — like every detector state — is
/// exact and order-determined. A lone step (however large) re-baselines
/// within [`EWMA_MIN_OVER`] samples and never trips on its own. The
/// baseline starts at zero, like [`Cusum`]'s: the signals are deviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct EwmaDrift {
    ewma_micros: i64,
    samples: u32,
    over: u32,
    tripped: bool,
}

impl EwmaDrift {
    /// Folds in one sample; returns `true` exactly once, on the trip.
    pub fn ingest(&mut self, value_micros: i64) -> bool {
        self.samples += 1;
        let dev = value_micros - self.ewma_micros;
        if self.samples > EWMA_MIN_SAMPLES && dev >= EWMA_THRESHOLD_MICROS {
            self.over += 1;
        } else {
            self.over = 0;
        }
        self.ewma_micros += dev >> EWMA_SHIFT;
        if !self.tripped && self.over >= EWMA_MIN_OVER {
            self.tripped = true;
            return true;
        }
        false
    }

    /// Whether the detector has ever tripped.
    pub fn tripped(&self) -> bool {
        self.tripped
    }
}

/// Rate-spike counting-window width (sim time): 250 ms.
pub(crate) const RATE_SPIKE_WINDOW: Nanos = Nanos(250_000_000);
/// Events per window for the window to qualify.
pub(crate) const RATE_SPIKE_PER_WINDOW: u32 = 2;
/// Contiguous qualifying windows required to trip.
///
/// Requiring *contiguous* windows is what separates a sustained relock
/// spike from a single-instant storm (one window, however many events)
/// and from scattered background flaps.
pub(crate) const RATE_SPIKE_MIN_WINDOWS: u32 = 3;

/// Event-rate spike detector over fixed sim-time windows.
///
/// Counts events per [`RATE_SPIKE_WINDOW`]; trips as soon as the current
/// window reaches [`RATE_SPIKE_PER_WINDOW`] with
/// [`RATE_SPIKE_MIN_WINDOWS`]` − 1` contiguous qualifying windows
/// immediately before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RateSpike {
    cur_idx: u64,
    cur_count: u32,
    streak: u32,
    primed: bool,
    tripped: bool,
}

impl RateSpike {
    /// Folds in one event at sim time `at`; returns `true` exactly
    /// once, on the trip.
    pub fn ingest(&mut self, at: Nanos) -> bool {
        let idx = at.0 / RATE_SPIKE_WINDOW.0;
        if !self.primed {
            self.primed = true;
            self.cur_idx = idx;
        } else if idx != self.cur_idx {
            let qualified = self.cur_count >= RATE_SPIKE_PER_WINDOW;
            if qualified && idx == self.cur_idx + 1 {
                self.streak += 1;
            } else {
                self.streak = 0;
            }
            self.cur_idx = idx;
            self.cur_count = 0;
        }
        self.cur_count += 1;
        if !self.tripped
            && self.cur_count >= RATE_SPIKE_PER_WINDOW
            && self.streak + 1 >= RATE_SPIKE_MIN_WINDOWS
        {
            self.tripped = true;
            return true;
        }
        false
    }

    /// Whether the detector has ever tripped.
    pub fn tripped(&self) -> bool {
        self.tripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cusum_trips_on_creep_not_on_single_step() {
        // Creep: 10 × 30 mdb rises.
        let mut d = Cusum::default();
        let mut tripped_at = None;
        for i in 1..=10i64 {
            if d.ingest(i * 30_000) {
                tripped_at = Some(i);
            }
        }
        assert_eq!(tripped_at, Some(5), "creep trips mid-ramp");
        assert!(d.tripped());
        // A lone 300 mdb spare-swap jump: rises gate holds it back.
        let mut d = Cusum::default();
        assert!(!d.ingest(300_000));
        assert!(!d.tripped());
        assert_eq!(d.rises, 1);
    }

    #[test]
    fn cusum_trip_fires_exactly_once() {
        let mut d = Cusum::default();
        let trips: u32 = (1..=20i64).map(|i| d.ingest(i * 40_000) as u32).sum();
        assert_eq!(trips, 1);
    }

    #[test]
    fn ewma_trips_on_persistent_ramp_only() {
        let mut d = EwmaDrift::default();
        let mut trips = 0;
        for i in 1..=12i64 {
            trips += d.ingest(i * 30_000) as u32;
        }
        assert_eq!(trips, 1, "a sustained ramp trips once");
        // One big step then silence: min_samples gate → never evaluated.
        let mut d = EwmaDrift::default();
        assert!(!d.ingest(400_000));
        assert!(!d.ingest(400_000));
        assert!(!d.tripped());
    }

    #[test]
    fn rate_spike_needs_contiguous_windows() {
        let w = RATE_SPIKE_WINDOW.0;
        // Three contiguous windows, 3 events each → trips in window 3.
        let mut d = RateSpike::default();
        let mut trip_time = None;
        for round in 0..4u64 {
            for _ in 0..3 {
                if d.ingest(Nanos(round * w)) && trip_time.is_none() {
                    trip_time = Some(round);
                }
            }
        }
        assert_eq!(trip_time, Some(2));
        // A single-instant 16-event storm: one window, no trip.
        let mut d = RateSpike::default();
        for _ in 0..16 {
            assert!(!d.ingest(Nanos(1000)));
        }
        assert!(!d.tripped());
        // Qualifying windows with a gap: streak resets, no trip.
        let mut d = RateSpike::default();
        for round in [0u64, 1, 3, 4] {
            for _ in 0..3 {
                assert!(!d.ingest(Nanos(round * w)));
            }
        }
    }

    /// Replays a sample sequence through a detector twice and checks the
    /// final states match — plus prefix-purity: state after n samples
    /// equals a fresh detector fed the first n samples.
    fn assert_pure<D: PartialEq + std::fmt::Debug + Clone>(
        mk: impl Fn() -> D,
        step: impl Fn(&mut D, i64),
        seq: &[i64],
    ) {
        let mut a = mk();
        let mut b = mk();
        for &v in seq {
            step(&mut a, v);
            step(&mut b, v);
        }
        assert_eq!(a, b, "same sequence, same state");
        let cut = seq.len() / 2;
        let mut prefix = mk();
        for &v in &seq[..cut] {
            step(&mut prefix, v);
        }
        let mut replay = mk();
        for &v in &seq[..cut] {
            step(&mut replay, v);
        }
        assert_eq!(prefix, replay, "prefix state is reproducible");
    }

    proptest! {
        /// Detector state is a pure function of the sample sequence: two
        /// independent replays of the same sequence end in identical
        /// state (derive(PartialEq) covers every field), and every trip
        /// decision happens at the same index.
        #[test]
        fn cusum_and_ewma_are_pure_functions_of_the_sequence(
            seq in proptest::collection::vec(-500_000i64..500_000, 0..128),
        ) {
            assert_pure(Cusum::default, |d, v| { d.ingest(v); }, &seq);
            assert_pure(EwmaDrift::default, |d, v| { d.ingest(v); }, &seq);
            // Trip indices, not just final state, must agree.
            let trips = |seq: &[i64]| -> Vec<usize> {
                let mut d = Cusum::default();
                seq.iter().enumerate().filter(|&(_, &v)| d.ingest(v)).map(|(i, _)| i).collect()
            };
            prop_assert_eq!(trips(&seq), trips(&seq));
        }

        #[test]
        fn rate_spike_is_a_pure_function_of_the_stamp_sequence(
            stamps in proptest::collection::vec(0u64..10_000_000_000, 0..128),
        ) {
            let run = |stamps: &[u64]| {
                let mut d = RateSpike::default();
                let trips: Vec<usize> = stamps
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| d.ingest(Nanos(t)))
                    .map(|(i, _)| i)
                    .collect();
                (d, trips)
            };
            prop_assert_eq!(run(&stamps), run(&stamps));
        }
    }
}
