//! Camera-based closed-loop mirror alignment.
//!
//! §3.2.2: the "novel design choice that enabled us to realize a low-cost,
//! manufacturable OCS was the use of two cameras, one per MEMS array, for
//! closed-loop alignment". An 850 nm monitor beam illuminates the mirrors;
//! the camera images them through dichroic splitters, and image processing
//! servoes each mirror's tilt toward minimum loss — replacing per-mirror
//! photodetector hardware with software.
//!
//! The loop model: after an actuation step the mirror's pointing error is
//! large; each camera frame measures the error (with sensor noise) and a
//! proportional controller removes a fixed fraction. The loop converges
//! geometrically to a noise floor. This yields both the *switching time*
//! (actuation settle + frames-to-converge × frame time) and the residual
//! pointing error that [`crate::loss`] converts into excess insertion loss.

use lightwave_units::Nanos;
use rand::rngs::StdRng;
use rand::RngCore;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Parameters of the camera servo loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlignmentLoop {
    /// Camera frame period.
    pub frame_time: Nanos,
    /// Fraction of the measured error removed per frame (loop gain), (0,1).
    pub gain: f64,
    /// RMS measurement noise re-injected per frame, in normalized pointing
    /// units (1.0 = the full post-actuation error).
    pub noise_floor: f64,
    /// Mechanical settling time of the mirror after the open-loop step.
    pub actuation_settle: Nanos,
    /// Give-up bound on frames (declares the mirror failed).
    pub max_frames: u32,
}

impl Default for AlignmentLoop {
    fn default() -> Self {
        AlignmentLoop {
            // 500 fps machine-vision camera.
            frame_time: Nanos::from_millis(2),
            gain: 0.65,
            noise_floor: 2e-3,
            // Open-loop MEMS step + ring-down.
            actuation_settle: Nanos::from_millis(5),
            max_frames: 64,
        }
    }
}

/// Result of one alignment convergence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Convergence {
    /// Camera frames consumed.
    pub frames: u32,
    /// Residual pointing error (normalized units).
    pub residual_error: f64,
    /// Total time from actuation command to "aligned" (settle + frames).
    pub switching_time: Nanos,
    /// Whether the loop converged within the frame budget.
    pub converged: bool,
}

/// Relative slack added to the error interval of
/// [`AlignmentLoop::converge_frames`] every frame. The float expressions
/// of the exact loop and of the interval arithmetic each round by a few
/// ulps (≈1e-15 of the operands); a thousand times that is still far
/// below anything that decides a frame.
const INTERVAL_EPS: f64 = 1e-12;

/// Upper bound on a Box–Muller normal's magnitude given the top 8 bits of
/// its first raw draw: `|z| ≤ √(−2·ln u1)` with `u1 = 1 − unit(b1)` no
/// smaller than the bin's lower edge (2⁻⁵³ in the last bin, the least `u1`
/// the mapping produces), widened by 1e-9 against rounding.
fn radius_envelope() -> &'static [f64; 256] {
    static ENVELOPE: OnceLock<[f64; 256]> = OnceLock::new();
    ENVELOPE.get_or_init(|| {
        std::array::from_fn(|bin| {
            let u1_min = (1.0 - (bin as f64 + 1.0) / 256.0).max(1.0 / (1u64 << 53) as f64);
            (-2.0 * u1_min.ln()).sqrt() * (1.0 + 1e-9)
        })
    })
}

impl AlignmentLoop {
    /// The measurement-noise sampler, after the checks every convergence
    /// run makes on its parameters.
    fn checked_noise(&self, tolerance: f64) -> Normal<f64> {
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must be in (0,1), got {tolerance}"
        );
        assert!(
            self.gain > 0.0 && self.gain < 1.0,
            "loop gain must be in (0,1)"
        );
        Normal::new(0.0, self.noise_floor).expect("valid sigma")
    }

    /// Time from actuation command to "aligned" for a run of `frames`.
    pub fn switching_time(&self, frames: u32) -> Nanos {
        self.actuation_settle + self.frame_time * frames as u64
    }

    /// Runs the servo from a post-actuation pointing error of 1.0
    /// (normalized) down to `tolerance`.
    pub fn converge(&self, tolerance: f64, rng: &mut StdRng) -> Convergence {
        let noise = self.checked_noise(tolerance);
        let mut err: f64 = 1.0;
        let mut frames = 0u32;
        while err.abs() > tolerance && frames < self.max_frames {
            // Proportional correction on a noisy measurement.
            let measured = err + noise.sample(rng);
            err -= self.gain * measured;
            frames += 1;
        }
        Convergence {
            frames,
            residual_error: err.abs(),
            switching_time: self.switching_time(frames),
            converged: err.abs() <= tolerance,
        }
    }

    /// The `(frames, converged)` that [`AlignmentLoop::converge`] would
    /// return, leaving `rng` exactly where it would — without a single
    /// Box–Muller evaluation on most calls.
    ///
    /// Each frame still draws its two raw `u64`s, but instead of the
    /// normal they map to it takes the envelope `|z| ≤ R[b1 >> 56]` and
    /// carries an interval `[lo, hi]` that provably contains the exact
    /// loop's `err`. While the interval lies wholly outside ±`tolerance`
    /// the loop provably continues; once it lies wholly inside, the loop
    /// provably stopped there. A frame whose interval straddles the
    /// tolerance decides nothing: the generator is put back where the call
    /// found it and the exact loop runs instead.
    pub fn converge_frames(&self, tolerance: f64, rng: &mut StdRng) -> (u32, bool) {
        let sigma = self.checked_noise(tolerance).std_dev();
        let envelope = radius_envelope();
        let start = rng.clone();
        let keep = 1.0 - self.gain;
        let (mut lo, mut hi) = (1.0f64, 1.0f64);
        let mut frames = 0u32;
        loop {
            // Written so that a NaN bound decides nothing.
            let outside = lo > tolerance || hi < -tolerance;
            let inside = lo >= -tolerance && hi <= tolerance;
            if inside || (outside && frames >= self.max_frames) {
                return (frames, inside);
            }
            if !outside {
                *rng = start;
                let exact = self.converge(tolerance, rng);
                return (exact.frames, exact.converged);
            }
            let b1 = rng.next_u64();
            rng.next_u64();
            // err' = err·(1 − gain) − gain·σ·z, |z| ≤ radius.
            let radius = envelope[(b1 >> 56) as usize];
            let kick = self.gain * sigma * radius;
            let slack = INTERVAL_EPS * (lo.abs().max(hi.abs()) + sigma * radius);
            lo = lo * keep - kick - slack;
            hi = hi * keep + kick + slack;
            frames += 1;
        }
    }

    /// Expected switching time for a typical convergence (deterministic
    /// estimate used by planners): settle + frames for a pure geometric
    /// decay to `tolerance`.
    pub fn nominal_switching_time(&self, tolerance: f64) -> Nanos {
        assert!(tolerance > 0.0 && tolerance < 1.0);
        let per_frame_factor = 1.0 - self.gain;
        let frames = (tolerance.ln() / per_frame_factor.ln()).ceil().max(1.0) as u64;
        self.actuation_settle + self.frame_time * frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn converges_to_tolerance() {
        let mut rng = StdRng::seed_from_u64(1);
        let loop_ = AlignmentLoop::default();
        let c = loop_.converge(0.01, &mut rng);
        assert!(c.converged);
        assert!(c.residual_error <= 0.01);
        assert!(c.frames >= 3, "cannot converge instantly from full error");
    }

    #[test]
    fn switching_time_is_milliseconds_class() {
        // Table C.1: MEMS OCS switching time is "milliseconds". Our loop
        // should land in the 5–50 ms window, not µs or seconds.
        let mut rng = StdRng::seed_from_u64(2);
        let c = AlignmentLoop::default().converge(0.01, &mut rng);
        let ms = c.switching_time.as_millis_f64();
        assert!(
            (5.0..50.0).contains(&ms),
            "switching time {ms} ms out of MEMS class"
        );
    }

    #[test]
    fn tighter_tolerance_needs_more_frames() {
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let l = AlignmentLoop::default();
        let coarse = l.converge(0.1, &mut rng_a);
        let fine = l.converge(0.005, &mut rng_b);
        assert!(fine.frames > coarse.frames);
    }

    #[test]
    fn noise_floor_limits_achievable_tolerance() {
        // Demanding tolerance at the measurement-noise level should fail
        // to converge (or barely), exercising the give-up path.
        let l = AlignmentLoop {
            noise_floor: 0.2,
            max_frames: 16,
            ..AlignmentLoop::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut failures = 0;
        for _ in 0..20 {
            if !l.converge(0.01, &mut rng).converged {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "noise at 20× tolerance must sometimes defeat the loop"
        );
    }

    #[test]
    fn nominal_estimate_brackets_stochastic_runs() {
        let l = AlignmentLoop::default();
        let nominal = l.nominal_switching_time(0.01);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let c = l.converge(0.01, &mut rng);
            let ratio = c.switching_time.as_secs_f64() / nominal.as_secs_f64();
            assert!(
                (0.5..2.0).contains(&ratio),
                "stochastic run {} vs nominal {}",
                c.switching_time,
                nominal
            );
        }
    }

    #[test]
    #[should_panic(expected = "tolerance must be in (0,1)")]
    fn rejects_silly_tolerance() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = AlignmentLoop::default().converge(0.0, &mut rng);
    }
}
