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
use rand_distr::{Distribution, Normal, NormalEnvelope};
use serde::{Deserialize, Serialize};

/// The pointing error (normalized units) at which every switch declares a
/// circuit aligned.
pub const ALIGNMENT_TOLERANCE: f64 = 0.01;

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

/// An [`AlignmentLoop`] prepared for one tolerance — what a switch runs per
/// circuit: the `(frames, converged)` of [`AlignmentLoop::converge`], the
/// generator left exactly where it would leave it, and no normal evaluated
/// on the modal outcome (DESIGN §6.8).
///
/// With `keep = 1 − gain`, `c_k = keep^k` and `B_j ≥ |z_j|` the
/// [`NormalEnvelope`] bound of frame `j`'s two raw draws, the exact loop's
/// error after `k` frames obeys `|err_k − c_k| ≤ gain·σ·S_k + margin`,
/// `S_k = keep·S_{k−1} + B_k`. The loop cannot stop inside the tolerance
/// before frame `stop = lead + tests`. It provably runs through the first
/// `lead` frames whatever they draw, through each later one while `S_k`
/// is below that frame's threshold, and provably stops at `stop`,
/// converged, if `S_stop` is below the last.
#[derive(Debug, Clone, Copy)]
pub struct AlignmentKernel {
    servo: AlignmentLoop,
    tolerance: f64,
    envelope: &'static NormalEnvelope,
    keep: f64,
    lead: u32,
    /// 0: a loop the preparation cannot serve; every call is exact.
    tests: u32,
    thresholds: [f64; 3],
}

impl AlignmentKernel {
    /// The loop this kernel was prepared from.
    pub(crate) fn servo(&self) -> &AlignmentLoop {
        &self.servo
    }

    /// The fast path alone. `None`: undecided (some `S_k` is not below its
    /// threshold), `rng` untouched.
    pub fn decide(&self, rng: &mut StdRng) -> Option<(u32, bool)> {
        let mut ahead = rng.clone();
        let mut s = 0.0;
        let mut frame = || {
            s = s * self.keep + self.envelope.bound(ahead.next_u64(), ahead.next_u64());
            s
        };
        for _ in 0..self.lead {
            frame();
        }
        // Written so that a NaN sum decides nothing.
        let mut decided = self.tests > 0;
        for t in &self.thresholds[..self.tests as usize] {
            decided &= frame() < *t;
        }
        decided.then(|| {
            *rng = ahead;
            (self.lead + self.tests, true)
        })
    }

    /// `(frames, converged)` of one alignment: decided from the envelope
    /// sums where they suffice, by the exact loop otherwise.
    pub fn run(&self, rng: &mut StdRng) -> (u32, bool) {
        self.decide(rng).unwrap_or_else(|| {
            let exact = self.servo.converge(self.tolerance, rng);
            (exact.frames, exact.converged)
        })
    }
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
        // A precondition on the loop's parameters, like the two asserts
        // above: `noise_floor` is a finite, non-negative sigma
        // (`AlignmentLoop::default`'s, the one every switch prepares, is
        // 2e-3).
        #[allow(clippy::expect_used)]
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

    /// Prepares the per-circuit kernel for `tolerance`; panics on the
    /// parameters `converge` rejects. Every threshold is shrunk by `margin`
    /// (1e-9 of the largest error a frame can see) and by 1e-9 relative: a
    /// million times the rounding of either side of the inequality.
    pub fn prepare(&self, tolerance: f64) -> AlignmentKernel {
        let sigma = self.checked_noise(tolerance).std_dev();
        let envelope = NormalEnvelope::get();
        let keep = 1.0 - self.gain;
        let mut kernel = AlignmentKernel {
            servo: *self,
            tolerance,
            envelope,
            keep,
            lead: 0,
            tests: 0,
            thresholds: [0.0; 3],
        };
        let a = self.gain * sigma;
        let margin = 1e-9 * (1.0 + sigma * envelope.max_bound());
        let (mut c, mut s_max, mut tests) = (1.0f64, 0.0f64, 0);
        // Bounded: preparation stays cheap, and the rounding the exact loop
        // accumulates (a few ulps a frame) stays a thousandth of `margin`.
        for k in 1..=self.max_frames.min(1024) {
            c *= keep;
            s_max = s_max * keep + envelope.max_bound();
            let stops = c + margin < tolerance;
            let gap = if stops { tolerance - c } else { c - tolerance };
            let t = (gap - margin) / a * (1.0 - 1e-9);
            if !stops && tests == 0 && s_max < t {
                kernel.lead = k; // outside even with every draw on the envelope
                continue;
            }
            // No noise, a frame within `margin` of the tolerance, or more
            // frames to test than there are slots: never fast.
            if !(a > 0.0 && t > 0.0 && tests < kernel.thresholds.len()) {
                break;
            }
            kernel.thresholds[tests] = t;
            tests += 1;
            if stops {
                kernel.tests = tests as u32;
                break;
            }
        }
        kernel
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

    #[test]
    fn the_default_loop_prepares_as_designed() {
        // DESIGN §6.8: frames 1–3 need no test, S_4 < 3.851 runs on to
        // frame 5 and S_5 < 3.652 stops there.
        let k = AlignmentLoop::default().prepare(ALIGNMENT_TOLERANCE);
        assert_eq!((k.lead, k.tests), (3, 2));
        assert!((k.thresholds[0] - 3.851).abs() < 1e-3, "{k:?}");
        assert!((k.thresholds[1] - 3.652).abs() < 1e-3, "{k:?}");
        assert!(std::mem::size_of::<AlignmentKernel>() <= 128);
    }

    #[test]
    fn a_frame_within_the_margin_of_the_tolerance_is_never_fast() {
        // Frame 4 decays to 0.35⁴: a tolerance a hair either side of it
        // leaves that frame to the noise, whatever the envelope says.
        for hair in [-9e-10, 9e-10] {
            let k = AlignmentLoop::default().prepare(0.35f64.powi(4) + hair);
            assert_eq!(k.tests, 0, "{k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "loop gain must be in (0,1)")]
    fn preparation_rejects_what_converge_rejects() {
        let _ = AlignmentLoop {
            gain: 1.0,
            ..AlignmentLoop::default()
        }
        .prepare(ALIGNMENT_TOLERANCE);
    }
}
