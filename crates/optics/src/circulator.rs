#![cfg(test)]
//! The optical circulator, modeled at the polarization level (Appendix B).
//!
//! The circulator is *the* enabling component of bidirectional links: a
//! three-port non-reciprocal device (1→2, 2→3) that lets one fiber strand
//! carry both directions, halving the OCS ports a fabric needs.
//!
//! Appendix B describes the integrated implementation: polarizing beam
//! splitters (PBS), a Faraday rotator (FR, ±45°, **non-reciprocal** — the
//! rotation sense is fixed in the lab frame, so forward and backward
//! passes add instead of cancel), and a half-wave plate (HWP, 45°,
//! reciprocal). Forward, FR and HWP rotations cancel (port 1 → port 2,
//! polarization preserved); backward they add to 90°, flipping s↔p so the
//! PBS steers the light to port 3 instead of back into the laser.
//!
//! This module implements that arithmetic with real 2×2 polarization
//! matrices, and derives the *isolation* figure from physical
//! imperfections (Faraday angle error, PBS extinction) — closing the loop
//! between Appendix B and §3.3.1's "reducing return loss and crosstalk
//! between the ports". No production path runs it: the MPI budget reads
//! the constant [`crate::mpi::CIRCULATOR_ISOLATION_DB`], and this model is
//! the reference the tests below hold that constant to, so it is built
//! under test only.

use lightwave_units::Db;

/// A real 2×2 polarization transfer matrix acting on (s, p) amplitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PolMatrix([[f64; 2]; 2]);

impl PolMatrix {
    /// Rotation of the polarization plane by `theta` radians.
    fn rotation(theta: f64) -> PolMatrix {
        let (s, c) = theta.sin_cos();
        PolMatrix([[c, -s], [s, c]])
    }

    /// Matrix product `self · rhs` (apply `rhs` first).
    fn then(self, rhs: PolMatrix) -> PolMatrix {
        let a = self.0;
        let b = rhs.0;
        let mut out = [[0.0; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
            }
        }
        PolMatrix(out)
    }

    /// Applies to an (s, p) amplitude vector.
    fn apply(self, v: [f64; 2]) -> [f64; 2] {
        [
            self.0[0][0] * v[0] + self.0[0][1] * v[1],
            self.0[1][0] * v[0] + self.0[1][1] * v[1],
        ]
    }
}

/// Physical imperfections of a manufactured circulator.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CirculatorImperfections {
    /// Faraday rotation error from the ideal 45°, radians (temperature,
    /// magnet aging, wavelength dependence across the CWDM band).
    faraday_error: f64,
    /// PBS extinction: amplitude fraction of the wrong polarization that
    /// leaks through (power extinction = this squared).
    pbs_leak: f64,
    /// Excess insertion loss per pass, dB.
    pass_loss: Db,
}

impl CirculatorImperfections {
    /// An ideal device.
    fn ideal() -> CirculatorImperfections {
        CirculatorImperfections {
            faraday_error: 0.0,
            pbs_leak: 0.0,
            pass_loss: Db(0.0),
        }
    }

    /// A production-grade device: ±0.1° effective Faraday error (athermal
    /// magnet + wavelength-flattened garnet), 55 dB cascaded two-stage PBS
    /// extinction, 0.8 dB per pass. These are the re-engineering targets
    /// §3.3.1 alludes to ("reducing return loss and crosstalk between the
    /// ports").
    fn production() -> CirculatorImperfections {
        CirculatorImperfections {
            faraday_error: 0.1f64.to_radians(),
            pbs_leak: 10f64.powf(-55.0 / 20.0),
            pass_loss: Db(0.8),
        }
    }
}

/// The polarization-level circulator model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Circulator {
    /// Device imperfections.
    imperfections: CirculatorImperfections,
}

/// Where the power of one pass ends up.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PassResult {
    /// Power delivered to the intended output port (linear, input = 1).
    through: f64,
    /// Power leaked to the unintended port (isolation leakage).
    leaked: f64,
}

impl Circulator {
    /// An ideal circulator.
    fn ideal() -> Circulator {
        Circulator {
            imperfections: CirculatorImperfections::ideal(),
        }
    }

    /// A production device.
    fn production() -> Circulator {
        Circulator {
            imperfections: CirculatorImperfections::production(),
        }
    }

    /// Net polarization rotation of a forward pass (port 1 → port 2):
    /// FR(−45°−ε) then HWP arranged to add +45°; ideally identity.
    fn forward_matrix(&self) -> PolMatrix {
        let fr =
            PolMatrix::rotation(-(std::f64::consts::FRAC_PI_4 + self.imperfections.faraday_error));
        let hwp_equiv = PolMatrix::rotation(std::f64::consts::FRAC_PI_4);
        hwp_equiv.then(fr)
    }

    /// Net rotation of a backward pass (port 2 → port 3): the HWP is
    /// reciprocal (+45° again) but the Faraday rotation *adds* because its
    /// sense is fixed in the lab frame: total 90° (+ error).
    fn backward_matrix(&self) -> PolMatrix {
        let fr =
            PolMatrix::rotation(std::f64::consts::FRAC_PI_4 + self.imperfections.faraday_error);
        let hwp_equiv = PolMatrix::rotation(std::f64::consts::FRAC_PI_4);
        fr.then(hwp_equiv)
    }

    /// Forward pass, port 1 → port 2. The laser input is p-polarized; the
    /// output PBS passes p to the fiber and reflects s (leak) elsewhere.
    fn forward(&self) -> PassResult {
        let input = [0.0, 1.0]; // pure p
        let out = self.forward_matrix().apply(input);
        let t = self.transmission();
        // p continues to the fiber; s is rejected by the PBS except for
        // its finite extinction.
        let leak_amp = self.imperfections.pbs_leak;
        PassResult {
            through: (out[1] * out[1] + (out[0] * leak_amp) * (out[0] * leak_amp)) * t,
            leaked: out[0] * out[0] * (1.0 - leak_amp * leak_amp) * t,
        }
    }

    /// Backward pass, port 2 → port 3, for one incoming polarization
    /// component (standard fiber scrambles polarization, so average the
    /// two). Ideal behaviour: 90° rotation steers everything to port 3.
    fn backward(&self) -> PassResult {
        let t = self.transmission();
        let m = self.backward_matrix();
        let mut through = 0.0;
        let mut leaked = 0.0;
        for input in [[1.0, 0.0], [0.0, 1.0]] {
            let out = m.apply(input);
            // After the 90° rotation, what *was* going to re-enter port 1
            // (same polarization as the laser, p for a p-launched input
            // path) is now orthogonal and the PBS routes it to port 3.
            // Residual co-polarized light leaks back toward port 1.
            let (to3, to1) = if input[0] == 1.0 {
                (out[1] * out[1], out[0] * out[0])
            } else {
                (out[0] * out[0], out[1] * out[1])
            };
            through += 0.5 * to3 * t;
            leaked += 0.5 * (to1 + self.imperfections.pbs_leak * self.imperfections.pbs_leak) * t;
        }
        PassResult { through, leaked }
    }

    fn transmission(&self) -> f64 {
        (-self.imperfections.pass_loss).linear()
    }

    /// Isolation: port-2-input power leaking back out of port 1, dB
    /// (negative; more negative = better). This is the "crosstalk between
    /// the ports" §3.3.1 calls "particularly important" because it lands
    /// in-band on the local receiver.
    fn isolation(&self) -> Db {
        let leaked = self.backward().leaked;
        if leaked <= 0.0 {
            Db(-100.0)
        } else {
            Db::from_linear(leaked)
        }
    }

    /// Insertion loss of a pass, dB (positive).
    fn insertion_loss(&self) -> Db {
        Db(-10.0 * self.backward().through.log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn ideal_forward_pass_preserves_polarization() {
        let c = Circulator::ideal();
        let r = c.forward();
        assert!(
            close(r.through, 1.0, 1e-12),
            "all power to port 2: {}",
            r.through
        );
        assert!(close(r.leaked, 0.0, 1e-12));
    }

    #[test]
    fn ideal_backward_pass_rotates_90_degrees_to_port_3() {
        let c = Circulator::ideal();
        let r = c.backward();
        assert!(
            close(r.through, 1.0, 1e-12),
            "all power to port 3: {}",
            r.through
        );
        assert!(close(r.leaked, 0.0, 1e-12), "nothing back into the laser");
    }

    #[test]
    fn non_reciprocity_is_the_mechanism() {
        // If the Faraday rotator were reciprocal (sign flipping with
        // direction), forward and backward would both cancel and the
        // device would not circulate. Verify the matrices differ.
        let c = Circulator::ideal();
        let fwd = c.forward_matrix();
        let bwd = c.backward_matrix();
        assert!(close(fwd.0[0][0], 1.0, 1e-12), "forward ≈ identity");
        assert!(close(bwd.0[0][0], 0.0, 1e-12), "backward ≈ 90° rotation");
    }

    #[test]
    fn production_isolation_is_strong_but_finite() {
        let c = Circulator::production();
        let iso = c.isolation().db();
        assert!(
            (-60.0..=-35.0).contains(&iso),
            "production isolation {iso} dB out of expected window"
        );
    }

    #[test]
    fn faraday_error_degrades_isolation_quadratically() {
        let mk = |deg: f64| Circulator {
            imperfections: CirculatorImperfections {
                faraday_error: deg.to_radians(),
                pbs_leak: 0.0,
                pass_loss: Db(0.0),
            },
        };
        let i1 = mk(0.25).isolation().db();
        let i2 = mk(0.5).isolation().db();
        // Doubling the angle error costs ~6 dB (power ∝ sin²(2ε) ≈ 4ε²).
        assert!(
            close(i1 - i2, -6.0, 0.3),
            "i(0.25°)={i1:.1}, i(0.5°)={i2:.1}"
        );
    }

    #[test]
    fn insertion_loss_matches_component_budget() {
        let c = Circulator::production();
        let il = c.insertion_loss().db();
        // Pass loss 0.8 dB plus the tiny rotation-error loss.
        assert!((0.8..1.0).contains(&il), "IL {il}");
    }

    #[test]
    fn isolation_feeds_the_mpi_budget_consistently() {
        // The default isolation constant used by the MPI budget should be
        // achievable by a production-grade device.
        let c = Circulator::production();
        assert!(
            c.isolation().db() <= crate::mpi::CIRCULATOR_ISOLATION_DB + 3.0,
            "MPI budget assumes {} dB; device delivers {}",
            crate::mpi::CIRCULATOR_ISOLATION_DB,
            c.isolation()
        );
    }

    #[test]
    fn matrix_algebra_sanity() {
        let r90 = PolMatrix::rotation(std::f64::consts::FRAC_PI_2);
        let v = r90.apply([1.0, 0.0]);
        assert!(close(v[0], 0.0, 1e-12) && close(v[1], 1.0, 1e-12));
        // Rotations compose.
        let a = PolMatrix::rotation(0.3).then(PolMatrix::rotation(0.4));
        let b = PolMatrix::rotation(0.7);
        for i in 0..2 {
            for j in 0..2 {
                assert!(close(a.0[i][j], b.0[i][j], 1e-12));
            }
        }
    }
}
