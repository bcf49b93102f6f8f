//! Special functions for BER and reliability modeling.
//!
//! Rust's `std` has no error function, so we provide an `erfc` accurate to
//! ~1.2e-7 relative error (Numerical Recipes' Chebyshev fit), a Gaussian
//! Q-function built on it, and a Newton-refined inverse Q-function. That
//! accuracy comfortably exceeds what link-budget models need (BER curves are
//! plotted on log axes spanning ten decades).

/// Complementary error function, `erfc(x) = 1 - erf(x)`.
///
/// Uses the Chebyshev-fitted approximation from Numerical Recipes §6.2 with
/// relative error ≤ 1.2×10⁻⁷ everywhere.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The Gaussian tail probability `Q(x) = P(N(0,1) > x) = erfc(x/√2) / 2`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse of [`q_function`]: given a tail probability `p ∈ (0, 0.5]`,
/// returns `x` such that `Q(x) = p`.
///
/// Uses the Acklam-style rational initial guess for the normal quantile
/// followed by two Newton steps on `Q`, giving ~1e-12 relative accuracy over
/// the BER range of interest (1e-15 .. 0.5).
///
/// # Panics
/// Panics if `p` is not in `(0, 1)`.
pub fn q_inverse(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "tail probability must be in (0,1), got {p}"
    );
    // Q(x) = p  ⇔  x = Φ⁻¹(1 - p) = -Φ⁻¹(p).
    let mut x = -norm_quantile(p);
    // Newton refinement: Q'(x) = -φ(x).
    for _ in 0..3 {
        let q = q_function(x);
        let pdf = (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
        if pdf == 0.0 {
            break;
        }
        x -= (p - q) / pdf;
    }
    x
}

/// Peter Acklam's rational approximation to the standard normal quantile
/// function Φ⁻¹(p); relative error < 1.15e-9 before refinement.
#[allow(clippy::excessive_precision)] // coefficients kept verbatim from Acklam
fn norm_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Natural-log of the binomial coefficient `C(n, k)`, via `ln Γ`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "k={k} > n={n} in binomial");
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Lanczos approximation of `ln Γ(x)` for `x > 0` (~1e-13 accuracy).
#[allow(clippy::excessive_precision)] // g=7, n=9 coefficients kept verbatim
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Probability that a Binomial(n, p) exceeds `k` successes, `P(X > k)`.
///
/// Computed by direct summation in log space; fine for the block lengths
/// (n ≤ a few thousand) used by FEC threshold models.
pub fn binomial_tail_gt(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return if k < n { 1.0 } else { 0.0 };
    }
    let ln_p = p.ln();
    let ln_1mp = (-p).ln_1p(); // ln(1 − p), accurate for small p
    let mut sum = 0.0;
    for i in (k + 1)..=n {
        let ln_term = ln_binomial(n, i) + (i as f64) * ln_p + ((n - i) as f64) * ln_1mp;
        sum += ln_term.exp();
    }
    sum.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn erfc_known_values() {
        assert!(close(erfc(0.0), 1.0, 1e-7));
        assert!(close(erfc(1.0), 0.157_299_2, 1e-6));
        assert!(close(erfc(2.0), 0.004_677_73, 1e-7));
        assert!(close(erfc(-1.0), 2.0 - 0.157_299_2, 1e-6));
    }

    #[test]
    fn erf_is_odd() {
        // erf = 1 − erfc is odd: erfc(x) + erfc(−x) = 2.
        let erf = |x: f64| 1.0 - erfc(x);
        for &x in &[0.1, 0.7, 1.3, 2.9] {
            assert!(close(erf(x), -erf(-x), 1e-12));
        }
    }

    #[test]
    fn q_function_known_values() {
        assert!(close(q_function(0.0), 0.5, 1e-7));
        assert!(close(q_function(1.0), 0.158_655, 1e-5));
        assert!(close(q_function(3.0), 1.349_9e-3, 1e-6));
        // Q(7.034) ≈ 1e-12
        assert!(close(q_function(7.034).log10(), -12.0, 0.02));
    }

    #[test]
    fn q_inverse_roundtrip() {
        for &p in &[0.4, 1e-2, 1e-4, 1e-8, 1e-12] {
            let x = q_inverse(p);
            assert!(
                close(q_function(x).log10(), p.log10(), 1e-9),
                "roundtrip failed at p={p}: x={x}, Q(x)={}",
                q_function(x)
            );
        }
    }

    #[test]
    #[should_panic(expected = "tail probability")]
    fn q_inverse_rejects_zero() {
        let _ = q_inverse(0.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert!(close(ln_gamma(5.0), (24.0f64).ln(), 1e-10));
        assert!(close(ln_gamma(11.0), (3_628_800.0f64).ln(), 1e-9));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-10
        ));
    }

    #[test]
    fn binomial_tail_sanity() {
        // Fair coin, 10 flips, P[X > 5] = P[6..10] = 386/1024.
        assert!(close(binomial_tail_gt(10, 5, 0.5), 386.0 / 1024.0, 1e-10));
        // Certain failure probability edge cases.
        assert_eq!(binomial_tail_gt(10, 5, 0.0), 0.0);
        assert_eq!(binomial_tail_gt(10, 5, 1.0), 1.0);
        assert_eq!(binomial_tail_gt(10, 10, 1.0), 0.0);
    }

    #[test]
    fn binomial_tail_asymmetric_p_regression() {
        // Regression for a sign slip where ln(1−p) was computed as ln(p):
        // only symmetric p = 0.5 cases could pass. Cross-checked value:
        // P[Binomial(544, 0.019821) > 15] ≈ 0.0794.
        let t = binomial_tail_gt(544, 15, 0.019_820_956_648);
        assert!((t - 0.0794).abs() < 1e-3, "got {t}");
        // And a small-p tail: P[Binomial(100, 1e-3) > 2] ≈ 1.504e-4.
        let s = binomial_tail_gt(100, 2, 1e-3);
        assert!((s / 1.504e-4 - 1.0).abs() < 0.01, "got {s}");
    }

    #[test]
    fn binomial_tail_is_monotone_in_p() {
        let mut prev = 0.0;
        for i in 1..=9 {
            let p = i as f64 / 10.0;
            let tail = binomial_tail_gt(100, 30, p);
            assert!(tail >= prev, "tail not monotone at p={p}");
            prev = tail;
        }
    }
}
