//! Arithmetic over GF(2¹⁰), the symbol field of the KP4 RS(544,514) code.
//!
//! Elements are 10-bit values; multiplication uses log/antilog tables built
//! from the primitive polynomial x¹⁰ + x³ + 1 (0x409), the polynomial used
//! by IEEE 802.3 clause 91 KP4 FEC.
//!
//! The tables are `const`-built flat arrays — there is no lazy
//! initialization, so first use from concurrent threads is trivially safe
//! and every multiply is a pair of loads with no branch on zero: `log` maps
//! 0 to a sentinel past the group order, and the antilog table is
//! zero-padded so any product involving the sentinel lands on 0.

/// Field order.
pub(crate) const FIELD_SIZE: usize = 1024;
/// Multiplicative-group order (= FIELD_SIZE − 1).
pub(crate) const GROUP_ORDER: usize = FIELD_SIZE - 1;
/// Primitive polynomial x¹⁰ + x³ + 1.
const PRIMITIVE_POLY: u32 = 0x409;

/// A GF(2¹⁰) element (only the low 10 bits are meaningful).
pub type Gf = u16;

/// Sentinel "log of zero": past any real log sum, indexing the zero-padded
/// region of [`EXP_MUL`].
const LOG_ZERO: u16 = 2 * GROUP_ORDER as u16;

/// exp\[i\] = α^i for i in 0..2·GROUP_ORDER (doubled to skip mod in mul).
static EXP: [Gf; 2 * GROUP_ORDER] = build_exp();
/// log\[x\] = i such that α^i = x for x ≥ 1; log\[0\] = the [`LOG_ZERO`] sentinel.
static LOG: [u16; FIELD_SIZE] = build_log();
/// Antilog extended with zeros so `EXP_MUL[log a + log b]` is correct even
/// when either log is the zero sentinel (max index 2·LOG_ZERO = 4092).
static EXP_MUL: [Gf; 4096] = build_exp_mul();

const fn build_exp() -> [Gf; 2 * GROUP_ORDER] {
    let mut exp = [0 as Gf; 2 * GROUP_ORDER];
    let mut x: u32 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x as Gf;
        exp[i + GROUP_ORDER] = x as Gf;
        x <<= 1;
        if x & (FIELD_SIZE as u32) != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    exp
}

const fn build_log() -> [u16; FIELD_SIZE] {
    let exp = build_exp();
    let mut log = [LOG_ZERO; FIELD_SIZE];
    let mut i = 0;
    while i < GROUP_ORDER {
        log[exp[i] as usize] = i as u16;
        i += 1;
    }
    log
}

const fn build_exp_mul() -> [Gf; 4096] {
    let exp = build_exp();
    let mut ext = [0 as Gf; 4096];
    let mut i = 0;
    while i < 2 * GROUP_ORDER {
        ext[i] = exp[i];
        i += 1;
    }
    ext
}

/// Field addition (= subtraction): XOR.
#[inline]
pub fn add(a: Gf, b: Gf) -> Gf {
    a ^ b
}

/// Field multiplication (branch-free: two log loads, one padded antilog load).
#[inline]
pub fn mul(a: Gf, b: Gf) -> Gf {
    EXP_MUL[(LOG[a as usize] + LOG[b as usize]) as usize]
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics on zero (zero has no inverse).
#[inline]
pub(crate) fn inv(a: Gf) -> Gf {
    assert!(a != 0, "zero has no multiplicative inverse in GF(2^10)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
/// Panics if `b` is zero.
#[inline]
pub(crate) fn div(a: Gf, b: Gf) -> Gf {
    mul(a, inv(b))
}

/// `α^i` for any integer exponent (reduced mod the group order).
#[inline]
pub(crate) fn alpha_pow(i: i64) -> Gf {
    let e = i.rem_euclid(GROUP_ORDER as i64) as usize;
    EXP[e]
}

/// Discrete log base α.
///
/// # Panics
/// Panics on zero.
#[inline]
pub fn log(a: Gf) -> u16 {
    assert!(a != 0, "zero has no discrete log");
    LOG[a as usize]
}

/// Evaluates a polynomial (coefficients lowest-degree first) at `x`.
pub(crate) fn poly_eval(coeffs: &[Gf], x: Gf) -> Gf {
    let mut acc: Gf = 0;
    for &c in coeffs.iter().rev() {
        acc = add(mul(acc, x), c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_generates_the_whole_group() {
        let mut seen = vec![false; FIELD_SIZE];
        for i in 0..GROUP_ORDER as i64 {
            let x = alpha_pow(i);
            assert!(x != 0);
            assert!(!seen[x as usize], "α^{i} repeated — poly not primitive");
            seen[x as usize] = true;
        }
    }

    #[test]
    fn mul_is_commutative_and_associative_spot_check() {
        for &(a, b, c) in &[(3u16, 7u16, 1000u16), (512, 513, 2), (1023, 1023, 1023)] {
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }
    }

    #[test]
    fn mul_by_zero_is_zero_everywhere() {
        for a in 0..FIELD_SIZE as Gf {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for a in 1..FIELD_SIZE as Gf {
            assert_eq!(mul(a, inv(a)), 1, "a·a⁻¹ ≠ 1 for a = {a}");
        }
    }

    #[test]
    fn distributive_law_spot_check() {
        for &(a, b, c) in &[(5u16, 100u16, 900u16), (1023, 1, 2), (77, 88, 99)] {
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }
    }

    #[test]
    fn division_roundtrip() {
        for &(a, b) in &[(42u16, 999u16), (1, 1023), (1000, 3)] {
            assert_eq!(mul(div(a, b), b), a);
        }
    }

    #[test]
    fn poly_eval_horner() {
        // p(x) = 1 + x: p(α) = 1 ^ α.
        let alpha = alpha_pow(1);
        assert_eq!(poly_eval(&[1, 1], alpha), add(1, alpha));
        // Constant polynomial.
        assert_eq!(poly_eval(&[7], 123), 7);
        // Empty polynomial is zero.
        assert_eq!(poly_eval(&[], 5), 0);
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn alpha_pow_wraps_negative_exponents() {
        assert_eq!(alpha_pow(-1), inv(alpha_pow(1)));
        assert_eq!(alpha_pow(GROUP_ORDER as i64), 1);
        assert_eq!(alpha_pow(0), 1);
    }

    /// Regression for the former lazy-`tables()` sharp edge: two threads
    /// racing the very first field use must agree on every product. With
    /// const tables there is no initialization to race, and this pins it.
    #[test]
    fn concurrent_first_use_agrees() {
        let worker = || -> Vec<Gf> {
            (0..FIELD_SIZE as Gf)
                .map(|x| mul(x, x.wrapping_mul(997) % FIELD_SIZE as Gf) ^ alpha_pow(x as i64))
                .collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let ha = s.spawn(worker);
            let hb = s.spawn(worker);
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(a, b);
    }
}
