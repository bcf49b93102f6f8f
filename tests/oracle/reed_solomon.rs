//! Frozen textbook RS implementation — the behavioral oracle for the fast
//! kernels in `lightwave::fec::rs` (DESIGN §6.8).
//!
//! This module is the pre-kernel encoder/decoder, kept verbatim (it was
//! `lightwave::fec::reference` until it moved here beside the other
//! oracles): scalar Horner syndromes, allocating Berlekamp–Massey,
//! full-scan Chien search, and a full syndrome recomputation for the
//! post-correction check. It is deliberately boring and must stay that
//! way: the golden vectors in `tests/fec_vectors.rs` and the differential
//! proptests in `tests/fec_differential.rs` treat it as ground truth.

use lightwave::fec::gf::{self, Gf};
use lightwave::fec::rs::TooManyErrors;

/// The textbook systematic RS(n, k) codec over GF(2¹⁰).
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceRs {
    n: usize,
    k: usize,
    /// Generator polynomial, lowest-degree coefficient first; degree = n−k.
    generator: Vec<Gf>,
}

impl ReferenceRs {
    /// Constructs the reference RS(n, k) with the same generator
    /// construction as `ReedSolomon::new`.
    ///
    /// # Panics
    /// Panics unless `k < n ≤ 1023` and `n − k` is even.
    pub fn new(n: usize, k: usize) -> ReferenceRs {
        assert!(n <= gf::GROUP_ORDER, "n must be ≤ 1023 for GF(2^10)");
        assert!(k < n, "k must be < n");
        assert!(
            (n - k).is_multiple_of(2),
            "n − k must be even (2t parity symbols)"
        );
        // g(x) = Π_{i=0}^{2t-1} (x − α^i); lowest-degree first.
        let two_t = n - k;
        let mut g: Vec<Gf> = vec![1];
        for i in 0..two_t {
            let root = gf::alpha_pow(i as i64);
            let mut next = vec![0 as Gf; g.len() + 1];
            for (j, &c) in g.iter().enumerate() {
                next[j + 1] ^= c; // · x
                next[j] ^= gf::mul(c, root); // · root
            }
            g = next;
        }
        ReferenceRs { n, k, generator: g }
    }

    /// Builds a reference codec sharing an existing generator polynomial.
    pub fn from_parts(n: usize, k: usize, generator: Vec<Gf>) -> ReferenceRs {
        assert_eq!(generator.len(), n - k + 1, "generator degree must be n−k");
        ReferenceRs { n, k, generator }
    }

    /// Codeword length in symbols.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message length in symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Correctable symbol errors per codeword.
    pub fn t(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Encodes `data` (length k) into a codeword `[data | parity]` of
    /// length n — per-symbol scalar synthetic division.
    ///
    /// # Panics
    /// Panics if `data.len() != k` or any symbol exceeds 10 bits.
    pub fn encode(&self, data: &[Gf]) -> Vec<Gf> {
        assert_eq!(data.len(), self.k, "data must be exactly k symbols");
        assert!(
            data.iter().all(|&s| (s as usize) < gf::FIELD_SIZE),
            "symbols must fit in 10 bits"
        );
        let two_t = self.n - self.k;
        // Compute remainder of d(x)·x^{2t} divided by g(x) via synthetic
        // division. `rem` holds coefficients highest-degree-first.
        let mut rem = vec![0 as Gf; two_t];
        for &d in data {
            let feedback = gf::add(d, rem[0]);
            // Shift left and subtract feedback·g.
            for j in 0..two_t - 1 {
                rem[j] = gf::add(rem[j + 1], gf::mul(feedback, self.generator[two_t - 1 - j]));
            }
            rem[two_t - 1] = gf::mul(feedback, self.generator[0]);
        }
        let mut cw = Vec::with_capacity(self.n);
        cw.extend_from_slice(data);
        cw.extend_from_slice(&rem);
        cw
    }

    /// Computes the 2t syndromes of `received` with one scalar Horner
    /// sweep per syndrome.
    pub fn syndromes(&self, received: &[Gf]) -> Vec<Gf> {
        assert_eq!(received.len(), self.n, "received word must be n symbols");
        let two_t = self.n - self.k;
        (0..two_t)
            .map(|j| {
                // S_j = r(α^j) with r(x) = Σ_i v_i x^{n-1-i}.
                let alpha_j = gf::alpha_pow(j as i64);
                let mut acc: Gf = 0;
                for &v in received {
                    acc = gf::add(gf::mul(acc, alpha_j), v);
                }
                acc
            })
            .collect()
    }

    /// Decodes in place, returning the number of symbol errors corrected —
    /// the textbook Berlekamp–Massey / Chien / Forney pipeline.
    pub fn decode(&self, received: &mut [Gf]) -> Result<usize, TooManyErrors> {
        let synd = self.syndromes(received);
        if synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        let sigma = berlekamp_massey(&synd);
        let nu = sigma.len() - 1;
        if nu > self.t() {
            return Err(TooManyErrors);
        }
        // Chien search restricted to valid (possibly shortened) positions.
        let mut error_positions = Vec::with_capacity(nu);
        for pos in 0..self.n {
            // Error at vector index i ↔ polynomial degree p = n−1−i,
            // locator X = α^p; σ has roots at X⁻¹.
            let p = (self.n - 1 - pos) as i64;
            let x_inv = gf::alpha_pow(-p);
            if gf::poly_eval(&sigma, x_inv) == 0 {
                error_positions.push(pos);
            }
        }
        if error_positions.len() != nu {
            return Err(TooManyErrors);
        }
        // Forney: Ω(x) = S(x)·σ(x) mod x^{2t};  e = X·Ω(X⁻¹)/σ'(X⁻¹).
        let omega = poly_mul_mod(&synd, &sigma, self.n - self.k);
        let sigma_deriv = formal_derivative(&sigma);
        for &pos in &error_positions {
            let p = (self.n - 1 - pos) as i64;
            let x = gf::alpha_pow(p);
            let x_inv = gf::alpha_pow(-p);
            let num = gf::poly_eval(&omega, x_inv);
            let den = gf::poly_eval(&sigma_deriv, x_inv);
            if den == 0 {
                return Err(TooManyErrors);
            }
            let magnitude = gf::mul(x, gf::div(num, den));
            received[pos] = gf::add(received[pos], magnitude);
        }
        // Re-check: a miscorrection beyond t can leave bad syndromes.
        if self.syndromes(received).iter().any(|&s| s != 0) {
            return Err(TooManyErrors);
        }
        Ok(nu)
    }
}

/// Berlekamp-Massey: finds the minimal σ(x) (lowest-degree-first,
/// σ(0) = 1) with the syndrome recurrence.
fn berlekamp_massey(synd: &[Gf]) -> Vec<Gf> {
    let mut sigma: Vec<Gf> = vec![1];
    let mut b: Vec<Gf> = vec![1];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut bb: Gf = 1;
    for n in 0..synd.len() {
        let mut d: Gf = synd[n];
        for i in 1..=l {
            if i < sigma.len() {
                d = gf::add(d, gf::mul(sigma[i], synd[n - i]));
            }
        }
        if d == 0 {
            m += 1;
        } else if 2 * l <= n {
            let t = sigma.clone();
            let coef = gf::div(d, bb);
            // σ = σ − (d/b)·x^m·B
            let needed = b.len() + m;
            if sigma.len() < needed {
                sigma.resize(needed, 0);
            }
            for (i, &bi) in b.iter().enumerate() {
                sigma[i + m] = gf::add(sigma[i + m], gf::mul(coef, bi));
            }
            l = n + 1 - l;
            b = t;
            bb = d;
            m = 1;
        } else {
            let coef = gf::div(d, bb);
            let needed = b.len() + m;
            if sigma.len() < needed {
                sigma.resize(needed, 0);
            }
            for (i, &bi) in b.iter().enumerate() {
                sigma[i + m] = gf::add(sigma[i + m], gf::mul(coef, bi));
            }
            m += 1;
        }
    }
    // Trim trailing zeros so deg(σ) is meaningful.
    while sigma.len() > 1 && *sigma.last().expect("non-empty") == 0 {
        sigma.pop();
    }
    sigma
}

/// (a·b) mod x^cap, coefficients lowest-degree-first.
fn poly_mul_mod(a: &[Gf], b: &[Gf], cap: usize) -> Vec<Gf> {
    let mut out = vec![0 as Gf; cap.min(a.len() + b.len())];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 || i >= cap {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            if i + j >= cap {
                break;
            }
            out[i + j] = gf::add(out[i + j], gf::mul(ai, bj));
        }
    }
    out
}

/// Formal derivative in characteristic 2: odd-degree terms survive.
fn formal_derivative(p: &[Gf]) -> Vec<Gf> {
    if p.len() <= 1 {
        return vec![0];
    }
    let mut d = vec![0 as Gf; p.len() - 1];
    for (i, &c) in p.iter().enumerate().skip(1) {
        if i % 2 == 1 {
            d[i - 1] = c;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_its_own_history() {
        // Sanity: the frozen codec corrects what it always corrected.
        let rs = ReferenceRs::new(15, 11);
        let data: Vec<Gf> = (1..=11).collect();
        let cw = rs.encode(&data);
        assert!(rs.syndromes(&cw).iter().all(|&s| s == 0));
        let mut rx = cw.clone();
        rx[2] ^= 0x3F;
        rx[13] ^= 0x101;
        assert_eq!(rs.decode(&mut rx), Ok(2));
        assert_eq!(rx, cw);
        assert_eq!((rs.n(), rs.k(), rs.t()), (15, 11, 2));
    }
}
