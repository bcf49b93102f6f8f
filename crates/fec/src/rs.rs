//! Reed-Solomon coding over GF(2¹⁰) — the "KP4" RS(544,514) outer code.
//!
//! KP4 (IEEE 802.3 clause 91, reused by 802.3bs/cd/ck at PAM4 rates) is the
//! workhorse outer code of every transceiver in the paper. It corrects
//! t = 15 symbol errors per 544-symbol codeword, and its celebrated
//! *threshold* — pre-FEC BER of 2×10⁻⁴ yielding effectively error-free
//! output — is the horizontal line drawn across Figs. 11–13.
//!
//! The hot paths are table-driven kernels (DESIGN §6.8): encode is an LFSR
//! whose feedback taps are one precomputed row XOR per message symbol,
//! syndromes/Chien run on precomputed ×α^j stride tables, and decode works
//! entirely out of a caller-owned [`RsScratch`] so the steady state
//! allocates nothing. Every kernel is bit-identical to the frozen textbook
//! implementation in `tests/oracle/reed_solomon.rs` — enforced by golden
//! vectors and differential proptests.

use crate::gf::{self, Gf, MulTable};
use crate::scratch::RsScratch;
use serde::de::DeError;
use serde::{Content, Deserialize, Serialize};

/// Decoding failure: more errors than the code can correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TooManyErrors;

impl std::fmt::Display for TooManyErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncorrectable codeword: error weight exceeds t")
    }
}

impl std::error::Error for TooManyErrors {}

/// Precomputed multiply tables for the fast encode/decode kernels.
///
/// Rebuilt from `(n, k, generator)` on construction and deserialization;
/// never serialized or compared.
#[derive(Clone)]
struct Kernel {
    /// `FIELD_SIZE` rows of `2t` symbols: row `fb` holds
    /// `fb·g_{2t−1−j}` at offset `j` — the reversed generator scaled by
    /// every possible LFSR feedback value, so one encode step is a shift
    /// plus one contiguous row XOR.
    feedback: Vec<Gf>,
    /// `strides[j]` multiplies by α^j: the Horner step for syndrome `j`
    /// and the per-coefficient step of the Chien search.
    strides: Vec<MulTable>,
}

impl Kernel {
    fn build(generator: &[Gf], two_t: usize) -> Kernel {
        let mut grev = vec![0 as Gf; two_t];
        for (j, slot) in grev.iter_mut().enumerate() {
            *slot = generator[two_t - 1 - j];
        }
        let mut feedback = vec![0 as Gf; gf::FIELD_SIZE * two_t];
        for (fb, row) in feedback.chunks_exact_mut(two_t).enumerate() {
            row.copy_from_slice(&grev);
            gf::mul_slice(fb as Gf, row);
        }
        let strides = (0..two_t)
            .map(|j| MulTable::alpha_stride(j as i64))
            .collect();
        Kernel { feedback, strides }
    }
}

/// A systematic Reed-Solomon code RS(n, k) over GF(2¹⁰).
#[derive(Clone)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Generator polynomial, lowest-degree coefficient first; degree = n−k.
    generator: Vec<Gf>,
    kernel: Kernel,
}

impl std::fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReedSolomon")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("generator", &self.generator)
            .finish()
    }
}

/// Identity is the code, not the derived tables.
impl PartialEq for ReedSolomon {
    fn eq(&self, other: &ReedSolomon) -> bool {
        self.n == other.n && self.k == other.k && self.generator == other.generator
    }
}

/// The serialized shape (same field names the old derived impl produced,
/// so on-disk artifacts and cross-type comparisons are unchanged).
#[derive(Serialize, Deserialize)]
struct Wire {
    n: usize,
    k: usize,
    generator: Vec<Gf>,
}

impl Serialize for ReedSolomon {
    fn to_content(&self) -> Content {
        Wire {
            n: self.n,
            k: self.k,
            generator: self.generator.clone(),
        }
        .to_content()
    }
}

impl<'de> Deserialize<'de> for ReedSolomon {
    fn from_content(content: &Content) -> Result<ReedSolomon, DeError> {
        let wire = Wire::from_content(content)?;
        if wire.n > gf::GROUP_ORDER
            || wire.k >= wire.n
            || wire.generator.len() != wire.n - wire.k + 1
        {
            return Err(DeError::custom("inconsistent ReedSolomon parameters"));
        }
        Ok(ReedSolomon::from_parts(wire.n, wire.k, wire.generator))
    }
}

impl ReedSolomon {
    /// Constructs RS(n, k).
    ///
    /// # Panics
    /// Panics unless `k < n ≤ 1023` and `n − k` is even.
    pub fn new(n: usize, k: usize) -> ReedSolomon {
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
            // Multiply g by (x + root)  (minus == plus in GF(2^m)).
            let mut next = vec![0 as Gf; g.len() + 1];
            for (j, &c) in g.iter().enumerate() {
                next[j + 1] ^= c; // · x
                next[j] ^= gf::mul(c, root); // · root
            }
            g = next;
        }
        ReedSolomon::from_parts(n, k, g)
    }

    fn from_parts(n: usize, k: usize, generator: Vec<Gf>) -> ReedSolomon {
        let kernel = Kernel::build(&generator, n - k);
        ReedSolomon {
            n,
            k,
            generator,
            kernel,
        }
    }

    /// The KP4 code: RS(544, 514), t = 15, 10-bit symbols.
    pub fn kp4() -> ReedSolomon {
        ReedSolomon::new(544, 514)
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

    /// Code rate k/n.
    pub fn rate(&self) -> f64 {
        self.k as f64 / self.n as f64
    }

    /// Encodes `data` (length k) into a codeword `[data | parity]` of
    /// length n. Codeword index 0 is the highest-degree coefficient.
    ///
    /// # Panics
    /// Panics if `data.len() != k` or any symbol exceeds 10 bits.
    pub fn encode(&self, data: &[Gf]) -> Vec<Gf> {
        let mut cw = Vec::new();
        self.encode_into(data, &mut cw);
        cw
    }

    /// [`encode`](Self::encode) into a reusable buffer (cleared first), so
    /// steady-state encoding allocates nothing.
    pub fn encode_into(&self, data: &[Gf], cw: &mut Vec<Gf>) {
        assert_eq!(data.len(), self.k, "data must be exactly k symbols");
        assert!(
            data.iter().all(|&s| (s as usize) < gf::FIELD_SIZE),
            "symbols must fit in 10 bits"
        );
        let two_t = self.n - self.k;
        cw.clear();
        cw.reserve(self.n);
        cw.extend_from_slice(data);
        cw.resize(self.n, 0);
        // Remainder of d(x)·x^{2t} divided by g(x) via synthetic division:
        // per symbol, shift the remainder register and XOR the precomputed
        // feedback row for fb = d ⊕ rem[0] (row j = fb·g_{2t−1−j}).
        let rem = &mut cw[self.k..];
        for &d in data {
            let fb = (d ^ rem[0]) as usize;
            let row = &self.kernel.feedback[fb * two_t..(fb + 1) * two_t];
            rem.copy_within(1.., 0);
            rem[two_t - 1] = 0;
            for (r, &f) in rem.iter_mut().zip(row) {
                *r ^= f;
            }
        }
    }

    /// Computes the 2t syndromes of `received`; all-zero means a valid
    /// codeword (or an undetectable error pattern).
    pub fn syndromes(&self, received: &[Gf]) -> Vec<Gf> {
        let mut synd = Vec::new();
        self.syndromes_into(received, &mut synd);
        synd
    }

    /// Transposed-Horner syndromes: one pass over the word updating all 2t
    /// accumulators through the ×α^j stride tables — 2t independent
    /// dependency chains instead of 2t serial Horner sweeps.
    fn syndromes_into(&self, received: &[Gf], synd: &mut Vec<Gf>) {
        assert_eq!(received.len(), self.n, "received word must be n symbols");
        let two_t = self.n - self.k;
        synd.clear();
        synd.resize(two_t, 0);
        let strides = &self.kernel.strides;
        for &v in received {
            for (s, stride) in synd.iter_mut().zip(strides) {
                *s = stride.mul(*s) ^ v;
            }
        }
    }

    /// Decodes in place, returning the number of symbol errors corrected.
    ///
    /// Returns `Err(TooManyErrors)` when the error weight exceeds t (the
    /// usual detected-uncorrectable case). As with any bounded-distance
    /// decoder, patterns far beyond t can occasionally miscorrect.
    pub fn decode(&self, received: &mut [Gf]) -> Result<usize, TooManyErrors> {
        let mut scratch = RsScratch::new();
        self.decode_with(received, &mut scratch)
    }

    /// [`decode`](Self::decode) using caller-owned scratch buffers, so a
    /// steady-state decode loop allocates nothing.
    pub fn decode_with(
        &self,
        received: &mut [Gf],
        scratch: &mut RsScratch,
    ) -> Result<usize, TooManyErrors> {
        let two_t = self.n - self.k;
        self.syndromes_into(received, &mut scratch.synd);
        if scratch.synd.iter().all(|&s| s == 0) {
            return Ok(0);
        }
        berlekamp_massey_into(
            &scratch.synd,
            &mut scratch.sigma,
            &mut scratch.prev,
            &mut scratch.tmp,
        );
        let nu = scratch.sigma.len() - 1;
        if nu > self.t() {
            return Err(TooManyErrors);
        }
        // Chien search restricted to valid (possibly shortened) positions,
        // as stepping registers: term_k holds σ_k·(α^{−p})^k for the
        // current position's locator degree p = n−1−pos, advanced one ×α^k
        // table load per coefficient per position. σ (degree ν) has at most
        // ν roots, so the scan can stop as soon as ν are found.
        let sigma = &scratch.sigma;
        scratch.term.clear();
        scratch.term.resize(nu + 1, 0);
        let p0 = (self.n - 1) as i64;
        for (k, (term, &s)) in scratch.term.iter_mut().zip(sigma).enumerate().skip(1) {
            *term = gf::mul(s, gf::alpha_pow(-(k as i64) * p0));
        }
        scratch.positions.clear();
        let strides = &self.kernel.strides[1..=nu];
        for pos in 0..self.n {
            // σ(0) = 1 by construction, so the constant term is 1.
            let mut eval: Gf = 1;
            for (term, stride) in scratch.term[1..=nu].iter_mut().zip(strides) {
                eval ^= *term;
                *term = stride.mul(*term);
            }
            if eval == 0 {
                scratch.positions.push(pos);
                if scratch.positions.len() == nu {
                    break;
                }
            }
        }
        if scratch.positions.len() != nu {
            return Err(TooManyErrors);
        }
        // Forney: Ω(x) = S(x)·σ(x) mod x^{2t};  e = X·Ω(X⁻¹)/σ'(X⁻¹).
        poly_mul_mod_into(&scratch.synd, &scratch.sigma, two_t, &mut scratch.omega);
        formal_derivative_into(&scratch.sigma, &mut scratch.deriv);
        scratch.magnitudes.clear();
        for &pos in &scratch.positions {
            let p = (self.n - 1 - pos) as i64;
            let x = gf::alpha_pow(p);
            let x_inv = gf::alpha_pow(-p);
            let num = gf::poly_eval(&scratch.omega, x_inv);
            let den = gf::poly_eval(&scratch.deriv, x_inv);
            if den == 0 {
                return Err(TooManyErrors);
            }
            let magnitude = gf::mul(x, gf::div(num, den));
            received[pos] ^= magnitude;
            scratch.magnitudes.push(magnitude);
        }
        // Re-check: a miscorrection beyond t can leave bad syndromes. The
        // corrected word's syndromes are exactly S_j ⊕ Σ_i e_i·α^{j·p_i}
        // (GF arithmetic is exact), so fold the corrections into the
        // already-computed syndromes instead of rescanning all n symbols.
        for (&pos, &e) in scratch.positions.iter().zip(&scratch.magnitudes) {
            let x = gf::alpha_pow((self.n - 1 - pos) as i64);
            let mut y = e;
            for s in scratch.synd.iter_mut() {
                *s ^= y;
                y = gf::mul(y, x);
            }
        }
        if scratch.synd.iter().any(|&s| s != 0) {
            return Err(TooManyErrors);
        }
        Ok(nu)
    }

    /// Errata decoding: corrects ν errors plus μ *erasures* (positions
    /// known to be unreliable — e.g. symbols that arrived on a lane the
    /// DSP has declared dead) as long as `2ν + μ ≤ 2t`. With all 30 KP4
    /// parity symbols spent on erasures, a codeword survives a burst twice
    /// as long as blind decoding could handle.
    ///
    /// Returns `(errors_corrected, erasures_filled)`.
    pub fn decode_errata(
        &self,
        received: &mut [Gf],
        erasures: &[usize],
    ) -> Result<(usize, usize), TooManyErrors> {
        let two_t = self.n - self.k;
        let mu = erasures.len();
        if mu > two_t {
            return Err(TooManyErrors);
        }
        assert!(
            erasures.iter().all(|&p| p < self.n),
            "erasure positions must be in range"
        );
        {
            let mut sorted = erasures.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), mu, "erasure positions must be distinct");
        }
        let synd = self.syndromes(received);
        if synd.iter().all(|&s| s == 0) {
            return Ok((0, 0)); // also covers erased-but-actually-correct
        }

        // Erasure locator Λ(x) = Π (1 − X_j x), lowest-degree first.
        let mut lambda: Vec<Gf> = vec![1];
        for &pos in erasures {
            let x_j = gf::alpha_pow((self.n - 1 - pos) as i64);
            let mut next = vec![0 as Gf; lambda.len() + 1];
            for (i, &c) in lambda.iter().enumerate() {
                next[i] = gf::add(next[i], c);
                next[i + 1] = gf::add(next[i + 1], gf::mul(c, x_j));
            }
            lambda = next;
        }

        // Modified syndromes Ξ = S·Λ mod x^{2t}; BM on the tail Ξ[μ..]
        // finds the *error* locator σ with ν ≤ (2t − μ)/2.
        let xi = poly_mul_mod(&synd, &lambda, two_t);
        let sigma = if mu < two_t {
            berlekamp_massey(&xi[mu..])
        } else {
            vec![1]
        };
        let nu = sigma.len() - 1;
        if 2 * nu + mu > two_t {
            return Err(TooManyErrors);
        }

        // Chien search for the error positions (erasures excluded).
        let mut error_positions = Vec::with_capacity(nu);
        if nu > 0 {
            for pos in 0..self.n {
                let p = (self.n - 1 - pos) as i64;
                if gf::poly_eval(&sigma, gf::alpha_pow(-p)) == 0 {
                    error_positions.push(pos);
                }
            }
            if error_positions.len() != nu {
                return Err(TooManyErrors);
            }
        }

        // Errata locator Ψ = σ·Λ; evaluator Ω = S·Ψ mod x^{2t}.
        let psi = poly_mul_full(&sigma, &lambda);
        let omega = poly_mul_mod(&synd, &psi, two_t);
        let psi_deriv = formal_derivative(&psi);
        for &pos in error_positions.iter().chain(erasures.iter()) {
            let p = (self.n - 1 - pos) as i64;
            let x = gf::alpha_pow(p);
            let x_inv = gf::alpha_pow(-p);
            let num = gf::poly_eval(&omega, x_inv);
            let den = gf::poly_eval(&psi_deriv, x_inv);
            if den == 0 {
                return Err(TooManyErrors);
            }
            let magnitude = gf::mul(x, gf::div(num, den));
            received[pos] = gf::add(received[pos], magnitude);
        }
        if self.syndromes(received).iter().any(|&s| s != 0) {
            return Err(TooManyErrors);
        }
        Ok((nu, mu))
    }
}

/// Full polynomial product (no truncation), lowest-degree first.
fn poly_mul_full(a: &[Gf], b: &[Gf]) -> Vec<Gf> {
    let mut out = vec![0 as Gf; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] = gf::add(out[i + j], gf::mul(ai, bj));
        }
    }
    out
}

/// Berlekamp-Massey: finds the minimal σ(x) (lowest-degree-first,
/// σ(0) = 1) with the syndrome recurrence.
fn berlekamp_massey(synd: &[Gf]) -> Vec<Gf> {
    let mut sigma = Vec::new();
    let mut prev = Vec::new();
    let mut tmp = Vec::new();
    berlekamp_massey_into(synd, &mut sigma, &mut prev, &mut tmp);
    sigma
}

/// [`berlekamp_massey`] over caller-owned buffers: `sigma` receives σ,
/// `prev`/`tmp` are working storage for B(x). Step-for-step the same
/// update schedule as the textbook version, so σ is bit-identical.
fn berlekamp_massey_into(synd: &[Gf], sigma: &mut Vec<Gf>, prev: &mut Vec<Gf>, tmp: &mut Vec<Gf>) {
    sigma.clear();
    sigma.push(1);
    let b = prev;
    b.clear();
    b.push(1);
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
            tmp.clear();
            tmp.extend_from_slice(sigma);
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
            std::mem::swap(b, tmp);
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
}

/// (a·b) mod x^cap, coefficients lowest-degree-first.
fn poly_mul_mod(a: &[Gf], b: &[Gf], cap: usize) -> Vec<Gf> {
    let mut out = Vec::new();
    poly_mul_mod_into(a, b, cap, &mut out);
    out
}

/// [`poly_mul_mod`] into a caller-owned buffer.
fn poly_mul_mod_into(a: &[Gf], b: &[Gf], cap: usize, out: &mut Vec<Gf>) {
    out.clear();
    out.resize(cap.min(a.len() + b.len()), 0);
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 || i >= cap {
            continue;
        }
        let take = b.len().min(cap - i);
        gf::mul_add_slice(ai, &b[..take], &mut out[i..i + take]);
    }
}

/// Formal derivative in characteristic 2: odd-degree terms survive.
fn formal_derivative(p: &[Gf]) -> Vec<Gf> {
    let mut d = Vec::new();
    formal_derivative_into(p, &mut d);
    d
}

/// [`formal_derivative`] into a caller-owned buffer.
fn formal_derivative_into(p: &[Gf], d: &mut Vec<Gf>) {
    d.clear();
    if p.len() <= 1 {
        d.push(0);
        return;
    }
    d.resize(p.len() - 1, 0);
    for (i, &c) in p.iter().enumerate().skip(1) {
        if i % 2 == 1 {
            d[i - 1] = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_data(rs: &ReedSolomon, rng: &mut StdRng) -> Vec<Gf> {
        (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect()
    }

    #[test]
    fn kp4_parameters() {
        let rs = ReedSolomon::kp4();
        assert_eq!(rs.n(), 544);
        assert_eq!(rs.k(), 514);
        assert_eq!(rs.t(), 15);
        assert!((rs.rate() - 514.0 / 544.0).abs() < 1e-12);
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let rs = ReedSolomon::new(15, 11);
        let data: Vec<Gf> = (1..=11).collect();
        let cw = rs.encode(&data);
        assert_eq!(&cw[..11], data.as_slice());
        assert!(
            rs.syndromes(&cw).iter().all(|&s| s == 0),
            "codeword must be valid"
        );
    }

    #[test]
    fn corrects_up_to_t_errors_small_code() {
        let rs = ReedSolomon::new(15, 11); // t = 2
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..200 {
            let data = random_data(&rs, &mut rng);
            let cw = rs.encode(&data);
            let mut rx = cw.clone();
            let nerr = rng.random_range(0..=rs.t());
            let mut positions: Vec<usize> = (0..rs.n()).collect();
            for i in 0..nerr {
                let j = rng.random_range(i..positions.len());
                positions.swap(i, j);
                let pos = positions[i];
                let e = rng.random_range(1..1024u16);
                rx[pos] ^= e;
            }
            let corrected = rs
                .decode(&mut rx)
                .unwrap_or_else(|_| panic!("trial {trial}: decode failed with {nerr} errors"));
            assert_eq!(rx, cw, "trial {trial}");
            assert!(corrected <= nerr, "cannot correct more than injected");
        }
    }

    #[test]
    fn kp4_corrects_fifteen_errors() {
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(2);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        // 15 distinct positions.
        let mut pos: Vec<usize> = (0..rs.n()).collect();
        for i in 0..15 {
            let j = rng.random_range(i..pos.len());
            pos.swap(i, j);
            rx[pos[i]] ^= rng.random_range(1..1024u16);
        }
        assert_eq!(rs.decode(&mut rx).expect("15 errors are correctable"), 15);
        assert_eq!(rx, cw);
    }

    #[test]
    fn kp4_detects_sixteen_errors() {
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(3);
        let mut detected = 0;
        let trials = 20;
        for _ in 0..trials {
            let data = random_data(&rs, &mut rng);
            let cw = rs.encode(&data);
            let mut rx = cw.clone();
            let mut pos: Vec<usize> = (0..rs.n()).collect();
            for i in 0..16 {
                let j = rng.random_range(i..pos.len());
                pos.swap(i, j);
                rx[pos[i]] ^= rng.random_range(1..1024u16);
            }
            match rs.decode(&mut rx) {
                Err(TooManyErrors) => detected += 1,
                Ok(_) => assert_ne!(rx, cw, "cannot silently 'correct' 16 errors to truth"),
            }
        }
        assert!(
            detected >= trials - 1,
            "16 random errors should almost always be detected ({detected}/{trials})"
        );
    }

    #[test]
    fn zero_errors_decode_is_noop() {
        let rs = ReedSolomon::new(31, 25);
        let mut rng = StdRng::seed_from_u64(4);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        assert_eq!(rs.decode(&mut rx).unwrap(), 0);
        assert_eq!(rx, cw);
    }

    #[test]
    fn burst_of_t_adjacent_symbols_corrected() {
        // RS corrects any t symbol errors, including bursts — the reason
        // the concatenated design interleaves inner-code blocks.
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        for sym in &mut rx[100..115] {
            *sym ^= 0x2AA;
        }
        assert_eq!(rs.decode(&mut rx).unwrap(), 15);
        assert_eq!(rx, cw);
    }

    #[test]
    fn encode_into_and_decode_with_reuse_buffers() {
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(21);
        let mut cw = Vec::new();
        let mut scratch = RsScratch::new();
        for _ in 0..5 {
            let data = random_data(&rs, &mut rng);
            rs.encode_into(&data, &mut cw);
            assert_eq!(cw, rs.encode(&data));
            let mut rx = cw.clone();
            for i in 0..12 {
                rx[i * 41] ^= 0x155;
            }
            assert_eq!(rs.decode_with(&mut rx, &mut scratch), Ok(12));
            assert_eq!(rx, cw);
        }
    }

    #[test]
    fn serde_wire_format_is_plain_n_k_generator() {
        let rs = ReedSolomon::new(15, 11);
        let content = rs.to_content();
        assert_eq!(
            content.field("n"),
            Some(&Content::U64(15)),
            "wire format must keep the pre-kernel field layout"
        );
        assert!(content.field("generator").is_some());
        let back = ReedSolomon::from_content(&content).expect("roundtrip");
        assert_eq!(back, rs);
        // And a rebuilt kernel behaves identically.
        let data: Vec<Gf> = (1..=11).collect();
        assert_eq!(back.encode(&data), rs.encode(&data));
    }

    #[test]
    fn errata_erasures_only_doubles_capacity() {
        // 2ν + μ ≤ 2t: with pure erasures KP4 fills 30 symbols, twice its
        // blind-correction budget of 15.
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(11);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        let erasures: Vec<usize> = (0..30).map(|i| i * 17).collect();
        for &p in &erasures {
            rx[p] = rng.random_range(0..1024u16); // garbage (may even be right)
        }
        let (errs, eras) = rs
            .decode_errata(&mut rx, &erasures)
            .expect("30 erasures fit");
        assert_eq!(rx, cw);
        assert_eq!(eras, 30);
        assert_eq!(errs, 0);
    }

    #[test]
    fn errata_mixes_errors_and_erasures() {
        // 10 erasures + 10 unknown errors: 2·10 + 10 = 30 = 2t, exactly
        // at capacity.
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(12);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        let erasures: Vec<usize> = (0..10).map(|i| 3 + i * 23).collect();
        for &p in &erasures {
            rx[p] ^= rng.random_range(1..1024u16);
        }
        for i in 0..10 {
            rx[300 + i * 11] ^= rng.random_range(1..1024u16);
        }
        let (errs, eras) = rs.decode_errata(&mut rx, &erasures).expect("at capacity");
        assert_eq!(rx, cw);
        assert_eq!((errs, eras), (10, 10));
    }

    #[test]
    fn errata_beyond_capacity_detected() {
        // 10 erasures + 11 errors: 2·11 + 10 = 32 > 30.
        let rs = ReedSolomon::kp4();
        let mut rng = StdRng::seed_from_u64(13);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        let erasures: Vec<usize> = (0..10).map(|i| 3 + i * 23).collect();
        for &p in &erasures {
            rx[p] ^= 0x111;
        }
        for i in 0..11 {
            rx[300 + i * 11] ^= rng.random_range(1..1024u16);
        }
        assert!(rs.decode_errata(&mut rx, &erasures).is_err());
    }

    #[test]
    fn errata_with_no_erasures_equals_plain_decode() {
        let rs = ReedSolomon::new(31, 25); // t = 3
        let mut rng = StdRng::seed_from_u64(14);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        rx[4] ^= 0x2A;
        rx[19] ^= 0x15;
        let (errs, eras) = rs.decode_errata(&mut rx, &[]).expect("2 ≤ t errors");
        assert_eq!(rx, cw);
        assert_eq!((errs, eras), (2, 0));
    }

    #[test]
    fn errata_dead_lane_scenario() {
        // A dead WDM lane erases every 4th symbol of a (40, 20) stripe —
        // 10 of 40 symbols gone, fine for t = 10.
        let rs = ReedSolomon::new(40, 20);
        let mut rng = StdRng::seed_from_u64(15);
        let data = random_data(&rs, &mut rng);
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        let erasures: Vec<usize> = (0..40).step_by(4).collect();
        for &p in &erasures {
            rx[p] = 0;
        }
        rs.decode_errata(&mut rx, &erasures)
            .expect("one lane of four");
        assert_eq!(rx, cw);
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn errata_rejects_duplicate_erasures() {
        let rs = ReedSolomon::new(15, 11);
        let data: Vec<Gf> = (1..=11).collect();
        let mut cw = rs.encode(&data);
        let _ = rs.decode_errata(&mut cw, &[3, 3]);
    }

    #[test]
    #[should_panic(expected = "data must be exactly k symbols")]
    fn encode_rejects_wrong_length() {
        let rs = ReedSolomon::new(15, 11);
        let _ = rs.encode(&[1, 2, 3]);
    }

    #[test]
    fn generator_has_expected_degree() {
        let rs = ReedSolomon::new(15, 11);
        assert_eq!(rs.generator.len(), 5); // degree 4 = 2t
        let kp4 = ReedSolomon::kp4();
        assert_eq!(kp4.generator.len(), 31); // degree 30
    }
}
