//! Reed-Solomon coding over GF(2¹⁰) — the "KP4" RS(544,514) outer code.
//!
//! KP4 (IEEE 802.3 clause 91, reused by 802.3bs/cd/ck at PAM4 rates) is the
//! workhorse outer code of every transceiver in the paper. It corrects
//! t = 15 symbol errors per 544-symbol codeword, and its celebrated
//! *threshold* — pre-FEC BER of 2×10⁻⁴ yielding effectively error-free
//! output — is the horizontal line drawn across Figs. 11–13.
//!
//! The codec is the textbook one: synthetic-division encode, one Horner
//! sweep per syndrome, Berlekamp–Massey, a Chien search over every
//! position, Forney, and a full syndrome re-check. The experiments read
//! only the code's `n`, `k` and `t`; `tests/fec_vectors.rs` pins encode and
//! decode byte for byte, including the buffer a failed decode leaves.

use crate::gf::{self, Gf};
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

/// A systematic Reed-Solomon code RS(n, k) over GF(2¹⁰).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Generator polynomial, lowest-degree coefficient first; degree = n−k.
    generator: Vec<Gf>,
}

/// The serialized shape, read back before it is checked.
#[derive(Deserialize)]
struct Wire {
    n: usize,
    k: usize,
    generator: Vec<Gf>,
}

/// A document is refused unless it is exactly what [`ReedSolomon::new`]
/// builds for its own `(n, k)`: the decoder assumes the generator's roots
/// are α⁰…α^{2t−1}, so a codec with any other one can refuse its own
/// codewords.
impl<'de> Deserialize<'de> for ReedSolomon {
    fn from_content(content: &Content) -> Result<ReedSolomon, DeError> {
        let Wire { n, k, generator } = Wire::from_content(content)?;
        if n > gf::GROUP_ORDER || k >= n || !(n - k).is_multiple_of(2) {
            return Err(DeError::custom(format!(
                "RS({n}, {k}) needs k < n ≤ 1023 and an even n − k"
            )));
        }
        let code = ReedSolomon::new(n, k);
        if generator != code.generator {
            return Err(DeError::custom(format!("generator is not RS({n}, {k})'s")));
        }
        Ok(code)
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
        ReedSolomon { n, k, generator: g }
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
        assert_eq!(data.len(), self.k, "data must be exactly k symbols");
        assert!(
            data.iter().all(|&s| (s as usize) < gf::FIELD_SIZE),
            "symbols must fit in 10 bits"
        );
        let two_t = self.n - self.k;
        // Remainder of d(x)·x^{2t} divided by g(x) via synthetic division.
        // `rem` holds coefficients highest-degree-first.
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

    /// Computes the 2t syndromes of `received`, one Horner sweep each;
    /// all-zero means a valid codeword (or an undetectable error pattern).
    ///
    /// # Panics
    /// Panics unless `received` is n symbols long.
    pub fn syndromes(&self, received: &[Gf]) -> Vec<Gf> {
        assert_eq!(received.len(), self.n, "received word must be n symbols");
        (0..self.n - self.k)
            .map(|j| {
                // S_j = r(α^j) with r(x) = Σ_i v_i x^{n-1-i}.
                let alpha_j = gf::alpha_pow(j as i64);
                received
                    .iter()
                    .fold(0, |acc, &v| gf::add(gf::mul(acc, alpha_j), v))
            })
            .collect()
    }

    /// Decodes in place, returning the number of symbol errors corrected.
    ///
    /// Returns `Err(TooManyErrors)` when the error weight exceeds t (the
    /// usual detected-uncorrectable case). As with any bounded-distance
    /// decoder, patterns far beyond t can occasionally miscorrect. A
    /// failure found while applying corrections leaves the ones already
    /// applied in `received`.
    ///
    /// # Panics
    /// Panics unless `received` is n symbols long.
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
        let error_positions = self.chien(&sigma);
        if error_positions.len() != nu {
            return Err(TooManyErrors);
        }
        // Forney: Ω(x) = S(x)·σ(x) mod x^{2t};  e = X·Ω(X⁻¹)/σ'(X⁻¹).
        let omega = poly_mul_mod(&synd, &sigma, self.n - self.k);
        self.apply_forney(received, &error_positions, &omega, &sigma)?;
        Ok(nu)
    }

    /// Errata decoding: corrects ν errors plus μ *erasures* (positions
    /// known to be unreliable — e.g. symbols that arrived on a lane the
    /// DSP has declared dead) as long as `2ν + μ ≤ 2t`. With all 30 KP4
    /// parity symbols spent on erasures, a codeword survives a burst twice
    /// as long as blind decoding could handle.
    ///
    /// Returns `(errors_corrected, erasures_filled)`.
    ///
    /// # Panics
    /// Panics if at most 2t erasures are given and one of them is not
    /// below n or appears twice.
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
            lambda = poly_mul_full(&lambda, &[1, x_j]);
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

        // The error positions (erasures excluded).
        let mut error_positions = self.chien(&sigma);
        if error_positions.len() != nu {
            return Err(TooManyErrors);
        }

        // Errata locator Ψ = σ·Λ; evaluator Ω = S·Ψ mod x^{2t}.
        let psi = poly_mul_full(&sigma, &lambda);
        let omega = poly_mul_mod(&synd, &psi, two_t);
        error_positions.extend_from_slice(erasures);
        self.apply_forney(received, &error_positions, &omega, &psi)?;
        Ok((nu, mu))
    }

    /// Chien search over every valid (possibly shortened) position: an
    /// error at index i has degree p = n−1−i and locator X = α^p, and the
    /// locator `sigma` has its roots at X⁻¹.
    fn chien(&self, sigma: &[Gf]) -> Vec<usize> {
        (0..self.n)
            .filter(|&pos| {
                let p = (self.n - 1 - pos) as i64;
                gf::poly_eval(sigma, gf::alpha_pow(-p)) == 0
            })
            .collect()
    }

    /// Forney: adds `X·Ω(X⁻¹)/Λ'(X⁻¹)` at each of `positions` in order,
    /// where `locator` is the errata locator Λ and `omega` its evaluator,
    /// then re-checks the syndromes — a miscorrection beyond t can leave
    /// bad ones.
    fn apply_forney(
        &self,
        received: &mut [Gf],
        positions: &[usize],
        omega: &[Gf],
        locator: &[Gf],
    ) -> Result<(), TooManyErrors> {
        let deriv = formal_derivative(locator);
        for &pos in positions {
            let p = (self.n - 1 - pos) as i64;
            let x_inv = gf::alpha_pow(-p);
            let den = gf::poly_eval(&deriv, x_inv);
            if den == 0 {
                return Err(TooManyErrors);
            }
            let num = gf::poly_eval(omega, x_inv);
            received[pos] = gf::add(received[pos], gf::mul(gf::alpha_pow(p), gf::div(num, den)));
        }
        if self.syndromes(received).iter().any(|&s| s != 0) {
            return Err(TooManyErrors);
        }
        Ok(())
    }
}

/// Full polynomial product (no truncation), lowest-degree first.
fn poly_mul_full(a: &[Gf], b: &[Gf]) -> Vec<Gf> {
    poly_mul_mod(a, b, a.len() + b.len() - 1)
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
        for i in 1..=l.min(sigma.len() - 1) {
            d = gf::add(d, gf::mul(sigma[i], synd[n - i]));
        }
        if d == 0 {
            m += 1;
            continue;
        }
        // σ = σ − (d/b)·x^m·B
        let before = (2 * l <= n).then(|| sigma.clone());
        let coef = gf::div(d, bb);
        if sigma.len() < b.len() + m {
            sigma.resize(b.len() + m, 0);
        }
        for (i, &bi) in b.iter().enumerate() {
            sigma[i + m] = gf::add(sigma[i + m], gf::mul(coef, bi));
        }
        match before {
            Some(t) => {
                l = n + 1 - l;
                b = t;
                bb = d;
                m = 1;
            }
            None => m += 1,
        }
    }
    // Trim trailing zeros so deg(σ) is meaningful.
    while sigma.len() > 1 && sigma.last() == Some(&0) {
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
        for (j, &bj) in b.iter().enumerate().take(cap - i) {
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
    for (i, &c) in p.iter().enumerate().skip(1).step_by(2) {
        d[i - 1] = c;
    }
    d
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
    fn serde_wire_format_is_plain_n_k_generator() {
        let rs = ReedSolomon::new(15, 11);
        let content = rs.to_content();
        assert_eq!(
            content.field("n"),
            Some(&Content::U64(15)),
            "the wire form is `n`, `k`, `generator`"
        );
        assert!(content.field("generator").is_some());
        let back = ReedSolomon::from_content(&content).expect("roundtrip");
        assert_eq!(back, rs);
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
