//! Extended Hamming (128,120) inner code with hard and Chase soft decoding.
//!
//! This is the open-construction stand-in for the paper's proprietary
//! soft-decision inner code (§3.3.2). It is the same family as the inner
//! code IEEE 802.3dj later adopted for 200 Gb/s-per-lane links: a
//! single-error-correcting / double-error-detecting extended Hamming code
//! over a 128-bit block, decoded *softly* with a Chase-2 test-pattern
//! search over the least-reliable bit positions. Soft decoding is where the
//! concatenation gain comes from: at the high pre-FEC error rates the inner
//! code runs at, most error patterns hit exactly the low-confidence bits,
//! and trying flips there recovers 2- and 3-error blocks a hard decoder
//! must give up on.
//!
//! A whole codeword fits in one `u128`; bit `i` of the word is position `i`.
//! Position 0 holds the overall parity; positions 1, 2, 4, …, 64 hold the
//! seven Hamming parities; the remaining 120 positions carry data.

use serde::{Deserialize, Serialize};

/// Outcome of hard-decision decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HardDecode {
    /// The word was (now) a valid codeword; `flipped` bits were corrected.
    Corrected {
        /// The corrected codeword.
        codeword: u128,
        /// 0 if the word was already valid, 1 if one bit was fixed.
        flipped: u32,
    },
    /// A double-bit error was detected; the word is uncorrectable.
    Detected,
}

/// The extended Hamming (128,120) code. Stateless; all methods are cheap
/// bit manipulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtHamming;

/// `PARITY_MASK[j]`: every position 1..=127 whose index has bit `j` set —
/// the positions Hamming parity `j` (stored at position 2^j) covers.
const PARITY_MASK: [u128; 7] = {
    let mut masks = [0u128; 7];
    let mut pos = 1;
    while pos < 128 {
        let mut j = 0;
        while j < 7 {
            if pos & (1 << j) != 0 {
                masks[j] |= 1u128 << pos;
            }
            j += 1;
        }
        pos += 1;
    }
    masks
};

/// `DATA_RUN[k]`: the data bits stored in the `k`-th run of non-parity
/// positions, 2^(k+1)+1 ..= 2^(k+2)−1 (1, 3, 7, 15, 31 and 63 bits long).
/// Data bit `i` of run `k` sits at codeword position `i + k + 3`.
const DATA_RUN: [u128; 6] = {
    let mut masks = [0u128; 6];
    let mut k = 0;
    while k < 6 {
        let len = (2 << k) - 1;
        let first = (2 << k) - k - 2;
        masks[k] = ((1u128 << len) - 1) << first;
        k += 1;
    }
    masks
};

/// 1 if `word` has odd weight.
fn parity(word: u128) -> u128 {
    (word.count_ones() & 1) as u128
}

/// The SEC-DED decision for a word with this syndrome and overall parity:
/// the bits to flip, or `None` for a detected double error.
fn correction(syndrome: usize, odd: bool) -> Option<u128> {
    match (syndrome, odd) {
        (0, false) => Some(0),
        // Overall-parity bit itself is in error.
        (0, true) => Some(1),
        // Single error at position `syndrome`.
        (s, true) => Some(1u128 << s),
        (_, false) => None,
    }
}

impl ExtHamming {
    /// Block length in bits.
    pub const N: usize = 128;
    /// Data bits per block.
    pub const K: usize = 120;
    /// Minimum distance (SEC-DED).
    pub const D_MIN: usize = 4;

    /// Encodes 120 data bits (low bits of `data`) into a 128-bit codeword.
    ///
    /// # Panics
    /// Panics if `data` has bits set above bit 119.
    pub fn encode(self, data: u128) -> u128 {
        assert!(data >> Self::K == 0, "data must fit in 120 bits");
        let mut cw: u128 = 0;
        for (run, &mask) in DATA_RUN.iter().enumerate() {
            cw |= (data & mask) << (run + 3);
        }
        // Hamming parities: parity bit at position 2^j makes the XOR of all
        // positions with bit j set equal zero. No parity position lies in
        // another's mask, so all seven read the data-only word.
        cw |= PARITY_MASK
            .iter()
            .enumerate()
            .fold(0, |p, (j, &mask)| p | (parity(cw & mask) << (1 << j)));
        // Overall parity at position 0 makes total weight even.
        cw | parity(cw)
    }

    /// Extracts the 120 data bits from a codeword.
    pub fn extract_data(self, cw: u128) -> u128 {
        DATA_RUN
            .iter()
            .enumerate()
            .fold(0, |data, (run, &mask)| data | ((cw >> (run + 3)) & mask))
    }

    /// Hamming syndrome: XOR of the indices of set bits (positions 1..127).
    /// Bit `j` of it is the parity of the positions with index bit `j` set.
    fn syndrome(self, word: u128) -> usize {
        PARITY_MASK
            .iter()
            .enumerate()
            .fold(0, |s, (j, &mask)| s | ((parity(word & mask) as usize) << j))
    }

    /// True if `word` is a valid codeword.
    pub fn is_codeword(self, word: u128) -> bool {
        self.syndrome(word) == 0 && parity(word) == 0
    }

    /// Hard-decision SEC-DED decoding.
    pub fn hard_decode(self, word: u128) -> HardDecode {
        match correction(self.syndrome(word), parity(word) == 1) {
            Some(flip) => HardDecode::Corrected {
                codeword: word ^ flip,
                flipped: (flip != 0) as u32,
            },
            None => HardDecode::Detected,
        }
    }

    /// Chase soft decoding.
    ///
    /// `hard` is the sliced word; `reliability[i]` is the confidence of bit
    /// `i` (any positive scale — only the ordering and relative magnitudes
    /// matter). Flips every subset of the `test_bits` least-reliable
    /// positions (so `2^test_bits` patterns), hard-decodes each, and
    /// returns the candidate codeword with the smallest soft discrepancy
    /// `Σ reliability[i]` over flipped-versus-received bits. Falls back to
    /// the received word when no pattern decodes.
    ///
    /// # Panics
    /// Panics unless `reliability.len() == 128`, `test_bits ≤ 8` and no
    /// reliability is NaN.
    pub fn chase_decode(self, hard: u128, reliability: &[f64], test_bits: usize) -> u128 {
        assert_eq!(reliability.len(), Self::N, "need one reliability per bit");
        assert!(
            test_bits <= 8,
            "Chase pattern count is 2^test_bits; cap at 256"
        );
        // The `test_bits` least-reliable positions in stable order: by
        // reliability, ties keeping the lower index. An insertion-select —
        // past the first few positions nearly every bit fails the one
        // comparison against the current worst and is skipped.
        let mut weak = [(0.0f64, 0usize); 8];
        let mut held = 0;
        for (pos, &r) in reliability.iter().enumerate() {
            assert!(!r.is_nan(), "reliabilities must not be NaN");
            if held == test_bits {
                if held == 0 || r >= weak[held - 1].0 {
                    continue;
                }
                held -= 1; // the worst falls out
            }
            let mut slot = held;
            while slot > 0 && r < weak[slot - 1].0 {
                weak[slot] = weak[slot - 1];
                slot -= 1;
            }
            weak[slot] = (r, pos);
            held += 1;
        }
        // Patterns are visited in counting order, pattern p flipping weak
        // bit j iff bit j of p is set. Counting from p − 1 to p toggles
        // bits 0..=t, t = trailing_zeros(p): `step[t]` is the flip mask of
        // weak bits 0..=t and the XOR of their positions, which is what
        // the syndrome moves by.
        let mut step = [(0u128, 0usize); 8];
        let mut acc = (0u128, 0usize);
        for (s, &(_, pos)) in step.iter_mut().zip(&weak[..test_bits]) {
            acc = (acc.0 ^ (1u128 << pos), acc.1 ^ pos);
            *s = acc;
        }

        // Pattern 0 is the received word itself.
        let (mut flips, mut syndrome) = (0u128, self.syndrome(hard));
        let mut odd = parity(hard) == 1;
        let mut best: Option<(f64, u128)> = None;
        for pattern in 0..(1u32 << test_bits) {
            if pattern != 0 {
                let t = pattern.trailing_zeros() as usize;
                flips ^= step[t].0;
                syndrome ^= step[t].1;
                odd ^= t.is_multiple_of(2); // t + 1 bits toggled
            }
            if let Some(fix) = correction(syndrome, odd) {
                // Soft metric: total reliability of bits where the
                // candidate disagrees with the received hard word, summed
                // in ascending bit position.
                let mut diff = flips ^ fix;
                let mut metric = 0.0;
                while diff != 0 {
                    metric += reliability[diff.trailing_zeros() as usize];
                    diff &= diff - 1;
                }
                // An equal metric keeps the earlier pattern.
                match best {
                    Some((m, _)) if m <= metric => {}
                    _ => best = Some((metric, hard ^ flips ^ fix)),
                }
            }
        }
        best.map(|(_, cw)| cw).unwrap_or(hard)
    }

    /// Code rate.
    pub fn rate(self) -> f64 {
        Self::K as f64 / Self::N as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn encode_produces_valid_codewords() {
        let code = ExtHamming;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let data: u128 = rng.random::<u128>() >> 8;
            let cw = code.encode(data);
            assert!(code.is_codeword(cw));
            assert_eq!(code.extract_data(cw), data, "systematic extraction");
        }
    }

    #[test]
    fn corrects_any_single_bit_error() {
        let code = ExtHamming;
        let cw = code.encode(0xDEAD_BEEF_CAFE_F00D_u128);
        for pos in 0..128 {
            let corrupted = cw ^ (1u128 << pos);
            match code.hard_decode(corrupted) {
                HardDecode::Corrected { codeword, flipped } => {
                    assert_eq!(codeword, cw, "failed to fix error at {pos}");
                    assert_eq!(flipped, 1);
                }
                HardDecode::Detected => panic!("single error at {pos} misdetected"),
            }
        }
    }

    #[test]
    fn detects_all_double_errors_sampled() {
        let code = ExtHamming;
        let cw = code.encode(0x1234_5678_9ABC_u128);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let a = rng.random_range(0..128u32);
            let mut b = rng.random_range(0..128u32);
            while b == a {
                b = rng.random_range(0..128u32);
            }
            let corrupted = cw ^ (1u128 << a) ^ (1u128 << b);
            assert_eq!(
                code.hard_decode(corrupted),
                HardDecode::Detected,
                "double error ({a},{b}) must be detected, never miscorrected"
            );
        }
    }

    #[test]
    fn min_distance_is_four() {
        // Every pair of distinct codewords differs in ≥ 4 bits (sampled).
        let code = ExtHamming;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let a = code.encode(rng.random::<u128>() >> 8);
            let b = code.encode(rng.random::<u128>() >> 8);
            if a != b {
                assert!((a ^ b).count_ones() >= 4);
            }
        }
    }

    #[test]
    fn chase_recovers_double_error_on_weak_bits() {
        let code = ExtHamming;
        let cw = code.encode(0xABCD_EF01_2345_u128);
        // Two errors at positions 10 and 77; their reliabilities are lowest.
        let corrupted = cw ^ (1u128 << 10) ^ (1u128 << 77);
        let mut rel = vec![1.0; 128];
        rel[10] = 0.05;
        rel[77] = 0.08;
        rel[3] = 0.5; // a red herring weak bit that is actually correct
        let decoded = code.chase_decode(corrupted, &rel, 4);
        assert_eq!(
            decoded, cw,
            "Chase must recover a 2-error pattern on weak bits"
        );
        // Hard decoding alone cannot.
        assert_eq!(code.hard_decode(corrupted), HardDecode::Detected);
    }

    #[test]
    fn chase_leaves_valid_words_alone() {
        let code = ExtHamming;
        let cw = code.encode(42u128);
        let rel = vec![1.0; 128];
        assert_eq!(code.chase_decode(cw, &rel, 5), cw);
    }

    #[test]
    fn chase_falls_back_gracefully() {
        // If the weak set misses the true errors, Chase should at worst
        // return *some* candidate or the input — never panic.
        let code = ExtHamming;
        let cw = code.encode(7u128);
        let corrupted = cw ^ (1u128 << 100) ^ (1u128 << 101) ^ (1u128 << 102);
        let rel = vec![1.0; 128]; // no useful soft info
        let out = code.chase_decode(corrupted, &rel, 3);
        // Output is either a codeword or the unchanged input.
        assert!(code.is_codeword(out) || out == corrupted);
    }

    #[test]
    #[should_panic(expected = "data must fit in 120 bits")]
    fn encode_rejects_oversized_data() {
        let _ = ExtHamming.encode(u128::MAX);
    }

    #[test]
    fn rate_is_correct() {
        assert!((ExtHamming.rate() - 0.9375).abs() < 1e-12);
    }
}
