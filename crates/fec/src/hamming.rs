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
        assert!(
            reliability.iter().all(|r| !r.is_nan()),
            "reliabilities must not be NaN"
        );
        // Every value is exact, so it is its own lower bound, and no
        // position is known to be far from the test set: all are visited.
        self.chase(
            hard,
            test_bits,
            reliability,
            &[],
            f64::NEG_INFINITY,
            |pos| reliability[pos],
        )
    }

    /// The Chase search of [`ExtHamming::chase_decode`] over reliabilities
    /// known by a lower bound, `lower[i] ≤ exact(i)`, with the exact value
    /// asked for only where a decision can turn on it (DESIGN §6.8): a bit
    /// that could be among the `test_bits` least reliable, and a pattern's
    /// correction bit outside them unless the pattern provably loses.
    ///
    /// The selection visits `first`, then every other position in
    /// ascending order — unless the test set is full and its worst is at
    /// or below `floor`, which every position outside `first` must have
    /// its lower bound above. Any `first` decides the same word; one that
    /// holds the lowest bounds asks for the fewest values.
    // `!(worst <= floor)` rather than `>`: a NaN floor visits the rest.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn chase(
        self,
        hard: u128,
        test_bits: usize,
        lower: &[f64],
        first: &[usize],
        floor: f64,
        mut exact: impl FnMut(usize) -> f64,
    ) -> u128 {
        // The `test_bits` least-reliable positions in stable order: by
        // reliability, ties keeping the lower index. An insertion-select —
        // once the set is full, a bit whose lower bound exceeds the current
        // worst cannot enter it and is skipped unread. `lower > worst` is
        // false for a NaN bound, which is read.
        let before = |(r, pos): (f64, usize), (w, at): (f64, usize)| r < w || (r == w && pos < at);
        let mut weak = [(0.0f64, 0usize); 8];
        let mut held = 0;
        let mut offer = |pos: usize, weak: &mut [(f64, usize); 8], held: &mut usize| {
            if *held == test_bits && (*held == 0 || lower[pos] > weak[*held - 1].0) {
                return;
            }
            let r = exact(pos);
            if *held == test_bits {
                if !before((r, pos), weak[*held - 1]) {
                    return;
                }
                *held -= 1; // the worst falls out
            }
            let mut slot = *held;
            while slot > 0 && before((r, pos), weak[slot - 1]) {
                weak[slot] = weak[slot - 1];
                slot -= 1;
            }
            weak[slot] = (r, pos);
            *held += 1;
        };
        let mut visited = 0u128;
        for &pos in first {
            visited |= 1 << pos;
            offer(pos, &mut weak, &mut held);
        }
        // The rest have their bounds above `floor`: a full set whose worst
        // is at or below it admits none of them.
        if held < test_bits || (held > 0 && !(weak[held - 1].0 <= floor)) {
            for pos in 0..Self::N {
                if (visited >> pos) & 1 == 0 {
                    offer(pos, &mut weak, &mut held);
                }
            }
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
        let weak_mask = acc.0;
        // With no weak value below zero, a metric is at least any one of
        // its terms: rounding is monotone, so adding a term ≥ 0 never
        // lowers a partial sum, and a partial sum ≥ 0 plus `r` is ≥ `r`.
        let weak_nonneg = weak[..test_bits].iter().all(|&(r, _)| r >= 0.0);

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
                // in ascending bit position. All are weak bits, read
                // already, but for a correction outside the weak set;
                // while that bit's lower bound is above the best, the
                // pattern loses and the bit stays unread.
                let mut diff = flips ^ fix;
                let unread = diff & !weak_mask;
                if unread != 0
                    && weak_nonneg
                    && best.is_some_and(|(m, _)| lower[unread.trailing_zeros() as usize] > m)
                {
                    continue;
                }
                let mut metric = 0.0;
                while diff != 0 {
                    metric += exact(diff.trailing_zeros() as usize);
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

    /// `chase` decides what `chase_decode` decides whatever it visits
    /// first and under any lower bounds, NaN ones included, as long as the
    /// values it asks for are exact and every position left out of `first`
    /// has its bound above `floor` — what the gated waterfall relies on.
    /// Reliabilities in eighths tie in the selection and the metric, and a
    /// shuffled `first` reaches a tied bit of lower index after its twin:
    /// only a strict skip still reads it.
    #[test]
    fn chase_decides_alike_in_any_order_under_any_bounds() {
        let code = ExtHamming;
        let mut rng = StdRng::seed_from_u64(0x26_0001);
        let mut moved = 0;
        for case in 0..2_000usize {
            let cw = code.encode(rng.random::<u128>() >> 8);
            let hard = (0..case % 5).fold(cw, |w, _| w ^ (1u128 << rng.random_range(0..128u32)));
            let exact: [f64; 128] =
                std::array::from_fn(|_| rng.random_range(0..=8u32) as f64 / 8.0);
            let lower: [f64; 128] = std::array::from_fn(|pos| match rng.random_range(0..4u32) {
                0 => exact[pos],
                1 => exact[pos] - rng.random_range(0.0..1.0),
                2 => f64::NEG_INFINITY,
                _ => f64::NAN,
            });
            let floor = [f64::INFINITY, 0.5, 0.25, f64::NEG_INFINITY][case % 4];
            let mut first: Vec<usize> = (0..128)
                .filter(|&pos| lower[pos] <= floor || lower[pos].is_nan())
                .collect();
            for i in (1..first.len()).rev() {
                first.swap(i, rng.random_range(0..=i));
            }
            for test_bits in [0, 1, 4, 6, 8] {
                let want = code.chase_decode(hard, &exact, test_bits);
                let got = code.chase(hard, test_bits, &lower, &first, floor, |pos| exact[pos]);
                assert_eq!(got, want, "case {case}, test_bits {test_bits}");
                moved += u32::from(want != hard);
            }
        }
        assert!(moved > 1_000, "{moved}");
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
