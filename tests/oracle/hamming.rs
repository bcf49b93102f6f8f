//! The reference extended-Hamming (128,120) code: `encode`,
//! `extract_data`, `syndrome` and `chase_decode` as they stood before the
//! syndrome-arithmetic rewrite (PR 15), moved here verbatim as a test
//! oracle. Bit-at-a-time loops over all 128 positions, a full stable
//! sort of the reliabilities per block, and one `hard_decode` plus one
//! 128-step metric walk per Chase test pattern. It is deliberately the
//! slow, obvious version: `tests/fec_hamming.rs` holds the production
//! code to its every output.

use lightwave::fec::hamming::HardDecode;

/// The parent commit's `ExtHamming`. Only the type's name changed.
#[derive(Debug, Clone, Copy)]
pub struct OracleHamming;

impl OracleHamming {
    const N: usize = 128;
    const K: usize = 120;

    /// The 120 non-parity positions, in increasing order.
    fn data_positions() -> impl Iterator<Item = usize> {
        (1..128usize).filter(|&i| !i.is_power_of_two())
    }

    pub fn encode(self, data: u128) -> u128 {
        assert!(data >> Self::K == 0, "data must fit in 120 bits");
        let mut cw: u128 = 0;
        for (bit_idx, pos) in Self::data_positions().enumerate() {
            if (data >> bit_idx) & 1 == 1 {
                cw |= 1u128 << pos;
            }
        }
        // Hamming parities: parity bit at position 2^j makes the XOR of all
        // positions with bit j set equal zero.
        for j in 0..7 {
            let p = 1usize << j;
            let mut parity = 0u32;
            for i in 1..128usize {
                if i & p != 0 && (cw >> i) & 1 == 1 {
                    parity ^= 1;
                }
            }
            if parity == 1 {
                cw |= 1u128 << p;
            }
        }
        // Overall parity at position 0 makes total weight even.
        if cw.count_ones() % 2 == 1 {
            cw |= 1;
        }
        cw
    }

    pub fn extract_data(self, cw: u128) -> u128 {
        let mut data: u128 = 0;
        for (bit_idx, pos) in Self::data_positions().enumerate() {
            if (cw >> pos) & 1 == 1 {
                data |= 1u128 << bit_idx;
            }
        }
        data
    }

    /// Hamming syndrome: XOR of the indices of set bits (positions 1..127).
    fn syndrome(self, word: u128) -> usize {
        let mut s = 0usize;
        let mut w = word >> 1; // position 0 does not contribute
        let mut i = 1usize;
        while w != 0 {
            if w & 1 == 1 {
                s ^= i;
            }
            w >>= 1;
            i += 1;
        }
        s
    }

    pub fn is_codeword(self, word: u128) -> bool {
        self.syndrome(word) == 0 && word.count_ones().is_multiple_of(2)
    }

    pub fn hard_decode(self, word: u128) -> HardDecode {
        let s = self.syndrome(word);
        let parity_ok = word.count_ones().is_multiple_of(2);
        match (s, parity_ok) {
            (0, true) => HardDecode::Corrected {
                codeword: word,
                flipped: 0,
            },
            (0, false) => HardDecode::Corrected {
                // Overall-parity bit itself is in error.
                codeword: word ^ 1,
                flipped: 1,
            },
            (_, false) => HardDecode::Corrected {
                // Single error at position s.
                codeword: word ^ (1u128 << s),
                flipped: 1,
            },
            (_, true) => HardDecode::Detected,
        }
    }

    pub fn chase_decode(self, hard: u128, reliability: &[f64], test_bits: usize) -> u128 {
        assert_eq!(reliability.len(), Self::N, "need one reliability per bit");
        assert!(
            test_bits <= 8,
            "Chase pattern count is 2^test_bits; cap at 256"
        );
        // Indices of the least-reliable positions.
        let mut idx: Vec<usize> = (0..Self::N).collect();
        idx.sort_by(|&a, &b| {
            reliability[a]
                .partial_cmp(&reliability[b])
                .expect("reliabilities must not be NaN")
        });
        let weak = &idx[..test_bits];

        let mut best: Option<(f64, u128)> = None;
        for pattern in 0..(1u32 << test_bits) {
            let mut trial = hard;
            for (j, &pos) in weak.iter().enumerate() {
                if (pattern >> j) & 1 == 1 {
                    trial ^= 1u128 << pos;
                }
            }
            if let HardDecode::Corrected { codeword, .. } = self.hard_decode(trial) {
                // Soft metric: total reliability of bits where the
                // candidate disagrees with the received hard word.
                let diff = codeword ^ hard;
                let mut metric = 0.0;
                let mut d = diff;
                let mut i = 0usize;
                while d != 0 {
                    if d & 1 == 1 {
                        metric += reliability[i];
                    }
                    d >>= 1;
                    i += 1;
                }
                match best {
                    Some((m, _)) if m <= metric => {}
                    _ => best = Some((metric, codeword)),
                }
            }
        }
        best.map(|(_, cw)| cw).unwrap_or(hard)
    }
}
