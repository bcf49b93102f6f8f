//! The inner code against its oracle (DESIGN §6.8).
//!
//! `ExtHamming` encodes by shift-and-mask runs, takes syndromes by masked
//! popcounts and Chase-decodes by syndrome arithmetic; `oracle::OracleHamming`
//! is the bit-at-a-time code it replaced, kept verbatim. Two guards:
//!
//! 1. **Differential** — every public routine on seeded random inputs,
//!    `==` on every output. Chase decoding is driven with reliabilities
//!    drawn continuous *and* quantised to eighths: the quantised runs are
//!    full of ties, in the least-reliable selection and in the metric, so
//!    the stable selection and first-pattern-wins rules are load-bearing;
//!    one constructed block whose metric rounds holds the third rule, the
//!    ascending-bit-position sum. Breaking any of the three fails this
//!    file.
//! 2. **Golden** — `tests/vectors/hamming_waterfall.json`, captured from
//!    the oracle-era code at the parent of PR 15: Monte-Carlo error counts
//!    and two bisected thresholds, which also pin the RNG stream.

#[path = "oracle/hamming.rs"]
mod oracle;

use lightwave::fec::{ConcatenatedCode, ExtHamming, InnerDecoding};
use lightwave::units::Ber;
use oracle::OracleHamming;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Deserialize;

const FAST: ExtHamming = ExtHamming;
const ORACLE: OracleHamming = OracleHamming;
const TEST_BITS: [usize; 5] = [0, 1, 4, 6, 8];

fn random_data(rng: &mut StdRng) -> u128 {
    rng.random::<u128>() >> 8
}

/// `count` distinct bit positions as a flip mask.
fn flips(rng: &mut StdRng, count: usize) -> u128 {
    let mut mask = 0u128;
    while (mask.count_ones() as usize) < count {
        mask |= 1u128 << rng.random_range(0..128u32);
    }
    mask
}

/// One reliability per bit. Flipped bits are weak half the time (so the
/// test set both finds and misses them); `eighths` snaps every value to
/// k/8, k in 0..=8.
fn reliabilities(rng: &mut StdRng, flipped: u128, eighths: bool) -> [f64; 128] {
    let mut rel = [0.0f64; 128];
    for (i, r) in rel.iter_mut().enumerate() {
        *r = rng.random_range(0.0..1.0);
        if (flipped >> i) & 1 == 1 && rng.random::<bool>() {
            *r *= 0.1;
        }
        if eighths {
            *r = (*r * 8.0).round() / 8.0;
        }
    }
    rel
}

#[test]
fn encode_agrees_on_random_data() {
    let mut rng = StdRng::seed_from_u64(0x15_0001);
    for data in [0, 1, (1u128 << 120) - 1, 1u128 << 119] {
        assert_eq!(FAST.encode(data), ORACLE.encode(data), "data {data:#x}");
    }
    for _ in 0..6_000 {
        let data = random_data(&mut rng);
        let cw = FAST.encode(data);
        assert_eq!(cw, ORACLE.encode(data), "data {data:#x}");
        assert_eq!(FAST.extract_data(cw), data);
    }
}

#[test]
fn word_routines_agree_on_random_words() {
    let mut rng = StdRng::seed_from_u64(0x15_0002);
    for case in 0..6_000 {
        // Arbitrary words, and words within a few bits of a codeword (an
        // arbitrary word is almost never one).
        let word = if case % 2 == 0 {
            rng.random::<u128>()
        } else {
            let near = rng.random_range(0..=3usize);
            ORACLE.encode(random_data(&mut rng)) ^ flips(&mut rng, near)
        };
        assert_eq!(FAST.extract_data(word), ORACLE.extract_data(word));
        assert_eq!(FAST.is_codeword(word), ORACLE.is_codeword(word));
        assert_eq!(FAST.hard_decode(word), ORACLE.hard_decode(word));
    }
}

#[test]
fn chase_agrees_with_and_without_ties() {
    let mut rng = StdRng::seed_from_u64(0x15_0003);
    let mut third_outcomes = 0u32;
    for case in 0..1_200usize {
        let cw = ORACLE.encode(random_data(&mut rng));
        let flipped = flips(&mut rng, case % 6);
        let hard = cw ^ flipped;
        for eighths in [false, true] {
            let rel = reliabilities(&mut rng, flipped, eighths);
            for test_bits in TEST_BITS {
                let got = FAST.chase_decode(hard, &rel, test_bits);
                let want = ORACLE.chase_decode(hard, &rel, test_bits);
                assert_eq!(
                    got, want,
                    "case {case} eighths {eighths} test_bits {test_bits}: hard {hard:#x} rel {rel:?}"
                );
                third_outcomes += u32::from(eighths && got != hard && got != cw);
            }
        }
    }
    // The quantised half really does reach decisions other than "leave
    // it" and "the sent word" — the ones a different tie rule would move.
    assert!(third_outcomes > 100, "{third_outcomes}");
}

#[test]
fn every_single_and_double_error_of_one_codeword() {
    let mut rng = StdRng::seed_from_u64(0x15_0004);
    let cw = ORACLE.encode(0xDEAD_BEEF_CAFE_F00D_0123_4567_89AB);
    for a in 0..128 {
        for b in a..128 {
            // a == b: the single error at a.
            let flipped = (1u128 << a) | (1u128 << b);
            let hard = cw ^ flipped;
            assert_eq!(FAST.hard_decode(hard), ORACLE.hard_decode(hard));
            let rel = reliabilities(&mut rng, flipped, (a + b) % 2 == 1);
            assert_eq!(
                FAST.chase_decode(hard, &rel, 6),
                ORACLE.chase_decode(hard, &rel, 6),
                "errors at {a},{b}: rel {rel:?}"
            );
        }
    }
}

/// `f64` addition rounds, so the metric depends on the order it is summed
/// in. One error at position 33, weak bits 64 and 96: pattern 0 corrects
/// bit 33 (metric 2^53 + 2); pattern 3 flips both weak bits and corrects
/// bit 1 (2^53, 1, 1). Ascending, 2^53 + 1 rounds back to 2^53 twice and
/// pattern 3 wins; summed from the top it is 2 + 2^53, a tie pattern 0
/// keeps.
#[test]
fn metric_is_summed_in_ascending_bit_position() {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    let cw = ORACLE.encode(0x0123_4567_89AB_CDEF);
    let hard = cw ^ (1u128 << 33);
    let mut rel = [2.0 * TWO_53; 128];
    (rel[1], rel[33], rel[64], rel[96]) = (TWO_53, TWO_53 + 2.0, 1.0, 1.0);
    let want = hard ^ (1u128 << 1) ^ (1u128 << 64) ^ (1u128 << 96);
    assert_eq!(ORACLE.chase_decode(hard, &rel, 2), want);
    assert_eq!(FAST.chase_decode(hard, &rel, 2), want);
}

#[test]
#[should_panic(expected = "need one reliability per bit")]
fn chase_rejects_a_short_reliability_slice() {
    let _ = FAST.chase_decode(0, &[1.0; 127], 4);
}

#[test]
#[should_panic(expected = "Chase pattern count is 2^test_bits; cap at 256")]
fn chase_rejects_more_than_eight_test_bits() {
    let _ = FAST.chase_decode(0, &[1.0; 128], 9);
}

/// A NaN anywhere panics, even in the last position with nothing to
/// select: the oracle's sort compares every element at least once.
#[test]
#[should_panic(expected = "reliabilities must not be NaN")]
fn chase_rejects_a_nan_reliability() {
    let mut rel = [1.0; 128];
    rel[127] = f64::NAN;
    let _ = FAST.chase_decode(0, &rel, 0);
}

#[test]
#[should_panic(expected = "data must fit in 120 bits")]
fn encode_rejects_data_above_bit_119() {
    let _ = FAST.encode(1u128 << 120);
}

#[derive(Deserialize)]
struct WaterfallCase {
    decoding: InnerDecoding,
    input_ber: f64,
    blocks: u64,
    seed: u64,
    errors: u64,
}

#[derive(Deserialize)]
struct ThresholdCase {
    blocks: u64,
    seed: u64,
    threshold_bits: u64,
}

#[derive(Deserialize)]
struct Golden {
    waterfall: Vec<WaterfallCase>,
    inner_threshold: Vec<ThresholdCase>,
}

#[test]
fn waterfall_and_thresholds_match_the_parent_capture() {
    let golden: Golden = serde_json::from_str(include_str!("vectors/hamming_waterfall.json"))
        .expect("golden vectors parse");
    assert!(golden.waterfall.len() >= 8);
    for case in &golden.waterfall {
        let code = ConcatenatedCode {
            inner_decoding: case.decoding,
            ..ConcatenatedCode::default()
        };
        let point = code.inner_waterfall_point(Ber::new(case.input_ber), case.blocks, case.seed);
        assert_eq!(
            point.errors, case.errors,
            "{:?} at {} over {} blocks, seed {}",
            case.decoding, case.input_ber, case.blocks, case.seed
        );
    }
    let code = ConcatenatedCode::default();
    for case in &golden.inner_threshold {
        let threshold = code.inner_threshold(Ber::KP4_THRESHOLD, case.blocks, case.seed);
        assert_eq!(
            threshold.prob().to_bits(),
            case.threshold_bits,
            "inner_threshold(KP4, {}, {}) = {threshold}",
            case.blocks,
            case.seed
        );
    }
}
