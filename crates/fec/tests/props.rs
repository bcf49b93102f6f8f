//! Property tests for the FEC codecs.

use lightwave_fec::gf::Gf;
use lightwave_fec::hamming::HardDecode;
use lightwave_fec::{ExtHamming, Interleaver, ReedSolomon};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The `(n, k)` shapes the RS properties draw from: three short codes
/// whose lengths shake out index edge cases the long one hides, and KP4.
const RS_SHAPES: [(usize, usize); 4] = [(15, 11), (31, 17), (31, 21), (544, 514)];

/// A codeword of shape `RS_SHAPES[shape]` with a message drawn from `rng`.
fn rs_codeword(shape: usize, rng: &mut StdRng) -> (ReedSolomon, Vec<Gf>) {
    let (n, k) = RS_SHAPES[shape];
    let rs = ReedSolomon::new(n, k);
    let data: Vec<Gf> = (0..k).map(|_| rng.random_range(0..1024u16)).collect();
    let cw = rs.encode(&data);
    (rs, cw)
}

/// Corrupts `nerr` distinct positions of `word` with non-zero magnitudes.
fn inject(word: &mut [Gf], nerr: usize, rng: &mut StdRng) {
    let mut positions: Vec<usize> = (0..word.len()).collect();
    for i in 0..nerr {
        let j = rng.random_range(i..positions.len());
        positions.swap(i, j);
        word[positions[i]] ^= rng.random_range(1..1024u16);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hamming_encode_extract_identity(data in 0u128..(1u128 << 120)) {
        let code = ExtHamming;
        let cw = code.encode(data);
        prop_assert!(code.is_codeword(cw));
        prop_assert_eq!(code.extract_data(cw), data);
    }

    #[test]
    fn hamming_single_error_always_corrects(data in 0u128..(1u128 << 100), pos in 0usize..128) {
        let code = ExtHamming;
        let cw = code.encode(data);
        match code.hard_decode(cw ^ (1u128 << pos)) {
            HardDecode::Corrected { codeword, flipped } => {
                prop_assert_eq!(codeword, cw);
                prop_assert_eq!(flipped, 1);
            }
            HardDecode::Detected => prop_assert!(false, "single error misdetected"),
        }
    }

    #[test]
    fn hamming_double_error_always_detected(
        data in 0u128..(1u128 << 100),
        a in 0usize..128,
        b in 0usize..128,
    ) {
        prop_assume!(a != b);
        let code = ExtHamming;
        let cw = code.encode(data);
        prop_assert_eq!(
            code.hard_decode(cw ^ (1u128 << a) ^ (1u128 << b)),
            HardDecode::Detected
        );
    }

    #[test]
    fn rs_errata_capacity_boundary(seed in 0u64..200, mu in 0usize..=10) {
        // ν errors + μ erasures with 2ν + μ = 2t exactly: always decodes.
        let rs = ReedSolomon::new(31, 21); // 2t = 10
        let nu = (10 - mu) / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u16> = (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect();
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        let mut positions: Vec<usize> = (0..rs.n()).collect();
        for i in 0..(mu + nu) {
            let j = rng.random_range(i..positions.len());
            positions.swap(i, j);
            rx[positions[i]] ^= rng.random_range(1..1024u16);
        }
        let erasures: Vec<usize> = positions[..mu].to_vec();
        prop_assert!(rs.decode_errata(&mut rx, &erasures).is_ok());
        prop_assert_eq!(rx, cw);
    }

    #[test]
    fn chase_output_is_always_a_codeword_or_input(
        data in 0u128..(1u128 << 100),
        e1 in 0usize..128,
        e2 in 0usize..128,
        e3 in 0usize..128,
    ) {
        let code = ExtHamming;
        let cw = code.encode(data);
        let corrupted = cw ^ (1u128 << e1) ^ (1u128 << e2) ^ (1u128 << e3);
        // Uniform reliabilities: no soft info, worst case for Chase.
        let rel = vec![1.0; 128];
        let out = code.chase_decode(corrupted, &rel, 5);
        prop_assert!(code.is_codeword(out) || out == corrupted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any ≤ t symbol errors, at any shape, decode to the codeword sent,
    /// and the decoder counts exactly the errors injected.
    #[test]
    fn rs_corrects_any_pattern_within_t(
        seed in 0u64..1_000_000,
        shape in 0usize..RS_SHAPES.len(),
        nerr_sel in 0usize..=100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rs, cw) = rs_codeword(shape, &mut rng);
        let nerr = nerr_sel % (rs.t() + 1);
        let mut rx = cw.clone();
        inject(&mut rx, nerr, &mut rng);
        prop_assert_eq!(rs.decode(&mut rx), Ok(nerr));
        prop_assert_eq!(rx, cw);
    }

    /// Beyond t errors a decode is refused, or it lands on a codeword
    /// (all-zero syndromes) within t of what arrived — never the one sent,
    /// which is farther away than that.
    #[test]
    fn rs_beyond_t_is_refused_or_lands_on_a_codeword(
        seed in 0u64..1_000_000,
        shape in 0usize..RS_SHAPES.len(),
        extra in 1usize..=10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rs, cw) = rs_codeword(shape, &mut rng);
        let mut rx = cw.clone();
        inject(&mut rx, rs.t() + extra, &mut rng);
        if let Ok(corrected) = rs.decode(&mut rx) {
            prop_assert!(corrected <= rs.t());
            prop_assert!(rs.syndromes(&rx).iter().all(|&s| s == 0));
            prop_assert_ne!(rx, cw);
        }
    }

    /// A contiguous burst up to the interleaver's tolerance, every symbol
    /// corrupted and no location hint given, is corrected, and the
    /// decoder counts exactly the burst. (The lane-by-lane check is
    /// `tests/fec_differential.rs::interleaved_bursts_agree_with_reference_lanes`.)
    #[test]
    fn interleaver_roundtrip_any_burst_within_tolerance(
        seed in 0u64..1_000_000,
        depth in 1usize..=4,
        burst_sel in 1usize..=100,
        start_sel in 0usize..=10_000,
    ) {
        let il = Interleaver::new(ReedSolomon::new(15, 11), depth);
        let burst = 1 + burst_sel % il.burst_tolerance();
        let mut rng = StdRng::seed_from_u64(seed);
        let payload: Vec<Gf> =
            (0..il.frame_payload()).map(|_| rng.random_range(0..1024u16)).collect();
        let frame = il.encode(&payload);
        let mut hit = frame.clone();
        let start = start_sel % (frame.len() - burst + 1);
        for s in &mut hit[start..start + burst] {
            *s ^= rng.random_range(1..1024u16);
        }

        let (decoded, corrected) = il.decode(&hit).expect("burst within tolerance");
        prop_assert_eq!(&decoded, &payload);
        prop_assert_eq!(corrected, burst);
    }
}
