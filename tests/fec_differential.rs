//! Differential proptests: the fast FEC/PAM4 kernels versus their frozen
//! references (DESIGN §6.8).
//!
//! The reference implementations (`tests/oracle/reed_solomon.rs`,
//! `lightwave::optics::montecarlo::reference`) are the behavioral
//! oracles; these properties drive both sides with the same arbitrary
//! inputs and demand *exact* agreement — return values, output buffers
//! (including the partially-corrected buffers of failed decodes), error
//! tallies, and RNG stream positions. `tests/fec_vectors.rs` pins fixed
//! known answers; this file covers the input space around them.

use lightwave::fec::gf::Gf;
use lightwave::fec::{Interleaver, ReedSolomon, RsScratch};
use lightwave::optics::ber::{mpi_db, Pam4Receiver};
use lightwave::optics::montecarlo::{self as mc, McChannel};
use lightwave::par::Pool;
use lightwave::units::Dbm;
use oracle::ReferenceRs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

// `from_parts` is the golden-vector suite's; nothing here calls it.
#[allow(dead_code)]
#[path = "oracle/reed_solomon.rs"]
mod oracle;

/// Builds matched fast/reference codecs for one of two shapes: the
/// production KP4 code and a small code whose short length shakes out
/// index edge cases the long code hides.
fn codecs(small: bool) -> (ReedSolomon, ReferenceRs) {
    if small {
        (ReedSolomon::new(15, 11), ReferenceRs::new(15, 11))
    } else {
        (ReedSolomon::kp4(), ReferenceRs::new(544, 514))
    }
}

/// Deterministically corrupts `cw` with `nerr` distinct-position errors.
fn inject(cw: &mut [Gf], nerr: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos: Vec<usize> = (0..cw.len()).collect();
    for i in 0..nerr {
        let j = rng.random_range(i..pos.len());
        pos.swap(i, j);
        cw[pos[i]] ^= rng.random_range(1..1024u16);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast and reference encoders agree on arbitrary messages, both
    /// code shapes.
    #[test]
    fn encode_agrees_on_arbitrary_messages(seed in 0u64..1_000_000, small in any::<bool>()) {
        let (fast, reference) = codecs(small);
        let mut rng = StdRng::seed_from_u64(seed);
        let msg: Vec<Gf> = (0..fast.k()).map(|_| rng.random_range(0..1024u16)).collect();
        prop_assert_eq!(fast.encode(&msg), reference.encode(&msg));
    }

    /// Decode agrees — result *and* buffer — on arbitrary error patterns
    /// up to t errors.
    #[test]
    fn decode_agrees_within_t(seed in 0u64..1_000_000, nerr_sel in 0usize..=100, small in any::<bool>()) {
        let (fast, reference) = codecs(small);
        let nerr = nerr_sel % (fast.t() + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let msg: Vec<Gf> = (0..fast.k()).map(|_| rng.random_range(0..1024u16)).collect();
        let cw = fast.encode(&msg);
        let mut fast_word = cw.clone();
        inject(&mut fast_word, nerr, seed ^ 0xE44);
        let mut ref_word = fast_word.clone();

        let mut scratch = RsScratch::new();
        let fast_res = fast.decode_with(&mut fast_word, &mut scratch);
        let ref_res = reference.decode(&mut ref_word);
        prop_assert_eq!(fast_res, ref_res);
        prop_assert_eq!(&fast_word, &ref_word);
        prop_assert_eq!(fast_res, Ok(nerr));
        prop_assert_eq!(fast_word, cw);
    }

    /// Beyond t errors both sides must make the *same* call — detected
    /// failure or (rare) identical miscorrection — and leave identical
    /// buffers, including the partially-corrected Err-path buffers.
    #[test]
    fn decode_agrees_beyond_t(seed in 0u64..1_000_000, extra in 1usize..=10, small in any::<bool>()) {
        let (fast, reference) = codecs(small);
        let nerr = fast.t() + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let msg: Vec<Gf> = (0..fast.k()).map(|_| rng.random_range(0..1024u16)).collect();
        let mut fast_word = fast.encode(&msg);
        inject(&mut fast_word, nerr, seed ^ 0xBEEF);
        let mut ref_word = fast_word.clone();

        let mut scratch = RsScratch::new();
        let fast_res = fast.decode_with(&mut fast_word, &mut scratch);
        let ref_res = reference.decode(&mut ref_word);
        prop_assert_eq!(fast_res, ref_res);
        prop_assert_eq!(fast_word, ref_word);
    }

    /// An erasure-free burst up to the interleaver's burst tolerance is
    /// corrected by the fast kernels, and a symbol-by-symbol reference
    /// decode of each de-interleaved lane agrees with it.
    #[test]
    fn interleaved_bursts_agree_with_reference_lanes(
        seed in 0u64..1_000_000,
        depth in 1usize..=4,
        burst_sel in 1usize..=100,
        start_sel in 0usize..=10_000,
    ) {
        let code = ReedSolomon::new(15, 11);
        let reference = ReferenceRs::new(15, 11);
        let il = Interleaver::new(code, depth);
        let burst = 1 + burst_sel % il.burst_tolerance();
        let mut rng = StdRng::seed_from_u64(seed);
        let payload: Vec<Gf> =
            (0..il.frame_payload()).map(|_| rng.random_range(0..1024u16)).collect();
        let frame = il.encode(&payload);
        let mut hit = frame.clone();
        let start = start_sel % (frame.len() - burst + 1);
        for s in &mut hit[start..start + burst] {
            // Contiguous burst, every symbol corrupted (erasure-free: the
            // decoder gets no location hints).
            *s ^= rng.random_range(1..1024u16);
        }

        let (decoded, corrected) = il.decode(&hit).expect("burst within tolerance");
        prop_assert_eq!(&decoded, &payload);
        prop_assert_eq!(corrected, burst);

        // De-interleave lane w = positions i·depth + w, and reference-decode
        // each lane's codeword independently.
        let mut ref_corrected = 0usize;
        for w in 0..depth {
            let mut lane: Vec<Gf> =
                (0..reference.n()).map(|i| hit[i * depth + w]).collect();
            ref_corrected += reference.decode(&mut lane).expect("lane within t");
            let clean: Vec<Gf> =
                (0..reference.n()).map(|i| frame[i * depth + w]).collect();
            prop_assert_eq!(lane, clean);
        }
        prop_assert_eq!(ref_corrected, burst);
    }
}

proptest! {
    // The MC property runs three full channels per case; keep the case
    // count modest so tier-1 stays fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The batched Monte-Carlo symbol loop is bit-identical to the
    /// reference loop — error tally *and* RNG stream position — for
    /// arbitrary (seed, trials), clean and MPI, including trial counts
    /// that are not multiples of the noise block.
    #[test]
    fn mc_loop_is_bit_identical_to_reference(
        seed in 0u64..1_000_000,
        extra in 0u64..(2 * mc::NOISE_BLOCK_SYMBOLS),
        blocks in 0u64..3,
        mpi in any::<bool>(),
    ) {
        let symbols = 1 + blocks * mc::NOISE_BLOCK_SYMBOLS + extra;
        let rx = Pam4Receiver::cwdm4_50g();
        let chan = if mpi {
            McChannel::new(&rx, Dbm(-12.5), mpi_db(-32.0), None)
        } else {
            McChannel::new(&rx, Dbm(-13.0), 0.0, None)
        };
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let fast = chan.run(symbols, &mut fast_rng);
        let reference = mc::reference::run(&chan, symbols, &mut ref_rng);
        prop_assert_eq!(fast, reference);
        // Same stream position ⇒ the kernels consumed identical raw draws.
        prop_assert_eq!(fast_rng.next_u64(), ref_rng.next_u64());
    }

    /// The pooled fast path equals the pooled reference path for
    /// arbitrary (seed, symbols) at 1, 2 and 4 workers — all seven runs
    /// one result.
    #[test]
    fn pooled_mc_agrees_across_thread_counts(
        seed in 0u64..1_000_000,
        extra in 1u64..10_000,
    ) {
        let symbols = mc::DEFAULT_SHARD_SYMBOLS + extra;
        let rx = Pam4Receiver::cwdm4_50g();
        let reference = {
            let pool = Pool::new(1);
            mc::reference::simulate_ber_par(
                &pool, &rx, Dbm(-12.5), mpi_db(-32.0), None, symbols, seed,
            ).0
        };
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let fast = mc::simulate_ber_par(
                &pool, &rx, Dbm(-12.5), mpi_db(-32.0), None, symbols, seed,
            ).0;
            prop_assert_eq!(fast, reference);
            let ref_pooled = mc::reference::simulate_ber_par(
                &pool, &rx, Dbm(-12.5), mpi_db(-32.0), None, symbols, seed,
            ).0;
            prop_assert_eq!(ref_pooled, reference);
        }
    }
}
