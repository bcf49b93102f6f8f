//! Differential proptests (DESIGN §6.8): two routes to one answer, driven
//! by the same arbitrary inputs and held to *exact* agreement.
//!
//! - Reed–Solomon: a blind `decode` and a `decode_errata` told where the
//!   errors are; an interleaved frame's decode and an independent decode
//!   of each de-interleaved lane. The codec has one implementation; its
//!   golden vectors are `tests/fec_vectors.rs` and its properties
//!   `crates/fec/tests/props.rs`.
//! - Monte Carlo: the batched PAM4 symbol loop and its frozen reference,
//!   `lightwave::optics::montecarlo::reference` — error tallies and RNG
//!   stream positions, serially and pooled at every thread count.

use lightwave::fec::gf::Gf;
use lightwave::fec::{Interleaver, ReedSolomon};
use lightwave::optics::ber::{mpi_db, Pam4Receiver};
use lightwave::optics::montecarlo::{self as mc, McChannel};
use lightwave::par::Pool;
use lightwave::units::Dbm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Corrupts `nerr` distinct positions of `word` with non-zero magnitudes
/// and returns the positions hit.
fn inject(word: &mut [Gf], nerr: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut positions: Vec<usize> = (0..word.len()).collect();
    for i in 0..nerr {
        let j = rng.random_range(i..positions.len());
        positions.swap(i, j);
        word[positions[i]] ^= rng.random_range(1..1024u16);
    }
    positions.truncate(nerr);
    positions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Up to t errors, a blind decode and an errata decode given the error
    /// positions as erasures agree — each restores the codeword sent, the
    /// blind one counting the errors, the errata one the erasures — at a
    /// short code whose length shakes out index edge cases and at KP4.
    #[test]
    fn decode_agrees_within_t(seed in 0u64..1_000_000, nerr_sel in 0usize..=100, small in any::<bool>()) {
        let rs = if small { ReedSolomon::new(15, 11) } else { ReedSolomon::kp4() };
        let nerr = nerr_sel % (rs.t() + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let msg: Vec<Gf> = (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect();
        let cw = rs.encode(&msg);
        let mut blind = cw.clone();
        let positions = inject(&mut blind, nerr, &mut rng);
        let mut located = blind.clone();

        prop_assert_eq!(rs.decode(&mut blind), Ok(nerr));
        let errata = if nerr == 0 { (0, 0) } else { (0, nerr) };
        prop_assert_eq!(rs.decode_errata(&mut located, &positions), Ok(errata));
        prop_assert_eq!(&blind, &cw);
        prop_assert_eq!(&located, &cw);
    }

    /// A contiguous burst up to the interleaver's tolerance, every symbol
    /// corrupted and no location hint given, decodes the same way whole
    /// and lane by lane: each de-interleaved lane decodes on its own to the
    /// lane sent, and the lanes' corrections sum to the burst.
    #[test]
    fn interleaved_bursts_agree_with_reference_lanes(
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

        // Lane w is line positions i·depth + w.
        let n = il.code.n();
        let mut lane_corrected = 0usize;
        for w in 0..depth {
            let mut lane: Vec<Gf> = (0..n).map(|i| hit[i * depth + w]).collect();
            lane_corrected += il.code.decode(&mut lane).expect("lane within t");
            let clean: Vec<Gf> = (0..n).map(|i| frame[i * depth + w]).collect();
            prop_assert_eq!(lane, clean);
        }
        prop_assert_eq!(lane_corrected, corrected);
        prop_assert_eq!(lane_corrected, burst);
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
