//! Symbol-level Monte-Carlo BER simulation.
//!
//! Fig. 11a of the paper is labeled "BER: Monte Carlo" — the authors
//! validated their analytic link model against symbol-level simulation.
//! This module does the same for our model: it transmits random Gray-coded
//! PAM4 symbols, adds the level-dependent Gaussian noise terms, models the
//! MPI beat as a *bounded sinusoid* with a slowly wandering phase (its true
//! narrow-band character, rather than the Gaussian approximation the
//! analytic model uses), slices with the analytic thresholds, and counts
//! bit errors.
//!
//! Agreement between the two establishes that the Gaussian MPI
//! approximation is conservative-but-tight in the regime the paper cares
//! about, exactly the claim of Fig. 11b ("measured data ... matches well
//! with the modeling results").

use crate::ber::{OimConfig, Pam4Receiver};
use lightwave_par::{Pool, RunStats};
use lightwave_units::{Ber, Dbm};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use rand_distr::{standard_normal_from_bits, Distribution, Normal, NormalEnvelope};
use serde::{Deserialize, Serialize};

/// Result of a Monte-Carlo BER run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McBerResult {
    /// Bits simulated.
    pub bits: u64,
    /// Bit errors observed.
    pub errors: u64,
    /// Estimated BER (errors/bits; 0 if no errors seen).
    pub ber: Ber,
}

impl McBerResult {
    /// Builds the result from raw symbol/error tallies (2 bits per symbol).
    pub fn from_counts(symbols: u64, errors: u64) -> McBerResult {
        let bits = symbols * 2;
        McBerResult {
            bits,
            errors,
            ber: Ber::new(errors as f64 / bits as f64),
        }
    }
}

/// Gray code mapping for PAM4 levels 0..3 → 2-bit patterns.
const GRAY: [u8; 4] = [0b00, 0b01, 0b11, 0b10];

/// Gray-decode LUT: bit errors charged when level `tx` is sliced as level
/// `rx` — `popcount(GRAY[tx] ^ GRAY[rx])`, precomputed so the symbol loop
/// never re-derives bit patterns.
const BIT_ERRORS: [[u64; 4]; 4] = {
    let mut t = [[0u64; 4]; 4];
    let mut tx = 0;
    while tx < 4 {
        let mut rx = 0;
        while rx < 4 {
            t[tx][rx] = (GRAY[tx] ^ GRAY[rx]).count_ones() as u64;
            rx += 1;
        }
        tx += 1;
    }
    t
};

/// Symbols per shard for the parallel Monte-Carlo paths. Large enough that
/// the MPI phase walk decorrelates many times over within one shard (it
/// decorrelates over ~1000 symbols) and that per-shard dispatch overhead
/// vanishes; small enough to load-balance across workers.
pub const DEFAULT_SHARD_SYMBOLS: u64 = 1 << 16;

/// Symbols per noise block in the batched symbol loop: raw noise draws are
/// generated (and gate-tested) a block at a time, and only the rare
/// near-threshold survivors get the full Box–Muller + slicing treatment.
/// The block size never affects results — the RNG stream and the error
/// tally are position-independent — it only bounds the pending-buffer
/// working set.
pub const NOISE_BLOCK_SYMBOLS: u64 = 4096;

/// The precomputed PAM4 channel for the symbol loop: per-level signal
/// currents, per-level additive-noise samplers, slicing thresholds, and
/// per-level MPI beat amplitudes. Everything RNG-independent is hoisted
/// here — built once per run, shared read-only by every shard.
#[derive(Debug, Clone)]
pub struct McChannel {
    currents: [f64; 4],
    noise: [Normal<f64>; 4],
    thresholds: [f64; 3],
    beat_scale: [f64; 4],
    phase_step: Normal<f64>,
    has_mpi: bool,
    /// Per-level additive-noise σ (the `noise` samplers' std-dev, hoisted
    /// so the batched loop can scale raw normals without the sampler).
    sigma: [f64; 4],
    /// Clean-path skip gate: a symbol of level l whose |z| bound is below
    /// `qeff[l]` provably slices back to level l (distance to the nearest
    /// deciding threshold in σ units, shrunk by a 1e-9 relative margin).
    /// `-1.0` disables the gate for that level.
    qeff: [f64; 4],
    /// MPI-path skip gate: same idea with the worst-case beat amplitude
    /// already subtracted from the threshold distance (|cos φ| ≤ 1).
    qeff_mpi: [f64; 4],
    /// The |z| bound the gates test: Box–Muller's radius and cosine
    /// envelopes, from the top 8 bits of a normal's two raw draws.
    envelope: &'static NormalEnvelope,
}

impl McChannel {
    /// Precomputes the channel for one (receiver, power, MPI, OIM) point.
    ///
    /// * `mpi_ratio` — linear interferer-to-signal power ratio.
    /// * `oim` — optional OIM DSP config (applied as beat-amplitude
    ///   suppression, mirroring the notch filter).
    pub fn new(
        rx: &Pam4Receiver,
        received: Dbm,
        mpi_ratio: f64,
        oim: Option<OimConfig>,
    ) -> McChannel {
        let plan = rx.level_plan(received, mpi_ratio, oim);
        assert_eq!(plan.levels, 4, "Monte-Carlo simulator is written for PAM4");
        let currents = plan.currents;
        let thresholds: [f64; 3] = std::array::from_fn(|t| plan.threshold(t));

        // Per-level *additive* (thermal+shot+RIN) noise — everything except
        // MPI — as ready-built samplers.
        let noise = plan
            .additive_var
            .map(|var| Normal::new(0.0, var.sqrt().max(1e-18)).expect("sigma positive"));
        let sigma = noise.map(|d| d.std_dev());

        // MPI beat: i(t) = 2ξ'·R·√(P_sym·P_mpi)·cos φ(t). The phase wanders
        // slowly (interferer path length drifts), modeled as a random walk
        // that decorrelates over ~1000 symbols. OIM suppresses the beat
        // amplitude by the sqrt of its power factor. Amplitude calibrated so
        // ⟨i²⟩ = 2·ξ·m·R²·P_sym·P_avg matches the analytic variance:
        // amp = 2√ξ·R√(P_sym·P_mpi) gives var 2ξR²PP_mpi.
        let p_mpi_w = plan.p_mpi_w;
        let xi_amp = 2.0 * rx.mpi_xi.sqrt();
        let beat_scale = plan
            .powers_w
            .map(|p| xi_amp * rx.responsivity * (p * p_mpi_w).sqrt());
        // Distance from each level's nominal current to the nearest
        // threshold whose crossing would change the sliced decision.
        let [t0, t1, t2] = thresholds;
        let dmin = [
            t0 - currents[0],
            (currents[1] - t0).min(t1 - currents[1]),
            (currents[2] - t1).min(t2 - currents[2]),
            currents[3] - t2,
        ];
        // Conservative skip thresholds in σ units: a symbol is provably
        // error-free when the |z| bound falls below q_eff. The 1e-9
        // relative margins (here and in the envelope) dwarf any few-ulp
        // rounding in the exact-path float expressions, so the gate can
        // never skip a symbol the exact path would have sliced wrong.
        let mut qeff = [0.0; 4];
        let mut qeff_mpi = [0.0; 4];
        for l in 0..4 {
            qeff[l] = if dmin[l] > 0.0 && sigma[l] > 0.0 {
                dmin[l] / sigma[l] * (1.0 - 1e-9)
            } else {
                -1.0
            };
            let headroom = dmin[l] - beat_scale[l];
            qeff_mpi[l] = if headroom > 0.0 && sigma[l] > 0.0 {
                headroom / sigma[l] * (1.0 - 1e-9)
            } else {
                -1.0
            };
        }
        McChannel {
            currents,
            noise,
            thresholds,
            beat_scale,
            phase_step: Normal::new(0.0, 0.05).expect("valid sigma"),
            has_mpi: p_mpi_w > 0.0,
            sigma,
            qeff,
            qeff_mpi,
            envelope: NormalEnvelope::get(),
        }
    }

    /// Transmits `symbols` random Gray-coded PAM4 symbols over the channel
    /// with `rng`, returning the bit-error count. One contiguous stream:
    /// the MPI beat phase wanders across the whole range.
    ///
    /// This is the batched kernel (DESIGN §6.8): raw RNG draws are
    /// consumed in [`NOISE_BLOCK_SYMBOLS`]-sized blocks, every symbol's
    /// draws are gate-tested against the threshold-distance LUT bound, and
    /// only near-threshold survivors get the Box–Muller transcendentals
    /// and PAM4 slicing. The RNG stream discipline is identical to
    /// [`reference::run`] — same draws in the same order — so the error
    /// count is bit-identical at any block size or thread count.
    pub fn run(&self, symbols: u64, rng: &mut StdRng) -> u64 {
        assert!(symbols > 0, "must simulate at least one symbol");
        let phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        if self.has_mpi {
            self.run_mpi(symbols, rng, phase)
        } else {
            self.run_clean(symbols, rng)
        }
    }

    /// Clean-channel batched loop: 4 raw u64s per symbol (two for the
    /// level, two for the noise), one multiply + compare for the gate.
    // The gate compares as `!(bound < q)` on purpose: a NaN bound must
    // fall through to the exact path, which `bound >= q` would not
    // guarantee.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn run_clean(&self, symbols: u64, rng: &mut StdRng) -> u64 {
        let [t0, t1, t2] = self.thresholds;
        let mut errors = 0u64;
        let mut pending: Vec<(usize, u64, u64)> =
            Vec::with_capacity(NOISE_BLOCK_SYMBOLS.min(symbols) as usize);
        let mut remaining = symbols;
        while remaining > 0 {
            let block = remaining.min(NOISE_BLOCK_SYMBOLS);
            pending.clear();
            for _ in 0..block {
                let level = rng.random_range(0usize..4);
                let b1 = rng.next_u64();
                let b2 = rng.next_u64();
                let bound = self.envelope.bound(b1, b2);
                // `!(bound < q)` keeps NaN bounds on the exact path.
                if !(bound < self.qeff[level]) {
                    pending.push((level, b1, b2));
                }
            }
            for &(level, b1, b2) in &pending {
                let z = standard_normal_from_bits(b1, b2);
                // Exactly `currents[l] + noise[l].sample(rng)`:
                // Normal::sample computes mean + std_dev·z with mean 0.
                let current = self.currents[level] + (0.0 + self.sigma[level] * z);
                let decided = usize::from(current > t0)
                    + usize::from(current > t1)
                    + usize::from(current > t2);
                errors += BIT_ERRORS[level][decided];
            }
            remaining -= block;
        }
        errors
    }

    /// MPI batched loop: the beat-phase random walk is inherently serial
    /// (every symbol's phase feeds the next), so its Box–Muller step always
    /// runs; the gate — with the worst-case beat amplitude pre-subtracted —
    /// still skips the noise Box–Muller, the cos(φ) beat evaluation and the
    /// slicing for the overwhelming majority of symbols.
    // `!(bound < q)` rather than `>=`: NaN bounds must take the exact path.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn run_mpi(&self, symbols: u64, rng: &mut StdRng, mut phase: f64) -> u64 {
        let [t0, t1, t2] = self.thresholds;
        let mut errors = 0u64;
        let mut pending: Vec<(usize, u64, u64, f64)> =
            Vec::with_capacity(NOISE_BLOCK_SYMBOLS.min(symbols) as usize);
        let mut remaining = symbols;
        while remaining > 0 {
            let block = remaining.min(NOISE_BLOCK_SYMBOLS);
            pending.clear();
            for _ in 0..block {
                let level = rng.random_range(0usize..4);
                let b1 = rng.next_u64();
                let b2 = rng.next_u64();
                // Exactly `phase_step.sample(rng)`: mean + std_dev·z.
                phase += self.phase_step.mean()
                    + self.phase_step.std_dev()
                        * standard_normal_from_bits(rng.next_u64(), rng.next_u64());
                let bound = self.envelope.bound(b1, b2);
                if !(bound < self.qeff_mpi[level]) {
                    pending.push((level, b1, b2, phase));
                }
            }
            for &(level, b1, b2, sym_phase) in &pending {
                let z = standard_normal_from_bits(b1, b2);
                let current = self.currents[level]
                    + (0.0 + self.sigma[level] * z)
                    + self.beat_scale[level] * sym_phase.cos();
                let decided = usize::from(current > t0)
                    + usize::from(current > t1)
                    + usize::from(current > t2);
                errors += BIT_ERRORS[level][decided];
            }
            remaining -= block;
        }
        errors
    }
}

/// The frozen per-symbol Monte-Carlo loop — the behavioral oracle for the
/// batched kernel in [`McChannel::run`] (DESIGN §6.8).
///
/// Kept verbatim from the pre-kernel implementation: one `Normal::sample`
/// per symbol, straight-line slicing, no gating. Used by the differential
/// tests and benches only; production paths call [`McChannel::run`].
pub mod reference {
    use super::*;

    /// The pre-kernel [`McChannel::run`]: per-symbol sampling, no batching
    /// or gating. Consumes the identical RNG stream.
    pub fn run(chan: &McChannel, symbols: u64, rng: &mut StdRng) -> u64 {
        assert!(symbols > 0, "must simulate at least one symbol");
        let [t0, t1, t2] = chan.thresholds;
        let mut phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let mut errors = 0u64;
        for _ in 0..symbols {
            let level = rng.random_range(0usize..4);
            let mut current = chan.currents[level] + chan.noise[level].sample(rng);
            if chan.has_mpi {
                phase += chan.phase_step.sample(rng);
                current += chan.beat_scale[level] * phase.cos();
            }
            // Slice against the analytic thresholds.
            let decided =
                usize::from(current > t0) + usize::from(current > t1) + usize::from(current > t2);
            errors += BIT_ERRORS[level][decided];
        }
        errors
    }

    /// [`simulate_ber_par`](super::simulate_ber_par) driven by the
    /// reference loop — identical sharding, seeding and merge order, so
    /// any fast-vs-reference divergence is the kernel's fault alone.
    pub fn simulate_ber_par(
        pool: &Pool,
        rx: &Pam4Receiver,
        received: Dbm,
        mpi_ratio: f64,
        oim: Option<OimConfig>,
        symbols: u64,
        seed: u64,
    ) -> (McBerResult, RunStats) {
        let chan = McChannel::new(rx, received, mpi_ratio, oim);
        run_sharded(pool, symbols, seed, |n, rng| run(&chan, n, rng))
    }
}

/// The sharded driver under both pooled entry points: `symbols` split into
/// [`DEFAULT_SHARD_SYMBOLS`]-sized shards (the last carries the remainder),
/// each an independent stream seeded from `(seed, shard_index)` and handed
/// to `kernel` with its length; integer error counts merge in shard order.
fn run_sharded(
    pool: &Pool,
    symbols: u64,
    seed: u64,
    kernel: impl Fn(u64, &mut StdRng) -> u64 + Sync,
) -> (McBerResult, RunStats) {
    assert!(symbols > 0, "must simulate at least one symbol");
    let (errors, stats) = pool.run_shards(
        seed,
        symbols,
        DEFAULT_SHARD_SYMBOLS,
        |rng, shard| kernel(shard.len, rng),
        |a, b| a + b,
    );
    (McBerResult::from_counts(symbols, errors), stats)
}

/// Runs a Monte-Carlo BER estimate on a caller-supplied generator (one
/// contiguous symbol stream — the single-shard primitive).
///
/// * `symbols` — number of PAM4 symbols to simulate (2 bits each).
/// * `mpi_ratio` — linear interferer-to-signal power ratio.
/// * `oim` — optional OIM DSP config (applied as beat-amplitude
///   suppression, mirroring the notch filter).
pub fn simulate_ber(
    rx: &Pam4Receiver,
    received: Dbm,
    mpi_ratio: f64,
    oim: Option<OimConfig>,
    symbols: u64,
    rng: &mut StdRng,
) -> McBerResult {
    assert!(symbols > 0, "must simulate at least one symbol");
    let errors = McChannel::new(rx, received, mpi_ratio, oim).run(symbols, rng);
    McBerResult::from_counts(symbols, errors)
}

/// Runs the Monte-Carlo BER estimate on `pool`, also returning the
/// engine's [`RunStats`] (shards completed, worker utilization) for
/// telemetry.
///
/// Symbols split into [`DEFAULT_SHARD_SYMBOLS`]-sized shards (the last
/// carries the remainder); each shard is an independent symbol stream
/// seeded from `(seed, shard_index)`, and integer error counts merge in
/// shard-index order — the same seed yields a bit-identical [`McBerResult`]
/// at any thread count.
pub fn simulate_ber_par(
    pool: &Pool,
    rx: &Pam4Receiver,
    received: Dbm,
    mpi_ratio: f64,
    oim: Option<OimConfig>,
    symbols: u64,
    seed: u64,
) -> (McBerResult, RunStats) {
    let chan = McChannel::new(rx, received, mpi_ratio, oim);
    run_sharded(pool, symbols, seed, |n, rng| chan.run(n, rng))
}

/// Runs the Monte-Carlo with a **real digital OIM canceller** instead of
/// the analytic suppression-factor model.
///
/// This is the §3.3.2 / \[66\] algorithm in miniature: "the dominant carrier
/// to carrier (interfering) beating noise, which exhibits a unique
/// narrow-band spectral characteristic, is reconstructed in the digital
/// domain and then removed". Implementation: a decision-directed
/// leaky-integrator tracks the normalized beat `ĉ ≈ A·cos φ(t)` (which
/// wanders far slower than the symbol rate), detection is maximum-
/// likelihood against beat-corrected level hypotheses, and the residual of
/// each decision refines the estimate. No oracle knowledge of the beat is
/// used — only the received samples.
pub fn simulate_ber_digital_oim(
    rx: &Pam4Receiver,
    received: Dbm,
    mpi_ratio: f64,
    symbols: u64,
    rng: &mut StdRng,
) -> McBerResult {
    assert!(symbols > 0, "must simulate at least one symbol");
    // The physical channel, beat included, is `simulate_ber`'s without OIM.
    let McChannel {
        currents,
        noise,
        beat_scale,
        phase_step,
        has_mpi,
        ..
    } = McChannel::new(rx, received, mpi_ratio, None);
    let mut phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);

    // The canceller's state: estimate of cos φ(t) (unit-normalized beat).
    let mut c_hat = 0.0f64;
    let mu = 0.08; // tracking constant ≪ 1 symbol rate, ≫ beat linewidth

    let mut errors = 0u64;
    for _ in 0..symbols {
        let level = rng.random_range(0usize..4);
        let mut y = currents[level] + noise[level].sample(rng);
        if has_mpi {
            phase += phase_step.sample(rng);
            y += beat_scale[level] * phase.cos();
        }
        // ML detection against beat-corrected hypotheses: the candidate
        // level l predicts a sample currents[l] + ĉ·beat_scale[l].
        let mut decided = 0usize;
        let mut best = f64::INFINITY;
        for (l, &i_l) in currents.iter().enumerate() {
            let predicted = i_l + c_hat * beat_scale[l];
            let d = (y - predicted).abs();
            if d < best {
                best = d;
                decided = l;
            }
        }
        // Decision-directed update of the beat estimate.
        if has_mpi && beat_scale[decided] > 0.0 {
            let residual = (y - currents[decided]) / beat_scale[decided];
            c_hat = (1.0 - mu) * c_hat + mu * residual.clamp(-1.5, 1.5);
        }
        errors += BIT_ERRORS[level][decided];
    }
    McBerResult::from_counts(symbols, errors)
}

/// Convenience wrapper with a fixed seed, for the repro harness.
pub fn simulate_ber_seeded(
    rx: &Pam4Receiver,
    received: Dbm,
    mpi_ratio: f64,
    oim: Option<OimConfig>,
    symbols: u64,
    seed: u64,
) -> McBerResult {
    let mut rng = StdRng::seed_from_u64(seed);
    simulate_ber(rx, received, mpi_ratio, oim, symbols, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::mpi_db;

    #[test]
    fn monte_carlo_matches_analytic_without_mpi() {
        let rx = Pam4Receiver::cwdm4_50g();
        // Pick a power where BER ~ 1e-3 so 2e6 symbols give ~4000 errors.
        let p = Dbm(-13.0);
        let analytic = rx.ber(p, 0.0, None).prob();
        assert!(
            analytic > 1e-4,
            "test needs a measurable BER, got {analytic:e}"
        );
        let mc = simulate_ber_seeded(&rx, p, 0.0, None, 2_000_000, 42);
        let ratio = mc.ber.prob() / analytic;
        assert!(
            (0.8..1.25).contains(&ratio),
            "MC {:e} vs analytic {analytic:e} (ratio {ratio:.2})",
            mc.ber.prob()
        );
    }

    #[test]
    fn monte_carlo_shows_mpi_penalty() {
        let rx = Pam4Receiver::cwdm4_50g();
        let p = Dbm(-12.0);
        let clean = simulate_ber_seeded(&rx, p, 0.0, None, 1_000_000, 7);
        let dirty = simulate_ber_seeded(&rx, p, mpi_db(-28.0), None, 1_000_000, 7);
        assert!(
            dirty.ber.prob() > 2.0 * clean.ber.prob().max(1e-7),
            "strong MPI must visibly degrade MC BER: clean={} dirty={}",
            clean.ber,
            dirty.ber
        );
    }

    #[test]
    fn monte_carlo_shows_oim_recovery() {
        let rx = Pam4Receiver::cwdm4_50g();
        let p = Dbm(-12.0);
        let no_oim = simulate_ber_seeded(&rx, p, mpi_db(-28.0), None, 1_000_000, 11);
        let with_oim = simulate_ber_seeded(
            &rx,
            p,
            mpi_db(-28.0),
            Some(OimConfig::default()),
            1_000_000,
            11,
        );
        assert!(
            with_oim.ber.prob() < no_oim.ber.prob() / 2.0,
            "OIM should visibly cut MC BER: {} -> {}",
            no_oim.ber,
            with_oim.ber
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let rx = Pam4Receiver::cwdm4_50g();
        let a = simulate_ber_seeded(&rx, Dbm(-13.0), mpi_db(-32.0), None, 100_000, 3);
        let b = simulate_ber_seeded(&rx, Dbm(-13.0), mpi_db(-32.0), None, 100_000, 3);
        assert_eq!(a.errors, b.errors);
    }

    #[test]
    fn gray_decode_lut_matches_popcount() {
        for tx in 0..4usize {
            for dec in 0..4usize {
                assert_eq!(
                    BIT_ERRORS[tx][dec],
                    u64::from((GRAY[tx] ^ GRAY[dec]).count_ones()),
                    "LUT entry ({tx},{dec})"
                );
            }
        }
    }

    #[test]
    fn parallel_path_thread_count_invariant() {
        let rx = Pam4Receiver::cwdm4_50g();
        let run = |threads| {
            simulate_ber_par(
                &Pool::new(threads),
                &rx,
                Dbm(-13.0),
                mpi_db(-32.0),
                None,
                300_000,
                42,
            )
            .0
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn parallel_path_matches_analytic() {
        let rx = Pam4Receiver::cwdm4_50g();
        let p = Dbm(-13.0);
        let analytic = rx.ber(p, 0.0, None).prob();
        let (mc, _) = simulate_ber_par(&Pool::new(2), &rx, p, 0.0, None, 2_000_000, 42);
        let ratio = mc.ber.prob() / analytic;
        assert!(
            (0.8..1.25).contains(&ratio),
            "parallel MC {:e} vs analytic {analytic:e} (ratio {ratio:.2})",
            mc.ber.prob()
        );
    }

    #[test]
    fn parallel_remainder_symbols_all_simulated() {
        // Symbol count not divisible by the shard size: the tally must
        // still cover every symbol (the last shard carries the remainder).
        let rx = Pam4Receiver::cwdm4_50g();
        let n = DEFAULT_SHARD_SYMBOLS * 3 + 41;
        let (r, _) = simulate_ber_par(&Pool::new(2), &rx, Dbm(-13.0), 0.0, None, n, 9);
        assert_eq!(r.bits, n * 2);
    }

    #[test]
    fn digital_canceller_actually_cancels() {
        // The real decision-directed notch, no oracle: it must recover
        // most of the BER lost to a strong interferer.
        let rx = Pam4Receiver::cwdm4_50g();
        let p = Dbm(-12.0);
        let mut rng1 = StdRng::seed_from_u64(21);
        let mut rng2 = StdRng::seed_from_u64(21);
        let without = simulate_ber(&rx, p, mpi_db(-28.0), None, 400_000, &mut rng1);
        let digital = simulate_ber_digital_oim(&rx, p, mpi_db(-28.0), 400_000, &mut rng2);
        assert!(
            digital.ber.prob() < without.ber.prob() / 4.0,
            "digital OIM should cut BER ≥ 4×: {} → {}",
            without.ber,
            digital.ber
        );
    }

    #[test]
    fn digital_canceller_comparable_to_modeled_suppression() {
        // The analytic OimConfig models the canceller as a power
        // suppression factor; the real DSP should land within an order of
        // magnitude of it (the model is a deliberate simplification).
        let rx = Pam4Receiver::cwdm4_50g();
        let p = Dbm(-12.0);
        let modeled = simulate_ber_seeded(
            &rx,
            p,
            mpi_db(-28.0),
            Some(OimConfig::default()),
            400_000,
            33,
        );
        let mut rng = StdRng::seed_from_u64(33);
        let digital = simulate_ber_digital_oim(&rx, p, mpi_db(-28.0), 400_000, &mut rng);
        let (lo, hi) = (
            modeled.ber.prob().min(digital.ber.prob()).max(1e-7),
            modeled.ber.prob().max(digital.ber.prob()).max(1e-7),
        );
        assert!(
            hi / lo < 12.0,
            "modeled {} vs digital {} diverge more than an order of magnitude",
            modeled.ber,
            digital.ber
        );
    }

    #[test]
    fn digital_canceller_harmless_without_interference() {
        let rx = Pam4Receiver::cwdm4_50g();
        let p = Dbm(-13.0);
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        let plain = simulate_ber(&rx, p, 0.0, None, 500_000, &mut rng1);
        let dsp = simulate_ber_digital_oim(&rx, p, 0.0, 500_000, &mut rng2);
        let ratio = dsp.ber.prob().max(1e-7) / plain.ber.prob().max(1e-7);
        assert!(
            (0.5..2.0).contains(&ratio),
            "canceller must be ~free on clean links: {} vs {}",
            plain.ber,
            dsp.ber
        );
    }

    #[test]
    #[should_panic(expected = "at least one symbol")]
    fn zero_symbols_rejected() {
        let rx = Pam4Receiver::cwdm4_50g();
        let _ = simulate_ber_seeded(&rx, Dbm(-10.0), 0.0, None, 0, 1);
    }

    #[test]
    fn batched_kernel_matches_reference_bit_for_bit() {
        let rx = Pam4Receiver::cwdm4_50g();
        // Clean, weak-MPI and strong-MPI channels across the fig11 power
        // range, including symbol counts straddling the noise block size.
        for &(p, mpi) in &[
            (-14.0, 0.0),
            (-13.0, 0.0),
            (-12.5, mpi_db(-32.0)),
            (-12.0, mpi_db(-26.0)),
            (-10.0, 0.0),
        ] {
            let chan = McChannel::new(&rx, Dbm(p), mpi, None);
            for &symbols in &[
                1u64,
                NOISE_BLOCK_SYMBOLS - 1,
                NOISE_BLOCK_SYMBOLS + 17,
                200_000,
            ] {
                let mut rng_fast = StdRng::seed_from_u64(99);
                let mut rng_ref = StdRng::seed_from_u64(99);
                let fast = chan.run(symbols, &mut rng_fast);
                let slow = reference::run(&chan, symbols, &mut rng_ref);
                assert_eq!(
                    fast, slow,
                    "fast/reference divergence at p={p} mpi={mpi} n={symbols}"
                );
                // The RNG stream discipline must match exactly too.
                assert_eq!(
                    rng_fast.next_u64(),
                    rng_ref.next_u64(),
                    "RNG stream position diverged at p={p} mpi={mpi} n={symbols}"
                );
            }
        }
    }

    #[test]
    fn batched_kernel_matches_reference_with_oim() {
        let rx = Pam4Receiver::cwdm4_50g();
        let chan = McChannel::new(&rx, Dbm(-12.5), mpi_db(-28.0), Some(OimConfig::default()));
        let mut rng_fast = StdRng::seed_from_u64(7);
        let mut rng_ref = StdRng::seed_from_u64(7);
        assert_eq!(
            chan.run(150_000, &mut rng_fast),
            reference::run(&chan, 150_000, &mut rng_ref)
        );
    }

    #[test]
    fn pooled_fast_and_reference_paths_agree() {
        let rx = Pam4Receiver::cwdm4_50g();
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let fast = simulate_ber_par(
                &pool,
                &rx,
                Dbm(-12.5),
                mpi_db(-32.0),
                None,
                DEFAULT_SHARD_SYMBOLS + 123,
                42,
            )
            .0;
            let slow = reference::simulate_ber_par(
                &pool,
                &rx,
                Dbm(-12.5),
                mpi_db(-32.0),
                None,
                DEFAULT_SHARD_SYMBOLS + 123,
                42,
            )
            .0;
            assert_eq!(fast, slow, "pooled divergence at {threads} threads");
        }
    }
}
