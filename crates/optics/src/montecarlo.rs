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
use rand::{RngCore, RngExt};
use rand_distr::{standard_normal_from_bits, Distribution, Normal, NormalApprox, NormalEnvelope};
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
    pub(crate) fn from_counts(symbols: u64, errors: u64) -> McBerResult {
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
/// tally are position-independent — it only bounds the exact loop's
/// pending buffer and sets how often the gated walk prices its bound.
pub const NOISE_BLOCK_SYMBOLS: u64 = 4096;

/// Survivors a noise block's buffer starts with room for: about 3 % of
/// symbols survive the gate at fig11's point, so a sixteenth of a block
/// (≈ 2.2× the mean) holds a block's survivors without growing, and a
/// channel with more grows its buffer once or twice a call.
const SURVIVOR_RESERVE: u64 = NOISE_BLOCK_SYMBOLS / 16;

/// What the gated walk's survivor check allows for each side's `cos`: the
/// libm result within one ulp of 1, its product with the beat amplitude
/// rounded by another; four ulps of 1 leaves room.
const COS_ERR: f64 = 4.0 * f64::EPSILON;

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
    /// and PAM4 slicing. With MPI the phase walk is gated too: it advances
    /// by an approximate normal under a carried error bound, and a call
    /// whose survivors cannot all be decided under that bound restarts on
    /// the exact walk. The RNG stream discipline is identical to
    /// [`reference::run`] — same draws in the same order — so the error
    /// count is bit-identical at any block size or thread count.
    pub fn run(&self, symbols: u64, rng: &mut StdRng) -> u64 {
        self.run_bounded(symbols, rng, NormalApprox::MAX_ERROR)
    }

    /// [`McChannel::run`] with the per-draw error the gated phase walk
    /// assumes of [`NormalApprox`] as an argument: tests force the exact
    /// fallback with a large one.
    pub(crate) fn run_bounded(&self, symbols: u64, rng: &mut StdRng, z_err: f64) -> u64 {
        assert!(symbols > 0, "must simulate at least one symbol");
        let phase: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        if !self.has_mpi {
            return self.run_blocks::<false>(symbols, rng, phase);
        }
        let start = rng.clone();
        match self.walk_gated(symbols, rng, phase, z_err) {
            Some((errors, _)) => errors,
            None => {
                *rng = start;
                self.run_blocks::<true>(symbols, rng, phase)
            }
        }
    }

    /// The MPI walk, gated. Draws exactly what the exact walk draws, but
    /// advances the phase by [`NormalApprox`] and carries `bound` ≥ |φ̂ −
    /// φ| (the approximate phase against the exact one): per symbol
    /// `sd·z_err`, plus both walks' rounding of the step and of the phase
    /// sum. A noise block adds its whole share to the bound up front and
    /// then runs in chunks of [`NormalApprox::CHUNK`] symbols: draw every
    /// symbol's words in stream order, turn the phase words into normals
    /// in one [`NormalApprox::sample_slice`], then advance the phase and
    /// gate each symbol. A survivor keeps the exact noise normal and `cos
    /// φ̂`, and is judged at once against the block's bound: its decision
    /// counts only when every threshold lies farther from the current than
    /// the beat could move under the bound (β·(bound + 2·[`COS_ERR`]), β
    /// the level's beat amplitude) plus the rounding of the last add. Any
    /// other survivor — or a NaN — returns `None`, and the caller replays
    /// the call exactly. Otherwise returns the error count and the bound
    /// carried at the end.
    // `!(a > b)` on purpose, as in `run_blocks`: a NaN must fall through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn walk_gated(
        &self,
        symbols: u64,
        rng: &mut StdRng,
        mut phase: f64,
        z_err: f64,
    ) -> Option<(u64, f64)> {
        const CHUNK: usize = NormalApprox::CHUNK;
        let approx = NormalApprox::get();
        let [t0, t1, t2] = self.thresholds;
        let (mean, sd) = (self.phase_step.mean(), self.phase_step.std_dev());
        // No step of either walk is longer: |z| and |ẑ| stay under the
        // envelope's largest bound plus z_err.
        let step = mean.abs() + sd * (self.envelope.max_bound() + z_err);
        let mut bound = 0.0f64;
        let mut errors = 0u64;
        let mut levels = [0usize; CHUNK];
        let (mut n1, mut n2) = ([0u64; CHUNK], [0u64; CHUNK]);
        let (mut p1, mut p2) = ([0u64; CHUNK], [0u64; CHUNK]);
        let mut z_phase = [0.0f64; CHUNK];
        let mut remaining = symbols;
        while remaining > 0 {
            let block = remaining.min(NOISE_BLOCK_SYMBOLS);
            // Both walks stay within `reach` of zero over the block, so
            // each sum a symbol takes rounds by at most ε/2 of `reach` or
            // of `step`; the bound's own few-ulp rounding sits far inside
            // the hundredfold slack `MAX_ERROR` carries. Each survivor is
            // judged at once against the bound the block ends with.
            let reach = phase.abs() + bound + block as f64 * step;
            bound += block as f64 * (sd * z_err + 2.0 * f64::EPSILON * (step + reach));
            let mut left = block as usize;
            while left > 0 {
                let n = left.min(CHUNK);
                for i in 0..n {
                    levels[i] = rng.random_range(0usize..4);
                    n1[i] = rng.next_u64();
                    n2[i] = rng.next_u64();
                    p1[i] = rng.next_u64();
                    p2[i] = rng.next_u64();
                }
                approx.sample_slice(&p1[..n], &p2[..n], &mut z_phase[..n]);
                for i in 0..n {
                    phase += mean + sd * z_phase[i];
                    let (level, b1, b2) = (levels[i], n1[i], n2[i]);
                    if self.envelope.bound(b1, b2) < self.qeff_mpi[level] {
                        continue;
                    }
                    let z = standard_normal_from_bits(b1, b2);
                    let beat = self.beat_scale[level];
                    let current =
                        self.currents[level] + (0.0 + self.sigma[level] * z) + beat * phase.cos();
                    let margin =
                        beat * (bound + 2.0 * COS_ERR) + current.abs() * (2.0 * f64::EPSILON);
                    if !((current - t0).abs() > margin
                        && (current - t1).abs() > margin
                        && (current - t2).abs() > margin)
                    {
                        return None;
                    }
                    let decided = usize::from(current > t0)
                        + usize::from(current > t1)
                        + usize::from(current > t2);
                    errors += BIT_ERRORS[level][decided];
                }
                left -= n;
            }
            remaining -= block;
        }
        Some((errors, bound))
    }

    /// The batched loop, one instantiation per channel kind. Clean: 4 raw
    /// u64s per symbol (two for the level, two for the noise), one
    /// multiply + compare for the gate. `MPI` is the exact walk, which
    /// [`McChannel::walk_gated`] falls back to: the beat-phase random walk
    /// is inherently serial (every symbol's phase feeds the next), so its
    /// exact Box–Muller step runs for every symbol — two more raw u64s;
    /// the gate, with the worst-case beat amplitude pre-subtracted, still
    /// skips the noise Box–Muller, the cos(φ) beat evaluation and the
    /// slicing for the overwhelming majority of symbols.
    // The gate compares as `!(bound < q)` on purpose: a NaN bound must
    // fall through to the exact path, which `bound >= q` would not
    // guarantee.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn run_blocks<const MPI: bool>(&self, symbols: u64, rng: &mut StdRng, mut phase: f64) -> u64 {
        let [t0, t1, t2] = self.thresholds;
        let qeff = if MPI { &self.qeff_mpi } else { &self.qeff };
        let mut errors = 0u64;
        let mut pending: Vec<(usize, u64, u64, f64)> =
            Vec::with_capacity(SURVIVOR_RESERVE.min(symbols) as usize);
        let mut remaining = symbols;
        while remaining > 0 {
            let block = remaining.min(NOISE_BLOCK_SYMBOLS);
            pending.clear();
            for _ in 0..block {
                let level = rng.random_range(0usize..4);
                let b1 = rng.next_u64();
                let b2 = rng.next_u64();
                if MPI {
                    // Exactly `phase_step.sample(rng)`: mean + std_dev·z.
                    phase += self.phase_step.mean()
                        + self.phase_step.std_dev()
                            * standard_normal_from_bits(rng.next_u64(), rng.next_u64());
                }
                let bound = self.envelope.bound(b1, b2);
                if !(bound < qeff[level]) {
                    pending.push((level, b1, b2, phase));
                }
            }
            for &(level, b1, b2, sym_phase) in &pending {
                let z = standard_normal_from_bits(b1, b2);
                // Exactly `currents[l] + noise[l].sample(rng)`:
                // Normal::sample computes mean + std_dev·z with mean 0.
                let mut current = self.currents[level] + (0.0 + self.sigma[level] * z);
                if MPI {
                    current += self.beat_scale[level] * sym_phase.cos();
                }
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
    // The physical channel, beat included, is `McChannel`'s without OIM.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::mpi_db;
    use rand::SeedableRng;

    fn seeded(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// A Monte-Carlo BER estimate on a caller-supplied generator (one
    /// contiguous symbol stream — one shard of `simulate_ber_par`).
    ///
    /// * `symbols` — number of PAM4 symbols to simulate (2 bits each).
    /// * `mpi_ratio` — linear interferer-to-signal power ratio.
    /// * `oim` — optional OIM DSP config (applied as beat-amplitude
    ///   suppression, mirroring the notch filter).
    fn simulate_ber(
        rx: &Pam4Receiver,
        received: Dbm,
        mpi_ratio: f64,
        oim: Option<OimConfig>,
        symbols: u64,
        rng: &mut StdRng,
    ) -> McBerResult {
        let errors = McChannel::new(rx, received, mpi_ratio, oim).run(symbols, rng);
        McBerResult::from_counts(symbols, errors)
    }

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
        let mc = simulate_ber(&rx, p, 0.0, None, 2_000_000, &mut seeded(42));
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
        let clean = simulate_ber(&rx, p, 0.0, None, 1_000_000, &mut seeded(7));
        let dirty = simulate_ber(&rx, p, mpi_db(-28.0), None, 1_000_000, &mut seeded(7));
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
        let no_oim = simulate_ber(&rx, p, mpi_db(-28.0), None, 1_000_000, &mut seeded(11));
        let with_oim = simulate_ber(
            &rx,
            p,
            mpi_db(-28.0),
            Some(OimConfig::default()),
            1_000_000,
            &mut seeded(11),
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
        let a = simulate_ber(
            &rx,
            Dbm(-13.0),
            mpi_db(-32.0),
            None,
            100_000,
            &mut seeded(3),
        );
        let b = simulate_ber(
            &rx,
            Dbm(-13.0),
            mpi_db(-32.0),
            None,
            100_000,
            &mut seeded(3),
        );
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
        let modeled = simulate_ber(
            &rx,
            p,
            mpi_db(-28.0),
            Some(OimConfig::default()),
            400_000,
            &mut seeded(33),
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
        let _ = simulate_ber(&rx, Dbm(-10.0), 0.0, None, 0, &mut seeded(1));
    }

    /// Runs `chan` from `seed` through the kernel (at `z_err`) and the
    /// reference: equal error counts, and the generators at one position.
    fn assert_matches_reference(chan: &McChannel, symbols: u64, seed: u64, z_err: f64) {
        let mut rng_fast = StdRng::seed_from_u64(seed);
        let mut rng_ref = StdRng::seed_from_u64(seed);
        let fast = chan.run_bounded(symbols, &mut rng_fast, z_err);
        let slow = reference::run(chan, symbols, &mut rng_ref);
        assert_eq!(
            fast, slow,
            "fast/reference divergence at n={symbols}: {chan:?}"
        );
        assert_eq!(
            rng_fast.next_u64(),
            rng_ref.next_u64(),
            "RNG stream position diverged at n={symbols}: {chan:?}"
        );
    }

    #[test]
    fn batched_kernel_matches_reference_bit_for_bit() {
        let rx = Pam4Receiver::cwdm4_50g();
        // Clean, weak-MPI and strong-MPI channels across the fig11 power
        // range, the strongest MPI at the weakest power, and OIM; symbol
        // counts straddling the noise block and the shard.
        let oim = Some(OimConfig::default());
        for &(p, mpi, oim) in &[
            (-14.0, 0.0, None),
            (-13.0, 0.0, None),
            (-12.5, mpi_db(-32.0), None),
            (-12.0, mpi_db(-26.0), None),
            (-16.0, mpi_db(-26.0), None),
            (-12.5, mpi_db(-28.0), oim),
            (-10.0, 0.0, None),
        ] {
            let chan = McChannel::new(&rx, Dbm(p), mpi, oim);
            for &symbols in &[
                1u64,
                NOISE_BLOCK_SYMBOLS - 1,
                NOISE_BLOCK_SYMBOLS + 17,
                DEFAULT_SHARD_SYMBOLS - 1,
                DEFAULT_SHARD_SYMBOLS + 1,
                200_000,
            ] {
                assert_matches_reference(&chan, symbols, 99, NormalApprox::MAX_ERROR);
            }
        }
        // One walk of 2 M symbols: the bound carried across 489 blocks.
        let chan = McChannel::new(&rx, Dbm(-12.5), mpi_db(-32.0), None);
        assert_matches_reference(&chan, 2_000_000, 7, NormalApprox::MAX_ERROR);
    }

    #[test]
    fn a_forced_fallback_replays_the_call_exactly() {
        let rx = Pam4Receiver::cwdm4_50g();
        let chan = McChannel::new(&rx, Dbm(-12.5), mpi_db(-32.0), None);
        let symbols = 3 * NOISE_BLOCK_SYMBOLS + 5;
        // A per-draw error this large leaves no survivor decidable, so the
        // gated walk gives up part-way through the stream.
        let z_err = 1e-3;
        let mut rng = StdRng::seed_from_u64(5);
        let phase = rng.random_range(0.0..std::f64::consts::TAU);
        assert!(chan.walk_gated(symbols, &mut rng, phase, z_err).is_none());
        assert_matches_reference(&chan, symbols, 5, z_err);
    }

    #[test]
    fn fig11s_shards_all_stay_on_the_gated_walk() {
        // fig11's Monte-Carlo call at seed 42: 45 shards (the last carries
        // the remainder), every one decided
        // without the exact fallback, each under a bound that covers every
        // step of its walk. A bound inflated until everything falls back
        // to libm fails here, and so does one that forgets earlier blocks.
        let rx = Pam4Receiver::cwdm4_50g();
        let chan = McChannel::new(&rx, Dbm(-12.5), mpi_db(-32.0), None);
        let per_step = chan.phase_step.std_dev() * NormalApprox::MAX_ERROR;
        let (gated, _) = Pool::new(1).run_shards(
            42,
            3_000_000,
            DEFAULT_SHARD_SYMBOLS,
            |rng, shard| {
                let phase = rng.random_range(0.0..std::f64::consts::TAU);
                let walk = chan.walk_gated(shard.len, rng, phase, NormalApprox::MAX_ERROR);
                let Some((_, bound)) = walk else {
                    return 0u64;
                };
                assert!(
                    bound >= shard.len as f64 * per_step,
                    "shard {}: bound {bound:e} short of {} steps",
                    shard.index,
                    shard.len
                );
                1
            },
            |a, b| a + b,
        );
        assert_eq!(gated, 45);
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
