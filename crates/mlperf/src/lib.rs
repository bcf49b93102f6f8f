//! LLM training performance on slice shapes — the Table 2 model.
//!
//! §4.2.1: reconfiguring the slice shape to match a model's inherent
//! parallelism yields up to 3.32× training throughput versus the static
//! symmetric 16×16×16 baseline. The mechanism this crate implements:
//!
//! * Each LLM has an *inherent* parallelization: a tensor-parallel width
//!   `tp` (how many ways its matmuls split efficiently), a pipeline depth
//!   `pp` (how many stages its layers partition into), and a data-parallel
//!   width bounded by its global batch. "The amount of inherent model and
//!   data parallelism for an LLM determines the optimal slice
//!   configuration."
//! * The mapper follows the paper's rule: dimension 1 carries tensor
//!   parallelism, dimension 2 carries the pipeline (when the model has
//!   one), and the remaining dimensions carry data parallelism.
//! * Forcing *more* tensor parallelism than the model inherently supports
//!   (the fate of a small-`tp` model on the symmetric baseline, whose
//!   first dimension is 16) wastes compute almost linearly — the extra
//!   ways split matmuls below their efficiency floor. This is what the
//!   static 16×16×16 fabric cannot avoid and a reconfigurable one can.
//! * Communication costs come from `lightwave-superpod`'s α-β collective
//!   models: per-layer tensor-parallel all-reduces, pipeline bubble
//!   overhead, and the gradient all-reduce over the data dimensions.
//!
//! [`SliceOptimizer`] searches every valid shape of a chip budget and
//! returns the best — reproducing both the optimal shapes and the
//! speedup factors of Table 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lightwave_superpod::collective::{ring_all_reduce, ring_reduce_scatter, IciParams};
use lightwave_superpod::slice::SliceShape;
use serde::{Deserialize, Serialize};

/// Hardware parameters of one accelerator chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipParams {
    /// Peak dense throughput, FLOP/s (bf16).
    pub peak_flops: f64,
    /// Achievable model FLOPs utilization on well-shaped work.
    pub mfu: f64,
    /// ICI parameters.
    pub ici: IciParams,
}

impl ChipParams {
    /// Public TPU v4 figures: 275 TFLOP/s bf16, ~40% MFU at scale.
    pub fn tpu_v4() -> ChipParams {
        ChipParams {
            peak_flops: 275e12,
            mfu: 0.4,
            ici: IciParams::tpu_v4(),
        }
    }

    /// Effective sustained FLOP/s.
    pub(crate) fn effective_flops(&self) -> f64 {
        self.peak_flops * self.mfu
    }
}

/// An LLM training workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlmConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Parameter count.
    pub params: f64,
    /// Global batch size in tokens per step.
    pub batch_tokens: f64,
    /// Hidden width (sets activation sizes).
    pub hidden: f64,
    /// Transformer layer count.
    pub layers: usize,
    /// Inherent tensor-parallel width: more ways than this split matmuls
    /// below their efficiency floor.
    pub tp: usize,
    /// Inherent pipeline depth (1 = no pipelining).
    pub pp: usize,
    /// Maximum useful data-parallel ways (global batch / minimum
    /// per-replica batch).
    pub max_dp: usize,
}

impl LlmConfig {
    /// LLM0 of Table 2: 35 B parameters, batch far larger than the model's
    /// parallelism needs. Inherent TP 8, no pipeline.
    pub fn llm0() -> LlmConfig {
        LlmConfig {
            name: "LLM0",
            params: 35e9,
            batch_tokens: 8.0e6,
            hidden: 8192.0,
            layers: 48,
            tp: 8,
            pp: 1,
            max_dp: 1024,
        }
    }

    /// LLM1 of Table 2: 70 B parameters, the most data-parallel-skewed of
    /// the three. Inherent TP 4 × PP 4.
    pub fn llm1() -> LlmConfig {
        LlmConfig {
            name: "LLM1",
            params: 70e9,
            batch_tokens: 16.0e6,
            hidden: 8192.0,
            layers: 80,
            tp: 4,
            pp: 4,
            max_dp: 2048,
        }
    }

    /// LLM2 of Table 2: 150 B parameters, enough model parallelism to fill
    /// the symmetric slice. Inherent TP 16.
    pub fn llm2() -> LlmConfig {
        LlmConfig {
            name: "LLM2",
            params: 150e9,
            batch_tokens: 8.0e6,
            hidden: 12288.0,
            layers: 96,
            tp: 16,
            pp: 1,
            max_dp: 512,
        }
    }

    /// All three Table 2 models.
    pub fn table2() -> [LlmConfig; 3] {
        [LlmConfig::llm0(), LlmConfig::llm1(), LlmConfig::llm2()]
    }

    /// Minimum model-parallel ways (memory floor): the model's own
    /// inherent partitioning tp×pp.
    pub(crate) fn min_model_ways(&self) -> usize {
        self.tp * self.pp
    }
}

/// How a shape was mapped onto parallelism dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// Tensor-parallel ways (dimension 1).
    pub tp: usize,
    /// Pipeline ways (dimension 2 when the model pipelines, else 1).
    pub pp: usize,
    /// Data-parallel ways (the remaining dimensions' product).
    pub dp: usize,
}

/// Per-step time breakdown for a model on a shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepTime {
    /// The mapping used.
    pub mapping: Mapping,
    /// Compute seconds (including inefficiency waste).
    pub compute: f64,
    /// Tensor-parallel communication seconds.
    pub tp_comm: f64,
    /// Pipeline bubble seconds.
    pub pipeline_bubble: f64,
    /// Data-parallel (gradient) communication seconds.
    pub dp_comm: f64,
}

impl StepTime {
    /// Total step seconds.
    pub fn total(&self) -> f64 {
        self.compute + self.tp_comm + self.pipeline_bubble + self.dp_comm
    }

    /// Training throughput in tokens/second for a given batch.
    pub fn throughput(&self, batch_tokens: f64) -> f64 {
        batch_tokens / self.total()
    }
}

/// Why a shape cannot run a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Infeasible {
    /// Model dimensions provide fewer ways than the model's memory floor.
    InsufficientModelWays,
    /// More data-parallel replicas than the batch can feed.
    BatchTooSmall,
}

/// Fraction of tensor-parallel communication hidden under layer compute
/// (XLA aggressively overlaps the per-layer all-reduces with the next
/// matmul; only the tail is exposed).
pub(crate) const TP_OVERLAP: f64 = 0.9;

/// Compute-waste factor for running `ways` tensor-parallel ways on a model
/// whose matmuls split efficiently only `inherent` ways. Superlinear:
/// as per-chip tiles shrink below the systolic array's sweet spot, MXU
/// utilization collapses faster than linearly.
pub fn tp_waste_factor(ways: usize, inherent: usize) -> f64 {
    if ways > inherent {
        let r = ways as f64 / inherent as f64;
        1.0 + 0.40 * (r - 1.0) + 0.14 * (r - 1.0) * (r - 1.0)
    } else {
        // Running under-split: mild (memory pressure) penalty.
        1.0 + 0.1 * (inherent as f64 / ways as f64 - 1.0)
    }
}

/// Evaluates one model on one shape: tries every legal mapping strategy
/// (pipelined: dim 2 carries the pipeline; unpipelined: stages folded
/// into tensor parallelism) and returns the fastest.
///
/// Parallelism groups map to *whole torus dimensions* — the constraint
/// that preserves wraparound bandwidth and deterministic routing, and the
/// reason slice shape matters at all (§4.2.1).
pub fn step_time(
    model: &LlmConfig,
    shape: SliceShape,
    chip: &ChipParams,
) -> Result<StepTime, Infeasible> {
    let unpipelined = step_time_mapped(model, shape, chip, false);
    if model.pp <= 1 {
        return unpipelined;
    }
    let Ok(pipelined) = step_time_mapped(model, shape, chip, true) else {
        return unpipelined;
    };
    Ok(match unpipelined {
        Ok(u) if u.total() <= pipelined.total() => u,
        _ => pipelined,
    })
}

fn step_time_mapped(
    model: &LlmConfig,
    shape: SliceShape,
    chip: &ChipParams,
    pipeline: bool,
) -> Result<StepTime, Infeasible> {
    let [tp_ways, b, _] = shape.chips;
    let (pp_ways, dp_dims) = if pipeline {
        (b, &shape.chips[2..])
    } else {
        (1, &shape.chips[1..])
    };
    let dp_ways: usize = dp_dims.iter().product::<usize>();

    // Memory floor: the model dims must hold at least tp×pp ways.
    if tp_ways * pp_ways < model.min_model_ways() {
        return Err(Infeasible::InsufficientModelWays);
    }
    if dp_ways > model.max_dp {
        return Err(Infeasible::BatchTooSmall);
    }

    let n_chips = shape.chip_count() as f64;

    // --- Compute ---------------------------------------------------------
    // 6 FLOPs per parameter per token (fwd+bwd), perfectly split, then
    // inflated by tensor-parallel inefficiency: ways beyond the model's
    // inherent tp split matmuls below their efficiency floor, wasting
    // close to linearly; ways short of it force activation recomputation/
    // spilling with a milder penalty.
    let ideal = 6.0 * model.params * model.batch_tokens / (n_chips * chip.effective_flops());
    let tp_waste = tp_waste_factor(tp_ways, model.tp);
    let pp_waste = if pp_ways > model.pp {
        // Excess pipeline stages starve: bubbles grow with depth.
        1.0 + 0.25 * (pp_ways as f64 / model.pp as f64 - 1.0)
    } else {
        1.0
    };
    let compute = ideal * tp_waste * pp_waste;

    // --- Tensor-parallel communication ------------------------------------
    // Two all-reduces (attention + MLP) of the activation block per layer,
    // forward and backward, over the tp ring; mostly overlapped with the
    // adjacent matmuls (TP_OVERLAP). Activations are the per-replica token
    // slice × hidden, bf16.
    let tokens_per_replica = model.batch_tokens / dp_ways as f64;
    let act_bytes = tokens_per_replica * model.hidden * 2.0;
    let tp_comm = if tp_ways > 1 {
        (1.0 - TP_OVERLAP)
            * 4.0
            * model.layers as f64
            * ring_all_reduce(act_bytes, tp_ways, &chip.ici)
    } else {
        0.0
    };

    // --- Pipeline bubble ---------------------------------------------------
    // Classic GPipe bubble: (pp−1)/microbatches of the compute is idle.
    let pipeline_bubble = if pp_ways > 1 {
        let microbatches = (tokens_per_replica / 1024.0).max(1.0); // ~1k-token microbatches
        compute * (pp_ways as f64 - 1.0) / microbatches
    } else {
        0.0
    };

    // --- Data-parallel gradient all-reduce ---------------------------------
    // Gradients are sharded over the model dims; each data ring reduces
    // 2·P/(tp·pp) bytes. Chunk-pipelined rings amortize per-hop latency,
    // but each ring still pays its (length-dependent) startup.
    let grad_bytes = 2.0 * model.params / (tp_ways * pp_ways) as f64;
    let mut dp_comm = 0.0;
    if dp_ways > 1 {
        let mut payload = grad_bytes;
        for &len in dp_dims {
            dp_comm += ring_reduce_scatter(payload, len, &chip.ici);
            payload /= len.max(1) as f64;
        }
        for &len in dp_dims.iter().rev() {
            payload *= len.max(1) as f64;
            dp_comm += ring_reduce_scatter(payload, len, &chip.ici); // all-gather mirror
        }
    }

    Ok(StepTime {
        mapping: Mapping {
            tp: tp_ways,
            pp: pp_ways,
            dp: dp_ways,
        },
        compute,
        tp_comm,
        pipeline_bubble,
        dp_comm,
    })
}

/// Result of a shape search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimalShape {
    /// The best shape found.
    pub shape: SliceShape,
    /// Its step breakdown.
    pub step: StepTime,
    /// Speedup versus the symmetric baseline shape.
    pub speedup_vs_baseline: f64,
}

/// The shape optimizer — the role played by the paper's NAS system \[33\],
/// here as exhaustive search (the space is tiny: every factorization of
/// the chip budget into multiples of 4).
#[derive(Debug, Clone, Copy)]
pub struct SliceOptimizer {
    /// Chip hardware parameters.
    pub chip: ChipParams,
}

impl SliceOptimizer {
    /// With TPU v4 parameters.
    pub fn tpu_v4() -> SliceOptimizer {
        SliceOptimizer {
            chip: ChipParams::tpu_v4(),
        }
    }

    /// Finds the fastest feasible shape for `model` using `chips` chips.
    /// Ties break toward the lexicographically-smallest shape.
    pub fn optimize(&self, model: &LlmConfig, chips: usize) -> Option<OptimalShape> {
        let shapes = SliceShape::enumerate_with_chips(chips);
        let baseline = self.baseline_among(model, &shapes);
        let mut best: Option<(f64, SliceShape, StepTime)> = None;
        for &shape in &shapes {
            if let Ok(step) = step_time(model, shape, &self.chip) {
                let t = step.total();
                match &best {
                    Some((bt, _, _)) if *bt <= t => {}
                    _ => best = Some((t, shape, step)),
                }
            }
        }
        let (t, shape, step) = best?;
        let speedup = baseline.map_or(f64::INFINITY, |b| b.total() / t);
        Some(OptimalShape {
            shape,
            step,
            speedup_vs_baseline: speedup,
        })
    }

    /// Step time on the static symmetric baseline (16×16×16 for a full
    /// pod; the most-balanced shape otherwise).
    pub fn baseline_step(&self, model: &LlmConfig, chips: usize) -> Option<StepTime> {
        self.baseline_among(model, &SliceShape::enumerate_with_chips(chips))
    }

    /// [`SliceOptimizer::baseline_step`] among `shapes`: the one with the
    /// most bisection links (the last of them on a tie).
    fn baseline_among(&self, model: &LlmConfig, shapes: &[SliceShape]) -> Option<StepTime> {
        let shape = shapes.iter().max_by_key(|s| s.bisection_links())?;
        step_time(model, *shape, &self.chip).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt() -> SliceOptimizer {
        SliceOptimizer::tpu_v4()
    }

    #[test]
    fn baseline_is_symmetric() {
        let shape = SliceShape::enumerate_with_chips(4096)
            .into_iter()
            .max_by_key(|s| s.bisection_links())
            .unwrap();
        assert_eq!(shape.chips, [16, 16, 16]);
    }

    #[test]
    fn llm2_prefers_the_symmetric_slice() {
        // Table 2 row 3: 150 B model, optimal 16×16×16, speedup 1×.
        let r = opt().optimize(&LlmConfig::llm2(), 4096).unwrap();
        assert_eq!(r.shape.chips, [16, 16, 16]);
        assert!((r.speedup_vs_baseline - 1.0).abs() < 1e-9);
    }

    #[test]
    fn llm1_prefers_4x4x256_with_3_3x_speedup() {
        // Table 2 row 2: 70 B model, optimal 4×4×256, speedup 3.32×.
        let r = opt().optimize(&LlmConfig::llm1(), 4096).unwrap();
        assert_eq!(r.shape.chips, [4, 4, 256], "optimal shape");
        assert!(
            (2.9..3.8).contains(&r.speedup_vs_baseline),
            "speedup {:.2} should be ≈3.32",
            r.speedup_vs_baseline
        );
        assert_eq!(
            r.step.mapping,
            Mapping {
                tp: 4,
                pp: 4,
                dp: 256
            }
        );
    }

    #[test]
    fn llm0_prefers_8x16x32_with_1_5x_speedup() {
        // Table 2 row 1: 35 B model, optimal 8×16×32, speedup 1.54×.
        let r = opt().optimize(&LlmConfig::llm0(), 4096).unwrap();
        assert_eq!(r.shape.chips, [8, 16, 32], "optimal shape");
        assert!(
            (1.35..1.75).contains(&r.speedup_vs_baseline),
            "speedup {:.2} should be ≈1.54",
            r.speedup_vs_baseline
        );
    }

    #[test]
    fn no_one_size_fits_all() {
        // The Table 2 observation: the three models want three different
        // shapes.
        let shapes: Vec<[usize; 3]> = LlmConfig::table2()
            .iter()
            .map(|m| opt().optimize(m, 4096).unwrap().shape.chips)
            .collect();
        assert_eq!(shapes.len(), 3);
        assert!(shapes[0] != shapes[1] && shapes[1] != shapes[2] && shapes[0] != shapes[2]);
    }

    #[test]
    fn memory_floor_rejects_thin_shapes_for_big_models() {
        let shape = SliceShape::new(4, 4, 256).unwrap();
        assert_eq!(
            step_time(&LlmConfig::llm2(), shape, &ChipParams::tpu_v4()).unwrap_err(),
            Infeasible::InsufficientModelWays
        );
    }

    #[test]
    fn batch_bounds_data_parallelism() {
        let mut small_batch = LlmConfig::llm0();
        small_batch.max_dp = 64;
        let shape = SliceShape::new(8, 16, 32).unwrap(); // dp = 512 > 64
        assert_eq!(
            step_time(&small_batch, shape, &ChipParams::tpu_v4()).unwrap_err(),
            Infeasible::BatchTooSmall
        );
    }

    #[test]
    fn excess_tensor_parallelism_wastes_compute() {
        let chip = ChipParams::tpu_v4();
        let model = LlmConfig::llm1(); // tp = 4
        let narrow = step_time(&model, SliceShape::new(4, 4, 256).unwrap(), &chip).unwrap();
        let wide = step_time(&model, SliceShape::new(16, 16, 16).unwrap(), &chip).unwrap();
        assert!(
            wide.compute > 3.0 * narrow.compute,
            "TP 16 on a TP-4 model wastes ~4x compute: {} vs {}",
            wide.compute,
            narrow.compute
        );
    }

    #[test]
    fn throughput_is_tokens_over_step() {
        let chip = ChipParams::tpu_v4();
        let model = LlmConfig::llm2();
        let step = step_time(&model, SliceShape::new(16, 16, 16).unwrap(), &chip).unwrap();
        let tput = step.throughput(model.batch_tokens);
        assert!(tput > 0.0);
        assert!((tput * step.total() - model.batch_tokens).abs() < 1.0);
    }

    #[test]
    fn speedups_are_monotone_in_skew_for_llm1() {
        // Under-splitting the pipeline hurts; so does over-splitting.
        let chip = ChipParams::tpu_v4();
        let model = LlmConfig::llm1();
        let t_444 = step_time(&model, SliceShape::new(4, 4, 256).unwrap(), &chip)
            .unwrap()
            .total();
        let t_4_8 = step_time(&model, SliceShape::new(4, 8, 128).unwrap(), &chip)
            .unwrap()
            .total();
        let t_8_4 = step_time(&model, SliceShape::new(8, 4, 128).unwrap(), &chip)
            .unwrap()
            .total();
        assert!(t_444 < t_4_8, "pp beyond inherent depth is slower");
        assert!(t_444 < t_8_4, "tp beyond inherent width is slower");
    }
}
