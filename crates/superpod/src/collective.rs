//! Collective-communication cost models on slice tori.
//!
//! The speedups of Table 2 come from matching slice shape to the model's
//! communication pattern, and the costs of §2.2.2's hybrid ICI-DCN
//! training come from collectives straddling both fabrics. This module
//! provides the standard α-β (latency-bandwidth) cost models for the
//! collectives XLA emits on a torus: ring reduce-scatter / all-gather /
//! all-reduce per dimension, and the bandwidth-optimal multi-dimensional
//! composition.

use serde::{Deserialize, Serialize};

/// ICI link parameters of one torus direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IciParams {
    /// Per-link, per-direction bandwidth in bytes/second.
    pub link_bandwidth: f64,
    /// Per-hop latency, seconds (switchless direct links are ~100s of ns).
    pub hop_latency: f64,
}

impl Default for IciParams {
    fn default() -> Self {
        IciParams::tpu_v4()
    }
}

impl IciParams {
    /// Public TPU v4 ICI figures: ~50 GB/s per link per direction,
    /// sub-microsecond hop latency.
    pub fn tpu_v4() -> IciParams {
        IciParams {
            link_bandwidth: 50.0e9,
            hop_latency: 300e-9,
        }
    }

    /// Effective ring bandwidth: the ring algorithm drives both ring
    /// directions at once, so twice the per-direction link bandwidth.
    pub fn ring_bandwidth(&self) -> f64 {
        2.0 * self.link_bandwidth
    }
}

/// Time for a ring reduce-scatter of `bytes` (per participant) over a ring
/// of `len` chips: `(len−1)` steps moving `bytes/len` each.
pub fn ring_reduce_scatter(bytes: f64, len: usize, p: &IciParams) -> f64 {
    assert!(bytes >= 0.0, "bytes must be non-negative");
    assert!(len >= 1, "ring must have at least one member");
    if len == 1 {
        return 0.0;
    }
    let steps = (len - 1) as f64;
    steps * (bytes / len as f64) / p.ring_bandwidth() + steps * p.hop_latency
}

/// Time for a ring all-gather (same step structure as reduce-scatter).
pub fn ring_all_gather(bytes: f64, len: usize, p: &IciParams) -> f64 {
    ring_reduce_scatter(bytes, len, p)
}

/// Time for a ring all-reduce over one dimension: reduce-scatter +
/// all-gather, `2·(len−1)/len · bytes / bw`.
pub fn ring_all_reduce(bytes: f64, len: usize, p: &IciParams) -> f64 {
    ring_reduce_scatter(bytes, len, p) + ring_all_gather(bytes, len, p)
}

/// Bandwidth-optimal multi-dimensional all-reduce across the given ring
/// lengths (the torus dimensions assigned to this collective): reduce-
/// scatter dimension by dimension (payload shrinking each time), then
/// all-gather in reverse.
pub fn torus_all_reduce(bytes: f64, ring_lens: &[usize], p: &IciParams) -> f64 {
    assert!(!ring_lens.is_empty(), "need at least one dimension");
    let mut t = 0.0;
    let mut payload = bytes;
    for &len in ring_lens {
        t += ring_reduce_scatter(payload, len, p);
        payload /= len as f64;
    }
    // `payload` is now the fully scattered shard.
    for &len in ring_lens.iter().rev() {
        payload *= len as f64;
        t += ring_all_gather(payload, len, p);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1024.0 * 1024.0;

    #[test]
    fn single_member_rings_are_free() {
        let p = IciParams::tpu_v4();
        assert_eq!(ring_all_reduce(100.0 * MB, 1, &p), 0.0);
    }

    #[test]
    fn allreduce_approaches_2x_bytes_over_bw() {
        // For large rings, all-reduce time → 2·bytes/bw.
        let p = IciParams::tpu_v4();
        let bytes = 1024.0 * MB;
        let t = ring_all_reduce(bytes, 256, &p);
        let asymptote = 2.0 * bytes / p.ring_bandwidth();
        assert!(
            (t / asymptote - 1.0).abs() < 0.05,
            "t={t}, asymptote={asymptote}"
        );
    }

    #[test]
    fn latency_dominates_small_messages() {
        let p = IciParams::tpu_v4();
        let tiny = ring_all_reduce(1024.0, 64, &p);
        let latency_floor = 2.0 * 63.0 * p.hop_latency;
        assert!(tiny >= latency_floor);
        assert!(
            tiny < latency_floor * 1.5,
            "bandwidth term should be negligible"
        );
    }

    #[test]
    fn multidim_beats_single_long_ring() {
        // Reducing over 16×16×16 (three rings) beats one 4096-ring in
        // latency and matches bandwidth asymptotics.
        let p = IciParams::tpu_v4();
        let bytes = 64.0 * MB;
        let three_d = torus_all_reduce(bytes, &[16, 16, 16], &p);
        let one_d = ring_all_reduce(bytes, 4096, &p);
        assert!(three_d < one_d, "3D {three_d} vs 1D {one_d}");
    }

    #[test]
    fn torus_allreduce_reduces_payload_per_stage() {
        // The multi-dim composition must be cheaper than running the full
        // payload over every dimension independently.
        let p = IciParams::tpu_v4();
        let bytes = 256.0 * MB;
        let composed = torus_all_reduce(bytes, &[16, 16], &p);
        let naive = ring_all_reduce(bytes, 16, &p) * 2.0;
        assert!(composed < naive);
    }

    #[test]
    fn rings_run_both_directions_at_once() {
        // A large all-reduce is bandwidth-bound at twice the link rate:
        // 2·(len−1)/len · bytes over both directions of the ring.
        let p = IciParams::tpu_v4();
        let bytes = 512.0 * MB;
        let t = ring_all_reduce(bytes, 64, &p);
        let bound = 2.0 * (63.0 / 64.0) * bytes / (2.0 * p.link_bandwidth);
        assert!((t / bound - 1.0).abs() < 0.05, "{t} vs {bound}");
    }

    #[test]
    fn allreduce_bandwidth_is_nearly_member_count_independent() {
        // The deep property behind Table 2's trade-offs: ring all-reduce
        // costs ~2·bytes/bw almost regardless of how many members share
        // the reduction — reducing over 4096 chips (16×16×16) costs only
        // slightly more than over 16, because later dimensions handle
        // already-scattered (smaller) payloads.
        let p = IciParams::tpu_v4();
        let bytes = 256.0 * MB;
        let t3 = torus_all_reduce(bytes, &[16, 16, 16], &p);
        let t1 = torus_all_reduce(bytes, &[16], &p);
        assert!(t3 > t1, "extra dimensions add (small) extra cost");
        assert!(0.85 * t3 < t1, "...but only ~1/16th per extra dimension");
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_rejected() {
        let _ = torus_all_reduce(1.0, &[], &IciParams::tpu_v4());
    }
}
