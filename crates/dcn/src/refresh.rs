//! Rapid technology refresh: mixing transceiver generations on one fabric.
//!
//! §2.1: "the expansion capability leads to the ability to connect
//! different-generation ABs running at different data rates ... to the
//! same OCS. Interoperability between heterogeneous ABs is ensured through
//! the compatibility of optical transceiver specifications across multiple
//! generations ... leading to faster introduction of new technology."
//!
//! The model: each aggregation block belongs to a transceiver generation;
//! a trunk between two ABs runs at the *negotiated* (older) generation's
//! rate — the OCS itself is rate-agnostic, so nothing else changes. A
//! rolling upgrade replaces one AB per epoch. The comparison is against a
//! spine-full fabric, where the *spine* must be forklifted to the new rate
//! before any AB-pair benefits (every path crosses the spine, and a path
//! runs at the minimum of its three hops).

use lightwave_optics::modulation::LaneRate;
use serde::{Deserialize, Serialize};

/// A transceiver generation and its per-trunk rate.
pub(crate) fn generation_gbps(rate: LaneRate) -> f64 {
    // 4-lane trunks.
    4.0 * rate.bit_rate().gbps()
}

/// A fleet of ABs with per-AB generations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct HeterogeneousFabric {
    /// Per-AB transceiver generation.
    pub generations: Vec<LaneRate>,
    /// Trunks per AB pair (uniform for this study).
    pub trunks_per_pair: usize,
}

impl HeterogeneousFabric {
    /// A fabric of `n` ABs, all at `rate`.
    pub fn uniform(n: usize, rate: LaneRate, trunks_per_pair: usize) -> HeterogeneousFabric {
        assert!(n >= 2);
        HeterogeneousFabric {
            generations: vec![rate; n],
            trunks_per_pair,
        }
    }

    /// Number of ABs.
    pub fn n(&self) -> usize {
        self.generations.len()
    }

    /// Trunk rate between two ABs: both ends negotiate to the older
    /// generation (§3.3.1's multi-rate modules). On the OCS fabric
    /// (`spine` is `None`) that is the rate, since the OCS passes whatever
    /// the light carries; on a spine-full fabric the path is
    /// AB→spine→AB and runs at the slowest hop.
    pub(crate) fn pair_gbps(&self, i: usize, j: usize, spine: Option<LaneRate>) -> f64 {
        let rate = self.generations[i].negotiate(self.generations[j]);
        let rate = spine.map_or(rate, |spine| rate.negotiate(spine));
        generation_gbps(rate) * self.trunks_per_pair as f64
    }

    /// Aggregate fabric capacity (sum over unordered pairs), on the OCS
    /// fabric or through a spine of the given generation.
    pub fn capacity(&self, spine: Option<LaneRate>) -> f64 {
        let n = self.n();
        (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| self.pair_gbps(i, j, spine))
            .sum()
    }

    /// Upgrades AB `i` to `rate`.
    pub(crate) fn upgrade_ab(&mut self, i: usize, rate: LaneRate) {
        self.generations[i] = rate;
    }
}

/// One epoch of the rolling-upgrade study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefreshEpoch {
    /// ABs upgraded so far.
    pub upgraded: usize,
    /// Spine-free (OCS) fabric capacity, Gb/s.
    pub spine_free_gbps: f64,
    /// Spine-full capacity with the *old* spine still in place, Gb/s.
    pub spine_full_old_spine_gbps: f64,
}

/// Rolls a fleet of `n` ABs from `old` to `new`, one AB per epoch, and
/// reports capacity under both architectures. The spine-full fabric keeps
/// its old-generation spine throughout (forklifting it is the expensive,
/// disruptive step the OCS removes).
pub fn rolling_upgrade(n: usize, old: LaneRate, new: LaneRate, trunks: usize) -> Vec<RefreshEpoch> {
    let mut fabric = HeterogeneousFabric::uniform(n, old, trunks);
    let mut out = Vec::with_capacity(n + 1);
    for upgraded in 0..=n {
        out.push(RefreshEpoch {
            upgraded,
            spine_free_gbps: fabric.capacity(None),
            spine_full_old_spine_gbps: fabric.capacity(Some(old)),
        });
        if upgraded < n {
            fabric.upgrade_ab(upgraded, new);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_pairs_negotiate_down_but_new_pairs_fly() {
        let mut f = HeterogeneousFabric::uniform(4, LaneRate::Pam4_50, 4);
        f.upgrade_ab(0, LaneRate::Pam4_100);
        f.upgrade_ab(1, LaneRate::Pam4_100);
        // New↔new at the new rate, mixed and old↔old at the old rate.
        assert!((f.pair_gbps(0, 1, None) - 4.0 * 4.0 * 106.25).abs() < 1.0);
        assert!((f.pair_gbps(0, 2, None) - 4.0 * 4.0 * 53.125).abs() < 1.0);
        assert!((f.pair_gbps(2, 3, None) - 4.0 * 4.0 * 53.125).abs() < 1.0);
    }

    #[test]
    fn old_spine_caps_everything() {
        let mut f = HeterogeneousFabric::uniform(4, LaneRate::Pam4_50, 4);
        f.upgrade_ab(0, LaneRate::Pam4_100);
        f.upgrade_ab(1, LaneRate::Pam4_100);
        // Even the new↔new pair is stuck at the spine's rate.
        assert!((f.pair_gbps(0, 1, Some(LaneRate::Pam4_50)) - 4.0 * 4.0 * 53.125).abs() < 1.0);
    }

    #[test]
    fn rolling_upgrade_capacity_grows_incrementally_on_ocs_only() {
        let epochs = rolling_upgrade(16, LaneRate::Pam4_50, LaneRate::Pam4_100, 2);
        assert_eq!(epochs.len(), 17);
        // Spine-free capacity is strictly non-decreasing and ends doubled.
        for w in epochs.windows(2) {
            assert!(w[1].spine_free_gbps >= w[0].spine_free_gbps);
        }
        let first = epochs.first().unwrap();
        let last = epochs.last().unwrap();
        assert!((last.spine_free_gbps / first.spine_free_gbps - 2.0).abs() < 1e-9);
        // Spine-full with the old spine never moves at all.
        for e in &epochs {
            assert!((e.spine_full_old_spine_gbps - first.spine_full_old_spine_gbps).abs() < 1e-9);
        }
    }

    #[test]
    fn benefit_starts_with_the_second_upgraded_ab() {
        // One new AB has no new peer to talk fast to; the second creates
        // the first fast pair — incremental, no flag day.
        let epochs = rolling_upgrade(8, LaneRate::Nrz25, LaneRate::Pam4_100, 1);
        assert_eq!(epochs[0].spine_free_gbps, epochs[1].spine_free_gbps);
        assert!(epochs[2].spine_free_gbps > epochs[1].spine_free_gbps);
    }

    #[test]
    fn order_of_magnitude_interop_claim() {
        // §6: "we have maintained interoperability across an order of
        // magnitude difference in data rates (400 Gb/s vs 40 Gb/s)" — the
        // negotiation path spans NRZ25 to PAM4-100 (4×ratio per lane, an
        // order of magnitude per 4-lane trunk vs the 40G QSFP+ era).
        let f = HeterogeneousFabric {
            generations: vec![LaneRate::Nrz25, LaneRate::Pam4_100],
            trunks_per_pair: 1,
        };
        let gbps = f.pair_gbps(0, 1, None);
        assert!(
            (gbps - 4.0 * 25.781_25).abs() < 0.1,
            "runs at the older rate: {gbps}"
        );
    }
}
