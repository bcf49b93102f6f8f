//! Incremental-vs-monolithic deployment (§4.2.3).
//!
//! "Because the inter-chip interconnect for the 64 TPU chips is electrical
//! and contained within a single rack, the connectivity and performance of
//! each cube is verified when the chips and intrarack electrical
//! interconnect is installed. The rack-level blocks can then be
//! incrementally connected and verified at the pod level ... For
//! comparison, a TPU V3 superpod could not be verified until all 1024
//! chips and connecting cables were installed and tested."
//!
//! The model: racks arrive on a cadence; under incremental deployment a
//! rack becomes productive after its own verification; under monolithic
//! deployment nothing is productive until the last rack lands *and* the
//! whole-pod verification completes. The metric is integrated capacity
//! (cube-days) over the build-out window.

use serde::{Deserialize, Serialize};

/// Deployment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeploymentPlan {
    /// Racks (cubes) to install.
    pub racks: usize,
    /// Days between consecutive rack deliveries.
    pub rack_interval_days: f64,
    /// Per-rack verification time (incremental mode), days.
    pub rack_verify_days: f64,
    /// Whole-pod verification time (monolithic mode), days.
    pub pod_verify_days: f64,
}

impl Default for DeploymentPlan {
    fn default() -> Self {
        DeploymentPlan {
            racks: 64,
            rack_interval_days: 1.0,
            rack_verify_days: 1.0,
            pod_verify_days: 14.0,
        }
    }
}

/// Capacity trajectory outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeploymentOutcome {
    /// Day the first rack became productive.
    pub first_capacity_day: f64,
    /// Day full capacity was reached.
    pub full_capacity_day: f64,
    /// Integrated capacity over `[0, full_capacity_day]`, in cube-days.
    pub cube_days_by_full: f64,
}

impl DeploymentPlan {
    /// Day rack `i` (0-based) is delivered.
    fn delivery_day(&self, i: usize) -> f64 {
        (i + 1) as f64 * self.rack_interval_days
    }

    /// Incremental (lightwave-fabric) deployment: rack `i` is productive
    /// at `delivery(i) + rack_verify`.
    pub fn incremental(&self) -> DeploymentOutcome {
        let first = self.delivery_day(0) + self.rack_verify_days;
        let full = self.delivery_day(self.racks - 1) + self.rack_verify_days;
        // Integrated capacity: each rack contributes from its ready day.
        let cube_days = (0..self.racks)
            .map(|i| full - (self.delivery_day(i) + self.rack_verify_days))
            .sum::<f64>();
        DeploymentOutcome {
            first_capacity_day: first,
            full_capacity_day: full,
            cube_days_by_full: cube_days,
        }
    }

    /// Monolithic (static-fabric) deployment: nothing is productive until
    /// every rack has landed, been cabled, and the whole pod verified.
    pub fn monolithic(&self) -> DeploymentOutcome {
        let full = self.delivery_day(self.racks - 1) + self.pod_verify_days;
        DeploymentOutcome {
            first_capacity_day: full,
            full_capacity_day: full,
            cube_days_by_full: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_delivers_capacity_early() {
        let plan = DeploymentPlan::default();
        let inc = plan.incremental();
        let mono = plan.monolithic();
        assert!(inc.first_capacity_day < 3.0, "first cube within days");
        assert!(
            mono.first_capacity_day >= 64.0,
            "monolith waits for the pod"
        );
        assert!(
            inc.cube_days_by_full > 1500.0,
            "~2000 cube-days of head start"
        );
        assert_eq!(mono.cube_days_by_full, 0.0);
    }

    #[test]
    fn both_reach_full_capacity() {
        let plan = DeploymentPlan::default();
        let inc = plan.incremental();
        let mono = plan.monolithic();
        // Monolithic full capacity is *later* (pod verification dominates
        // per-rack verification at the tail).
        assert!(mono.full_capacity_day > inc.full_capacity_day);
    }

    #[test]
    fn faster_racks_compress_the_gap() {
        let slow = DeploymentPlan::default();
        let fast = DeploymentPlan {
            rack_interval_days: 0.25,
            ..slow
        };
        assert!(fast.incremental().full_capacity_day < slow.incremental().full_capacity_day);
    }
}
