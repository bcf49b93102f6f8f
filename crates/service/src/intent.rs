//! The northbound intent API: what a tenant asks the fabric for.
//!
//! A [`SliceIntent`] is the service's only ingress type — a requested
//! logical topology plus a hold time, stamped with the arrival-stream
//! index that is its identity everywhere downstream (FIFO key, trace
//! span payload, preemption tie-breaker). Validation is the first
//! lifecycle stage: an intent that cannot name a legal
//! [`SliceShape`] is rejected before it ever reaches admission.

use lightwave_superpod::slice::ShapeError;
use lightwave_superpod::SliceShape;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};

/// Priority class of a slice request. Declaration order is precedence
/// order: an earlier class admits first at equal weighted fair share and
/// may preempt running slices of any strictly later class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Inference fleets: latency-sensitive, small slices, short holds.
    Inference,
    /// Training jobs: throughput-oriented, large slices, long holds.
    Training,
    /// Maintenance windows: background work, lowest precedence.
    Maintenance,
}

impl Priority {
    /// All classes, highest precedence first.
    pub const ALL: [Priority; 3] = [
        Priority::Inference,
        Priority::Training,
        Priority::Maintenance,
    ];

    /// Precedence rank: 0 is highest.
    pub fn rank(self) -> usize {
        match self {
            Priority::Inference => 0,
            Priority::Training => 1,
            Priority::Maintenance => 2,
        }
    }

    /// Weighted-fairness share of the pod's cube-time.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Inference => 6,
            Priority::Training => 3,
            Priority::Maintenance => 1,
        }
    }

    /// Metric-label name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Inference => "inference",
            Priority::Training => "training",
            Priority::Maintenance => "maintenance",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A slice request as submitted northbound: raw chip dimensions (not yet
/// validated into a [`SliceShape`]) plus the service hold time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceIntent {
    /// Arrival-stream index — the request's identity.
    pub request: u64,
    /// Priority class.
    pub class: Priority,
    /// Requested chips per torus dimension.
    pub chips: [usize; 3],
    /// How long the slice serves once running.
    pub hold: Nanos,
}

/// Why an intent failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntentError {
    /// The requested dimensions do not name a legal slice shape.
    Shape(ShapeError),
    /// A zero hold time serves nothing.
    ZeroHold,
    /// A hold beyond [`SliceIntent::MAX_HOLD`] cannot end before the sim
    /// clock does, so it serves nothing either.
    HoldTooLong,
}

impl std::fmt::Display for IntentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntentError::Shape(e) => write!(f, "bad shape: {e:?}"),
            IntentError::ZeroHold => write!(f, "zero hold time"),
            IntentError::HoldTooLong => {
                write!(f, "hold time beyond {} ns", SliceIntent::MAX_HOLD.0)
            }
        }
    }
}

impl std::error::Error for IntentError {}

impl SliceIntent {
    /// The longest hold the service accepts: a quarter of the `u64`
    /// nanosecond clock (≈ 146 years). With the clock itself under half
    /// its range — where the chaos executor's `HORIZON` keeps it — the
    /// `serving_from + hold` an admission computes cannot overflow.
    pub const MAX_HOLD: Nanos = Nanos(u64::MAX / 4);

    /// Validates the intent into a composable shape — the first stage of
    /// the request lifecycle.
    pub fn validate(&self) -> Result<SliceShape, IntentError> {
        if self.hold == Nanos(0) {
            return Err(IntentError::ZeroHold);
        }
        if self.hold > SliceIntent::MAX_HOLD {
            return Err(IntentError::HoldTooLong);
        }
        SliceShape::new(self.chips[0], self.chips[1], self.chips[2]).map_err(IntentError::Shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_ordered_by_precedence() {
        assert!(Priority::Inference < Priority::Training);
        assert!(Priority::Training < Priority::Maintenance);
        for (rank, class) in Priority::ALL.iter().enumerate() {
            assert_eq!(class.rank(), rank);
        }
    }

    #[test]
    fn validation_rejects_bad_dimensions_and_zero_hold() {
        let good = SliceIntent {
            request: 0,
            class: Priority::Training,
            chips: [8, 4, 4],
            hold: Nanos::from_millis(100),
        };
        assert_eq!(good.validate().unwrap().cube_count(), 2);

        let bad_dim = SliceIntent {
            chips: [6, 4, 4],
            ..good.clone()
        };
        assert!(matches!(bad_dim.validate(), Err(IntentError::Shape(_))));

        let zero = SliceIntent {
            hold: Nanos(0),
            ..good
        };
        assert_eq!(zero.validate(), Err(IntentError::ZeroHold));
    }
}
