//! Alarm severity, with an explicit is-worse-than ordering.
//!
//! This is *the* severity type of the workspace: `lightwave-ocs`
//! re-exports it as `ocs::telemetry::Severity`, so a per-switch alarm and
//! a fleet-level incident always speak the same language.

use serde::{Deserialize, Serialize};

/// Severity of an alarm or incident.
///
/// The derived `Ord` follows declaration order, and [`Severity::rank`]
/// pins that ordering explicitly: `Info < Warning < Critical`. Paging
/// policy everywhere in the workspace relies on "greater = worse".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational; no action needed.
    Info,
    /// Degraded but operating; schedule service.
    Warning,
    /// Service-affecting; page.
    Critical,
}

impl Severity {
    /// Explicit badness rank: `Info` = 0, `Warning` = 1, `Critical` = 2.
    ///
    /// The derived `Ord` is required to agree with this (unit-tested
    /// below); use whichever reads better at the call site.
    pub const fn rank(self) -> u8 {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Critical => 2,
        }
    }

    /// Whether `self` is strictly worse than `other`.
    pub const fn is_worse_than(self, other: Severity) -> bool {
        self.rank() > other.rank()
    }

    /// Short uppercase label for dashboards.
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Critical];

    #[test]
    fn is_worse_than_matches_declared_ranks() {
        assert!(Severity::Critical.is_worse_than(Severity::Warning));
        assert!(Severity::Critical.is_worse_than(Severity::Info));
        assert!(Severity::Warning.is_worse_than(Severity::Info));
        assert!(!Severity::Info.is_worse_than(Severity::Info));
        assert!(!Severity::Warning.is_worse_than(Severity::Critical));
    }

    #[test]
    fn derived_ord_agrees_with_rank() {
        // The derive follows declaration order; `rank` pins it so a
        // reordering of the enum cannot silently invert paging policy.
        for a in ALL {
            for b in ALL {
                assert_eq!(a > b, a.is_worse_than(b), "{a:?} vs {b:?}");
                assert_eq!(a.cmp(&b), a.rank().cmp(&b.rank()), "{a:?} vs {b:?}");
            }
        }
    }
}
