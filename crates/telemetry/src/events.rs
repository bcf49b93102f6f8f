//! The structured event bus.
//!
//! Events are the narrative complement to metrics: a metric says "commit
//! settle time p99 is 41 ms", an event says "commit #3 moved 12 circuits
//! on switch 5 at t=1.2 s". The bus keeps a bounded ring of recent events
//! (oldest dropped first, drops counted — never silent).

use crate::severity::Severity;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// One switch applied a reconfiguration delta.
    Reconfig {
        /// Switch id.
        switch: u32,
        /// Circuits newly established.
        added: u32,
        /// Circuits torn down.
        removed: u32,
        /// Circuits left carrying light throughout.
        untouched: u32,
        /// Time until every new circuit is aligned.
        duration: Nanos,
    },
    /// The fabric controller committed a transaction.
    Commit {
        /// Switches touched.
        switches: u32,
        /// Circuits added fabric-wide.
        added: u32,
        /// Circuits removed fabric-wide.
        removed: u32,
        /// Circuits untouched fabric-wide (the isolation audit).
        untouched: u32,
        /// Time until traffic-ready (settle + transceiver re-acquisition).
        settle: Nanos,
    },
    /// The alarm aggregator opened a new incident (a page).
    IncidentOpened {
        /// Incident id.
        incident: u64,
        /// Severity at open.
        severity: Severity,
    },
    /// An open incident escalated.
    IncidentEscalated {
        /// Incident id.
        incident: u64,
        /// New severity.
        to: Severity,
    },
    /// An incident went quiet and cleared.
    IncidentCleared {
        /// Incident id.
        incident: u64,
        /// Alarms absorbed by blast-radius correlation.
        correlated: u64,
    },
    /// A collective ran materially slower than its healthy baseline.
    StragglerDetected {
        /// Torus dimension whose phase slowed.
        dim: u8,
        /// Phase slowdown in percent over baseline.
        slowdown_pct: u32,
    },
    /// A marginal link renegotiated below its top lane rate (§3.3.1).
    RateFallback {
        /// Port (census index) of the link.
        port: u32,
        /// Negotiated lane rate, Gb/s (0 = link dead).
        to_gbps: u32,
    },
    /// Anti-entropy: a desynced switch was reconciled back to the live
    /// slice union after revival (`Superpod::resync`). Informational —
    /// service-level replays use it to see self-healing activity that
    /// would otherwise be invisible between composes.
    Resync {
        /// Switch id that was reconciled.
        switch: u32,
        /// Circuits newly established by the reconciliation.
        added: u32,
        /// Circuits torn down.
        removed: u32,
        /// Circuits already correct.
        untouched: u32,
    },
}

/// A timestamped, attributed event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation time.
    pub at: Nanos,
    /// Emitting subsystem (e.g. `fabric`, `ocs-3`, `scheduler`).
    pub source: String,
    /// Payload.
    pub kind: EventKind,
}

/// Events the bus retains: the most recent 1024 (the dashboard shows the
/// last 12; a JSONL export carries the whole ring).
pub const EVENT_RETENTION: usize = 1024;

/// Bounded-retention event bus ([`EVENT_RETENTION`] events).
#[derive(Debug)]
pub struct EventBus {
    ring: VecDeque<Event>,
    published: u64,
    dropped: u64,
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus {
            ring: VecDeque::with_capacity(EVENT_RETENTION),
            published: 0,
            dropped: 0,
        }
    }
}

impl EventBus {
    /// Publishes an event into the ring, evicting the oldest when full.
    pub fn publish(&mut self, event: Event) {
        if self.ring.len() == EVENT_RETENTION {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
        self.published += 1;
    }

    /// Convenience: build and publish.
    pub fn emit(&mut self, at: Nanos, source: &str, kind: EventKind) {
        self.publish(Event {
            at,
            source: source.to_string(),
            kind,
        });
    }

    /// Retained events, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Total events ever published.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Events evicted from retention.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_retention_and_counts_drops() {
        let mut bus = EventBus::default();
        let n = EVENT_RETENTION as u64 + 3;
        for i in 0..n {
            bus.emit(
                Nanos(i),
                "test",
                EventKind::Resync {
                    switch: 0,
                    added: i as u32,
                    removed: 0,
                    untouched: 0,
                },
            );
        }
        assert_eq!(bus.recent().count(), EVENT_RETENTION);
        assert_eq!(bus.published(), n);
        assert_eq!(bus.dropped(), 3);
        let first = bus.recent().next().unwrap();
        assert_eq!(first.at, Nanos(3), "oldest events evicted first");
    }
}
