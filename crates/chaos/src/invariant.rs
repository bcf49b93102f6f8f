//! Control-plane invariants, checked after every injected event.
//!
//! Each check re-derives its expectation independently of the executor's
//! own bookkeeping wherever possible — the point is to catch the control
//! plane (or the harness's model of it) lying, not to compare a variable
//! with itself.

use crate::executor::World;
use crate::schedule::FaultKind;
use lightwave_fabric::OcsId;
use lightwave_telemetry::Severity;
use lightwave_trace::{ReconfigPhase, SpanId, SpanKind, SpanRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The invariant library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InvariantKind {
    /// Traffic admitted on a link whose circuit is not camera-verified
    /// (`Connected`) on an operational switch.
    TrafficOnUnverifiedLink,
    /// Slice composition double-books a switch port or exceeds the
    /// switch radix, or a synced switch's live mapping disagrees with
    /// the union of active slices.
    RadixExceeded,
    /// A Critical incident without exactly one flight-recorder dump.
    CriticalWithoutDump,
    /// SLO downtime accounting disagrees with the injected fault
    /// timeline.
    SloDowntimeMismatch,
    /// Drain → mirror-settle → camera-verify → undrain phases of one
    /// switch reconfiguration are missing, out of order, overlapping,
    /// or escape their commit window.
    PhaseInterleaving,
    /// The fabric rejected the release of a live slice — a resource
    /// leak: the control plane must always be able to free capacity.
    ReleaseRejected,
    /// The service core leaked a request: submitted requests no longer
    /// partition into queued + running + completed + rejected.
    ServiceConservation,
    /// A service request the core believes is running has no live slice
    /// in the pod (or in the harness model) — admitted-implies-composed
    /// was broken without a preemption or completion.
    AdmittedWithoutSlice,
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InvariantKind::TrafficOnUnverifiedLink => "traffic-on-unverified-link",
            InvariantKind::RadixExceeded => "radix-exceeded",
            InvariantKind::CriticalWithoutDump => "critical-without-dump",
            InvariantKind::SloDowntimeMismatch => "slo-downtime-mismatch",
            InvariantKind::PhaseInterleaving => "phase-interleaving",
            InvariantKind::ReleaseRejected => "release-rejected",
            InvariantKind::ServiceConservation => "service-conservation",
            InvariantKind::AdmittedWithoutSlice => "admitted-without-slice",
        };
        f.write_str(s)
    }
}

/// One invariant violation, with enough context to reproduce and read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: InvariantKind,
    /// Index of the event after which the check failed.
    pub event_index: u32,
    /// The event itself.
    pub event: FaultKind,
    /// Deterministic human-readable context.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after event #{} ({:?}): {}",
            self.invariant, self.event_index, self.event, self.detail
        )
    }
}

/// Runs every invariant; returns the first violation in library order.
pub(crate) fn check_all(w: &World, event_index: u32, event: FaultKind) -> Option<Violation> {
    let mk = |invariant, detail| Violation {
        invariant,
        event_index,
        event,
        detail,
    };
    if let Some(detail) = w.action_violation.clone() {
        return Some(mk(InvariantKind::ReleaseRejected, detail));
    }
    if let Some(d) = no_traffic_on_unverified(w) {
        return Some(mk(InvariantKind::TrafficOnUnverifiedLink, d));
    }
    if let Some(d) = radix_and_mapping(w) {
        return Some(mk(InvariantKind::RadixExceeded, d));
    }
    if let Some(d) = critical_dumped_exactly_once(w) {
        return Some(mk(InvariantKind::CriticalWithoutDump, d));
    }
    if let Some(d) = slo_matches_timeline(w) {
        return Some(mk(InvariantKind::SloDowntimeMismatch, d));
    }
    if let Some(d) = phases_legal(w) {
        return Some(mk(InvariantKind::PhaseInterleaving, d));
    }
    if let Some(d) = w.svc.conservation().err() {
        return Some(mk(InvariantKind::ServiceConservation, d));
    }
    if let Some(d) = service_running_backed(w) {
        return Some(mk(InvariantKind::AdmittedWithoutSlice, d));
    }
    None
}

/// Invariant (g): every request the service core believes is running
/// must be backed by a live slice — in the pod's own table *and* in the
/// harness's independent slice list (which admitted it via
/// [`ServiceEvent::Admitted`](lightwave_service::ServiceEvent)). A
/// running request can only leave via completion or preemption, both of
/// which retire the handle from all three in the same event.
fn service_running_backed(w: &World) -> Option<String> {
    for (request, handle, _cubes) in w.svc.running() {
        if w.pod.slice(handle).is_none() {
            return Some(format!(
                "service request {request} is running but handle {} is not live in the pod",
                handle.0
            ));
        }
        if !w.slices.iter().any(|ls| ls.handle == handle) {
            return Some(format!(
                "service request {request} is running but handle {} is unmirrored in the harness",
                handle.0
            ));
        }
    }
    None
}

/// Invariant (a): every circuit of every *admitted* slice must be
/// camera-verified (`Connected`) on every operational, reconciled
/// switch. Walks the fabric directly, not the executor's readiness
/// cache. Down and desynced switches are exempt — the slice runs
/// degraded there by design (§4.2.2), there is no light to admit.
fn no_traffic_on_unverified(w: &World) -> Option<String> {
    for ls in &w.slices {
        if !ls.admitted {
            continue;
        }
        for hop in ls.slice.required_hops() {
            for c in hop.circuits() {
                let Some(ocs) = w.pod.fabric().fleet.get(c.ocs) else {
                    continue;
                };
                if w.synced(c.ocs) && !ocs.circuit_ready(c.north) {
                    return Some(format!(
                        "slice {} admitted but circuit ocs={} {}->{} is not camera-verified",
                        ls.handle.0, c.ocs, c.north, c.south
                    ));
                }
            }
        }
    }
    None
}

/// Invariant (b): the union of active slices never double-books a north
/// or south port on any switch and never exceeds the switch radix; and
/// on every operational, reconciled switch the live crossbar mapping is
/// exactly that union.
fn radix_and_mapping(w: &World) -> Option<String> {
    let mut expected: BTreeMap<OcsId, BTreeMap<u16, u16>> = BTreeMap::new();
    let mut south_used: BTreeMap<OcsId, BTreeSet<u16>> = BTreeMap::new();
    for ls in &w.slices {
        for hop in ls.slice.required_hops() {
            for c in hop.circuits() {
                let per = expected.entry(c.ocs).or_default();
                if per.insert(c.north, c.south).is_some() {
                    return Some(format!(
                        "north port {} on ocs {} allocated by two slices",
                        c.north, c.ocs
                    ));
                }
                if !south_used.entry(c.ocs).or_default().insert(c.south) {
                    return Some(format!(
                        "south port {} on ocs {} allocated by two slices",
                        c.south, c.ocs
                    ));
                }
            }
        }
    }
    for (id, ocs) in w.pod.fabric().fleet.iter() {
        let want = expected.remove(&id).unwrap_or_default();
        if want.len() > ocs.ports() {
            return Some(format!(
                "ocs {} asked for {} circuits > radix {}",
                id,
                want.len(),
                ocs.ports()
            ));
        }
        if !w.synced(id) {
            continue;
        }
        let have: BTreeMap<u16, u16> = ocs.mapping().pairs().collect();
        if have != want {
            return Some(format!(
                "ocs {} mapping has {} circuits, slices require {}",
                id,
                have.len(),
                want.len()
            ));
        }
    }
    None
}

/// Invariant (c): every Critical incident has exactly one flight dump.
fn critical_dumped_exactly_once(w: &World) -> Option<String> {
    let critical: BTreeSet<u64> = w
        .telemetry
        .alarms
        .incidents()
        .iter()
        .filter(|i| i.severity == Severity::Critical)
        .map(|i| i.id)
        .collect();
    let mut dumped: BTreeSet<u64> = BTreeSet::new();
    for d in w.recorder.dumps() {
        if !dumped.insert(d.incident) {
            return Some(format!("incident {} dumped more than once", d.incident));
        }
    }
    if let Some(&id) = critical.difference(&dumped).next() {
        return Some(format!("Critical incident {id} has no flight dump"));
    }
    if let Some(&id) = dumped.difference(&critical).next() {
        return Some(format!("flight dump for non-Critical incident {id}"));
    }
    None
}

/// Invariant (d): per-switch SLO downtime equals the downtime implied by
/// the injected fault timeline (the executor's chassis model, fed only
/// by the schedule's FRU events).
fn slo_matches_timeline(w: &World) -> Option<String> {
    let now = w.now();
    let report = w.telemetry.slo.report(now);
    for (id, model) in w.models.iter().enumerate() {
        let injected = model.downtime_at(now);
        let name = format!("ocs-{id}");
        let observed = report
            .objects
            .iter()
            .find(|o| o.object == name)
            .map(|o| o.downtime)
            .unwrap_or_default();
        if observed != injected {
            return Some(format!(
                "{name}: SLO downtime {}ns != injected timeline {}ns",
                observed.0, injected.0
            ));
        }
    }
    None
}

/// Invariant (e): the four reconfiguration phases of every commit on
/// every switch are present exactly once, causally chained, contiguous,
/// inside the commit window; and commits on one switch never start out
/// of issue order.
fn phases_legal(w: &World) -> Option<String> {
    let spans = w.tracer.spans();
    let by_id: BTreeMap<SpanId, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    // Phase children grouped under their commit span, in creation order.
    let mut children: BTreeMap<SpanId, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        if let SpanKind::Phase { .. } = s.kind {
            let parent = s.parent?;
            children.entry(parent).or_default().push(s);
        }
    }
    for (commit_id, phases) in &children {
        let commit = match by_id.get(commit_id) {
            Some(c) => c,
            None => return Some(format!("phase chain under unknown span {}", commit_id.0)),
        };
        let switch = match commit.kind {
            SpanKind::ReconfigCommit { switch, .. } => switch,
            _ => return Some(format!("phase chain under non-commit span {}", commit_id.0)),
        };
        if phases.len() != ReconfigPhase::ALL.len() {
            return Some(format!(
                "switch {}: commit has {} phases, want 4",
                switch,
                phases.len()
            ));
        }
        let mut cursor = commit.start;
        let mut prev: Option<SpanId> = None;
        for (i, want) in ReconfigPhase::ALL.into_iter().enumerate() {
            let p = phases[i];
            match p.kind {
                SpanKind::Phase { phase, .. } if phase == want => {}
                _ => {
                    return Some(format!(
                        "switch {switch}: phase {i} is {:?}, want {want:?}",
                        p.kind
                    ))
                }
            }
            if p.start != cursor {
                return Some(format!(
                    "switch {switch}: {want:?} starts at {} but previous phase ended at {}",
                    p.start.0, cursor.0
                ));
            }
            if p.end < p.start || p.end > commit.end {
                return Some(format!(
                    "switch {switch}: {want:?} escapes its commit window"
                ));
            }
            if p.follows != prev {
                return Some(format!(
                    "switch {switch}: {want:?} breaks the follows-from chain"
                ));
            }
            prev = Some(p.id);
            cursor = p.end;
        }
        if cursor != commit.end {
            return Some(format!(
                "switch {switch}: phases cover to {} but commit ends at {}",
                cursor.0, commit.end.0
            ));
        }
    }
    // Commits on one switch must start in issue order (spans() is
    // append-only, so record order is issue order).
    let mut last_start: BTreeMap<u32, lightwave_units::Nanos> = BTreeMap::new();
    for s in spans {
        if let SpanKind::ReconfigCommit { switch, .. } = s.kind {
            if let Some(&prev) = last_start.get(&switch) {
                if s.start < prev {
                    return Some(format!(
                        "switch {switch}: commit issued at {} after one at {}",
                        s.start.0, prev.0
                    ));
                }
            }
            last_start.insert(switch, s.start);
        }
    }
    None
}
