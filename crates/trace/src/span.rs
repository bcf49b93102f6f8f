//! Span records: identity, lanes, typed payloads.

use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};

/// A span's identity — a 64-bit value derived deterministically from the
/// tracer's seed and an allocation counter (see [`crate::Tracer`]), never
/// from a wall clock or address. Equal seeds produce equal id sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One phase of an OCS reconfiguration's causal chain (§3.2.2): traffic is
/// drained, the MEMS mirrors are commanded and settle, the monitor camera
/// verifies alignment, and traffic is undrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigPhase {
    /// Traffic drained off the circuits about to move.
    Drain,
    /// MEMS mirrors commanded to their new angles and settling.
    MirrorSettle,
    /// Monitor-camera closed-loop verification of the new pointing.
    CameraVerify,
    /// Traffic re-admitted onto the verified circuits.
    Undrain,
}

impl ReconfigPhase {
    /// The four phases in causal order.
    pub const ALL: [ReconfigPhase; 4] = [
        ReconfigPhase::Drain,
        ReconfigPhase::MirrorSettle,
        ReconfigPhase::CameraVerify,
        ReconfigPhase::Undrain,
    ];

    /// Span name for the phase.
    pub fn name(self) -> &'static str {
        match self {
            ReconfigPhase::Drain => "ocs.drain",
            ReconfigPhase::MirrorSettle => "ocs.mirror_settle",
            ReconfigPhase::CameraVerify => "ocs.camera_verify",
            ReconfigPhase::Undrain => "ocs.undrain",
        }
    }

    /// The phase's share of the reconfiguration window, in per-mille.
    /// Drain and undrain are fast control-plane actions; the bulk of the
    /// window is mirror settling, then camera verification (§3.2.2).
    pub(crate) fn share_permille(self) -> u64 {
        match self {
            ReconfigPhase::Drain => 150,
            ReconfigPhase::MirrorSettle => 500,
            ReconfigPhase::CameraVerify => 250,
            ReconfigPhase::Undrain => 100,
        }
    }
}

/// One stage of a fabric-as-a-service request's lifecycle
/// (`Enqueue → Admit → Compose → Run → Release`, or `Reject` /
/// `Preempt` off the happy path). Stages chain with follows-from links
/// so one request reads as a causal lane through the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestStage {
    /// The whole request, enqueue to terminal event — the root span the
    /// scope profiler opens for sampled requests, with an id pre-derived
    /// from `(seed, request)` so exemplars in a sharded (tracer-less)
    /// scope report resolve to it in a traced run's export.
    Lifecycle,
    /// Intent validated and queued, waiting for admission.
    Enqueue,
    /// Admission control picked the request (policy decision).
    Admit,
    /// The superpod composed the slice (fabric transaction).
    Compose,
    /// The slice is live and serving.
    Run,
    /// The slice was released after its service time.
    Release,
    /// The request was rejected (queue full or invalid intent).
    Reject,
    /// The running slice was evicted by a higher-priority request.
    Preempt,
}

impl RequestStage {
    /// Span name for the stage.
    pub fn name(self) -> &'static str {
        match self {
            RequestStage::Lifecycle => "svc.request",
            RequestStage::Enqueue => "svc.enqueue",
            RequestStage::Admit => "svc.admit",
            RequestStage::Compose => "svc.compose",
            RequestStage::Run => "svc.run",
            RequestStage::Release => "svc.release",
            RequestStage::Reject => "svc.reject",
            RequestStage::Preempt => "svc.preempt",
        }
    }
}

/// Typed span payload: which domain operation the span covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One switch applying its reconfiguration delta.
    ReconfigCommit {
        /// Switch id.
        switch: u32,
        /// Circuits newly established.
        added: u32,
        /// Circuits torn down.
        removed: u32,
        /// Circuits untouched.
        untouched: u32,
    },
    /// One phase of a switch's reconfiguration (child of
    /// [`SpanKind::ReconfigCommit`]).
    Phase {
        /// Switch id.
        switch: u32,
        /// Which phase.
        phase: ReconfigPhase,
    },
    /// Superpod topology reconfiguration: a slice composed onto cubes.
    SliceCompose {
        /// Cubes in the slice.
        cubes: u32,
        /// Circuits added by the composition.
        circuits: u32,
    },
    /// Superpod topology reconfiguration: a slice released.
    SliceRelease {
        /// Cubes freed.
        cubes: u32,
        /// Circuits removed by the release.
        circuits: u32,
    },
    /// A fault-recovery sequence (cube swap, mirror heal, …).
    FaultRecovery {
        /// What failed / what the recovery did.
        what: String,
    },
    /// One shard of a `lightwave-par` run, rendered on a virtual worker
    /// lane (a pure function of shard index — see DESIGN.md §6.2).
    WorkerShard {
        /// Shard index in the plan.
        shard: u64,
        /// Trials in the shard.
        trials: u64,
    },
    /// One lifecycle stage of a fabric-as-a-service slice request
    /// (`lightwave-service`).
    ServiceRequest {
        /// Request index in the arrival stream.
        request: u64,
        /// Which stage.
        stage: RequestStage,
    },
    /// A free-form span.
    Custom {
        /// Span name.
        name: String,
    },
}

impl SpanKind {
    /// The span's display name in the timeline.
    pub fn name(&self) -> String {
        match self {
            SpanKind::ReconfigCommit { switch, .. } => format!("ocs{switch}.reconfig"),
            SpanKind::Phase { phase, .. } => phase.name().to_string(),
            SpanKind::SliceCompose { .. } => "pod.compose".to_string(),
            SpanKind::SliceRelease { .. } => "pod.release".to_string(),
            SpanKind::FaultRecovery { what } => format!("recovery.{what}"),
            SpanKind::WorkerShard { shard, .. } => format!("shard{shard}"),
            SpanKind::ServiceRequest { stage, .. } => stage.name().to_string(),
            SpanKind::Custom { name } => name.clone(),
        }
    }

    /// The span's category, for Perfetto filtering.
    pub(crate) fn category(&self) -> &'static str {
        match self {
            SpanKind::ReconfigCommit { .. } | SpanKind::Phase { .. } => "ocs",
            SpanKind::SliceCompose { .. } | SpanKind::SliceRelease { .. } => "superpod",
            SpanKind::FaultRecovery { .. } => "recovery",
            SpanKind::WorkerShard { .. } => "par",
            SpanKind::ServiceRequest { .. } => "service",
            SpanKind::Custom { .. } => "custom",
        }
    }
}

/// The timeline lane a span renders on. Lanes map deterministically to
/// Perfetto `(pid, tid)` pairs — never to OS threads, so the rendering is
/// identical at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Lane {
    /// The fabric control plane.
    Control,
    /// The cluster scheduler.
    Scheduler,
    /// One superpod.
    Pod(u32),
    /// One OCS switch.
    Switch(u32),
    /// One *virtual* parallel-engine worker (lane = shard index mod lane
    /// count, not an OS thread).
    Worker(u32),
}

impl Lane {
    /// The Perfetto `(pid, tid)` pair for this lane.
    pub(crate) fn pid_tid(self) -> (u32, u32) {
        match self {
            Lane::Control => (1, 1),
            Lane::Scheduler => (1, 2),
            Lane::Pod(p) => (2, p + 1),
            Lane::Switch(s) => (3, s + 1),
            Lane::Worker(w) => (4, w + 1),
        }
    }

    /// The Perfetto process name for the lane's pid.
    pub fn process_name(self) -> &'static str {
        match self {
            Lane::Control | Lane::Scheduler => "control-plane",
            Lane::Pod(_) => "superpod",
            Lane::Switch(_) => "ocs-switches",
            Lane::Worker(_) => "par-workers",
        }
    }

    /// The Perfetto thread name for the lane's tid.
    pub fn thread_name(self) -> String {
        match self {
            Lane::Control => "controller".to_string(),
            Lane::Scheduler => "scheduler".to_string(),
            Lane::Pod(p) => format!("pod-{p}"),
            Lane::Switch(s) => format!("ocs-{s}"),
            Lane::Worker(w) => format!("worker-{w}"),
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Deterministic identity.
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Causal predecessor (rendered as a Perfetto flow arrow), if any.
    pub follows: Option<SpanId>,
    /// Timeline lane.
    pub lane: Lane,
    /// Sim-time start.
    pub start: Nanos,
    /// Sim-time end (≥ start).
    pub end: Nanos,
    /// Typed payload.
    pub kind: SpanKind,
}

/// One instant (zero-duration) mark on a lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstantRecord {
    /// Timeline lane.
    pub lane: Lane,
    /// Sim-time of the mark.
    pub at: Nanos,
    /// Mark text.
    pub name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_shares_cover_the_window() {
        let total: u64 = ReconfigPhase::ALL.iter().map(|p| p.share_permille()).sum();
        assert_eq!(total, 1000, "phase shares partition the window");
    }

    #[test]
    fn lanes_map_to_distinct_pid_tid() {
        let lanes = [
            Lane::Control,
            Lane::Scheduler,
            Lane::Pod(0),
            Lane::Switch(0),
            Lane::Switch(5),
            Lane::Worker(0),
            Lane::Worker(3),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for lane in lanes {
            assert!(seen.insert(lane.pid_tid()), "{lane:?} collides");
        }
    }

    #[test]
    fn span_serde_roundtrip() {
        let rec = SpanRecord {
            id: SpanId(0xdead_beef),
            parent: Some(SpanId(1)),
            follows: None,
            lane: Lane::Switch(5),
            start: Nanos(10),
            end: Nanos(30),
            kind: SpanKind::Phase {
                switch: 5,
                phase: ReconfigPhase::CameraVerify,
            },
        };
        let json = serde_json::to_string(&rec).expect("serializes");
        let back: SpanRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, rec);
    }
}
