//! # lightwave
//!
//! A simulation and control-plane library for **reconfigurable optical
//! circuit switched (OCS) fabrics**, reproducing the systems described in
//! *"Lightwave Fabrics: At-Scale Optical Circuit Switching for Datacenter
//! and Machine Learning Systems"* (Liu et al., ACM SIGCOMM 2023).
//!
//! The library spans the whole stack the paper describes:
//!
//! | layer | crate (re-exported module) |
//! |---|---|
//! | units & numerics | [`units`] |
//! | deterministic parallel execution | [`par`] |
//! | fleet observability (events, alarms, SLOs) | [`telemetry`] |
//! | photonic link physics | [`optics`] |
//! | RS(544,514) + soft inner FEC | [`fec`] |
//! | the Palomar 136×136 MEMS OCS | [`ocs`] |
//! | bidi CWDM4/CWDM8 transceivers | [`transceiver`] |
//! | fabric control plane | [`fabric`] |
//! | TPU-v4 superpod & slices | [`superpod`] |
//! | cluster scheduling | [`scheduler`] |
//! | availability & goodput | [`availability`] |
//! | spine-free DCN & TE | [`dcn`] |
//! | LLM slice-shape optimization | [`mlperf`] |
//!
//! ## Workflows
//!
//! Most users want one of three, each wrapped by a façade here:
//!
//! * **Run an ML pod** — [`MlPod`]: a TPU-v4-style superpod on a live
//!   48-OCS fabric, with model-aware slice composition: hand it an
//!   `LlmConfig`, it finds the optimal slice shape, picks idle cubes, and
//!   drives the fabric transaction.
//! * **Engineer a DCN** — [`DcnPlanner`]: demand matrix in, engineered
//!   spine-free mesh + predicted throughput/FCT out, with the uniform-mesh
//!   comparison the paper reports against.
//! * **Design a link** — [`LinkDesigner`]: pick a transceiver family and
//!   fiber length, get the full link health report: budget, MPI, per-lane
//!   BER, margin, and what the OIM + concatenated-FEC DSP buys.
//!
//! Everything the façades build on is re-exported from the subsystem
//! crates, so nothing here is the only way in.
//!
//! ## Quickstart
//!
//! ```
//! use lightwave::prelude::*;
//!
//! // Build a 4096-TPU superpod on a live 48-OCS lightwave fabric.
//! let mut pod = MlPod::new(42);
//!
//! // Place a 70B-parameter LLM: the optimizer picks 4×4×256 (Table 2)
//! // and the fabric wires the slice.
//! let placement = pod
//!     .place_model(&LlmConfig::llm1(), 4096)
//!     .expect("an empty pod fits a full-pod model");
//! assert_eq!(placement.plan.shape.chips, [4, 4, 256]);
//!
//! // Let the MEMS mirrors settle and the transceivers re-acquire.
//! pod.advance(Nanos::from_millis(300));
//! assert!(pod.pod.settled());
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lightwave_availability as availability;
pub use lightwave_chaos as chaos;
pub use lightwave_dcn as dcn;
pub use lightwave_fabric as fabric;
pub use lightwave_fec as fec;
pub use lightwave_mlperf as mlperf;
pub use lightwave_ocs as ocs;
pub use lightwave_optics as optics;
pub use lightwave_par as par;
pub use lightwave_scheduler as scheduler;
pub use lightwave_service as service;
pub use lightwave_superpod as superpod;
pub use lightwave_telemetry as telemetry;
pub use lightwave_trace as trace;
pub use lightwave_transceiver as transceiver;
pub use lightwave_units as units;

/// Convenient single-import surface for the common workflows.
pub mod prelude {
    pub use crate::{DcnPlan, DcnPlanner, LinkDesigner, LinkReport, MlPod};
    pub use lightwave_dcn::{Mesh, TrafficMatrix};
    pub use lightwave_mlperf::{ChipParams, LlmConfig, SliceOptimizer};
    pub use lightwave_par::Pool;
    pub use lightwave_service::{ServiceConfig, SliceIntent};
    pub use lightwave_superpod::{Slice, SliceShape, Superpod};
    pub use lightwave_telemetry::{FleetTelemetry, Severity};
    pub use lightwave_trace::{to_chrome_trace, FlightRecorder, Tracer};
    pub use lightwave_transceiver::{DspConfig, ModuleFamily, Transceiver};
    pub use lightwave_units::{Availability, Ber, Db, Dbm, Gbps, Nanos};
}

use lightwave_dcn::{flowsim, te, Mesh, TrafficMatrix};
use lightwave_fabric::CommitReport;
use lightwave_mlperf::{LlmConfig, OptimalShape, SliceOptimizer};
use lightwave_superpod::pod::{PodError, SliceHandle};
use lightwave_superpod::slice::{CubeList, Slice};
use lightwave_superpod::Superpod;
use lightwave_trace::Tracer;
use lightwave_transceiver::bidilink::{BidiLink, LaneReport};
use lightwave_transceiver::dsp::DspConfig;
use lightwave_transceiver::module::{ModuleFamily, Transceiver};
use lightwave_units::{Ber, Nanos};
use serde::{Deserialize, Serialize};

/// A model-aware ML superpod: slice shapes chosen by the optimizer, cubes
/// by the pool, circuits by the fabric controller.
#[derive(Debug)]
pub struct MlPod {
    /// The underlying pod (fabric + cube inventory).
    pub pod: Superpod,
    /// The shape optimizer.
    pub optimizer: SliceOptimizer,
}

/// What composing a model's slice produced.
#[derive(Debug, Clone)]
pub struct ModelPlacement {
    /// Slice handle in the pod.
    pub handle: SliceHandle,
    /// The optimizer's decision (shape, mapping, predicted speedup).
    pub plan: OptimalShape,
    /// The fabric transaction that composed the slice: what moved on
    /// which switch, and when traffic is ready (absolute sim time).
    pub report: CommitReport,
}

/// Errors from model placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// No feasible shape for this model at this chip count.
    NoFeasibleShape,
    /// Not enough idle cubes.
    InsufficientCubes {
        /// Cubes needed.
        need: usize,
        /// Cubes idle.
        idle: usize,
    },
    /// The pod rejected the composition.
    Pod(PodError),
}

impl From<PodError> for PlacementError {
    fn from(e: PodError) -> Self {
        PlacementError::Pod(e)
    }
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoFeasibleShape => write!(f, "no feasible slice shape"),
            PlacementError::InsufficientCubes { need, idle } => {
                write!(f, "need {need} cubes, only {idle} idle")
            }
            PlacementError::Pod(e) => write!(f, "pod: {e}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl MlPod {
    /// A pod with TPU-v4 chip parameters and a deterministic fabric seed.
    pub fn new(seed: u64) -> MlPod {
        MlPod {
            pod: Superpod::new(seed),
            optimizer: SliceOptimizer::tpu_v4(),
        }
    }

    /// Places `model` on `chips` chips: optimal shape → idle cubes →
    /// fabric transaction.
    pub fn place_model(
        &mut self,
        model: &LlmConfig,
        chips: usize,
    ) -> Result<ModelPlacement, PlacementError> {
        let plan = self
            .optimizer
            .optimize(model, chips)
            .ok_or(PlacementError::NoFeasibleShape)?;
        let idle = self.pod.idle_set();
        let need = plan.shape.cube_count();
        if idle.len() < need {
            return Err(PlacementError::InsufficientCubes {
                need,
                idle: idle.len(),
            });
        }
        let slice = Slice::new(plan.shape, idle.iter().take(need).collect::<CubeList>())
            .expect("idle cubes are distinct and in range");
        let (handle, report) = self.pod.compose(slice)?;
        Ok(ModelPlacement {
            handle,
            plan,
            report,
        })
    }

    /// Releases a placed model, returning the teardown transaction.
    pub fn release(&mut self, handle: SliceHandle) -> Result<CommitReport, PlacementError> {
        Ok(self.pod.release(handle)?)
    }

    /// The pod's current sim time: the fabric clock its fleet keeps.
    pub fn now(&self) -> Nanos {
        self.pod.fabric().now()
    }

    /// Advances fabric time.
    pub fn advance(&mut self, dt: Nanos) {
        self.pod.advance(dt);
    }

    /// Cross-layer optical health census: walks every live circuit in the
    /// fabric, takes its *measured* insertion loss from the OCS optical
    /// core (mirrors, collimators, splices — including any degradation
    /// from spare-mirror swaps), puts that loss in the superpod link
    /// budget's OCS pass, and evaluates per-lane BER through the
    /// production DSP.
    ///
    /// This is the §3.2.2 "in-situ evaluation of the state of the OCS"
    /// surface a control plane scrapes to find marginal links before the
    /// workload does.
    pub fn link_census(&self) -> PodLinkCensus {
        use lightwave_optics::components::ComponentKind;

        let unit = Transceiver::nominal(ModuleFamily::Cwdm4Bidi);
        // The standard superpod path; each circuit puts its measured loss
        // in the OCS pass.
        let mut link = BidiLink::superpod(unit, unit, DspConfig::ml_production(), 0.1);
        let mut circuits = Vec::new();
        let mut violations = 0usize;
        let mut worst_margin = f64::INFINITY;
        for (ocs_id, ocs) in self.pod.fabric().fleet.iter() {
            for (north, south) in ocs.mapping().pairs() {
                let measured = ocs
                    .optical_core()
                    .insertion_loss(north as usize, south as usize);
                for pass in link.budget.components.iter_mut() {
                    if pass.kind == ComponentKind::OcsPass {
                        pass.insertion_loss = measured;
                    }
                }
                let worst = link.worst_lane();
                if !worst.healthy {
                    violations += 1;
                }
                worst_margin = worst_margin.min(worst.margin_orders);
                circuits.push(CircuitHealth {
                    ocs: ocs_id,
                    north,
                    south,
                    ocs_loss_db: measured.db(),
                    worst_lane: worst,
                });
            }
        }
        PodLinkCensus {
            circuits,
            violations,
            worst_margin_orders: if worst_margin.is_finite() {
                worst_margin
            } else {
                0.0
            },
        }
    }
}

/// Everything [`run_traced_fault_recovery`] produced: the span timeline,
/// the telemetry sink, and the flight recorder with its postmortem dumps.
#[derive(Debug)]
pub struct TracedRecovery {
    /// The span timeline (export with [`lightwave_trace::to_chrome_trace`]).
    pub tracer: Tracer,
    /// Events, alarms, SLOs from the run.
    pub telemetry: lightwave_telemetry::FleetTelemetry,
    /// The flight recorder; [`FlightRecorder::dumps`](lightwave_trace::FlightRecorder::dumps)
    /// holds the postmortem bundles.
    pub recorder: lightwave_trace::FlightRecorder,
    /// Incident ids dumped by the final poll.
    pub dumped: Vec<u64>,
}

/// Runs the §4.2.2 fault-recovery scenario fully instrumented: place a
/// 1024-chip job (traced fabric transaction), run a sharded Monte-Carlo
/// stage on `pool` (virtual worker lanes), lose a cube mid-training,
/// recover by recomposing onto a spare — and, mid-reconfiguration, lose
/// both PSUs on one switch. The chassis-down Critical lands in the alarm
/// aggregator and the flight recorder snapshots the postmortem bundle.
///
/// Everything is a pure function of `seed` and sim-time: the exported
/// trace and flight bundle are **byte-identical at any `pool` thread
/// count** (the determinism round-trip test pins this).
pub fn run_traced_fault_recovery(seed: u64, pool: &lightwave_par::Pool) -> TracedRecovery {
    use lightwave_fabric::instrument::FabricInstruments;
    use lightwave_superpod::instrument::{trace_compose, trace_release};
    use lightwave_telemetry::{FleetTelemetry, SeriesStore};
    use lightwave_trace::instrument::trace_shards;
    use lightwave_trace::{FlightRecorder, Lane, SpanKind};
    use rand::RngExt;

    let mut telemetry = FleetTelemetry::new();
    let mut tracer = Tracer::new(seed);
    let mut recorder = FlightRecorder::new(512);
    let mut fabric_inst = FabricInstruments::new();
    let mut pod = MlPod::new(seed);

    // 1. Place a 1024-chip job (16 cubes) — traced fabric transaction.
    let at = pod.now();
    let placement = pod
        .place_model(&LlmConfig::llm1(), 1024)
        .expect("empty pod fits the job");
    let cubes = placement.plan.shape.cube_count() as u32;
    let place_span = trace_compose(&mut tracer, None, 0, at, cubes, &placement.report);
    pod.advance(Nanos::from_millis(300));
    fabric_inst.scrape_fleet(&mut telemetry, &pod.pod.fabric().fleet);

    // 2. A training-step stand-in: sharded Monte-Carlo on the pool,
    //    rendered on the virtual worker lanes.
    let (_acc, _stats) = pool.run_shards(
        seed,
        4_096,
        256,
        |rng, shard| {
            (0..shard.len)
                .map(|_| rng.random_range(0.0f64..1.0))
                .sum::<f64>()
        },
        |a, b| a + b,
    );
    let plan = lightwave_par::plan_shards(4_096, 256);
    trace_shards(&mut tracer, Some(place_span), pod.now(), Nanos(50), &plan);

    // 3. A cube fails mid-training; recovery = release + recompose onto a
    //    spare, all under one FaultRecovery span.
    let recovery = tracer.begin(
        Lane::Pod(0),
        None,
        pod.now(),
        SpanKind::FaultRecovery {
            what: "cube-swap".to_string(),
        },
    );
    tracer.link_follows(recovery, place_span);
    let old = pod.pod.slice(placement.handle).expect("live").clone();
    let victim = old.cubes[3];
    pod.pod.mark_cube_failed(victim);
    let at = pod.now();
    let released = pod.release(placement.handle).expect("slice is live");
    let release_span = trace_release(&mut tracer, Some(recovery), 0, at, cubes, &released);
    let spare = pod
        .pod
        .idle_cubes()
        .into_iter()
        .find(|c| !old.cubes.contains(c))
        .expect("the pod has spares");
    let cubes: Vec<_> = old
        .cubes
        .iter()
        .map(|&c| if c == victim { spare } else { c })
        .collect();
    let at = pod.now();
    let (_handle, report) = pod
        .pod
        .compose(Slice::new(old.shape, cubes).expect("valid"))
        .expect("spare composition");
    let swap_span = trace_compose(
        &mut tracer,
        Some(recovery),
        0,
        at,
        old.shape.cube_count() as u32,
        &report,
    );
    tracer.link_follows(swap_span, release_span);

    // 4. Mid-reconfiguration FRU fault: both PSUs on OCS 5 die before the
    //    swapped circuits settle — chassis down, Critical.
    {
        let ocs = pod.pod.fabric_mut().fleet.get_mut(5).expect("exists");
        for psu in [0, 1] {
            ocs.fail_fru(psu).expect("slots 0 and 1 are the PSUs");
        }
    }
    tracer.instant(Lane::Switch(5), pod.now(), "both PSUs down mid-reconfig");
    tracer.end(recovery, report.traffic_ready_at.max(pod.now()));
    pod.advance(Nanos::from_millis(300));

    // 5. The fleet scrape forwards the chassis-down alarm; the poll sees
    //    the Critical incident and snapshots the postmortem bundle (the
    //    scenario keeps no health series, so the bundle embeds none).
    fabric_inst.scrape_fleet(&mut telemetry, &pod.pod.fabric().fleet);
    let dumped = recorder.poll(&tracer, &telemetry, &SeriesStore::default());

    TracedRecovery {
        tracer,
        telemetry,
        recorder,
        dumped,
    }
}

/// Optical health of one live circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitHealth {
    /// The switch carrying the circuit.
    pub ocs: u32,
    /// North port (source cube).
    pub north: u16,
    /// South port (destination cube).
    pub south: u16,
    /// Measured OCS path insertion loss, dB.
    pub ocs_loss_db: f64,
    /// The circuit's worst wavelength lane.
    pub worst_lane: LaneReport,
}

/// Result of [`MlPod::link_census`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodLinkCensus {
    /// Every live circuit's health.
    pub circuits: Vec<CircuitHealth>,
    /// Circuits whose worst lane violates the DSP threshold.
    pub violations: usize,
    /// The pod's thinnest margin, in orders of magnitude.
    pub worst_margin_orders: f64,
}

/// A DCN topology-engineering planner.
#[derive(Debug, Clone, Copy)]
pub struct DcnPlanner {
    /// Trunks available per aggregation block.
    pub uplinks_per_ab: usize,
    /// Capacity per trunk, Gb/s.
    pub trunk_gbps: f64,
}

/// A produced DCN plan with its predicted performance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcnPlan {
    /// The engineered mesh.
    pub mesh: Mesh,
    /// Flow report on the engineered mesh.
    pub engineered: flowsim::FlowReport,
    /// Flow report on the uniform-mesh baseline.
    pub uniform_baseline: flowsim::FlowReport,
}

impl DcnPlan {
    /// Throughput gain of TE over the uniform mesh.
    pub fn throughput_gain(&self) -> f64 {
        self.engineered.throughput / self.uniform_baseline.throughput
    }

    /// Relative FCT improvement (positive = TE better).
    pub fn fct_improvement(&self) -> f64 {
        (self.uniform_baseline.mean_fct - self.engineered.mean_fct) / self.uniform_baseline.mean_fct
    }
}

impl DcnPlanner {
    /// Engineers a mesh for `tm` and evaluates it against the baseline.
    /// Refused if `uplinks_per_ab` cannot reach every other block or
    /// `trunk_gbps` is not finite and positive.
    pub fn plan(&self, tm: &TrafficMatrix) -> Result<DcnPlan, te::TeError> {
        let mesh = te::engineer(tm, self.uplinks_per_ab)?;
        let engineered = flowsim::allocate(&mesh, tm, self.trunk_gbps)?;
        let uniform = Mesh::uniform(tm.n(), self.uplinks_per_ab);
        let uniform_baseline = flowsim::allocate(&uniform, tm, self.trunk_gbps)?;
        Ok(DcnPlan {
            mesh,
            engineered,
            uniform_baseline,
        })
    }
}

/// An optical-link design assistant.
#[derive(Debug, Clone, Copy)]
pub struct LinkDesigner {
    /// Transceiver family.
    pub family: ModuleFamily,
    /// One-way fiber length, km.
    pub fiber_km: f64,
    /// DSP configuration.
    pub dsp: DspConfig,
}

/// A full link health report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Per-lane evaluations.
    pub lanes: Vec<LaneReport>,
    /// Total MPI operating point, linear ratio.
    pub mpi_ratio: f64,
    /// Raw-BER threshold the DSP tolerates.
    pub raw_threshold: Ber,
    /// Whether every lane is healthy.
    pub healthy: bool,
}

impl LinkDesigner {
    /// The production ML-link configuration.
    pub fn ml_default() -> LinkDesigner {
        LinkDesigner {
            family: ModuleFamily::Cwdm4Bidi,
            fiber_km: 0.2,
            dsp: DspConfig::ml_production(),
        }
    }

    /// Evaluates the link with nominal (golden-sample) transceivers.
    pub fn evaluate(&self) -> LinkReport {
        let link = BidiLink::superpod(
            Transceiver::nominal(self.family),
            Transceiver::nominal(self.family),
            self.dsp,
            self.fiber_km,
        );
        let lanes = link.evaluate();
        LinkReport {
            healthy: lanes.iter().all(|l| l.healthy),
            mpi_ratio: link.mpi_ratio(),
            raw_threshold: self.dsp.fec.raw_ber_threshold(),
            lanes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwave_mlperf::LlmConfig;

    #[test]
    fn place_all_three_table2_models_sequentially() {
        let mut pod = MlPod::new(42);
        // LLM0 on 512 chips (8 cubes), LLM1 on 1024 (16), leave room.
        let p0 = pod.place_model(&LlmConfig::llm0(), 512).unwrap();
        let p1 = pod.place_model(&LlmConfig::llm1(), 1024).unwrap();
        assert_ne!(p0.handle, p1.handle);
        pod.advance(Nanos::from_millis(300));
        assert!(pod.pod.settled());
        assert_eq!(pod.pod.idle_cubes().len(), 64 - 8 - 16);
        pod.release(p0.handle).unwrap();
        assert_eq!(pod.pod.idle_cubes().len(), 64 - 16);
    }

    #[test]
    fn full_pod_placement_matches_table2_shape() {
        let mut pod = MlPod::new(1);
        let p = pod.place_model(&LlmConfig::llm1(), 4096).unwrap();
        assert_eq!(p.plan.shape.chips, [4, 4, 256]);
        assert!(p.plan.speedup_vs_baseline > 2.9);
        // A second full-pod model cannot fit.
        let err = pod.place_model(&LlmConfig::llm2(), 4096).unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientCubes { .. }));
    }

    #[test]
    fn dcn_planner_reports_gains() {
        let planner = DcnPlanner {
            uplinks_per_ab: 30,
            trunk_gbps: 100.0,
        };
        let tm = TrafficMatrix::hotspot(16, 40.0, 8, 30.0, 3);
        let plan = planner.plan(&tm).expect("the budget reaches every peer");
        assert!(plan.throughput_gain() > 1.05);
        assert!(plan.mesh.within_budget());
    }

    #[test]
    fn link_designer_default_is_healthy() {
        let report = LinkDesigner::ml_default().evaluate();
        assert!(report.healthy);
        assert_eq!(report.lanes.len(), 4);
        assert!(report.mpi_ratio > 0.0);
        assert!(report.raw_threshold.prob() > Ber::KP4_THRESHOLD.prob());
    }

    #[test]
    fn link_census_covers_every_circuit_and_is_clean() {
        let mut pod = MlPod::new(8);
        pod.place_model(&LlmConfig::llm0(), 512).unwrap();
        pod.advance(Nanos::from_millis(400));
        let census = pod.link_census();
        // 8 cubes × 3 dims × 16 = 384 circuits.
        assert_eq!(census.circuits.len(), 384);
        assert_eq!(
            census.violations, 0,
            "a healthy pod has no marginal circuits"
        );
        assert!(census.worst_margin_orders > 0.5);
    }

    #[test]
    fn link_census_sees_degraded_mirrors() {
        let mut pod = MlPod::new(9);
        pod.place_model(&LlmConfig::llm0(), 512).unwrap();
        pod.advance(Nanos::from_millis(400));
        let before = pod.link_census();
        // Burn through spares on one port until the serving mirror is a
        // bottom-of-barrel spare (worse intrinsic loss).
        let cube = pod.pod.slices().next().unwrap().1.cubes[0];
        assert!(pod.pod.slices().any(|(_, s)| s.cubes.contains(&cube)));
        let ocs = pod.pod.fabric_mut().fleet.get_mut(0).unwrap();
        let victim = ocs.mapping().pairs().next().unwrap().0;
        for _ in 0..10 {
            ocs.fail_mirror(true, victim).unwrap();
        }
        pod.advance(Nanos::from_millis(400));
        let after = pod.link_census();
        let loss_before = before
            .circuits
            .iter()
            .find(|c| c.ocs == 0 && c.north == victim)
            .unwrap()
            .ocs_loss_db;
        let loss_after = after
            .circuits
            .iter()
            .find(|c| c.ocs == 0 && c.north == victim)
            .unwrap()
            .ocs_loss_db;
        assert!(
            loss_after > loss_before,
            "spare swaps degrade the measured path: {loss_before:.2} → {loss_after:.2} dB"
        );
    }

    #[test]
    fn traced_fault_recovery_dumps_the_full_phase_chain() {
        use lightwave_trace::{FlightEntry, ReconfigPhase, SpanKind};

        let out = run_traced_fault_recovery(11, &lightwave_par::Pool::new(2));
        assert!(!out.dumped.is_empty(), "the chassis-down Critical dumps");
        let dump = out.recorder.latest_dump().expect("dumped");
        let spans: Vec<_> = dump
            .entries
            .iter()
            .filter_map(|e| match e {
                FlightEntry::Span(s) => Some(s),
                FlightEntry::Event(_) => None,
            })
            .collect();
        // The bundle carries at least one complete drain → settle →
        // verify → undrain chain, parented to its switch's reconfig span.
        let drains: Vec<_> = spans
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    SpanKind::Phase {
                        phase: ReconfigPhase::Drain,
                        ..
                    }
                )
            })
            .collect();
        assert!(!drains.is_empty(), "drain phases in the bundle");
        let drain = drains[0];
        let commit = drain.parent.expect("phases are parented");
        let commit_span = spans.iter().find(|s| s.id == commit).expect("in bundle");
        assert!(matches!(commit_span.kind, SpanKind::ReconfigCommit { .. }));
        // The three successors, chained follows-from off the drain.
        let mut prev = drain.id;
        for phase in [
            ReconfigPhase::MirrorSettle,
            ReconfigPhase::CameraVerify,
            ReconfigPhase::Undrain,
        ] {
            let next = spans
                .iter()
                .find(|s| {
                    s.parent == Some(commit)
                        && s.follows == Some(prev)
                        && matches!(s.kind, SpanKind::Phase { phase: p, .. } if p == phase)
                })
                .unwrap_or_else(|| panic!("{phase:?} follows the chain"));
            prev = next.id;
        }
        // And the fault-recovery umbrella span made it in too.
        assert!(spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::FaultRecovery { .. })));
        // The bundle round-trips as JSONL.
        let jsonl = dump.to_jsonl();
        let read = lightwave_trace::FlightDump::from_jsonl(&jsonl).expect("reads back");
        assert_eq!(&read, dump);
        assert_eq!(read.to_jsonl(), jsonl);
    }

    #[test]
    fn link_designer_flags_hopeless_links() {
        let mut d = LinkDesigner::ml_default();
        d.fiber_km = 60.0; // ~21 dB of fiber loss: dead
        assert!(!d.evaluate().healthy);
    }
}
