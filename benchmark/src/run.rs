//! Runs workloads and turns what was measured into the catalogue's
//! metrics: the untraced reps behind the end-to-end numbers, and the
//! traced passes behind the per-layer ones.

use crate::alloc::counted;
use crate::calib::{Calibrator, Shares, PAUSES_PER_REP};
use crate::catalogue::PER_LAYER;
use crate::replay::{self, Names};
use crate::stats::{median, spread_pct};
use crate::trace::{Trace, NO_PARENT};
use crate::workload::{
    admit_wait_p99_ms, audit_service, drive, experiment_order, pod_seed, repro_pass, repro_rep,
    service_rep, snapshot_json, Cell, Checks, Kind, NoProbe, ServiceSpec, Workload, DEFAULT_SEED,
};
use lightwave::par::Pool;
use lightwave::service::{erlang_b, Mix};
use lightwave::superpod::Superpod;
use lightwave::units::Nanos;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed reps a run makes at least, whatever `--seconds` says (a smoke
/// run makes two).
const MIN_REPS: usize = 3;
/// Untraced reps inside a traced run (trace overhead and rep spread).
const TRACED_RUN_PLAIN_REPS: usize = 3;
/// Sim-time rate ladder of `prod_steady`: mean gaps in milliseconds.
const LADDER_GAPS_MS: [u64; 6] = [40, 34, 30, 26, 23, 20];
/// Requests per ladder rung.
const LADDER_REQUESTS: u64 = 8_000;
/// p99 admission wait a ladder rung must stay under, milliseconds.
const LADDER_WAIT_LIMIT_MS: f64 = 250.0;
/// Cells and arrivals per cell of the two-thread scaling probe.
const PAR_CELLS: u64 = 16;
const PAR_CELL_REQUESTS: u64 = 4_096;
/// Offered load and servers of the single-cube loss workloads.
const LOSS_ERLANGS: f64 = 50.0;
const LOSS_SERVERS: u32 = 64;
/// Relative distance from Erlang B the measured blocking may sit at. Over
/// a million arrivals it scatters around Erlang B with a relative
/// standard deviation of 3 % from seed to seed (worst of 24 seeds: 7 %),
/// so a 10 % gate would fail one honest run in five hundred.
const ERLANG_TOLERANCE: f64 = 0.15;

/// Metric values by catalogue name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How a run was asked to run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed reps per workload.
    pub seconds: f64,
    /// The workloads are at smoke size: checks that need the full size
    /// are skipped, and fewer reps are made.
    pub smoke: bool,
}

/// One workload's outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload, at the size it ran.
    pub workload: Workload,
    /// Work items attempted (in the reps or passes the checks cover).
    pub attempted: u64,
    /// Work items the program got wrong.
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub errors: Vec<String>,
    /// The metrics measured.
    pub metrics: Metrics,
    /// `req_per_s` of each timed rep (untraced run) or plain rep (traced
    /// run).
    pub rep_rates: Vec<f64>,
    /// `req_per_cal` of each of them (untraced run only).
    pub rep_rates_per_cal: Vec<f64>,
    /// The service snapshot every rep produced, if a service workload.
    pub snapshot: Option<String>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The golden snapshot of a service workload at [`DEFAULT_SEED`].
fn golden(name: &str) -> Option<&'static str> {
    Some(match name {
        "prod_steady" => include_str!("../golden/prod_steady.json"),
        "single_loss" => include_str!("../golden/single_loss.json"),
        "single_backlog" => include_str!("../golden/single_backlog.json"),
        "single_observed" => include_str!("../golden/single_observed.json"),
        _ => return None,
    })
}

/// What one rep of any workload produced.
struct Rep {
    shares: Shares,
    failed: u64,
    errors: Vec<String>,
    snapshot: Option<String>,
    /// Blocking probability of a service rep.
    blocking: Option<f64>,
}

/// The per-workload plan of an untraced run.
struct Plan {
    workload: Workload,
    order: Vec<&'static str>,
    requests: u64,
}

impl Plan {
    fn new(workload: Workload, settings: &Settings) -> Plan {
        Plan {
            workload,
            order: match workload.kind {
                Kind::Service(_) => Vec::new(),
                Kind::Repro { heavy, .. } => experiment_order(settings.seed, heavy),
            },
            requests: workload.requests_per_rep(),
        }
    }

    /// One rep over `requests` work items (a service workload's request
    /// count; the paper workload runs `requests / order.len()` passes),
    /// with or without calibration slices interleaved.
    fn rep(&self, seed: u64, requests: u64, calib: &Calibrator, interleave: bool) -> Rep {
        match self.workload.kind {
            Kind::Service(spec) => {
                let pauses = if interleave { PAUSES_PER_REP } else { 0 };
                let (shares, cell) = service_rep(&spec, seed, requests, calib, pauses);
                let (failed, errors) = audit_service(&cell, requests);
                Rep {
                    shares,
                    failed,
                    errors,
                    snapshot: Some(snapshot_json(cell.core.report())),
                    blocking: Some(cell.core.report().blocking_probability()),
                }
            }
            Kind::Repro { .. } => {
                let passes = requests / self.order.len() as u64;
                let (shares, checks) = repro_rep(&self.order, passes, calib, interleave);
                Rep {
                    shares,
                    failed: checks.failed,
                    errors: check_errors(checks),
                    snapshot: None,
                    blocking: None,
                }
            }
        }
    }

    /// Requests of the warm-up rep that set-up ends with: a tenth of a
    /// rep, or one pass.
    fn warmup_requests(&self) -> u64 {
        match self.workload.kind {
            Kind::Service(_) => (self.requests / 10).max(1),
            Kind::Repro { .. } => self.order.len() as u64,
        }
    }

    /// Requests of the counted rep: a full service rep, or one pass (the
    /// per-request figures of a pass do not depend on how many follow).
    fn counted_requests(&self) -> u64 {
        match self.workload.kind {
            Kind::Service(_) => self.requests,
            Kind::Repro { .. } => self.order.len() as u64,
        }
    }
}

fn check_errors(checks: Checks) -> Vec<String> {
    if checks.failed == 0 {
        return Vec::new();
    }
    vec![format!(
        "{} of {} paper checks outside tolerance",
        checks.failed, checks.total
    )]
}

/// Untraced runs of `workloads`: set-up, timed reps round-robin across
/// the workloads with calibration slices interleaved, then one counted
/// rep each. Yields the end-to-end metrics.
pub fn measure(workloads: &[Workload], settings: &Settings, calib: &Calibrator) -> Vec<Outcome> {
    let plans: Vec<Plan> = workloads.iter().map(|&w| Plan::new(w, settings)).collect();
    let mut outcomes: Vec<Outcome> = plans
        .iter()
        .map(|plan| Outcome {
            workload: plan.workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Metrics::new(),
            rep_rates: Vec::new(),
            rep_rates_per_cal: Vec::new(),
            snapshot: None,
        })
        .collect();

    // Set-up: build the cell and run the warm-up rep (`rep` does both),
    // several times.
    for (plan, out) in plans.iter().zip(&mut outcomes) {
        let setups: Vec<f64> = (0..SETUPS)
            .map(|_| {
                let start = Instant::now();
                let rep = plan.rep(settings.seed, plan.warmup_requests(), calib, false);
                out.errors.extend(rep.errors);
                start.elapsed().as_secs_f64()
            })
            .collect();
        out.metrics.insert("setup_s", median(&setups));
    }

    // Timed reps, round-robin, calibration slices interleaved.
    let budget = settings.seconds * plans.len() as f64;
    let start = Instant::now();
    let min_reps = if settings.smoke { 2 } else { MIN_REPS };
    for round in 0.. {
        if round >= min_reps && start.elapsed().as_secs_f64() >= budget {
            break;
        }
        for (plan, out) in plans.iter().zip(&mut outcomes) {
            let rep = plan.rep(settings.seed, plan.requests, calib, true);
            let rate = plan.requests as f64 / rep.shares.work_s;
            out.rep_rates.push(rate);
            out.rep_rates_per_cal
                .push(plan.requests as f64 / rep.shares.work_slices);
            out.attempted += plan.requests;
            out.failed += rep.failed;
            out.errors.extend(rep.errors);
            match &out.snapshot {
                None => out.snapshot = rep.snapshot,
                Some(first) if Some(first) != rep.snapshot.as_ref() => out
                    .errors
                    .push("two reps produced different snapshots".into()),
                Some(_) => {}
            }
        }
    }

    // The counted rep, and the checks that close the run.
    for (plan, out) in plans.iter().zip(&mut outcomes) {
        let requests = plan.counted_requests();
        let (rep, allocs) = counted(|| plan.rep(settings.seed, requests, calib, false));
        out.errors.extend(rep.errors);
        if let (Some(blocking), false) = (rep.blocking, settings.smoke) {
            out.errors.extend(erlang_error(&plan.workload, blocking));
        }
        if requests == plan.requests && rep.snapshot != out.snapshot {
            out.errors
                .push("the counted rep produced a different snapshot".into());
        }
        if let (Some(want), Some(got), true) = (
            golden(plan.workload.name),
            &out.snapshot,
            settings.seed == DEFAULT_SEED && !settings.smoke,
        ) {
            if want.trim() != got {
                out.errors
                    .push("snapshot differs from benchmark/golden".into());
            }
        }
        out.errors.sort();
        out.errors.dedup();
        out.metrics
            .insert("req_per_cal", median(&out.rep_rates_per_cal));
        let n = requests as f64;
        out.metrics
            .insert("allocs_per_req", allocs.allocs as f64 / n);
        out.metrics
            .insert("alloc_bytes_per_req", allocs.bytes as f64 / n);
        out.metrics
            .insert("peak_heap_mb", allocs.peak_bytes as f64 / 1e6);
    }
    outcomes
}

/// On the single-cube loss workloads, blocking must sit near Erlang B.
fn erlang_error(workload: &Workload, got: f64) -> Option<String> {
    let Kind::Service(spec) = workload.kind else {
        return None;
    };
    if spec.mix != Mix::SingleCube || spec.policy.queue_limit != 0 {
        return None;
    }
    let want = erlang_b(LOSS_ERLANGS, LOSS_SERVERS);
    ((got - want).abs() > ERLANG_TOLERANCE * want)
        .then(|| format!("blocking {got:.5} is not within 15% of Erlang B {want:.5}"))
}

/// The traced run of one workload. Yields the per-layer metrics.
pub fn trace_workload(
    workload: Workload,
    settings: &Settings,
    calib: &Calibrator,
) -> (Outcome, String) {
    let mut metrics: Metrics = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut trace = Trace::new();
    metrics.insert("bench.timer_ns", trace.timer_ns as f64);
    let slice_s: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            calib.slice();
            start.elapsed().as_secs_f64()
        })
        .collect();
    metrics.insert("bench.calib_s", median(&slice_s));
    let mut out = match workload.kind {
        Kind::Service(spec) => {
            trace_service(workload, spec, settings, calib, &mut trace, &mut metrics)
        }
        Kind::Repro { heavy, .. } => {
            let order = experiment_order(settings.seed, heavy);
            trace_repro(workload, &order, calib, &mut trace, &mut metrics)
        }
    };
    metrics.insert("trace.spans_count", trace.spans().len() as f64);
    let start = Instant::now();
    let json = trace.to_chrome_json();
    metrics.insert("trace.export_ms", start.elapsed().as_secs_f64() * 1e3);
    metrics.insert(
        "bench.fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.metrics = metrics;
    (out, json)
}

fn trace_service(
    workload: Workload,
    spec: ServiceSpec,
    settings: &Settings,
    calib: &Calibrator,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Outcome {
    let seed = settings.seed;
    let n = spec.traced_requests;
    let names = Names::intern(trace);

    // Plain reps at the traced size: the rate tracing is compared to.
    let mut errors = Vec::new();
    let mut failed = 0;
    let mut plain_walls = Vec::new();
    let mut snapshot = None;
    for _ in 0..TRACED_RUN_PLAIN_REPS {
        let (shares, cell) = service_rep(&spec, seed, n, calib, 0);
        let (f, e) = audit_service(&cell, n);
        failed += f;
        errors.extend(e);
        plain_walls.push(shares.work_s);
        snapshot = Some(snapshot_json(cell.core.report()));
    }
    let rep_rates: Vec<f64> = plain_walls.iter().map(|w| n as f64 / w).collect();
    m.insert("bench.rep_spread_pct", spread_pct(&rep_rates));

    let new_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(Superpod::new(pod_seed(seed, 0)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.insert("superpod.new_ms", median(&new_ms));
    m.insert(
        "service.arrival_ns",
        replay::arrival_cost_ns(&spec, seed, n),
    );

    // Passes 1 to 4 in lockstep, then pass 5.
    let (tallies, cell, traced_wall_s) = replay::trace_layers(trace, names, &spec, seed, n);
    let (f, e) = audit_service(&cell, n);
    failed += f;
    errors.extend(e);
    if Some(snapshot_json(cell.core.report())) != snapshot {
        errors.push("the traced pass produced a different snapshot".into());
    }
    let observers = replay::observe(trace, names, &spec, seed, n);
    if tallies.mismatches > 0 {
        errors.push(format!(
            "{} replayed operations differ from the live run",
            tallies.mismatches
        ));
    }
    m.insert("bench.replay_mismatch_count", tallies.mismatches as f64);
    m.insert(
        "bench.trace_overhead_pct",
        (traced_wall_s / median(&plain_walls) - 1.0) * 100.0,
    );

    // Counts and ratios, exact for a fixed seed.
    let report = cell.core.report();
    let nf = n as f64;
    m.insert("service.queue_depth_mean", tallies.depth_sum as f64 / nf);
    m.insert("service.queue_depth_max", tallies.depth_max as f64);
    m.insert("service.events_per_req", tallies.events as f64 / nf);
    m.insert("service.admits_per_req", tallies.admitted as f64 / nf);
    m.insert("service.preempts_per_req", tallies.preempted as f64 / nf);
    m.insert("sim.admit_wait_p99_ms", admit_wait_p99_ms(report));
    m.insert("sim.blocking_prob", report.blocking_probability());
    m.insert(
        "sim.goodput_util",
        report.utilization() * report.goodput_fraction(),
    );
    let (mut alignments, mut connects, mut alignment_failures) = (0, 0, 0);
    for (_, ocs) in cell.pod.fabric().fleet.iter() {
        let c = ocs.telemetry().counters;
        alignments += c.alignments;
        connects += c.connects;
        alignment_failures += c.alignment_failures;
    }
    m.insert(
        "ocs.alignments_per_connect",
        alignments as f64 / connects.max(1) as f64,
    );
    m.insert("ocs.alignment_failures_count", alignment_failures as f64);

    // Times. The busy sums cover the steps only, so that each layer's sum
    // nests in the one above; the means and percentiles cover every call.
    let all = trace.totals(|_| true);
    let in_steps = trace.totals(|s| u64::from(s.request) < n);
    let busy_s = |name: u8| in_steps[name as usize].busy_ns as f64 / 1e9;
    let step = &all[names.step as usize];
    m.insert("service.step_p50_us", step.percentile_ns(0.5) / 1e3);
    m.insert("service.step_p99_us", step.percentile_ns(0.99) / 1e3);
    m.insert("service.step_p999_us", step.percentile_ns(0.999) / 1e3);
    m.insert("service.step_busy_s", step.busy_ns as f64 / 1e9);
    m.insert(
        "service.drain_s",
        all[names.drain as usize].busy_ns as f64 / 1e9,
    );
    m.insert(
        "service.core_self_us_per_req",
        in_steps[names.step as usize].self_ns as f64 / 1e3 / nf,
    );
    let allocate = &all[names.allocate as usize];
    m.insert("scheduler.allocate_ns", allocate.mean_ns());
    m.insert("scheduler.allocate_count", allocate.count() as f64);
    m.insert(
        "superpod.idle_cubes_ns",
        all[names.idle_cubes as usize].mean_ns(),
    );
    let compose = &all[names.compose as usize];
    let release = &all[names.release as usize];
    m.insert("superpod.compose_us", compose.mean_ns() / 1e3);
    m.insert("superpod.compose_p99_us", compose.percentile_ns(0.99) / 1e3);
    m.insert("superpod.release_us", release.mean_ns() / 1e3);
    m.insert("superpod.release_p99_us", release.percentile_ns(0.99) / 1e3);
    let pod_ops = compose.count() + release.count();
    m.insert("superpod.ops_count", pod_ops as f64);
    m.insert(
        "superpod.self_us_per_op",
        (compose.self_ns + release.self_ns) as f64 / 1e3 / pod_ops.max(1) as f64,
    );
    m.insert(
        "superpod.switches_per_op",
        tallies.switch_applies as f64 / pod_ops.max(1) as f64,
    );
    m.insert(
        "superpod.circuits_per_op",
        tallies.circuits as f64 / pod_ops.max(1) as f64,
    );
    let commit = &all[names.commit_delta as usize];
    m.insert("fabric.commit_delta_us", commit.mean_ns() / 1e3);
    m.insert(
        "fabric.commit_delta_p99_us",
        commit.percentile_ns(0.99) / 1e3,
    );
    m.insert(
        "fabric.self_us_per_commit",
        commit.self_ns as f64 / 1e3 / commit.count().max(1) as f64,
    );
    m.insert("fabric.commits_count", commit.count() as f64);
    m.insert("fabric.commit_busy_s", busy_s(names.commit_delta));
    m.insert(
        "fabric.advance_ns",
        all[names.fabric_advance as usize].mean_ns(),
    );
    m.insert("fabric.advance_busy_s", busy_s(names.fabric_advance));
    let apply = &all[names.apply_delta as usize];
    m.insert("ocs.apply_delta_ns_per_switch", apply.mean_ns());
    m.insert(
        "ocs.apply_delta_ns_per_circuit",
        apply.busy_ns as f64 / tallies.circuits.max(1) as f64,
    );
    m.insert(
        "ocs.validate_delta_ns_per_switch",
        all[names.validate_delta as usize].mean_ns(),
    );
    m.insert(
        "ocs.advance_ns",
        all[names.fleet_advance as usize].mean_ns()
            / lightwave::superpod::wiring::SUPERPOD_OCS_COUNT as f64,
    );
    m.insert("ocs.apply_busy_s", busy_s(names.apply_delta));
    let per_event = |name: u8| all[name as usize].busy_ns as f64 / observers.events.max(1) as f64;
    m.insert(
        "service.scope_observe_ns_per_event",
        per_event(names.scope_observe),
    );
    m.insert(
        "telemetry.campus_observe_ns_per_event",
        per_event(names.campus_observe),
    );
    m.insert("service.scope_finish_ms", observers.scope_finish_ms);
    m.insert("telemetry.health_doc_ms", observers.health_doc_ms);
    m.insert("telemetry.health_doc_kb", observers.health_doc_kb);
    m.insert(
        "telemetry.rollup_ingests_per_req",
        observers.rollup_ingests as f64 / nf,
    );

    // The layers must nest: each replayed layer's time inside its parent's,
    // give or take the replay's own noise.
    let nest = [
        ("ocs.apply_busy_s", busy_s(names.apply_delta)),
        ("fabric.commit_busy_s", busy_s(names.commit_delta)),
        (
            "superpod compose+release",
            busy_s(names.compose) + busy_s(names.release),
        ),
        ("service.step_busy_s", busy_s(names.step)),
    ];
    if !settings.smoke {
        for pair in nest.windows(2) {
            let ((child, c), (parent, p)) = (pair[0], pair[1]);
            if c > p * 1.10 {
                errors.push(format!(
                    "{child} {c:.3}s exceeds its parent {parent} {p:.3}s by over 10%"
                ));
            }
        }
    }

    if workload.name == "prod_steady" {
        m.insert(
            "sim.max_rate_per_s",
            max_sim_rate(&spec, seed, settings.smoke, calib),
        );
        if let Some((speedup, utilization)) = two_thread_scaling(&spec, seed, settings.smoke) {
            m.insert("par.speedup_2t", speedup);
            m.insert("par.utilization_2t", utilization);
        }
    }

    Outcome {
        workload,
        attempted: n * (TRACED_RUN_PLAIN_REPS as u64 + 1),
        failed,
        errors,
        metrics: Metrics::new(),
        rep_rates,
        rep_rates_per_cal: Vec::new(),
        snapshot,
    }
}

/// The highest arrival rate of the ladder, in requests per sim second,
/// that keeps p99 admission wait under the limit and blocks nothing.
fn max_sim_rate(spec: &ServiceSpec, seed: u64, smoke: bool, calib: &Calibrator) -> f64 {
    let requests = if smoke {
        LADDER_REQUESTS / 50
    } else {
        LADDER_REQUESTS
    };
    let mut best = 0.0;
    for gap_ms in LADDER_GAPS_MS {
        let rung = ServiceSpec {
            mean_gap: Nanos::from_millis(gap_ms),
            ..*spec
        };
        let (_, cell) = service_rep(&rung, seed, requests, calib, 0);
        let report = cell.core.report();
        if admit_wait_p99_ms(report) <= LADDER_WAIT_LIMIT_MS && report.blocked() == 0 {
            best = 1_000.0 / gap_ms as f64;
        }
    }
    best
}

/// Speed-up and worker utilization of two threads over one, on
/// independent cells driven by the benchmark's own loop. `None` with
/// fewer than two cores: a one-core box can say nothing about scaling.
fn two_thread_scaling(spec: &ServiceSpec, seed: u64, smoke: bool) -> Option<(f64, f64)> {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return None;
    }
    let per_cell = if smoke {
        PAR_CELL_REQUESTS / 16
    } else {
        PAR_CELL_REQUESTS
    };
    let run = |threads: usize| {
        Pool::new(threads).run_shards(
            seed,
            PAR_CELLS * per_cell,
            per_cell,
            |_rng, shard| {
                let mut cell = Cell::new(seed, shard.index, spec.policy);
                let range = shard.start..shard.start + shard.len;
                drive(&mut cell, spec, seed, range, &mut NoProbe);
                cell.core.report().submitted
            },
            |a, b| a + b,
        )
    };
    let (served_1, one) = run(1);
    let (served_2, two) = run(2);
    assert_eq!(served_1, served_2, "thread count never changes results");
    Some((
        one.wall_nanos as f64 / two.wall_nanos.max(1) as f64,
        two.utilization(),
    ))
}

/// Which per-layer metric an experiment's host time is booked to.
fn experiment_group(id: &str) -> &'static str {
    match id {
        "fig12" => "fec.fig12_s",
        "fig11" => "optics.fig11_s",
        "fig13" => "transceiver.fig13_s",
        "tab2" => "mlperf.tab2_s",
        "dcn1" | "dcn2" | "tabc1" | "campus1" | "refresh1" => "dcn.group_s",
        "fig15a" | "fig15b" | "timeline1" => "availability.fig15_s",
        "sched1" => "scheduler.sched1_s",
        _ => "repro.other_s",
    }
}

fn trace_repro(
    workload: Workload,
    order: &[&'static str],
    calib: &Calibrator,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Outcome {
    let names: Vec<u8> = order.iter().map(|id| trace.name(id)).collect();
    let mut plain_walls = Vec::new();
    let mut checks = Checks::default();
    for _ in 0..TRACED_RUN_PLAIN_REPS {
        let (shares, c) = repro_rep(order, 1, calib, false);
        plain_walls.push(shares.work_s);
        checks.total += c.total;
        checks.failed += c.failed;
    }
    let rep_rates: Vec<f64> = plain_walls.iter().map(|w| order.len() as f64 / w).collect();
    m.insert("bench.rep_spread_pct", spread_pct(&rep_rates));

    let start = Instant::now();
    let mut next = 0;
    let traced_checks = repro_pass(order, |_, f| {
        trace.time(names[next], NO_PARENT, next as u64, f);
        next += 1;
    });
    let traced_wall_s = start.elapsed().as_secs_f64();
    checks.total += traced_checks.total;
    checks.failed += traced_checks.failed;
    m.insert("repro.pass_s", traced_wall_s);
    m.insert(
        "bench.trace_overhead_pct",
        (traced_wall_s / median(&plain_walls) - 1.0) * 100.0,
    );
    for t in trace.totals(|_| true) {
        *m.get_mut(experiment_group(t.name))
            .expect("groups are catalogue names") += t.busy_ns as f64 / 1e9;
    }
    m.insert("repro.checks_count", traced_checks.total as f64);
    m.insert("repro.checks_failed_count", traced_checks.failed as f64);
    Outcome {
        workload,
        attempted: checks.total,
        failed: checks.failed,
        errors: check_errors(checks),
        metrics: Metrics::new(),
        rep_rates,
        rep_rates_per_cal: Vec::new(),
        snapshot: None,
    }
}
