//! The benchmark's one command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W]... [--seed S] [--seconds T] [--trace 0|1] \
//!     [--smoke] [--selfcheck] [--out DIR]
//! ```
//!
//! Prints every metric by name with its unit, checks the outputs, writes
//! `bench.json` (and `trace.<workload>.json` when tracing) under `--out`,
//! and ends with one JSON result line per workload. `--trace 0` makes the
//! untraced runs only (end-to-end metrics), `--trace 1` the traced runs
//! only (per-layer metrics); without it both are made. Exits non-zero
//! when any output check fails.

use lwbench::calib::Calibrator;
use lwbench::catalogue::{END_TO_END, PER_LAYER, RUN_SECONDS};
use lwbench::run::{measure, trace_workload, Outcome, Settings};
use lwbench::stats::{median, spread_pct};
use lwbench::workload::{Kind, Workload, DEFAULT_SEED, WORKLOADS};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: lwbench [--workload W]... [--seed S] [--seconds T] [--trace 0|1] \
[--smoke] [--selfcheck] [--out DIR]";

struct Options {
    workloads: Vec<Workload>,
    settings: Settings,
    /// `Some(false)`: untraced only; `Some(true)`: traced only.
    trace: Option<bool>,
    selfcheck: bool,
    out: PathBuf,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        settings: Settings {
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            smoke: false,
        },
        trace: None,
        selfcheck: false,
        out: PathBuf::from("benchmark/target/lwbench"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
                opts.workloads.push(workload);
            }
            "--seed" => {
                let text = value()?;
                opts.settings.seed = parse_u64(text).ok_or_else(|| format!("bad seed {text}"))?;
            }
            "--seconds" => {
                let text = value()?;
                opts.settings.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {text}"))?;
            }
            "--trace" => {
                opts.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => opts.settings.smoke = true,
            "--selfcheck" => opts.selfcheck = true,
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.to_vec();
    }
    if opts.settings.smoke {
        opts.settings.seconds = 0.0;
        for w in &mut opts.workloads {
            *w = w.smoke();
        }
    }
    Ok(opts)
}

/// One workload's untraced and traced outcomes.
struct Run {
    untraced: Option<Outcome>,
    traced: Option<(Outcome, String)>,
}

impl Run {
    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.untraced
            .iter()
            .chain(self.traced.iter().map(|(outcome, _)| outcome))
    }

    fn workload(&self) -> &Workload {
        &self
            .outcomes()
            .next()
            .expect("a run makes at least one of the two")
            .workload
    }

    fn correct(&self) -> bool {
        self.outcomes().all(Outcome::correct)
    }

    /// Every metric measured, with its unit, in catalogue order:
    /// end-to-end first.
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = Vec::new();
        if let Some(untraced) = &self.untraced {
            for m in &END_TO_END {
                out.push((m.name, untraced.metrics[m.name], m.unit));
            }
        }
        if let Some((traced, _)) = &self.traced {
            for m in &PER_LAYER {
                out.push((m.name, traced.metrics[m.name], m.unit));
            }
        }
        out
    }

    /// The result line the benchmark contract asks for.
    fn result_line(&self) -> String {
        let line = ResultLine {
            correct: self.correct(),
            attempted: self.outcomes().map(|o| o.attempted).sum::<u64>().max(1),
            failed: self.outcomes().map(|o| o.failed).sum(),
            metrics: self.metric_docs(),
        };
        serde_json::to_string(&line).expect("a result line serializes")
    }

    fn metric_docs(&self) -> BTreeMap<&'static str, MetricDoc> {
        self.metrics()
            .into_iter()
            .map(|(name, value, unit)| (name, MetricDoc { value, unit }))
            .collect()
    }
}

fn suite(opts: &Options, calib: &Calibrator) -> Vec<Run> {
    let untraced = match opts.trace {
        Some(true) => vec![None; opts.workloads.len()],
        _ => measure(&opts.workloads, &opts.settings, calib)
            .into_iter()
            .map(Some)
            .collect(),
    };
    opts.workloads
        .iter()
        .zip(untraced)
        .map(|(&workload, untraced)| Run {
            untraced,
            traced: (opts.trace != Some(false))
                .then(|| trace_workload(workload, &opts.settings, calib)),
        })
        .collect()
}

/// Whether two suites of one build agree: every exact metric to the
/// digit, every other end-to-end metric within its bound.
fn agree(first: &[Run], second: &[Run]) -> bool {
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        let name = a.workload().name;
        if let (Some(a), Some(b)) = (&a.untraced, &b.untraced) {
            for m in &END_TO_END {
                let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
                let off = if m.exact {
                    x != y
                } else {
                    (y - x).abs() > m.bound * x.abs()
                };
                if off {
                    ok = false;
                    println!(
                        "selfcheck: {name} {} differs: {x} then {y} (bound {})",
                        m.name,
                        if m.exact { 0.0 } else { m.bound }
                    );
                }
            }
        }
        if let (Some((a, _)), Some((b, _))) = (&a.traced, &b.traced) {
            for (metric, x) in &a.metrics {
                let exact = metric.ends_with("_count")
                    || metric.starts_with("sim.")
                    || *metric == "bench.fail_share";
                let y = b.metrics[metric];
                if exact && *x != y {
                    ok = false;
                    println!("selfcheck: {name} {metric} differs: {x} then {y} (exact)");
                }
            }
        }
    }
    ok
}

#[derive(Serialize)]
struct MetricDoc {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, MetricDoc>,
}

#[derive(Serialize)]
struct WorkloadDoc {
    name: &'static str,
    why: &'static str,
    requests_per_rep: u64,
    traced_requests: u64,
    correct: bool,
    errors: Vec<String>,
    timed_reps: usize,
    /// Raw requests per second, median over reps: not a gated metric
    /// (it carries the machine's drift), kept for the record.
    req_per_s: f64,
    rep_req_per_s: Vec<f64>,
    rep_req_per_cal: Vec<f64>,
    rep_spread_pct: f64,
    metrics: BTreeMap<&'static str, MetricDoc>,
}

#[derive(Serialize)]
struct BenchDoc {
    schema: &'static str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    available_parallelism: usize,
    nproc: usize,
    git_rev: String,
    rustc: String,
    workloads: Vec<WorkloadDoc>,
}

/// First line a command prints, or "unknown" when it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn bench_doc(opts: &Options, runs: &[Run]) -> BenchDoc {
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or(available_parallelism);
    BenchDoc {
        schema: "lightwave/lwbench/v1",
        seed: opts.settings.seed,
        seconds: opts.settings.seconds,
        smoke: opts.settings.smoke,
        available_parallelism,
        nproc,
        git_rev: first_line_of("git", &["rev-parse", "HEAD"]),
        rustc: first_line_of("rustc", &["--version"]),
        workloads: runs
            .iter()
            .map(|run| {
                let workload = run.workload();
                let reps = run.outcomes().next().expect("one outcome at least");
                WorkloadDoc {
                    name: workload.name,
                    why: workload.why,
                    requests_per_rep: workload.requests_per_rep(),
                    traced_requests: match workload.kind {
                        Kind::Service(spec) => spec.traced_requests,
                        Kind::Repro { .. } => 0,
                    },
                    correct: run.correct(),
                    errors: run.outcomes().flat_map(|o| o.errors.clone()).collect(),
                    timed_reps: reps.rep_rates.len(),
                    req_per_s: median(&reps.rep_rates),
                    rep_req_per_s: reps.rep_rates.clone(),
                    rep_req_per_cal: reps.rep_rates_per_cal.clone(),
                    rep_spread_pct: spread_pct(&reps.rep_rates),
                    metrics: run.metric_docs(),
                }
            })
            .collect(),
    }
}

fn write_outputs(opts: &Options, runs: &[Run]) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let write = |name: String, text: &str| std::fs::write(Path::new(&opts.out).join(name), text);
    let doc = serde_json::to_string_pretty(&bench_doc(opts, runs)).expect("doc serializes");
    write("bench.json".to_owned(), &doc)?;
    for run in runs {
        let name = run.workload().name;
        if let Some((_, trace)) = &run.traced {
            write(format!("trace.{name}.json"), trace)?;
        }
        // The file to copy over benchmark/golden/ when a change means to
        // alter the modelled system.
        if let Some(snapshot) = run.outcomes().find_map(|o| o.snapshot.as_ref()) {
            write(format!("{name}.snapshot.json"), snapshot)?;
        }
    }
    Ok(())
}

fn print_metrics(runs: &[Run]) {
    for run in runs {
        let name = run.workload().name;
        for (metric, value, unit) in run.metrics() {
            println!("{name:<16} {metric:<40} {value:>16.6} {unit}");
        }
        if let Some(untraced) = &run.untraced {
            let raw = median(&untraced.rep_rates);
            println!("{name:<16} (req_per_s, raw, not gated)              {raw:>16.6} 1/s");
        }
        for outcome in run.outcomes() {
            for error in &outcome.errors {
                println!("{name:<16} FAILED CHECK: {error}");
            }
        }
    }
}

fn main() -> ExitCode {
    // One thread everywhere (the paper kernels size their pools from
    // this); the two-thread scaling probe asks for its second explicitly.
    std::env::set_var(lightwave::par::THREADS_ENV, "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calib = Calibrator::new();
    let runs = suite(&opts, &calib);
    let mut ok = runs.iter().all(Run::correct);
    print_metrics(&runs);
    if opts.selfcheck {
        let again = suite(&opts, &calib);
        print_metrics(&again);
        ok &= again.iter().all(Run::correct);
        let same = agree(&runs, &again);
        println!("selfcheck: {}", if same { "passed" } else { "FAILED" });
        ok &= same;
    }
    if let Err(why) = write_outputs(&opts, &runs) {
        eprintln!("cannot write under {}: {why}", opts.out.display());
        return ExitCode::FAILURE;
    }
    for run in &runs {
        println!("{}", run.result_line());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
