//! End to end: a smoke run prints every metric `BENCHMARK.json` lists and
//! nothing else, writes its documents, and the trace it writes is a valid
//! Chrome trace.

mod common;

use common::ResultLine;
use lightwave::trace::validate::validate_chrome_trace;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs the benchmark and returns its result lines, one per workload.
fn lwbench(args: &[&str], out: &Path) -> Vec<ResultLine> {
    let output = Command::new(env!("CARGO_BIN_EXE_lwbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("lwbench runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(
        output.status.success(),
        "lwbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("a result line parses"))
        .collect()
}

fn names(line: &ResultLine) -> Vec<&str> {
    line.metrics.keys().map(String::as_str).collect()
}

#[test]
fn a_smoke_run_emits_every_listed_metric_and_nothing_else() {
    let contract = common::contract();
    let out = out_dir("smoke");
    let start = Instant::now();
    let lines = lwbench(&["--smoke"], &out);
    let took = start.elapsed().as_secs_f64();
    assert!(took < 20.0, "a smoke run is short, took {took:.1}s");
    assert_eq!(lines.len(), contract.workloads.len());

    let mut listed: Vec<(&str, &str)> = contract
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .chain(
            contract
                .per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        )
        .collect();
    listed.sort_unstable();
    for line in &lines {
        assert!(line.correct);
        assert!(line.attempted >= 1);
        assert_eq!(line.failed, 0);
        let got: Vec<(&str, &str)> = line
            .metrics
            .iter()
            .map(|(name, m)| (name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(got, listed);
        assert!(line.metrics.values().all(|m| m.value.is_finite()));
        for m in &contract.end_to_end {
            assert!(line.metrics[&m.name].value > 0.0, "{} is never 0", m.name);
        }
    }

    let doc = std::fs::read_to_string(out.join("bench.json")).expect("bench.json written");
    for key in [
        "rep_spread_pct",
        "available_parallelism",
        "nproc",
        "git_rev",
        "rustc",
        "seed",
        "requests_per_rep",
    ] {
        assert!(doc.contains(&format!("\"{key}\"")), "bench.json has {key}");
    }
    for w in &contract.workloads {
        let trace = std::fs::read_to_string(out.join(format!("trace.{}.json", w.name)))
            .expect("trace written");
        let stats = validate_chrome_trace(&trace).expect("a valid Chrome trace");
        assert!(stats.complete > 0, "{} recorded spans", w.name);
        assert!(stats.metadata > 0);
    }
}

#[test]
fn trace_0_prints_the_end_to_end_set_and_trace_1_the_per_layer_set() {
    let contract = common::contract();
    let common_args = [
        "--smoke",
        "--workload",
        "single_backlog",
        "--seed",
        "7",
        "--seconds",
        "1",
    ];
    let untraced = lwbench(
        &[&common_args[..], &["--trace", "0"]].concat(),
        &out_dir("t0"),
    );
    let mut want: Vec<&str> = contract
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    want.sort_unstable();
    assert_eq!(untraced.len(), 1);
    assert_eq!(names(&untraced[0]), want);

    let traced = lwbench(
        &[&common_args[..], &["--trace", "1"]].concat(),
        &out_dir("t1"),
    );
    let mut want: Vec<&str> = contract.per_layer.iter().map(|m| m.name.as_str()).collect();
    want.sort_unstable();
    assert_eq!(traced.len(), 1);
    assert_eq!(names(&traced[0]), want);
    assert_eq!(traced[0].metrics["bench.replay_mismatch_count"].value, 0.0);
    assert!(traced[0].metrics["service.core_self_us_per_req"].value > 0.0);
}

#[test]
fn a_bad_argument_is_refused() {
    let status = Command::new(env!("CARGO_BIN_EXE_lwbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("lwbench runs")
        .status;
    assert_eq!(status.code(), Some(2));
}
