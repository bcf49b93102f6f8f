//! The north star's observability claim as a test (ROADMAP item 3): *from
//! the emitted artifacts alone* an operator can follow an incident to its
//! switch and a tail bucket to its span.
//!
//! [`write_run`] builds the ten artifacts through the library calls the
//! examples make, at small sizes, writes them to a directory and **drops
//! every library value**; the reader `scripts/artifacts.sh` runs
//! ([`read_run_dir`]) then has the bytes and nothing else. Each join is
//! broken by one edit, and the refusal must name the file and the id.

use lightwave::chaos::{
    run_schedule_world, write_repro, ChaosConfig, FaultKind, FaultSchedule, InjectedBug,
    InvariantKind,
};
use lightwave::par::{Pool, Shard};
use lightwave::run_traced_fault_recovery;
use lightwave::service::{
    run_cell_with, run_sharded, CampusObserver, Lifecycle, ScopeCollector, ServiceConfig,
};
use lightwave::trace::{to_chrome_trace, to_chrome_trace_annotated, to_chrome_trace_with_counters};
use lightwave_bench::artifacts::{read_run_dir, render_manifest, ARTIFACTS};
use std::path::{Path, PathBuf};

fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializes") + "\n"
}

/// `scope_report.json` the way the parent paired it: a sharded 1-in-8 run
/// of the same seed, not the cell the trace shows.
fn sharded_scope_report() -> String {
    let cfg = ServiceConfig {
        requests: 1_500,
        shard_size: 500,
        ..ServiceConfig::default()
    };
    let (_, scope, _) = run_sharded(&Pool::new(2), &cfg, |_| ScopeCollector::new(cfg.seed, 8));
    pretty(&scope.snapshot())
}

/// One run of everything `scripts/artifacts.sh` runs, small.
fn write_run(dir: &Path) {
    let write = |name: &str, text: String| std::fs::write(dir.join(name), text).expect("write");

    let recovery = run_traced_fault_recovery(11, &Pool::new(2));
    write("trace.json", to_chrome_trace(&recovery.tracer));
    let dump = recovery.recorder.latest_dump().expect("the Critical dumps");
    write("flight.jsonl", dump.to_jsonl());

    let cfg = ChaosConfig::default();
    let (_, world) = run_schedule_world(&FaultSchedule::generate_degradation(2024, 0), &cfg);
    write("fleet_health.jsonl", world.health.to_jsonl(world.now()));
    write(
        "fleet_health_trace.json",
        to_chrome_trace_with_counters(&world.tracer, &world.health.counter_tracks()),
    );
    let dump = world
        .recorder
        .latest_dump()
        .expect("the hard failure dumps");
    write("fleet_postmortem.jsonl", dump.to_jsonl());

    let cell = ServiceConfig {
        requests: 60,
        ..ServiceConfig::default()
    };
    let whole = Shard {
        index: 0,
        start: 0,
        len: cell.requests,
    };
    let watchers = (
        ScopeCollector::new(cell.seed, 1),
        Lifecycle::new(cell.seed, 12, 1),
    );
    let (_, (scope, watched)) = run_cell_with(&cell, whole, watchers);
    write("scope_report.json", pretty(&scope.snapshot()));
    write(
        "request_scope_trace.json",
        to_chrome_trace_annotated(
            &watched.tracer,
            &watched.series.tracks(),
            &scope.exemplar_spans(),
        ),
    );

    let campus = ServiceConfig {
        requests: 600,
        shard_size: 200,
        ..ServiceConfig::default()
    };
    let (report, mut obs, _) = run_sharded(&Pool::new(2), &campus, |_| CampusObserver::new());
    write("service_report.json", pretty(&report.snapshot()));
    write("campus_health.json", obs.health_doc().to_json());

    let planted = ChaosConfig {
        inject: Some(InjectedBug::SkipFlightPoll),
    };
    let storm = FaultSchedule {
        seed: 1,
        index: 0,
        events: vec![FaultKind::RelockStorm { ocs: 3, ports: 12 }],
    };
    let invariant = Some(InvariantKind::CriticalWithoutDump);
    write(
        "chaos_repro.jsonl",
        write_repro(&storm, &planted, invariant),
    );
}

/// A run directory under the target dir, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> RunDir {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("artifact_join");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        RunDir(dir)
    }

    fn text(&self, name: &str) -> String {
        std::fs::read_to_string(self.0.join(name)).expect("an artifact of the run")
    }

    /// Reads the directory with `name` holding `edited` instead, restores
    /// the file, and returns the refusal — which must name the file
    /// `blamed` and every id in `ids`.
    fn refusal(&self, name: &str, edited: &str, blamed: &str, ids: &[&str]) -> String {
        let path = self.0.join(name);
        let good = std::fs::read(&path).ok();
        std::fs::write(&path, edited).expect("write the edit");
        let read = read_run_dir(&self.0);
        match good {
            Some(bytes) => std::fs::write(&path, bytes).expect("restore"),
            None => std::fs::remove_file(&path).expect("remove"),
        }
        let refusal = read.expect_err(&format!("{name} edited, and the run still read"));
        for needle in [blamed].iter().chain(ids) {
            assert!(
                refusal.contains(needle),
                "{name}: {refusal:?} lacks {needle:?}"
            );
        }
        refusal
    }

    /// [`Self::refusal`] of `name` with the first `from` replaced by `to`.
    fn refusal_of_edit(&self, name: &str, from: &str, to: &str, ids: &[&str]) -> String {
        let text = self.text(name);
        assert!(text.contains(from), "{name} has no {from:?}");
        self.refusal(name, &text.replacen(from, to, 1), name, ids)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `text` without the object that contains byte `at` (and the comma after
/// it): brace matching, on a document with no brace inside a string there.
fn without_object_at(text: &str, at: usize) -> String {
    let start = text[..at]
        .rfind("{\"name\":")
        .expect("an event starts before");
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate().skip(start) {
        depth = match b {
            b'{' => depth + 1,
            b'}' => depth - 1,
            _ => depth,
        };
        if depth == 0 {
            return format!("{}{}", &text[..start], &text[i + 2..]);
        }
    }
    panic!("unbalanced document");
}

#[test]
fn the_run_reads_back_from_bytes_and_every_broken_join_is_refused() {
    let run = RunDir::new();
    write_run(&run.0);
    let rows = read_run_dir(&run.0).expect("the run as written joins");
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ARTIFACTS.map(|(name, _)| name));
    assert!(rows
        .iter()
        .zip(ARTIFACTS)
        .all(|(r, a)| r.schema == Some(a.1)));
    let manifest = render_manifest(&rows);
    assert_eq!(manifest.lines().count(), rows.len() + 2, "one row a line");
    std::fs::write(run.0.join("run_manifest.json"), &manifest).expect("write");
    assert_eq!(
        read_run_dir(&run.0),
        Ok(rows),
        "its own manifest is skipped"
    );

    // The parent's pairing: a report that shares a seed with the trace
    // beside it, and two requests.
    let refusal = run.refusal(
        "scope_report.json",
        &sharded_scope_report(),
        "scope_report.json",
        &["request_scope_trace.json", "span ", "request "],
    );
    assert!(refusal.contains("root lifecycle span"), "{refusal}");
    // An exemplar flag lost from the trace, one the report never set, and
    // the flagged span itself gone.
    let trace = run.text("request_scope_trace.json");
    let flag = "\"exemplar\":true,";
    let blame = ["scope_report.json", "span "];
    run.refusal_of_edit("request_scope_trace.json", flag, "", &blame);
    let phase = "\"kind\":{\"Phase\"";
    run.refusal_of_edit(
        "request_scope_trace.json",
        phase,
        &format!("{flag}{phase}"),
        &blame,
    );
    let flagged = trace.find(flag).expect("a flagged span");
    run.refusal(
        "request_scope_trace.json",
        &without_object_at(&trace, flagged),
        "scope_report.json",
        &["request_scope_trace.json", "root lifecycle span"],
    );

    // The postmortem pair: a header retargeted to a switch the trace does
    // not show, and a span of the bundle deleted from the trace.
    run.refusal_of_edit(
        "flight.jsonl",
        "\"switch\":5,",
        "\"switch\":7,",
        &["switch 7"],
    );
    let flight = run.text("flight.jsonl");
    let id: u64 = flight
        .lines()
        .nth(1)
        .and_then(|l| l.strip_prefix("{\"Span\":{\"id\":"))
        .and_then(|l| l.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("the bundle's first entry is a span");
    let hex = format!("{id:016x}");
    let trace = run.text("trace.json");
    let at = trace.find(&format!("\"span\":\"{hex}\"")).expect("joined");
    run.refusal(
        "trace.json",
        &without_object_at(&trace, at),
        "flight.jsonl",
        &["trace.json", &hex],
    );

    // The fleet triple: the bundle's switch, then a row's.
    run.refusal_of_edit(
        "fleet_postmortem.jsonl",
        "\"switch\":32,",
        "\"switch\":3,",
        &["switch=32", "switch 3"],
    );
    run.refusal_of_edit(
        "fleet_health.jsonl",
        "{\"Trip\":{\"at\":240000000,\"switch\":32,",
        "{\"Trip\":{\"at\":240000000,\"switch\":31,",
        &["switch 31", "fleet_health_trace.json"],
    );
    run.refusal_of_edit(
        "fleet_health.jsonl",
        "{\"Switch\":{\"switch\":32,",
        "{\"Switch\":{\"switch\":0,",
        &["fleet_postmortem.jsonl", "switch 32"],
    );

    // The repro replays to what its header says, or is refused.
    run.refusal_of_edit(
        "chaos_repro.jsonl",
        "\"invariant\":\"CriticalWithoutDump\"",
        "\"invariant\":null",
        &["CriticalWithoutDump"],
    );

    // One key, on every file: absent, under the old name, or of a version
    // this reader does not know.
    for (name, schema) in ARTIFACTS {
        let text = run.text(name);
        let member = ["\"schema\":\"", "\"schema\": \""]
            .iter()
            .find_map(|open| Some(text.find(open)?..text.find(open)? + open.len()))
            .expect("every artifact opens with a schema");
        let value_end = member.end + schema.len() + 1;
        assert_eq!(&text[member.end..value_end - 1], schema, "{name}");
        let rest = text[value_end..].trim_start_matches([',', '\n']);
        let removed = format!("{}{rest}", &text[..member.start]);
        run.refusal(name, &removed, name, &["schema"]);
        run.refusal_of_edit(name, "\"schema\"", "\"format\"", &["schema"]);
        let bumped = format!("{}9", &schema[..schema.len() - 1]);
        run.refusal_of_edit(name, schema, &bumped, &["schema", &bumped]);
    }

    // The set is closed both ways.
    run.refusal("notes.json", "{}", "notes.json", &["no reader"]);
    let name = "service_report.json";
    let good = run.text(name);
    std::fs::remove_file(run.0.join(name)).expect("remove");
    let refusal = read_run_dir(&run.0).expect_err("nine files are not the set");
    assert!(
        refusal.contains(name) && refusal.contains("missing"),
        "{refusal}"
    );
    std::fs::write(run.0.join(name), good).expect("restore");
    read_run_dir(&run.0).expect("every edit was restored");
}
