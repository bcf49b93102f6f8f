//! The reader of a run directory: every artifact `scripts/artifacts.sh`
//! leaves behind, read back **from its bytes** and joined to the file
//! beside it.
//!
//! The set is closed. [`ARTIFACTS`] names the ten documents a run writes
//! and the `schema` each opens with; beside them sit three captured
//! stdouts and `run_manifest.json`, this reader's own output. Anything else in
//! the directory is refused, as is a missing artifact, a missing or
//! unknown `schema`, or a broken join:
//!
//! - `trace.json` ↔ `flight.jsonl` — every span the bundle retained is a
//!   span of the trace, and the header's `switch` is an `ocs-N` lane;
//! - `fleet_health.jsonl` ↔ `fleet_health_trace.json` ↔
//!   `fleet_postmortem.jsonl` — every `Switch` / `Action` / `Trip` row's
//!   switch has a lane or a `switch=N` counter track in the trace, the
//!   bundle's spans are in the trace and its header's `switch` is a
//!   `Switch` row;
//! - `scope_report.json` ↔ `request_scope_trace.json` — every exemplar,
//!   critical path and timeline of the report names the root lifecycle
//!   span of that request in the trace, and the trace's `exemplar: true`
//!   spans are exactly the report's exemplars;
//! - `chaos_repro.jsonl` replays to the invariant its header names.
//!
//! `service_report.json` and `campus_health.json` are parsed by the types
//! that wrote them and join nothing: a service report beside a trace of
//! another run and a hand-built burn trace were deleted rather than joined
//! (ROADMAP item 3).

use lightwave::chaos::{parse_repro, REPRO_SCHEMA};
use lightwave::service::{ScopeSnapshot, ServiceSnapshot, SCOPE_SCHEMA, SERVICE_REPORT_SCHEMA};
use lightwave::telemetry::health::HealthJsonl;
use lightwave::telemetry::{
    series_switch, CampusHealthDoc, ExemplarSnapshot, CAMPUS_HEALTH_SCHEMA, HEALTH_SCHEMA,
};
use lightwave::trace::validate::validate_chrome_trace;
use lightwave::trace::{FlightDump, FlightEntry, FLIGHT_SCHEMA, TRACE_SCHEMA};
use serde::{Content, DeError, Deserialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The ten artifacts of a run and the `schema` each must open with.
pub const ARTIFACTS: [(&str, &str); 10] = [
    ("campus_health.json", CAMPUS_HEALTH_SCHEMA),
    ("chaos_repro.jsonl", REPRO_SCHEMA),
    ("fleet_health.jsonl", HEALTH_SCHEMA),
    ("fleet_health_trace.json", TRACE_SCHEMA),
    ("fleet_postmortem.jsonl", FLIGHT_SCHEMA),
    ("flight.jsonl", FLIGHT_SCHEMA),
    ("request_scope_trace.json", TRACE_SCHEMA),
    ("scope_report.json", SCOPE_SCHEMA),
    ("service_report.json", SERVICE_REPORT_SCHEMA),
    ("trace.json", TRACE_SCHEMA),
];

/// Captured narrations: hashed into the manifest, not parsed.
const STDOUTS: [&str; 3] = [
    "fault_recovery.stdout",
    "observability.stdout",
    "repro_quick.stdout",
];

/// The manifest [`render_manifest`] writes; skipped when reading.
const MANIFEST: &str = "run_manifest.json";

/// The `schema` member the manifest itself opens with.
const MANIFEST_SCHEMA: &str = "lightwave/run-manifest/v1";

/// One file of a run, as the manifest lists it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRow {
    /// File name within the run directory.
    pub name: String,
    /// The `schema` the file opens with (`None` for a captured stdout).
    pub schema: Option<&'static str>,
    /// Length in bytes.
    pub bytes: u64,
    /// FNV-1a-64 of the bytes.
    pub fnv1a64: u64,
}

/// FNV-1a, 64 bit: enough to pin an artifact without versioning its bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The manifest document: one row per line, name-sorted, so two runs
/// `diff` to the names of the files that differ.
pub fn render_manifest(rows: &[ManifestRow]) -> String {
    let mut out = format!("{{\"schema\":\"{MANIFEST_SCHEMA}\",\"files\":[\n");
    for (i, row) in rows.iter().enumerate() {
        let schema = row
            .schema
            .map_or("null".to_string(), |s| format!("\"{s}\""));
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"schema\":{schema},\"bytes\":{},\"fnv1a64\":\"{:016x}\"}}{}\n",
            row.name,
            row.bytes,
            row.fnv1a64,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

/// An arbitrary parsed JSON tree (the shim's [`Content`] model).
struct Json(Content);

impl<'de> Deserialize<'de> for Json {
    fn from_content(content: &Content) -> Result<Json, DeError> {
        Ok(Json(content.clone()))
    }
}

fn parse(name: &str, text: &str) -> Result<Content, String> {
    serde_json::from_str::<Json>(text)
        .map(|Json(doc)| doc)
        .map_err(|e| format!("{name}: not JSON: {e}"))
}

fn text_of(value: Option<&Content>) -> Option<&str> {
    match value {
        Some(Content::Str(s)) => Some(s),
        _ => None,
    }
}

fn uint(value: Option<&Content>) -> Option<u64> {
    match value {
        Some(Content::U64(v)) => Some(*v),
        _ => None,
    }
}

/// Refuses a document that does not open with `want`: the `schema` member
/// of the document, of its first line, or of that line's `Meta` record.
fn check_schema(name: &str, text: &str, want: &str) -> Result<(), String> {
    let head = if name.ends_with(".jsonl") {
        text.lines().next().unwrap_or("")
    } else {
        text
    };
    let doc = parse(name, head)?;
    let header = doc.field("Meta").unwrap_or(&doc);
    match header.field("schema") {
        Some(Content::Str(found)) if found == want => Ok(()),
        Some(Content::Str(found)) => Err(format!("{name}: schema {found:?}, want {want:?}")),
        _ => Err(format!("{name}: no \"schema\" member, want {want:?}")),
    }
}

/// What a Chrome trace says about spans, lanes and counter tracks.
#[derive(Default)]
struct TraceFacts {
    /// Every span id.
    spans: BTreeSet<u64>,
    /// Root lifecycle spans: span id → request index.
    roots: BTreeMap<u64, u64>,
    /// Spans carrying `"exemplar": true`.
    flagged: BTreeSet<u64>,
    /// Switches with an `ocs-N` lane or a `switch=N` counter track.
    switches: BTreeSet<u32>,
}

fn read_trace(name: &str, text: &str) -> Result<TraceFacts, String> {
    validate_chrome_trace(text).map_err(|e| format!("{name}: {e}"))?;
    let doc = parse(name, text)?;
    let events = doc
        .field("traceEvents")
        .and_then(|e| e.as_seq("traceEvents").ok())
        .unwrap_or_default();
    let mut facts = TraceFacts::default();
    for (i, event) in events.iter().enumerate() {
        let args = event.field("args");
        let label = text_of(event.field("name")).unwrap_or("");
        match text_of(event.field("ph")) {
            Some("M") if label == "thread_name" => {
                let lane = text_of(args.and_then(|a| a.field("name"))).unwrap_or("");
                if let Some(switch) = lane.strip_prefix("ocs-").and_then(|s| s.parse().ok()) {
                    facts.switches.insert(switch);
                }
            }
            Some("C") => facts.switches.extend(series_switch(label)),
            Some("X") => {
                let id = text_of(args.and_then(|a| a.field("span")))
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("{name}: event {i}: a span without a hex args.span"))?;
                if !facts.spans.insert(id) {
                    return Err(format!("{name}: span {id:016x} appears twice"));
                }
                if args.and_then(|a| a.field("exemplar")) == Some(&Content::Bool(true)) {
                    facts.flagged.insert(id);
                }
                let request = args
                    .and_then(|a| a.field("kind"))
                    .and_then(|k| k.field("ServiceRequest"));
                if let Some(request) = request {
                    if text_of(request.field("stage")) == Some("Lifecycle") {
                        let index = uint(request.field("request")).ok_or_else(|| {
                            format!("{name}: span {id:016x}: a lifecycle root without a request")
                        })?;
                        facts.roots.insert(id, index);
                    }
                }
            }
            _ => {}
        }
    }
    Ok(facts)
}

/// A bundle beside the trace of its run: its spans are spans of the trace
/// and its switch is one the trace shows.
fn join_flight(
    flight_name: &str,
    flight: &FlightDump,
    trace_name: &str,
    trace: &TraceFacts,
) -> Result<(), String> {
    let mut spans = flight.entries.iter().filter_map(|entry| match entry {
        FlightEntry::Span(span) => Some(span.id.0),
        FlightEntry::Event(_) => None,
    });
    if let Some(id) = spans.find(|id| !trace.spans.contains(id)) {
        return Err(format!(
            "{flight_name}: span {id:016x} is not in {trace_name}"
        ));
    }
    if !trace.switches.contains(&flight.switch) {
        return Err(format!(
            "{flight_name}: switch {} has no lane or counter track in {trace_name}",
            flight.switch
        ));
    }
    Ok(())
}

/// `Switch` rows, and every switch any row names.
fn read_health(name: &str, text: &str) -> Result<(BTreeSet<u32>, BTreeSet<u32>), String> {
    let mut rows = BTreeSet::new();
    let mut named = BTreeSet::new();
    for record in HealthJsonl::from_jsonl(text).map_err(|e| format!("{name}: {e}"))? {
        match record {
            HealthJsonl::Meta { .. } => {}
            HealthJsonl::Switch(s) => {
                rows.insert(s.switch);
            }
            HealthJsonl::Action(a) => {
                named.insert(a.switch);
            }
            HealthJsonl::Trip(t) => {
                named.insert(t.switch);
            }
        }
    }
    named.extend(&rows);
    Ok((rows, named))
}

/// Every `(request, span)` a scope report names: histogram exemplars,
/// critical paths and timelines.
fn scope_exemplars(name: &str, report: &ScopeSnapshot) -> Result<BTreeMap<u64, u64>, String> {
    let mut named = BTreeMap::new();
    let mut hist = |h: &ExemplarSnapshot| {
        for bucket in &h.exemplars {
            for e in [bucket.min, bucket.max] {
                named.insert(e.span, e.request);
            }
        }
    };
    for class in &report.classes {
        class.phases.iter().for_each(|p| hist(&p.dist.hist));
        hist(&class.total_nanos.hist);
    }
    for dist in [
        &report.touched_switches,
        &report.pairs_added,
        &report.pairs_removed,
    ] {
        hist(&dist.hist);
    }
    let paths = report.critical_paths.iter().map(|p| (&p.span, p.request));
    let timelines = report.timelines.iter().map(|t| (&t.span, t.request));
    for (hex, request) in paths.chain(timelines) {
        let span = u64::from_str_radix(hex, 16)
            .map_err(|_| format!("{name}: request {request}: span {hex:?} is not hex"))?;
        named.insert(span, request);
    }
    Ok(named)
}

fn join_scope(
    report_name: &str,
    report: &ScopeSnapshot,
    trace_name: &str,
    trace: &TraceFacts,
) -> Result<(), String> {
    let named = scope_exemplars(report_name, report)?;
    for (span, request) in &named {
        if trace.roots.get(span) != Some(request) {
            return Err(format!(
                "{report_name}: span {span:016x} of request {request} is not that request's \
                 root lifecycle span in {trace_name}"
            ));
        }
    }
    if let Some(span) = trace.flagged.iter().find(|s| !named.contains_key(s)) {
        return Err(format!(
            "{trace_name}: span {span:016x} is flagged exemplar and {report_name} does not name it"
        ));
    }
    if let Some(span) = named.keys().find(|s| !trace.flagged.contains(s)) {
        return Err(format!(
            "{trace_name}: span {span:016x} is an exemplar of {report_name} and is not flagged"
        ));
    }
    Ok(())
}

/// Reads a run directory back from its bytes: the closed set, every
/// `schema`, every join (module docs). Returns the manifest rows,
/// name-sorted; the error names the file and the id that does not join.
pub fn read_run_dir(dir: &Path) -> Result<Vec<ManifestRow>, String> {
    let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name == MANIFEST {
            continue;
        }
        if !ARTIFACTS.iter().any(|(a, _)| *a == name) && !STDOUTS.contains(&name.as_str()) {
            return Err(format!("{name}: no reader for this file"));
        }
        let bytes = std::fs::read(&path).map_err(|e| format!("{name}: {e}"))?;
        files.insert(name, bytes);
    }
    let mut texts: BTreeMap<&str, &str> = BTreeMap::new();
    for (name, schema) in ARTIFACTS {
        let bytes = files.get(name).ok_or_else(|| format!("{name}: missing"))?;
        let text = std::str::from_utf8(bytes).map_err(|e| format!("{name}: {e}"))?;
        check_schema(name, text, schema)?;
        texts.insert(name, text);
    }
    let text = |name: &str| texts[name];

    let trace_of = |name: &str| read_trace(name, text(name));
    let flight_of =
        |name: &str| FlightDump::from_jsonl(text(name)).map_err(|e| format!("{name}: {e}"));
    join_flight(
        "flight.jsonl",
        &flight_of("flight.jsonl")?,
        "trace.json",
        &trace_of("trace.json")?,
    )?;

    let fleet_trace = trace_of("fleet_health_trace.json")?;
    let (rows, named) = read_health("fleet_health.jsonl", text("fleet_health.jsonl"))?;
    if let Some(switch) = named.iter().find(|s| !fleet_trace.switches.contains(s)) {
        return Err(format!(
            "fleet_health.jsonl: switch {switch} has no lane or counter track in \
             fleet_health_trace.json"
        ));
    }
    let postmortem = flight_of("fleet_postmortem.jsonl")?;
    join_flight(
        "fleet_postmortem.jsonl",
        &postmortem,
        "fleet_health_trace.json",
        &fleet_trace,
    )?;
    if !rows.contains(&postmortem.switch) {
        return Err(format!(
            "fleet_postmortem.jsonl: switch {} is not a Switch row of fleet_health.jsonl",
            postmortem.switch
        ));
    }

    let report: ScopeSnapshot = serde_json::from_str(text("scope_report.json"))
        .map_err(|e| format!("scope_report.json: {e}"))?;
    join_scope(
        "scope_report.json",
        &report,
        "request_scope_trace.json",
        &trace_of("request_scope_trace.json")?,
    )?;

    let repro =
        parse_repro(text("chaos_repro.jsonl")).map_err(|e| format!("chaos_repro.jsonl: {e}"))?;
    let replayed = repro.replay().violation.map(|v| v.invariant);
    if replayed != repro.invariant {
        return Err(format!(
            "chaos_repro.jsonl: header names invariant {:?}, replay gives {replayed:?}",
            repro.invariant
        ));
    }

    serde_json::from_str::<ServiceSnapshot>(text("service_report.json"))
        .map_err(|e| format!("service_report.json: {e}"))?;
    CampusHealthDoc::from_json(text("campus_health.json"))
        .map_err(|e| format!("campus_health.json: {e}"))?;

    Ok(files
        .into_iter()
        .map(|(name, bytes)| ManifestRow {
            schema: ARTIFACTS
                .iter()
                .find(|(a, _)| *a == name)
                .map(|(_, schema)| *schema),
            bytes: bytes.len() as u64,
            fnv1a64: fnv1a64(&bytes),
            name,
        })
        .collect())
}
