//! The in-repo validator of the Chrome trace-event JSON document, used by
//! CI (no network, no external schema tooling). A flight bundle is read
//! back by [`FlightDump::from_jsonl`](crate::FlightDump::from_jsonl),
//! beside the writer that produces it.

use crate::perfetto::TRACE_SCHEMA;
use serde::de::{DeError, Deserialize};
use serde::Content;

/// An arbitrary parsed JSON tree (the shim's [`Content`] model).
struct Json(Content);

impl<'de> Deserialize<'de> for Json {
    fn from_content(content: &Content) -> Result<Json, DeError> {
        Ok(Json(content.clone()))
    }
}

/// Counts per event phase from a validated trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// `"X"` complete events (spans).
    pub complete: usize,
    /// `"M"` metadata events (process/thread names).
    pub metadata: usize,
    /// `"s"` + `"f"` flow events (follows-from arrows).
    pub flows: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"C"` counter events (health time-series tracks).
    pub counters: usize,
}

impl TraceStats {
    /// Total events validated.
    pub fn total(&self) -> usize {
        self.complete + self.metadata + self.flows + self.instants + self.counters
    }
}

fn require_str<'a>(event: &'a Content, key: &str, i: usize) -> Result<&'a str, String> {
    event
        .field(key)
        .ok_or_else(|| format!("event {i}: missing \"{key}\""))?
        .as_str(key)
        .map_err(|e| format!("event {i}: {e}"))
}

fn require_uint(event: &Content, key: &str, i: usize) -> Result<u64, String> {
    match event.field(key) {
        Some(Content::U64(v)) => Ok(*v),
        Some(Content::I64(v)) if *v >= 0 => Ok(*v as u64),
        Some(other) => Err(format!(
            "event {i}: \"{key}\" must be a non-negative integer, found {}",
            other.kind()
        )),
        None => Err(format!("event {i}: missing \"{key}\"")),
    }
}

fn require_number(event: &Content, key: &str, i: usize) -> Result<f64, String> {
    match event.field(key) {
        Some(Content::F64(v)) => Ok(*v),
        Some(Content::U64(v)) => Ok(*v as f64),
        Some(Content::I64(v)) => Ok(*v as f64),
        Some(other) => Err(format!(
            "event {i}: \"{key}\" must be a number, found {}",
            other.kind()
        )),
        None => Err(format!("event {i}: missing \"{key}\"")),
    }
}

/// Validates a Chrome trace-event JSON document: the top-level object
/// shape, and per event the phase-appropriate required fields (`"X"`
/// needs `ts`/`dur`, `"M"` needs a known metadata name and an
/// `args.name`, flow events need an `id`, every event needs `pid`/`tid`).
/// A `schema` member is optional (other producers of the format write
/// none) but, when present, must be [`TRACE_SCHEMA`]. Returns per-phase
/// counts on success.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let Json(doc) = serde_json::from_str::<Json>(json).map_err(|e| format!("not JSON: {e}"))?;
    doc.as_map("trace document").map_err(|e| e.to_string())?;
    if let Some(schema) = doc.field("schema") {
        let schema = schema.as_str("schema").map_err(|e| e.to_string())?;
        if schema != TRACE_SCHEMA {
            return Err(format!("unknown schema {schema:?}, want {TRACE_SCHEMA:?}"));
        }
    }
    let unit = doc
        .field("displayTimeUnit")
        .ok_or("missing \"displayTimeUnit\"")?
        .as_str("displayTimeUnit")
        .map_err(|e| e.to_string())?;
    if unit != "ms" && unit != "ns" {
        return Err(format!(
            "displayTimeUnit must be \"ms\" or \"ns\", got {unit:?}"
        ));
    }
    let events = doc
        .field("traceEvents")
        .ok_or("missing \"traceEvents\"")?
        .as_seq("traceEvents")
        .map_err(|e| e.to_string())?;
    let mut stats = TraceStats::default();
    for (i, event) in events.iter().enumerate() {
        event
            .as_map("trace event")
            .map_err(|e| format!("event {i}: {e}"))?;
        let name = require_str(event, "name", i)?;
        if name.is_empty() {
            return Err(format!("event {i}: empty \"name\""));
        }
        require_uint(event, "pid", i)?;
        require_uint(event, "tid", i)?;
        let ph = require_str(event, "ph", i)?;
        match ph {
            "X" => {
                require_number(event, "ts", i)?;
                let dur = require_number(event, "dur", i)?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                stats.complete += 1;
            }
            "M" => {
                if name != "process_name" && name != "thread_name" {
                    return Err(format!("event {i}: unknown metadata \"{name}\""));
                }
                let args = event
                    .field("args")
                    .ok_or_else(|| format!("event {i}: metadata without args"))?;
                args.field("name")
                    .ok_or_else(|| format!("event {i}: metadata args without name"))?
                    .as_str("args.name")
                    .map_err(|e| format!("event {i}: {e}"))?;
                stats.metadata += 1;
            }
            "s" | "f" => {
                require_number(event, "ts", i)?;
                require_str(event, "id", i)?;
                if ph == "f" && require_str(event, "bp", i)? != "e" {
                    return Err(format!("event {i}: flow finish must bind enclosing (bp=e)"));
                }
                stats.flows += 1;
            }
            "i" => {
                require_number(event, "ts", i)?;
                stats.instants += 1;
            }
            "C" => {
                require_number(event, "ts", i)?;
                let args = event
                    .field("args")
                    .ok_or_else(|| format!("event {i}: counter without args"))?;
                let values = args
                    .as_map("counter args")
                    .map_err(|e| format!("event {i}: {e}"))?;
                if values.is_empty() {
                    return Err(format!("event {i}: counter args must carry a value"));
                }
                for (key, value) in values {
                    let numeric =
                        matches!(value, Content::F64(_) | Content::U64(_) | Content::I64(_));
                    if !numeric {
                        return Err(format!(
                            "event {i}: counter arg {key:?} must be a number, found {}",
                            value.kind()
                        ));
                    }
                }
                stats.counters += 1;
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_json_and_missing_fields() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"displayTimeUnit\":\"ms\"}").is_err());
        let bad_phase = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"x","ph":"Z","pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad_phase)
            .unwrap_err()
            .contains("unsupported phase"));
        let no_dur = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(no_dur).unwrap_err().contains("dur"));
    }

    #[test]
    fn accepts_a_minimal_valid_document() {
        let doc = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"p"}},
            {"name":"s1","cat":"c","ph":"X","ts":0.5,"dur":2,"pid":1,"tid":1},
            {"name":"follows","cat":"flow","ph":"s","id":"a","ts":1,"pid":1,"tid":1},
            {"name":"follows","cat":"flow","ph":"f","bp":"e","id":"a","ts":2,"pid":1,"tid":1},
            {"name":"mark","ph":"i","s":"t","ts":3,"pid":1,"tid":1},
            {"name":"drift","cat":"counter","ph":"C","ts":4,"pid":1,"tid":1,"args":{"value":0.03}}]}"#;
        let stats = validate_chrome_trace(doc).expect("valid");
        assert_eq!(
            stats,
            TraceStats {
                complete: 1,
                metadata: 1,
                flows: 2,
                instants: 1,
                counters: 1
            }
        );
        assert_eq!(stats.total(), 6);
    }

    #[test]
    fn a_schema_member_is_optional_but_not_arbitrary() {
        let with = |schema: &str| {
            validate_chrome_trace(&format!(
                r#"{{{schema}"displayTimeUnit":"ms","traceEvents":[]}}"#
            ))
        };
        assert!(with("").is_ok(), "lwbench's traces carry none");
        assert!(with(r#""schema":"lightwave/trace/v1","#).is_ok());
        for unknown in [r#""schema":"lightwave/trace/v2","#, r#""schema":1,"#] {
            assert!(with(unknown).unwrap_err().contains("schema"), "{unknown}");
        }
    }

    #[test]
    fn counter_without_value_is_rejected() {
        let doc = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"drift","ph":"C","ts":4,"pid":1,"tid":1,"args":{}}]}"#;
        assert!(validate_chrome_trace(doc)
            .unwrap_err()
            .contains("counter args must carry a value"));
        let no_args = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"drift","ph":"C","ts":4,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(no_args)
            .unwrap_err()
            .contains("counter without args"));
        // Counter tracks render numeric series; a stringly value is a
        // malformed track, not a unit quirk.
        let stringly = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"depth","ph":"C","ts":4,"pid":1,"tid":1,"args":{"value":"3"}}]}"#;
        assert!(validate_chrome_trace(stringly)
            .unwrap_err()
            .contains("must be a number"));
    }
}
