//! Runnable JSONL repro format for (shrunk) fault schedules.
//!
//! Line 1 is a header object pinning the schema version, the stream
//! coordinates `(seed, index)` that reconstruct the world, the planted
//! bug (if any), and the invariant the repro demonstrates. Each
//! following line is one [`FaultKind`] event. The format is
//! line-oriented so a repro can be read, diffed, and truncated with
//! ordinary text tooling.

use crate::executor::{run_schedule, ChaosConfig, InjectedBug, ScheduleOutcome};
use crate::invariant::InvariantKind;
use crate::schedule::{FaultKind, FaultSchedule};
use serde::{Deserialize, Serialize};

/// The `schema` member of header line 1.
pub const REPRO_SCHEMA: &str = "lightwave/chaos-repro/v2";

/// Header line of a repro file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ReproHeader {
    schema: String,
    seed: u64,
    index: u64,
    events: usize,
    inject: Option<InjectedBug>,
    invariant: Option<InvariantKind>,
}

/// A parsed repro: everything needed to replay a run byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The schedule (seed/index reconstruct the world; events drive it).
    pub schedule: FaultSchedule,
    /// Executor configuration (the planted bug, if the repro needs one).
    pub config: ChaosConfig,
    /// The invariant the repro claims to violate (`None` for clean runs).
    pub invariant: Option<InvariantKind>,
}

impl Repro {
    /// Replays the repro through the real control plane.
    pub fn replay(&self) -> ScheduleOutcome {
        run_schedule(&self.schedule, &self.config)
    }
}

/// Serializes a schedule (plus the config it ran under and the
/// invariant it violates) to repro JSONL.
pub fn write_repro(
    schedule: &FaultSchedule,
    config: &ChaosConfig,
    invariant: Option<InvariantKind>,
) -> String {
    let header = ReproHeader {
        schema: REPRO_SCHEMA.to_string(),
        seed: schedule.seed,
        index: schedule.index,
        events: schedule.events.len(),
        inject: config.inject,
        invariant,
    };
    let mut out = serde_json::to_string(&header).expect("header serializes");
    out.push('\n');
    for ev in &schedule.events {
        out.push_str(&serde_json::to_string(ev).expect("event serializes"));
        out.push('\n');
    }
    out
}

/// Parses repro JSONL back into a runnable [`Repro`].
pub fn parse_repro(text: &str) -> Result<Repro, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty repro")?;
    let header: ReproHeader =
        serde_json::from_str(header_line).map_err(|e| format!("bad header: {e}"))?;
    if header.schema != REPRO_SCHEMA {
        return Err(format!(
            "unsupported schema {:?}, want {REPRO_SCHEMA:?}",
            header.schema
        ));
    }
    // Grown from the lines read: `header.events` is a number from the
    // document and sizes nothing.
    let mut events: Vec<FaultKind> = Vec::new();
    for (i, line) in lines.enumerate() {
        events.push(
            serde_json::from_str(line).map_err(|e| format!("bad event on line {}: {e}", i + 2))?,
        );
    }
    if events.len() != header.events {
        return Err(format!(
            "header declares {} events, file has {}",
            header.events,
            events.len()
        ));
    }
    Ok(Repro {
        schedule: FaultSchedule {
            seed: header.seed,
            index: header.index,
            events,
        },
        config: ChaosConfig {
            inject: header.inject,
        },
        invariant: header.invariant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_everything() {
        let s = FaultSchedule::generate(21, 7);
        let cfg = ChaosConfig {
            inject: Some(InjectedBug::SkipFlightPoll),
        };
        let text = write_repro(&s, &cfg, Some(InvariantKind::CriticalWithoutDump));
        let r = parse_repro(&text).unwrap();
        assert_eq!(r.schedule, s);
        assert_eq!(r.config, cfg);
        assert_eq!(r.invariant, Some(InvariantKind::CriticalWithoutDump));
        // Writing the parsed repro back is byte-identical.
        assert_eq!(write_repro(&r.schedule, &r.config, r.invariant), text);
    }

    #[test]
    fn replay_reproduces_the_violation() {
        let s = FaultSchedule {
            seed: 1,
            index: 0,
            events: vec![FaultKind::RelockStorm { ocs: 3, ports: 12 }],
        };
        let cfg = ChaosConfig {
            inject: Some(InjectedBug::SkipFlightPoll),
        };
        let text = write_repro(&s, &cfg, Some(InvariantKind::CriticalWithoutDump));
        let out = parse_repro(&text).unwrap().replay();
        let v = out.violation.expect("repro replays to its violation");
        assert_eq!(v.invariant, InvariantKind::CriticalWithoutDump);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_context() {
        assert!(parse_repro("").is_err());
        assert!(parse_repro(
            "{\"schema\":\"other/v9\",\"seed\":0,\"index\":0,\"events\":0,\"inject\":null,\"invariant\":null}"
        )
        .unwrap_err()
        .contains("unsupported schema"));
        let truncated = "{\"schema\":\"lightwave/chaos-repro/v2\",\"seed\":0,\"index\":0,\"events\":2,\"inject\":null,\"invariant\":null}\n\"Preempt\"\n";
        assert!(parse_repro(truncated).unwrap_err().contains("declares 2"));
    }
}
