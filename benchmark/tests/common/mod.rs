//! Shared by the integration tests: the shape of `BENCHMARK.json` and of
//! a result line.

// Each test file uses its own part of this module.
#![allow(dead_code)]

use serde::Deserialize;
use std::collections::BTreeMap;

#[derive(Debug, Deserialize)]
pub struct WorkloadEntry {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Deserialize)]
pub struct EndToEndEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct PerLayerEntry {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[derive(Debug, Deserialize)]
pub struct Contract {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadEntry>,
    pub end_to_end: Vec<EndToEndEntry>,
    pub per_layer: Vec<PerLayerEntry>,
}

/// `BENCHMARK.json` at the root of the repository.
pub fn contract() -> Contract {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[derive(Debug, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The last line a run prints for one workload.
#[derive(Debug, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}
