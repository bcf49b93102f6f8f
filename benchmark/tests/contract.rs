//! `BENCHMARK.json` and the code's catalogue say the same thing.

mod common;

use lwbench::catalogue::{END_TO_END, PER_LAYER, RUN_SECONDS};
use lwbench::workload::WORKLOADS;

#[test]
fn benchmark_json_lists_the_catalogue() {
    let contract = common::contract();
    assert_eq!(contract.run_seconds, RUN_SECONDS);
    assert_eq!(contract.paths, ["benchmark"]);
    assert_eq!(contract.command[0], "cargo");
    assert!(contract
        .command
        .contains(&"benchmark/Cargo.toml".to_string()));

    let workloads: Vec<(&str, &str)> = contract
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w.why.as_str()))
        .collect();
    let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<(&str, &str, &str, f64)> = contract
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str(), m.bound))
        .collect();
    let expected: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.word(), m.bound))
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<(&str, &str, &str)> = contract
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let expected: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.word()))
        .collect();
    assert_eq!(per_layer, expected);
}

#[test]
fn the_catalogue_keeps_to_the_contract_limits() {
    let name_ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        if let lwbench::workload::Kind::Service(spec) = w.kind {
            assert!(
                w.why.contains(&format!("N={}/rep", spec.requests)),
                "{} states its N",
                w.name
            );
        }
        names.push(w.name);
    }
    for m in &END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        names.push(m.name);
    }
    for m in &PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        names.push(m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better.word() == "lower"));
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}
