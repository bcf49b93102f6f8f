//! The experiment harness: one function per table/figure of the paper.
//!
//! Every experiment returns an [`ExperimentResult`] carrying the rendered
//! rows *and* machine-checkable assertions ("paper says X, we measured Y,
//! within tolerance?"), so the same code drives the `repro` binary, the
//! integration tests, and EXPERIMENTS.md.
//!
//! Run everything: `cargo run -p lightwave-bench --release --bin repro`.
//! Run one: `cargo run -p lightwave-bench --release --bin repro fig11`.
//!
//! [`artifacts`] is the other reader here: what `scripts/artifacts.sh`
//! writes, read back from bytes and joined (`validate_trace RUN_DIR`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod artifacts;
pub mod experiments;

use std::fmt::Write as _;

/// A reproduced table or figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. "fig11", "tab2").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered output lines (the table/series the paper reports).
    pub lines: Vec<String>,
    /// Shape-fidelity checks: (description, paper value, measured value,
    /// pass).
    pub checks: Vec<Check>,
}

/// One paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared.
    pub what: String,
    /// The paper's value, as printed.
    pub paper: String,
    /// Our measured value, as printed.
    pub measured: String,
    /// Whether the measurement is within the declared tolerance.
    pub pass: bool,
}

impl Check {
    /// A numeric check with relative tolerance.
    pub fn rel(what: &str, paper: f64, measured: f64, rel_tol: f64) -> Check {
        Check {
            what: what.to_string(),
            paper: format!("{paper:.3}"),
            measured: format!("{measured:.3}"),
            pass: (measured - paper).abs() <= rel_tol * paper.abs().max(1e-12),
        }
    }

    /// A numeric check with absolute tolerance.
    pub fn abs(what: &str, paper: f64, measured: f64, abs_tol: f64) -> Check {
        Check {
            what: what.to_string(),
            paper: format!("{paper:.3}"),
            measured: format!("{measured:.3}"),
            pass: (measured - paper).abs() <= abs_tol,
        }
    }

    /// A boolean property check.
    pub fn holds(what: &str, expectation: &str, pass: bool) -> Check {
        Check {
            what: what.to_string(),
            paper: expectation.to_string(),
            measured: if pass {
                "holds".into()
            } else {
                "VIOLATED".into()
            },
            pass,
        }
    }
}

impl ExperimentResult {
    /// All checks pass?
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Renders the full block (for the repro binary / EXPERIMENTS.md).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = writeln!(out);
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "| check | paper | measured | status |");
        let _ = writeln!(out, "|---|---|---|---|");
        for c in &self.checks {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                c.what,
                c.paper,
                c.measured,
                if c.pass { "✓" } else { "✗ FAIL" }
            );
        }
        out
    }
}

/// Every experiment id, in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "fig13",
    "tab1",
    "tab2",
    "fig15a",
    "fig15b",
    "dcn1",
    "dcn2",
    "tabc1",
    "sched1",
    "deploy1",
    "ocs1",
    "ablate1",
    "ablate2",
    "ablate3",
    "hybrid1",
    "future1",
    "campus1",
    "timeline1",
    "refresh1",
];

/// Runs one experiment by id.
///
/// `quick` trades Monte-Carlo depth for speed (used by tests; the repro
/// binary runs full depth).
pub fn run(id: &str, quick: bool) -> Option<ExperimentResult> {
    use experiments as e;
    Some(match id {
        "fig10a" => e::fig10a(),
        "fig10b" => e::fig10b(),
        "fig11" => e::fig11(quick),
        "fig12" => e::fig12(quick),
        "fig13" => e::fig13(quick),
        "tab1" => e::tab1(),
        "tab2" => e::tab2(),
        "fig15a" => e::fig15a(),
        "fig15b" => e::fig15b(),
        "dcn1" => e::dcn1(),
        "dcn2" => e::dcn2(),
        "tabc1" => e::tabc1(),
        "sched1" => e::sched1(quick),
        "deploy1" => e::deploy1(),
        "ocs1" => e::ocs1(),
        "ablate1" => crate::ablations::ablate_bidi(),
        "ablate2" => crate::ablations::ablate_reconfig(),
        "ablate3" => crate::ablations::ablate_wiring(),
        "hybrid1" => crate::ablations::hybrid1(),
        "future1" => crate::ablations::future1(),
        "campus1" => crate::ablations::campus1(),
        "timeline1" => crate::ablations::timeline1(),
        "refresh1" => crate::ablations::refresh1(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_constructors() {
        assert!(Check::rel("x", 1.0, 1.05, 0.1).pass);
        assert!(!Check::rel("x", 1.0, 1.2, 0.1).pass);
        assert!(Check::abs("x", 10.0, 10.4, 0.5).pass);
        assert!(!Check::abs("x", 10.0, 11.0, 0.5).pass);
        assert!(Check::holds("x", "expected", true).pass);
        assert!(!Check::holds("x", "expected", false).pass);
    }

    #[test]
    fn render_includes_every_check_row() {
        let r = ExperimentResult {
            id: "demo",
            title: "demo experiment",
            lines: vec!["line one".into()],
            checks: vec![
                Check::abs("a", 1.0, 1.0, 0.1),
                Check::holds("b", "works", false),
            ],
        };
        let text = r.render();
        assert!(text.contains("## demo"));
        assert!(text.contains("line one"));
        assert!(text.contains("| a |"));
        assert!(text.contains("✗ FAIL"));
        assert!(!r.passed());
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("nope", true).is_none());
    }

    #[test]
    fn cheap_experiments_run_in_tests() {
        // The fully-analytic experiments are fast enough to exercise here;
        // the Monte-Carlo ones are covered by the integration suite.
        for id in [
            "tab1", "fig15a", "fig15b", "dcn1", "tabc1", "ablate3", "future1", "refresh1",
        ] {
            let r = run(id, true).expect("registered");
            assert!(r.passed(), "{id} failed:\n{}", r.render());
            assert!(!r.lines.is_empty());
        }
    }
}
