//! The reader of a run directory (`lightwave_bench::artifacts`).
//!
//! ```text
//! cargo run -p lightwave-bench --release --bin validate_trace -- RUN_DIR
//! ```
//!
//! Reads every file `scripts/artifacts.sh` left in `RUN_DIR` from its
//! bytes — the closed set of names, each `schema`, each join — and prints
//! the run manifest: one row per file with its schema, length and
//! FNV-1a-64. Exits non-zero naming the file and the id on the first
//! refusal, so CI can gate on it.

use lightwave_bench::artifacts::{read_run_dir, render_manifest};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir] = args.as_slice() else {
        eprintln!("usage: validate_trace <run-dir>");
        return ExitCode::from(2);
    };
    match read_run_dir(Path::new(dir)) {
        Ok(rows) => {
            print!("{}", render_manifest(&rows));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_trace: {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}
