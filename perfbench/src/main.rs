//! One measured iteration of one benchmark workload.
//!
//! ```text
//! perfbench --workload join-storm|churn|node-chain --seed N [--spans FILE]
//! ```
//!
//! Prints one JSON line: `attempted`, `failed`, `gate_bites` and the
//! iteration's `values` by name. With `--spans FILE` the run is traced: the
//! layer spans and the trait decorators are on, and the spans are written to
//! `FILE` as JSON lines once the workload has ended. `run.py` repeats
//! iterations, one process each, and aggregates them.

// The benchmark is a timing tool: wall-clock reads are its purpose.
#![allow(clippy::disallowed_methods)]

mod tap;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--spans", Some(v)) => spans = Some(PathBuf::from(v)),
            _ => {
                eprintln!("usage: perfbench --workload NAME --seed N [--spans FILE]");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        eprintln!("perfbench: --workload and a numeric --seed are required");
        return ExitCode::from(2);
    };
    let run = match workload.as_str() {
        "join-storm" => workloads::join_storm,
        "churn" => workloads::churn,
        "node-chain" => workloads::node_chain,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    let mut tracer = trace::Tracer::new(spans.is_some());
    tracer.phase("iteration");
    let mut report = run(seed, &mut tracer);
    tracer.end_phase();
    if let Some(path) = &spans {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    report
        .values
        .push(("peak_rss_mib".into(), workloads::peak_rss_mib()));

    let mut line = format!(
        "{{\"attempted\":{},\"failed\":{},\"gate_bites\":{},\"values\":{{",
        report.attempted, report.failed, report.gate_bites
    );
    for (i, (name, value)) in report.values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(line, "{sep}\"{name}\":{value:e}");
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
