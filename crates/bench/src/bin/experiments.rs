//! Prints every experiment block of the reproduction and exits non-zero
//! if any paper expectation failed.
//!
//! ```text
//! cargo run -p wmrd-bench --bin experiments                    # everything
//! cargo run -p wmrd-bench --bin experiments -- --only e4       # one experiment
//! cargo run -p wmrd-bench --bin experiments -- --json m.json   # + RunMetrics report
//! ```
//!
//! The `--json` report (schema in OBSERVABILITY.md) holds E8–E10's
//! measurements as gauges, each experiment's wall time as a phase and
//! the `harness.checks`/`harness.failures` counters.

use wmrd_bench::{run_all, Args};
use wmrd_trace::Metrics;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    let metrics = Metrics::enabled();
    metrics.context("command", "experiments");
    if let Some(id) = &args.only {
        metrics.context("only", id);
    }
    let outcomes = run_all(args.only.as_deref(), &metrics);
    let checks: u64 = outcomes.iter().map(|o| o.checks).sum();
    let failures: Vec<&String> = outcomes.iter().flat_map(|o| &o.failures).collect();
    for o in &outcomes {
        println!("{}", o.block);
    }
    metrics.add("harness.checks", checks);
    metrics.add("harness.failures", failures.len() as u64);
    if let Some(path) = &args.json {
        std::fs::write(path, metrics.report().to_json())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("metrics written to {path}");
    }
    if failures.is_empty() {
        println!("all {checks} expectation(s) held");
    } else {
        eprintln!("{}/{checks} expectation(s) FAILED:", failures.len());
        for f in failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
