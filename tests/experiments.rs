//! The experiment record. Runs every experiment of `wmrd-bench` (E1–E11,
//! E16, E18 and the ablations A1–A3), fails on any failed paper
//! expectation, and compares each measured block of EXPERIMENTS.md with
//! the harness output byte for byte.
//!
//! `WMRD_REGOLD=1 cargo test -p wmrd-xtests --test experiments` rewrites
//! the blocks between their markers and nothing else.

use std::path::Path;

use wmrd_bench::{check_record, run_all};
use wmrd_trace::Metrics;

#[test]
fn experiments_hold_and_match_the_record() {
    let outcomes = run_all(None, &Metrics::disabled());
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"));
    let record = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let (updated, mut problems) = check_record(&record, &outcomes);
    if std::env::var_os("WMRD_REGOLD").is_some() && updated != record {
        std::fs::write(path, &updated).expect("EXPERIMENTS.md is writable");
        problems = check_record(&updated, &outcomes).1;
    }
    let failures: Vec<&String> = outcomes.iter().flat_map(|o| &o.failures).collect();
    assert!(failures.is_empty(), "failed expectations:\n{failures:#?}");
    assert!(
        problems.is_empty(),
        "EXPERIMENTS.md disagrees with the harness (WMRD_REGOLD=1 regenerates):\n{}",
        problems.join("\n")
    );
}
