//! The experiment record of the reproduction, as library code.
//!
//! Every reproducible claim of the paper — Figures 1–3, Theorems 3.5,
//! 4.1 and 4.2, the §2.2 and §5 claims, the ablations — plus the
//! deterministic extensions E16 and E18 is one experiment function. It
//! renders its block of text and records each expectation it checks
//! instead of panicking. [`run_all`] runs them; the `experiments`
//! binary prints the blocks, and `tests/experiments.rs` fails on a
//! failed expectation and compares each block with the marked block of
//! EXPERIMENTS.md through [`check_record`]
//! (`WMRD_REGOLD=1 cargo test -p wmrd-xtests --test experiments`
//! rewrites them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;

use std::collections::BTreeSet;

use wmrd_progs::catalog;
use wmrd_sim::{
    run_sc, run_weak, Fidelity, MemoryModel, Program, RandomSched, RandomWeakSched, RunConfig,
    RunOutcome, WeakRoundRobin, WeakScript,
};
use wmrd_trace::{Metrics, MultiSink, OpRecorder, OpTrace, TraceBuilder, TraceSet};

/// What one experiment produced.
#[derive(Debug)]
pub struct Outcome {
    /// The experiment id (`e1`, …, `a3`).
    pub id: &'static str,
    /// The rendered block, ending in a newline.
    pub block: String,
    /// Expectations checked.
    pub checks: u64,
    /// The expectations that failed, one line each.
    pub failures: Vec<String>,
}

/// The state one experiment writes into.
struct Harness {
    out: String,
    checks: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

impl Harness {
    /// Records one paper expectation; a failed one is remembered, and
    /// the remaining experiments still run.
    fn check(&mut self, cond: bool, what: impl Into<String>) {
        self.checks += 1;
        if !cond {
            self.failures.push(what.into());
        }
    }
}

/// Appends one formatted line to a harness's block.
macro_rules! out {
    ($h:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($h.out, $($arg)*);
    }};
}
pub(crate) use out;

type Experiment = fn(&mut Harness);

/// Every experiment, in the order the binary prints them.
const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("e1", experiments::e1_fig1a),
    ("e2", experiments::e2_fig1b),
    ("e3", experiments::e3_fig2_weak_execution),
    ("e4", experiments::e4_fig3_partitions),
    ("e5", experiments::e5_theorem_4_1),
    ("e6", experiments::e6_theorem_4_2),
    ("e7", experiments::e7_condition_3_4),
    ("e8", experiments::e8_trace_overhead),
    ("e9", experiments::e9_on_the_fly),
    ("e10", experiments::e10_model_performance),
    ("e11", experiments::e11_exhaustive_weak_check),
    ("e16", experiments::e16_backend_yield),
    ("e18", experiments::e18_repair),
    ("a1", experiments::a1_first_partition_filter),
    ("a2", experiments::a2_raw_hardware),
    ("a3", experiments::a3_trace_granularity),
];

/// The experiment ids, in run order.
fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

/// Runs every experiment, or only `only`, timing each as the
/// `experiment.<id>` phase of `metrics` and recording its gauges there.
pub fn run_all(only: Option<&str>, metrics: &Metrics) -> Vec<Outcome> {
    let selected = EXPERIMENTS.iter().filter(|(id, _)| only.is_none_or(|o| o == *id));
    selected
        .map(|&(id, f)| {
            let mut h = Harness {
                out: String::new(),
                checks: 0,
                failures: vec![],
                metrics: metrics.clone(),
            };
            metrics.time(&format!("experiment.{id}"), || f(&mut h));
            Outcome { id, block: h.out, checks: h.checks, failures: h.failures }
        })
        .collect()
}

/// Runs the experiments `ids`, the ones that check one paper claim.
///
/// # Panics
///
/// Panics listing every failed expectation, or if an id names no
/// experiment.
pub fn assert_holds(ids: &[&str]) {
    for &id in ids {
        let outcomes = run_all(Some(id), &Metrics::disabled());
        assert!(!outcomes.is_empty(), "no experiment `{id}`");
        let failures: Vec<&String> = outcomes.iter().flat_map(|o| &o.failures).collect();
        assert!(failures.is_empty(), "{id}: failed expectations:\n{failures:#?}");
    }
}

/// The `experiments` command line: `[--only <id>] [--json <path>]`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// Run only this experiment (a known id, lowercased).
    pub only: Option<String>,
    /// Write the run's `RunMetrics` report to this path.
    pub json: Option<String>,
}

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Returns a usage message listing the valid ids for an unknown or
    /// repeated flag, a flag without its value, or an unknown id.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let slot = match flag.as_str() {
                "--only" => &mut parsed.only,
                "--json" => &mut parsed.json,
                _ => return Err(usage(&format!("unknown argument `{flag}`"))),
            };
            match args.next() {
                Some(v) if slot.is_none() && !v.starts_with("--") => *slot = Some(v.clone()),
                _ => return Err(usage(&format!("{flag} takes exactly one value"))),
            }
        }
        if let Some(id) = &mut parsed.only {
            id.make_ascii_lowercase();
            if !ids().any(|known| known == id) {
                return Err(usage(&format!("unknown experiment `{id}`")));
            }
        }
        Ok(parsed)
    }
}

fn usage(problem: &str) -> String {
    let ids: Vec<_> = ids().collect();
    format!(
        "experiments: {problem}\nusage: experiments [--only <id>] [--json <path>]\nids: {}",
        ids.join(" ")
    )
}

// Markers count only at the start of a line, so prose may quote them.
const OPEN: &str = "\n<!-- experiment:";
const CLOSE: &str = "\n<!-- /experiment:";

/// Compares the measured blocks of an experiment record with the
/// harness output. A block is a fenced code block between a
/// `<!-- experiment:<id> -->` line and a `<!-- /experiment:<id> -->`
/// line.
///
/// Returns the record with the block of every experiment in `outcomes`
/// replaced by its output (all text outside the markers is kept), and
/// one problem per differing block, missing block, or marker naming no
/// experiment of `outcomes`, each prefixed with its experiment id.
pub fn check_record(record: &str, outcomes: &[Outcome]) -> (String, Vec<String>) {
    let mut updated = String::with_capacity(record.len());
    let mut problems = Vec::new();
    let mut found = BTreeSet::new();
    let mut rest = record;
    while let Some(start) = rest.find(OPEN) {
        stray_closes(&rest[..start], &mut problems);
        updated.push_str(&rest[..start]);
        rest = &rest[start..];
        let id = rest[OPEN.len()..].split(char::is_whitespace).next().unwrap_or_default();
        let close = format!("{CLOSE}{id} -->");
        let body_start = OPEN.len() + id.len() + " -->\n".len();
        let opened = rest[OPEN.len() + id.len()..].starts_with(" -->\n");
        let Some(body_len) = rest[body_start.min(rest.len())..].find(&close).filter(|_| opened)
        else {
            problems.push(format!("{id}: no `{}` closes the block", close.trim()));
            return (record.to_string(), problems);
        };
        let body = &rest[body_start..body_start + body_len];
        updated.push_str(&rest[..body_start]);
        match outcomes.iter().find(|o| o.id == id) {
            Some(o) => {
                found.insert(o.id);
                let want = format!("```text\n{}```", o.block);
                if body != want {
                    problems.push(format!("{id}: {}", first_difference(body, &want)));
                }
                updated.push_str(&want);
            }
            None => {
                problems.push(format!("{id}: marked block names no experiment"));
                updated.push_str(body);
            }
        }
        updated.push_str(&close);
        rest = &rest[body_start + body_len + close.len()..];
    }
    stray_closes(rest, &mut problems);
    updated.push_str(rest);
    for o in outcomes.iter().filter(|o| !found.contains(o.id)) {
        problems.push(format!("{}: no marked block in the record", o.id));
    }
    (updated, problems)
}

fn stray_closes(text: &str, problems: &mut Vec<String>) {
    for (at, _) in text.match_indices(CLOSE) {
        let id = text[at + CLOSE.len()..].split(" -->").next().unwrap_or_default();
        problems.push(format!("{id}: closing marker without an opening one"));
    }
}

fn first_difference(record: &str, harness: &str) -> String {
    let line = record.lines().zip(harness.lines()).take_while(|(r, h)| r == h).count();
    format!(
        "block differs from the harness output at line {}: record `{}`, harness `{}`",
        line + 1,
        record.lines().nth(line).unwrap_or("<end>"),
        harness.lines().nth(line).unwrap_or("<end>")
    )
}

/// A fully traced run: both trace granularities.
#[derive(Debug)]
struct TracedRun {
    /// Event-level trace (the post-mortem input).
    events: TraceSet,
    /// Operation-level trace (the exact baseline).
    ops: OpTrace,
}

fn dual_sink(n: usize) -> MultiSink<TraceBuilder, OpRecorder> {
    MultiSink::new(TraceBuilder::new(n), OpRecorder::new(n))
}

fn finish(
    sink: MultiSink<TraceBuilder, OpRecorder>,
    outcome: RunOutcome,
    program: &Program,
    model: &str,
    seed: Option<u64>,
) -> TracedRun {
    assert!(outcome.halted, "experiment runs halt");
    let (builder, recorder) = sink.into_inner();
    let mut events = builder.finish();
    events.meta.program = Some(program.name().to_string());
    events.meta.model = Some(model.to_string());
    events.meta.seed = seed;
    TracedRun { events, ops: recorder.finish() }
}

/// Runs `program` on the SC machine with a seeded random scheduler.
/// Traces do not depend on the timing model, so every run helper uses
/// the uniform one.
fn sc_run(program: &Program, seed: u64) -> TracedRun {
    let mut sink = dual_sink(program.num_procs());
    let outcome = run_sc(program, &mut RandomSched::new(seed), &mut sink, RunConfig::uniform())
        .expect("experiment programs run to completion");
    finish(sink, outcome, program, "SC", Some(seed))
}

/// Runs `program` on the conditioned store-buffer machine with a seeded
/// random scheduler.
fn weak_run(program: &Program, model: MemoryModel, seed: u64) -> TracedRun {
    let mut sink = dual_sink(program.num_procs());
    let mut sched = RandomWeakSched::new(seed, 0.3);
    let conditioned = Fidelity::Conditioned;
    let outcome =
        run_weak(program, model, conditioned, &mut sched, &mut sink, RunConfig::uniform())
            .expect("experiment programs run to completion");
    finish(sink, outcome, program, &model.to_string(), Some(seed))
}

/// Runs the Figure 2 buggy work queue on WO with the scripted schedule
/// that reproduces the paper's Figure 2b (stale dequeue).
fn fig2_weak_run() -> TracedRun {
    let entry = catalog::work_queue_buggy();
    let mut sink = dual_sink(entry.program.num_procs());
    let mut sched = WeakScript::new(catalog::work_queue_weak_script());
    let outcome = run_weak(
        &entry.program,
        MemoryModel::Wo,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::uniform(),
    )
    .expect("scripted figure 2 run completes");
    finish(sink, outcome, &entry.program, "WO", None)
}

/// Deterministic cycle count of `program` under `model` (fair weak
/// round-robin schedule, default timing).
fn model_cycles(program: &Program, model: MemoryModel) -> u64 {
    let mut sink = wmrd_trace::NullSink::new();
    run_weak(
        program,
        model,
        Fidelity::Conditioned,
        &mut WeakRoundRobin::new(),
        &mut sink,
        RunConfig::default(),
    )
    .expect("experiment programs run to completion")
    .total_cycles()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_core::PostMortem;

    #[test]
    fn sc_run_produces_consistent_traces() {
        let entry = catalog::fig1a();
        let run = sc_run(&entry.program, 1);
        assert_eq!(run.events.meta.model.as_deref(), Some("SC"));
        assert!(run.events.validate().is_ok());
        assert!(run.ops.num_ops() >= run.events.num_events());
    }

    #[test]
    fn fig2_run_shows_the_stale_read() {
        let run = fig2_weak_run();
        let report = PostMortem::new(&run.events).analyze().unwrap();
        assert!(!report.is_race_free());
        assert!(!report.withheld_races().is_empty(), "non-first partitions exist:\n{report}");
    }

    #[test]
    fn model_cycles_ranks_models() {
        let entry = catalog::counter_locked(2, 3);
        let sc = model_cycles(&entry.program, MemoryModel::Sc);
        let wo = model_cycles(&entry.program, MemoryModel::Wo);
        assert!(wo <= sc, "WO ({wo}) should not exceed SC ({sc})");
    }

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn bad_command_lines_are_usage_errors_listing_the_ids() {
        for bad in
            ["--only e99", "--only", "--bogus", "--json", "--only --json x", "--only e1 --only e2"]
        {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("usage:") && err.contains("ids: e1 e2"), "{bad}: {err}");
        }
        let only = parse("--only E4 --json m.json").unwrap();
        assert_eq!(only, Args { only: Some("e4".into()), json: Some("m.json".into()) });
        assert_eq!(parse("").unwrap(), Args::default());
    }

    fn outcome(id: &'static str, block: &str) -> Outcome {
        Outcome { id, block: block.into(), checks: 0, failures: vec![] }
    }

    const RECORD: &str = "# E1\n<!-- experiment:e1 -->\n```text\n=== E1 ===\n12 races\n```\n\
                          <!-- /experiment:e1 -->\nprose\n";

    #[test]
    fn matching_record_has_no_problems_and_stays_byte_identical() {
        let (updated, problems) = check_record(RECORD, &[outcome("e1", "=== E1 ===\n12 races\n")]);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(updated, RECORD);
    }

    #[test]
    fn one_character_difference_is_reported_by_id_and_regenerated_in_place() {
        let (updated, problems) = check_record(RECORD, &[outcome("e1", "=== E1 ===\n13 races\n")]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("e1: ") && problems[0].contains("line 3"), "{problems:?}");
        assert_eq!(updated, RECORD.replace("12 races", "13 races"));
    }

    #[test]
    fn missing_marker_is_reported_by_id() {
        let fresh = outcome("e1", "=== E1 ===\n12 races\n");
        let (_, problems) = check_record(RECORD, &[fresh, outcome("e9", "x\n")]);
        assert_eq!(problems, ["e9: no marked block in the record"]);
        let (_, problems) = check_record(&RECORD.replace("<!-- /experiment:e1 -->", ""), &[]);
        assert!(problems[0].starts_with("e1: no `<!-- /experiment:e1 -->`"), "{problems:?}");
    }

    #[test]
    fn orphan_marker_is_reported_by_id() {
        let (updated, problems) = check_record(RECORD, &[]);
        assert_eq!(problems, ["e1: marked block names no experiment"]);
        assert_eq!(updated, RECORD, "an orphan block is left as it is");
        let stray = format!("{RECORD}<!-- /experiment:e7 -->\n");
        let (_, problems) = check_record(&stray, &[outcome("e1", "=== E1 ===\n12 races\n")]);
        assert_eq!(problems, ["e7: closing marker without an opening one"]);
    }
}
