//! Regenerates every figure and claim of the paper as text tables.
//!
//! Usage:
//!
//! ```text
//! cargo run -p wmrd-bench --bin experiments            # everything
//! cargo run -p wmrd-bench --bin experiments -- --only e4
//! cargo run -p wmrd-bench --bin experiments -- --json  # BENCH_experiments.json
//! ```
//!
//! The experiment ids match DESIGN.md's index (E1–E10 plus ablations
//! A1–A3); EXPERIMENTS.md records paper-vs-measured for each.
//!
//! With `--json [path]` a machine-readable `RunMetrics` report (see
//! OBSERVABILITY.md) is written — E8/E9/E10's measured numbers as
//! gauges, per-experiment wall time in `phases_ns`, and the
//! expectation-check tally as counters. Every paper expectation is a
//! recorded *check* rather than a panicking assert: the binary runs all
//! requested experiments to completion and exits non-zero iff any
//! expectation failed.

use std::collections::BTreeSet;

use wmrd_bench::{fig2_weak_run, model_cycles, sc_run, weak_run};
use wmrd_core::{
    event_race_keys, OnTheFly, OnTheFlyConfig, PairingPolicy, PostMortem, RaceKey, RaceReport,
};
use wmrd_progs::{catalog, generate};
use wmrd_sim::{Fidelity, HwImpl, MemoryModel, Program};
use wmrd_trace::{Metrics, TraceSet, TraceSink};
use wmrd_verify::theorems::{
    check_condition_3_4_hw, check_theorem_4_1, check_theorem_4_2, sc_race_signatures,
};
use wmrd_verify::{
    enumerate_sc, enumerate_weak, is_sequentially_consistent, sample_sc, EnumConfig,
};

/// The default `--json` output path.
const DEFAULT_JSON: &str = "BENCH_experiments.json";

/// Shared state for one `experiments` invocation: the metrics being
/// collected and the expectations checked so far.
struct Harness {
    metrics: Metrics,
    checks: u64,
    failures: Vec<String>,
}

impl Harness {
    fn new() -> Self {
        let metrics = Metrics::enabled();
        metrics.context("command", "experiments");
        Harness { metrics, checks: 0, failures: Vec::new() }
    }

    /// Runs one experiment, timing it as `experiment.<id>`.
    fn run(&mut self, id: &str, f: fn(&mut Harness)) {
        // A clone shares the recording state, releasing the borrow of
        // `self.metrics` so the closure can take `self` mutably.
        let metrics = self.metrics.clone();
        metrics.time(&format!("experiment.{id}"), || f(self));
    }

    /// Records one paper expectation. A failed check is reported and
    /// remembered (the process exits non-zero) but does not abort the
    /// remaining experiments.
    fn check(&mut self, cond: bool, what: impl Into<String>) {
        self.checks += 1;
        if !cond {
            let what = what.into();
            println!("EXPECTATION FAILED: {what}");
            self.failures.push(what);
        }
    }
}

/// Lowercases `s` and maps every non-alphanumeric run to `-`, so
/// workload names become stable metric-key segments.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map_or_else(|| DEFAULT_JSON.to_string(), |v| v.clone())
    });
    let want = |id: &str| only.as_deref().is_none_or(|o| o == id);

    let mut h = Harness::new();
    if let Some(o) = &only {
        h.metrics.context("only", o);
    }
    type ExperimentFn = fn(&mut Harness);
    const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
        ("e1", e1_fig1a),
        ("e2", e2_fig1b),
        ("e3", e3_fig2_weak_execution),
        ("e4", e4_fig3_partitions),
        ("e5", e5_theorem_4_1),
        ("e6", e6_theorem_4_2),
        ("e7", e7_condition_3_4),
        ("e8", e8_trace_overhead),
        ("e9", e9_on_the_fly),
        ("e10", e10_model_performance),
        ("e11", e11_exhaustive_weak_check),
        ("a1", a1_first_partition_filter),
        ("a2", a2_raw_hardware),
        ("a3", a3_trace_granularity),
    ];
    for &(id, f) in EXPERIMENTS {
        if want(id) {
            h.run(id, f);
        }
    }

    h.metrics.add("harness.checks", h.checks);
    h.metrics.add("harness.failures", h.failures.len() as u64);
    if let Some(path) = json_path {
        let report = h.metrics.report();
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nmetrics written to {path}");
    }
    if h.failures.is_empty() {
        println!("\nall {} expectation(s) held", h.checks);
    } else {
        eprintln!("\n{}/{} expectation(s) FAILED:", h.failures.len(), h.checks);
        for f in &h.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn analyze(trace: &TraceSet) -> RaceReport {
    PostMortem::new(trace).analyze().expect("experiment traces analyze")
}

/// E1 — Figure 1a: an execution *with* data races.
fn e1_fig1a(h: &mut Harness) {
    header("E1", "Figure 1a - execution with data races");
    let entry = catalog::fig1a();
    let run = sc_run(&entry.program, 7);
    let report = analyze(&run.events);
    println!("program: {} ({})", entry.name, entry.description);
    println!("{report}");
    h.check(!report.is_race_free(), "E1: fig1a must contain data races");
    println!(
        "paper: the conflicting Write/Read pairs on x and y are unordered by hb1 -> data race"
    );
    println!("measured: {} data race(s) detected, as expected", report.data_races().count());
}

/// E2 — Figure 1b: the race-free variant with Unset/Test&Set pairing.
fn e2_fig1b(h: &mut Harness) {
    header("E2", "Figure 1b - race-free execution via Unset -> Test&Set pairing");
    let entry = catalog::fig1b();
    let run = sc_run(&entry.program, 7);
    let report = analyze(&run.events);
    println!("program: {} ({})", entry.name, entry.description);
    println!("so1 edges found: {}", report.num_so1_edges);
    println!("{report}");
    h.check(report.is_race_free(), "E2: fig1b must be data-race-free");
    println!("paper: all conflicting data operations ordered by hb1 -> data-race-free");
    println!("measured: race-free; execution certified sequentially consistent");
}

/// E3 — Figure 2b: the weak execution of the buggy work queue, with the
/// stale dequeue and the non-SC data races it causes.
fn e3_fig2_weak_execution(h: &mut Harness) {
    header("E3", "Figure 2 - buggy work queue on WO: stale dequeue");
    let lay = catalog::work_queue_layout();
    let run = fig2_weak_run();
    let p2 = wmrd_trace::ProcId::new(1);
    let p2_ops = run.ops.proc_ops(p2).expect("P2 traced");
    let q_empty = p2_ops.iter().find(|o| o.loc == lay.q_empty).expect("P2 read QEmpty");
    let q = p2_ops.iter().find(|o| o.loc == lay.q).expect("P2 read Q");
    println!("P2 read QEmpty = {} (the NEW value written by P1)", q_empty.value);
    println!(
        "P2 read Q      = {} (the STALE value; P1's enqueue of {} was still buffered)",
        q.value, lay.fresh_addr
    );
    h.check(
        q.value.get() == lay.stale_addr,
        "E3: the scripted schedule must reproduce the stale read of Q",
    );
    let report = analyze(&run.events);
    println!(
        "data races in the weak execution: {} total across {} partition(s)",
        report.data_races().count(),
        report.partitions.len()
    );
    println!(
        "naive reporting would show all {}; only {} (first partitions) are SC-meaningful",
        report.data_races().count(),
        report.reported_races().len()
    );
    println!("paper: P2 works on a region overlapping P3 -> many non-SC data races");
    println!(
        "measured: {} race(s) withheld as potentially non-SC artifacts",
        report.withheld_races().len()
    );
}

/// E4 — Figure 3: the augmented graph's partitions, their order, and the
/// SCP boundary.
fn e4_fig3_partitions(h: &mut Harness) {
    header("E4", "Figure 3 - first vs non-first partitions and the SCP");
    let run = fig2_weak_run();
    let report = analyze(&run.events);
    println!("{report}");
    let first: Vec<_> = report.first_partitions().collect();
    h.check(first.len() == 1, "E4: Figure 3 shows exactly one first partition");
    let Some(first_partition) = first.first() else { return };
    let lay = catalog::work_queue_layout();
    let first_races: Vec<_> = first_partition.races.iter().map(|&i| &report.races[i]).collect();
    let touches_queue = first_races
        .iter()
        .any(|r| r.locations.contains(lay.q) || r.locations.contains(lay.q_empty));
    h.check(touches_queue, "E4: the first partition must be the QEmpty/Q races");
    println!("paper: first partition = races on QEmpty/Q between P1 and P2;");
    println!("       non-first partition = P2/P3 region races, po-after the first ones");
    println!("measured: matches (see partitions above); SCP boundary shown per processor.");
    println!("note: our SCP estimate is conservative - the paper's Figure 3 keeps P3's");
    println!("      first phase inside the SCP, while the estimator excises everything");
    println!("      G'-after a race (soundness over tightness; see DESIGN.md).");
}

/// E5 — Theorem 4.1 on random programs: first partitions exist iff data
/// races exist.
fn e5_theorem_4_1(h: &mut Harness) {
    header("E5", "Theorem 4.1 - first partitions exist iff data races exist");
    let mut checked = 0;
    let mut held = 0;
    for seed in 0..20 {
        for racy in [false, true] {
            let cfg = generate::GenConfig::default().with_seed(seed);
            let program = if racy { generate::racy(&cfg) } else { generate::locked(&cfg) };
            for model in [MemoryModel::Wo, MemoryModel::RCsc] {
                let run = weak_run(&program, model, Fidelity::Conditioned, seed);
                let report = analyze(&run.events);
                checked += 1;
                if check_theorem_4_1(&report) {
                    held += 1;
                }
            }
        }
    }
    println!("checked {checked} executions (20 seeds x locked/racy x WO/RCsc)");
    println!("Theorem 4.1 held in {held}/{checked}");
    h.check(checked == held, "E5: Theorem 4.1 must hold universally");
}

/// E6 — Theorem 4.2: each first partition contains a race that occurs in
/// a sequentially consistent execution.
fn e6_theorem_4_2(h: &mut Harness) {
    header("E6", "Theorem 4.2 - first partitions contain SC races");
    // (a) Exhaustively enumerated oracle for fig1a.
    let fig1a = catalog::fig1a();
    let sc = enumerate_sc(&fig1a.program, &EnumConfig::default()).expect("fig1a enumerates");
    let sigs = sc_race_signatures(&sc.executions, PairingPolicy::ByRole).expect("analyzable");
    println!(
        "fig1a: {} SC executions enumerated (complete={}), {} distinct race signature(s)",
        sc.executions.len(),
        sc.complete,
        sigs.len()
    );
    let mut confirmed = 0;
    let mut total = 0;
    for model in MemoryModel::WEAK {
        for seed in 0..5 {
            let run = weak_run(&fig1a.program, model, Fidelity::Conditioned, seed);
            let report = analyze(&run.events);
            let outcome = check_theorem_4_2(&run.events, &report, &sigs);
            total += outcome.partitions_checked;
            confirmed += outcome.partitions_confirmed;
        }
    }
    println!("fig1a weak executions: {confirmed}/{total} first partitions confirmed");
    h.check(confirmed == total, "E6: every fig1a first partition must contain an SC race");

    // (b) Sampled oracle for the work queue (too large to enumerate).
    let wq = catalog::work_queue_buggy();
    let samples =
        sample_sc(&wq.program, 0..200, wmrd_sim::RunConfig::default()).expect("samples run");
    let wq_sigs = sc_race_signatures(&samples, PairingPolicy::ByRole).expect("analyzable");
    println!(
        "work-queue-buggy: {} distinct sampled SC executions, {} race signature(s)",
        samples.len(),
        wq_sigs.len()
    );
    let run = fig2_weak_run();
    let report = analyze(&run.events);
    let outcome = check_theorem_4_2(&run.events, &report, &wq_sigs);
    println!(
        "figure-2b execution: {}/{} first partitions contain a sampled-SC race",
        outcome.partitions_confirmed, outcome.partitions_checked
    );
    h.check(outcome.holds(), "E6: Theorem 4.2 must hold on the figure-2b execution");
}

/// E7 — Condition 3.4 / Theorem 3.5 on the conditioned weak machines.
fn e7_condition_3_4(h: &mut Harness) {
    header("E7", "Condition 3.4 / Theorem 3.5 - conditioned weak machines obey it");
    println!(
        "{:<24} {:>6} {:>13} {:>6} {:>9} {:>8} {:>7}",
        "program", "model", "hardware", "execs", "racefree", "part-ok", "scp-ok"
    );
    for entry in catalog::all() {
        let sigs = if entry.racy {
            let samples = sample_sc(&entry.program, 0..100, wmrd_sim::RunConfig::default())
                .expect("samples run");
            sc_race_signatures(&samples, PairingPolicy::ByRole).expect("analyzable")
        } else {
            BTreeSet::new()
        };
        for hw in [HwImpl::StoreBuffer, HwImpl::InvalQueue] {
            for model in [MemoryModel::Wo, MemoryModel::RCsc] {
                let outcomes = check_condition_3_4_hw(
                    hw,
                    &entry.program,
                    model,
                    Fidelity::Conditioned,
                    0..4,
                    &sigs,
                    PairingPolicy::ByRole,
                )
                .expect("checkable");
                let race_free = outcomes.iter().filter(|o| o.race_free).count();
                let ok = outcomes.iter().filter(|o| o.holds()).count();
                let scp_ok = outcomes.iter().filter(|o| o.scp_linearizes).count();
                println!(
                    "{:<24} {:>6} {:>13} {:>6} {:>9} {:>8} {:>7}",
                    entry.name,
                    model.to_string(),
                    hw.to_string(),
                    outcomes.len(),
                    race_free,
                    ok,
                    scp_ok
                );
                h.check(
                    ok == outcomes.len(),
                    format!("E7: {} on {model}/{hw}: Condition 3.4 must hold", entry.name),
                );
            }
        }
    }
    println!("paper: all implementations of WO/RCsc (and proposed DRF0/DRF1) obey Condition 3.4");
    println!("measured: both implementation styles (store buffers, invalidation queues)");
    println!("          satisfied both clauses on every execution; SCPs linearized");
}

/// E8 — Section 5 overhead claim: the trace information needed on weak
/// hardware is the same as on SC hardware, and event-level bit-vector
/// tracing is far smaller than per-operation tracing.
fn e8_trace_overhead(h: &mut Harness) {
    header("E8", "Section 5 - tracing overhead, SC vs weak, events vs operations");
    println!(
        "{:<20} {:>6} {:>7} {:>10} {:>10} {:>9} {:>8}",
        "workload", "model", "ops", "op-bytes", "ev-bytes", "ev/op", "ratio"
    );
    let mut workloads: Vec<(String, Program)> = vec![
        ("work-queue-buggy".into(), catalog::work_queue_buggy().program),
        ("barrier(4)".into(), catalog::barrier(4).program),
    ];
    let cfg = generate::GenConfig {
        procs: 4,
        sections_per_proc: 12,
        ops_per_section: 32,
        ..Default::default()
    };
    workloads.push(("gen-sectioned(32/s)".into(), generate::sectioned(&cfg)));
    for (name, program) in &workloads {
        for model in [MemoryModel::Sc, MemoryModel::Wo] {
            let run = if model == MemoryModel::Sc {
                sc_run(program, 3)
            } else {
                weak_run(program, model, Fidelity::Conditioned, 3)
            };
            let ops = run.ops.num_ops();
            let op_bytes = run.ops.encoded_size();
            let ev_bytes = run.events.to_binary().len();
            let key = format!("e8.{}.{}", slug(name), slug(&model.to_string()));
            h.metrics.set_gauge(&format!("{key}.ops"), ops as u64);
            h.metrics.set_gauge(&format!("{key}.op_bytes"), op_bytes as u64);
            h.metrics.set_gauge(&format!("{key}.event_bytes"), ev_bytes as u64);
            println!(
                "{:<20} {:>6} {:>7} {:>10} {:>10} {:>9.1} {:>8.2}",
                name,
                model.to_string(),
                ops,
                op_bytes,
                ev_bytes,
                ev_bytes as f64 / ops as f64,
                op_bytes as f64 / ev_bytes as f64
            );
        }
    }
    println!("paper: \"we require no more execution-time information than [SC] methods\"");
    println!("measured: identical trace streams and near-identical sizes on SC and WO.");
    println!("          On data-heavy workloads (long computation events) per-operation");
    println!("          tracing costs a multiple of the event trace (ratio > 1); on");
    println!("          sync-dominated workloads the advantage disappears (see A3)");
}

/// E9 — Section 5: on-the-fly detection trades memory/accuracy against
/// post-mortem trace files.
fn e9_on_the_fly(h: &mut Harness) {
    header("E9", "Section 5 - on-the-fly vs post-mortem");
    let cfg = generate::GenConfig {
        procs: 4,
        shared_locations: 6,
        sections_per_proc: 12,
        ops_per_section: 6,
        rogue_fraction: 0.5,
        seed: 9,
    };
    let program = generate::racy(&cfg);
    let run = sc_run(&program, 5);
    let report = analyze(&run.events);
    let postmortem_races = report.data_races().count();
    let trace_bytes = run.events.to_binary().len();
    h.metrics.set_gauge("e9.postmortem.races", postmortem_races as u64);
    h.metrics.set_gauge("e9.postmortem.trace_bytes", trace_bytes as u64);
    println!("post-mortem: {} data race(s); trace file {} bytes", postmortem_races, trace_bytes);
    println!(
        "{:>14} {:>8} {:>12} {:>13}",
        "history-limit", "races", "state-bytes", "dropped-reads"
    );
    for limit in [None, Some(4), Some(2), Some(1)] {
        // Replay the same execution through the on-the-fly detector.
        let mut detector = OnTheFly::new(
            program.num_procs(),
            OnTheFlyConfig { read_history_limit: limit, ..OnTheFlyConfig::default() },
        );
        replay(&run.ops, &mut detector);
        let label = limit.map_or_else(|| "unbounded".to_string(), |l| l.to_string());
        let key = format!("e9.limit_{label}");
        h.metrics.set_gauge(&format!("{key}.races"), detector.races().len() as u64);
        h.metrics.set_gauge(&format!("{key}.state_bytes"), detector.approx_memory_bytes() as u64);
        h.metrics.set_gauge(&format!("{key}.dropped_reads"), detector.dropped_reads());
        println!(
            "{:>14} {:>8} {:>12} {:>13}",
            label,
            detector.races().len(),
            detector.approx_memory_bytes(),
            detector.dropped_reads()
        );
    }
    println!("paper: on-the-fly avoids secondary storage but loses accuracy under bounded");
    println!("       buffering; post-mortem keeps full accuracy at the cost of trace files");
}

fn replay(ops: &wmrd_trace::OpTrace, sink: &mut dyn TraceSink) {
    // Replay in the recorded global issue order, so the on-the-fly
    // detector observes exactly what it would have observed live.
    for op in ops.iter_issue_order() {
        match op.class {
            wmrd_trace::OpClass::Data => {
                sink.data_access(op.id.proc, op.loc, op.kind, op.value, op.observed_write);
            }
            wmrd_trace::OpClass::Sync(role) => {
                sink.sync_access(op.id.proc, op.loc, op.kind, role, op.value, op.observed_write);
            }
        }
    }
}

/// E10 — Section 2.2: the weak models' performance motivation.
fn e10_model_performance(h: &mut Harness) {
    header("E10", "Section 2.2 - weak models outperform SC on race-free programs");
    let workloads: Vec<(&str, Program)> = vec![
        ("counter-locked(4x8)", catalog::counter_locked(4, 8).program),
        ("barrier(4)", catalog::barrier(4).program),
        ("producer-consumer", catalog::producer_consumer().program),
        (
            "gen-locked(4)",
            generate::locked(&generate::GenConfig {
                procs: 4,
                sections_per_proc: 10,
                ops_per_section: 8,
                ..Default::default()
            }),
        ),
        (
            "gen-overlap(4)",
            generate::overlap(&generate::GenConfig {
                procs: 4,
                sections_per_proc: 6,
                ops_per_section: 12,
                ..Default::default()
            }),
        ),
    ];
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}  (simulated cycles)",
        "workload", "SC", "WO", "RCsc", "DRF0", "DRF1"
    );
    for (name, program) in &workloads {
        let cycles: Vec<u64> = MemoryModel::ALL.iter().map(|&m| model_cycles(program, m)).collect();
        for (model, &c) in MemoryModel::ALL.iter().zip(&cycles) {
            h.metrics
                .set_gauge(&format!("e10.{}.{}.cycles", slug(name), slug(&model.to_string())), c);
        }
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}   speedup WO {:.2}x RCsc {:.2}x",
            name,
            cycles[0],
            cycles[1],
            cycles[2],
            cycles[3],
            cycles[4],
            cycles[0] as f64 / cycles[1] as f64,
            cycles[0] as f64 / cycles[2] as f64,
        );
        h.check(cycles[1] <= cycles[0], format!("E10: {name}: WO must not exceed SC"));
        h.check(cycles[2] <= cycles[1], format!("E10: {name}: RCsc must not exceed WO"));
        if *name == "gen-overlap(4)" {
            h.check(
                cycles[2] < cycles[1],
                format!(
                    "E10: {name}: RCsc must strictly beat WO when writes are pending at acquires"
                ),
            );
        }
    }
    println!("paper: delaying completion actions to sync points buys performance; RCsc");
    println!("       exploits acquire/release to delay further than WO (visible on the");
    println!("       overlap workload, where writes are pending when a lock is acquired)");
    println!("measured: SC >= WO = DRF0 >= RCsc = DRF1 in simulated cycles, as expected");
}

/// E11 — exhaustive weak-execution verification: enumerate EVERY
/// schedule (steps and buffer drains) of small programs on the
/// store-buffer machine and check Condition 3.4 on each execution.
fn e11_exhaustive_weak_check(h: &mut Harness) {
    header("E11", "exhaustive weak-execution check of Condition 3.4");
    let cfg = EnumConfig { max_executions: 200_000, max_steps_per_path: 300, spin_unroll_limit: 1 };
    println!(
        "{:<22} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "program", "model", "weak-exec", "full", "racefree", "sc-ok", "42-ok"
    );
    for entry in [catalog::fig1a(), catalog::producer_consumer(), catalog::producer_consumer_racy()]
    {
        let sc = enumerate_sc(&entry.program, &EnumConfig::default()).expect("enumerable");
        let sc_sigs: BTreeSet<RaceKey> =
            sc_race_signatures(&sc.executions, PairingPolicy::ByRole).expect("analyzable");
        for model in [MemoryModel::Wo, MemoryModel::RCsc] {
            let weak = enumerate_weak(&entry.program, model, Fidelity::Conditioned, &cfg)
                .expect("enumerable");
            let mut race_free = 0;
            let mut sc_ok = 0;
            let mut t42_ok = 0;
            for exec in &weak.executions {
                let report = PostMortem::new(&exec.events).analyze().expect("analyzable");
                if report.is_race_free() {
                    race_free += 1;
                    if is_sequentially_consistent(&exec.ops, &entry.program.initial_memory()) {
                        sc_ok += 1;
                    }
                } else {
                    let all_first_confirmed = report.first_partitions().all(|part| {
                        let races: Vec<_> =
                            part.races.iter().map(|&i| report.races[i].clone()).collect();
                        event_race_keys(&races, &exec.events).iter().any(|s| sc_sigs.contains(s))
                    });
                    if all_first_confirmed {
                        t42_ok += 1;
                    }
                }
            }
            println!(
                "{:<22} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}",
                entry.name,
                model.to_string(),
                weak.executions.len(),
                // "full" = the whole schedule space was covered; spin
                // loops are cut after one redundant revisit, so programs
                // with spins report partial-but-representative coverage.
                if weak.complete { "yes" } else { "spin-cut" },
                race_free,
                sc_ok,
                t42_ok
            );
            h.check(
                race_free == sc_ok,
                format!("E11: {}: every race-free execution must be SC", entry.name),
            );
            h.check(
                weak.executions.len() - race_free == t42_ok,
                format!(
                    "E11: {}: every racy execution's first partitions must contain SC races",
                    entry.name
                ),
            );
        }
    }
    println!("unlike E7's sampling, this sweep covers every schedule (steps x drains) of");
    println!("the store-buffer machine, modulo cutting spin loops after one redundant");
    println!("behavioral revisit - Condition 3.4 held on every enumerated execution");
}

/// A1 — ablation: first-partition filtering on vs off.
fn a1_first_partition_filter(_h: &mut Harness) {
    header("A1", "ablation - reporting first partitions vs all races");
    println!("{:<22} {:>10} {:>12} {:>10}", "workload", "all-races", "first-parts", "reported");
    let mut rows: Vec<(String, RaceReport)> = Vec::new();
    rows.push(("fig2b (weak)".into(), analyze(&fig2_weak_run().events)));
    for rounds in [2usize, 4, 8] {
        let cfg = generate::GenConfig { procs: 3, ..generate::GenConfig::default().with_seed(1) };
        let program = generate::phased(&cfg, rounds);
        let run = sc_run(&program, 2);
        rows.push((format!("phased(r={rounds})"), analyze(&run.events)));
    }
    for (name, report) in &rows {
        println!(
            "{:<22} {:>10} {:>12} {:>10}",
            name,
            report.data_races().count(),
            report.partitions.first_indices().len(),
            report.reported_races().len()
        );
    }
    println!("without the filter a debugger drowns the user in downstream/artifact races;");
    println!("with it, only races guaranteed to include SC races are shown (Theorem 4.2)");
}

/// A2 — ablation: Condition-3.4-honouring hardware vs raw weak hardware,
/// on both implementation styles.
fn a2_raw_hardware(h: &mut Harness) {
    header("A2", "ablation - conditioned vs raw weak hardware");
    let entry = catalog::ping_pong();
    for hw in [HwImpl::StoreBuffer, HwImpl::InvalQueue] {
        let mut violations = 0;
        let mut runs = 0;
        for seed in 0..60 {
            let outcomes = check_condition_3_4_hw(
                hw,
                &entry.program,
                MemoryModel::Wo,
                Fidelity::Raw,
                [seed],
                &BTreeSet::new(),
                PairingPolicy::ByRole,
            )
            .expect("checkable");
            if outcomes[0].race_free {
                runs += 1;
                if outcomes[0].part1_sc == Some(false) {
                    violations += 1;
                }
            }
        }
        println!(
            "{hw}: {runs} race-free raw-WO executions of {}, {} NOT sequentially consistent",
            entry.name, violations
        );
        h.check(violations > 0, format!("A2: {hw}: raw hardware must exhibit the problem"));
    }
    println!("on raw hardware the detector can truthfully report 'no races' for an");
    println!("execution that was never sequentially consistent - exactly the failure");
    println!("Condition 3.4(1) exists to rule out. The conditioned machines never do this (E7).");
}

/// A3 — ablation: event-level vs operation-level tracing cost.
fn a3_trace_granularity(h: &mut Harness) {
    header("A3", "ablation - event bit-vector tracing vs per-operation tracing");
    println!(
        "{:<14} {:>8} {:>9} {:>12} {:>12} {:>7}",
        "ops/section", "ops", "events", "op-bytes", "ev-bytes", "ratio"
    );
    let mut ratios = Vec::new();
    for ops_per_section in [4usize, 16, 64, 256] {
        let cfg = generate::GenConfig {
            procs: 4,
            sections_per_proc: 8,
            ops_per_section,
            ..Default::default()
        };
        let program = generate::sectioned(&cfg);
        let run = sc_run(&program, 1);
        let op_bytes = run.ops.encoded_size();
        let ev_bytes = run.events.to_binary().len();
        let ratio = op_bytes as f64 / ev_bytes as f64;
        ratios.push(ratio);
        println!(
            "{:<14} {:>8} {:>9} {:>12} {:>12} {:>7.2}",
            ops_per_section,
            run.ops.num_ops(),
            run.events.num_events(),
            op_bytes,
            ev_bytes,
            ratio
        );
    }
    h.check(
        ratios.windows(2).all(|w| w[0] < w[1]),
        "A3: folding more operations per event must widen the gap",
    );
    h.check(
        *ratios.last().unwrap() > 1.0,
        "A3: long computation events must beat per-operation tracing",
    );
    println!("the paper's Section 4.1 rationale: recording READ/WRITE bit-vectors per");
    println!("computation event 'avoids writing a trace record for every memory operation';");
    println!("the ratio grows with the number of data operations folded into each event");
}
