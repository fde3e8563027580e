//! End-to-end observability guarantees (see OBSERVABILITY.md):
//!
//! * the deterministic view of a run's metrics (context + counters +
//!   gauges) is **byte-identical** across repeated runs of the same
//!   program, model and seed;
//! * disabled handles record nothing anywhere in the stack.

use wmrd_core::PostMortem;
use wmrd_progs::catalog;
use wmrd_sim::{run_weak_hw, Fidelity, HwImpl, MemoryModel, RandomWeakSched, RunConfig, SimStats};
use wmrd_trace::{Metrics, RunMetrics, TraceBuilder, TraceSet};

/// One fully-metered run: simulate `program` on `model` with `seed`,
/// record the sim counters and the metered analysis, return the report.
fn metered_run(name: &str, model: MemoryModel, seed: u64) -> RunMetrics {
    let entry = catalog::all().into_iter().find(|e| e.name == name).expect("catalog entry");
    let metrics = Metrics::enabled();
    metrics.context("program", name);
    metrics.context("model", model);
    metrics.context("seed", seed);
    let mut sink = TraceBuilder::new(entry.program.num_procs());
    let mut sched = RandomWeakSched::new(seed, 0.3);
    let outcome = run_weak_hw(
        HwImpl::StoreBuffer,
        &entry.program,
        model,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::default(),
    )
    .expect("runs");
    outcome.stats.record_into(&metrics);
    metrics.set_gauge("sim.steps", outcome.steps);
    metrics.set_gauge("sim.cycles", outcome.total_cycles());
    let trace = sink.finish();
    PostMortem::new(&trace).metrics(&metrics).analyze().expect("analyzes");
    metrics.report()
}

fn weak_trace(name: &str, model: MemoryModel, seed: u64) -> TraceSet {
    let entry = catalog::all().into_iter().find(|e| e.name == name).expect("catalog entry");
    let mut sink = TraceBuilder::new(entry.program.num_procs());
    let mut sched = RandomWeakSched::new(seed, 0.3);
    run_weak_hw(
        HwImpl::StoreBuffer,
        &entry.program,
        model,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::default(),
    )
    .expect("runs");
    sink.finish()
}

/// Same program + model + seed ⇒ byte-identical deterministic view
/// (counters, gauges, context — everything except wall-clock phases).
#[test]
fn deterministic_view_is_byte_identical_across_reruns() {
    for (name, model) in [
        ("work-queue-buggy", MemoryModel::Wo),
        ("fig1a", MemoryModel::RCsc),
        ("producer-consumer", MemoryModel::Wo),
    ] {
        for seed in [0u64, 7, 42] {
            let a = metered_run(name, model, seed);
            let b = metered_run(name, model, seed);
            // Wall-clock phases differ between runs...
            assert!(!a.phases_ns.is_empty());
            // ...but the deterministic views serialize identically.
            let ja = a.deterministic_view().to_json();
            let jb = b.deterministic_view().to_json();
            assert_eq!(ja, jb, "{name} on {model} seed {seed}");
        }
    }
}

/// Different seeds produce (at least sometimes) different counters —
/// the determinism above is not vacuous.
#[test]
fn counters_actually_depend_on_the_schedule() {
    let views: Vec<String> = (0..8)
        .map(|seed| {
            metered_run("work-queue-buggy", MemoryModel::Wo, seed).deterministic_view().to_json()
        })
        .collect();
    assert!(
        views.iter().any(|v| v != &views[0]),
        "8 seeds produced identical metrics; counters look schedule-independent"
    );
}

/// Sim counters are consistent across the two weak machine styles'
/// shared vocabulary: every recorded key is namespaced `layer.metric`.
#[test]
fn all_keys_are_namespaced_and_schema_versioned() {
    let report = metered_run("fig1a", MemoryModel::Wo, 1);
    assert_eq!(report.schema_version, RunMetrics::SCHEMA_VERSION);
    for key in report.counters.keys().chain(report.gauges.keys()).chain(report.phases_ns.keys()) {
        assert!(key.contains('.'), "key `{key}` is not namespaced as layer.metric");
    }
    let json = report.to_json();
    for key in report.counters.keys().chain(report.gauges.keys()) {
        assert!(json.contains(&format!("\"{key}\": ")), "`{key}` missing from:\n{json}");
    }
}

/// A disabled handle threaded through every instrumented layer records
/// nothing and changes no results.
#[test]
fn disabled_handles_are_inert_across_the_stack() {
    let off = Metrics::disabled();
    let trace = weak_trace("fig1a", MemoryModel::Wo, 5);
    SimStats::default().record_into(&off);
    let metered = PostMortem::new(&trace).metrics(&off).analyze().unwrap();
    let plain = PostMortem::new(&trace).analyze().unwrap();
    assert_eq!(metered, plain);
    assert!(off.report().is_empty());
}
