//! Cross-validation of the two analysis granularities.
//!
//! Section 4.1 lifts the operation-level race definition to events and
//! argues nothing is lost: an event-level race stands for one or more
//! operation-level races and vice versa. Because coarsening can only
//! *add* ordering between whole events when their constituent operations
//! are already ordered, the two analyses must agree exactly on which
//! (processor, location, access-kind) race signatures an execution
//! exhibits. The operation level is the same pipeline over the unfolded
//! trace (one event per operation, `OpTrace::to_event_trace`). These
//! tests enforce that equivalence on the catalog and on random programs.

use wmrd_core::{detect_races, event_race_keys, HbGraph, PairingPolicy, PostMortem};
use wmrd_progs::{catalog, generate};
use wmrd_sim::{run_sc, run_weak_hw, Fidelity, HwImpl, MemoryModel, RandomWeakSched, RunConfig};
use wmrd_trace::{MultiSink, OpRecorder, OpTrace, TraceBuilder, TraceSet};

fn traced_sc(program: &wmrd_sim::Program, seed: u64) -> (TraceSet, OpTrace) {
    let mut sink = MultiSink::new(
        TraceBuilder::new(program.num_procs()),
        OpRecorder::new(program.num_procs()),
    );
    run_sc(program, &mut RandomWeakSched::new(seed, 0.0), &mut sink, RunConfig::uniform()).unwrap();
    let (b, r) = sink.into_inner();
    (b.finish(), r.finish())
}

fn traced_weak(program: &wmrd_sim::Program, model: MemoryModel, seed: u64) -> (TraceSet, OpTrace) {
    let mut sink = MultiSink::new(
        TraceBuilder::new(program.num_procs()),
        OpRecorder::new(program.num_procs()),
    );
    let mut sched = RandomWeakSched::new(seed, 0.3);
    run_weak_hw(
        HwImpl::StoreBuffer,
        program,
        model,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::uniform(),
    )
    .unwrap();
    let (b, r) = sink.into_inner();
    (b.finish(), r.finish())
}

fn signatures_agree(events: &TraceSet, ops: &OpTrace, context: &str) {
    let unfolded = ops.to_event_trace();
    for policy in [PairingPolicy::ByRole, PairingPolicy::AllSync] {
        let report = PostMortem::new(events).pairing(policy).analyze().unwrap();
        let esigs = event_race_keys(&report.races, events);
        let hb = HbGraph::build(&unfolded, policy).unwrap();
        let osigs = event_race_keys(&detect_races(&unfolded, &hb), &unfolded);
        assert_eq!(
            esigs, osigs,
            "{context} ({policy}): event-level and operation-level race signatures differ"
        );
    }
}

#[test]
fn granularities_agree_on_catalog_sc_executions() {
    for entry in catalog::all() {
        for seed in 0..5 {
            let (events, ops) = traced_sc(&entry.program, seed);
            signatures_agree(&events, &ops, &format!("{} seed {seed}", entry.name));
        }
    }
}

#[test]
fn granularities_agree_on_catalog_weak_executions() {
    for entry in catalog::all() {
        for model in [MemoryModel::Wo, MemoryModel::RCsc] {
            for seed in 0..3 {
                let (events, ops) = traced_weak(&entry.program, model, seed);
                signatures_agree(&events, &ops, &format!("{} {model} seed {seed}", entry.name));
            }
        }
    }
}

#[test]
fn granularities_agree_on_random_programs() {
    for seed in 0..15 {
        let cfg = generate::GenConfig {
            procs: 3,
            shared_locations: 6,
            sections_per_proc: 4,
            ops_per_section: 5,
            rogue_fraction: 0.5,
            seed,
        };
        let program = generate::racy(&cfg);
        let (events, ops) = traced_sc(&program, seed);
        signatures_agree(&events, &ops, &format!("gen-racy seed {seed}"));
    }
}

#[test]
fn event_analysis_never_invents_or_loses_racy_verdicts() {
    // The boolean verdict (any data race at all) must agree even when the
    // signature sets are built differently.
    for seed in 0..20 {
        let cfg = generate::GenConfig {
            rogue_fraction: seed as f64 / 20.0,
            ..generate::GenConfig::default().with_seed(seed)
        };
        let program = generate::racy(&cfg);
        let (events, ops) = traced_sc(&program, 3);
        let report = PostMortem::new(&events).analyze().unwrap();
        let per_op = PostMortem::new(&ops.to_event_trace()).analyze().unwrap();
        assert_eq!(report.is_race_free(), per_op.is_race_free(), "seed {seed}: verdicts diverge");
    }
}

#[test]
fn on_the_fly_matches_postmortem_verdict_with_unbounded_history() {
    use wmrd_core::{OnTheFly, OnTheFlyConfig};
    for seed in 0..10 {
        let cfg = generate::GenConfig {
            rogue_fraction: 0.5,
            ..generate::GenConfig::default().with_seed(seed)
        };
        let program = generate::racy(&cfg);
        let (events, ops) = traced_sc(&program, seed);
        let report = PostMortem::new(&events).analyze().unwrap();

        let mut detector = OnTheFly::new(program.num_procs(), OnTheFlyConfig::default());
        // Replay in the recorded issue order — what the detector would
        // have observed live.
        ops.replay(&mut detector);
        let otf_races = detector.finish();
        // The on-the-fly detector's location-clock pairing is coarser
        // than exact so1 pairing, so it may *miss* races the post-mortem
        // finds, but a race-free post-mortem verdict means the on-the-fly
        // detector must also find nothing... the reverse containment: if
        // on-the-fly reports a race, the execution really races.
        if report.is_race_free() {
            assert!(
                otf_races.is_empty(),
                "seed {seed}: on-the-fly reported races on a race-free execution"
            );
        }
    }
}
