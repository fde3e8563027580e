//! End-to-end validation of Condition 3.4 / Theorems 3.5, 4.1, 4.2 over
//! the whole catalog, all four weak models, and random programs
//! (experiments E5–E7 in asserted form).

use std::collections::BTreeSet;

use wmrd_core::{PairingPolicy, PostMortem, RaceKey};
use wmrd_progs::{catalog, generate};
use wmrd_sim::{Fidelity, HwImpl, MemoryModel, RunConfig};
use wmrd_verify::theorems::{check_condition_3_4_hw, check_theorem_4_1, check_theorem_4_2};
use wmrd_verify::{
    enumerate_sc, is_sequentially_consistent, sample_sc, theorems::sc_race_signatures, EnumConfig,
};

fn sampled_sigs(program: &wmrd_sim::Program) -> BTreeSet<RaceKey> {
    let samples = sample_sc(program, 0..60, RunConfig::uniform()).unwrap();
    sc_race_signatures(&samples, PairingPolicy::ByRole).unwrap()
}

/// Condition 3.4 holds for every catalog program on every conditioned
/// weak model and on *both* weak-hardware implementation styles (store
/// buffers and invalidation queues): race-free executions are SC, racy
/// executions' first partitions contain SC races, and the race-free
/// prefix always linearizes.
#[test]
fn condition_3_4_holds_across_catalog_and_models() {
    for entry in catalog::all() {
        let sigs = if entry.racy { sampled_sigs(&entry.program) } else { BTreeSet::new() };
        for hw in HwImpl::ALL {
            for model in MemoryModel::WEAK {
                let outcomes = check_condition_3_4_hw(
                    hw,
                    &entry.program,
                    model,
                    Fidelity::Conditioned,
                    0..3,
                    &sigs,
                    PairingPolicy::ByRole,
                )
                .unwrap();
                for o in &outcomes {
                    assert!(
                        o.holds(),
                        "{} on {model}/{hw} seed {}: Condition 3.4 violated: {o:?}",
                        entry.name,
                        o.seed
                    );
                    if !entry.racy {
                        assert!(
                            o.race_free,
                            "{} on {model}/{hw} seed {}: DRF program reported racy",
                            entry.name, o.seed
                        );
                    }
                }
            }
        }
    }
}

/// Race-free *programs* (per ground truth) never exhibit races on any
/// conditioned weak model, and their weak executions are always
/// explainable by SC — Theorem 3.5's practical content.
#[test]
fn drf_programs_appear_sequentially_consistent_on_weak_hardware() {
    for entry in catalog::all().into_iter().filter(|e| !e.racy) {
        for model in MemoryModel::WEAK {
            for seed in 0..4 {
                let mut sink = wmrd_trace::MultiSink::new(
                    wmrd_trace::TraceBuilder::new(entry.program.num_procs()),
                    wmrd_trace::OpRecorder::new(entry.program.num_procs()),
                );
                let mut sched = wmrd_sim::RandomWeakSched::new(seed, 0.3);
                wmrd_sim::run_weak(
                    &entry.program,
                    model,
                    Fidelity::Conditioned,
                    &mut sched,
                    &mut sink,
                    RunConfig::uniform(),
                )
                .unwrap();
                let (builder, recorder) = sink.into_inner();
                let report = PostMortem::new(&builder.finish()).analyze().unwrap();
                assert!(report.is_race_free(), "{} {model} seed {seed}", entry.name);
                assert!(
                    is_sequentially_consistent(&recorder.finish(), &entry.program.initial_memory()),
                    "{} {model} seed {seed}: weak execution not SC-explainable",
                    entry.name
                );
            }
        }
    }
}

/// The raw (Condition-3.4-violating) machines produce executions that
/// are race-free yet *not* sequentially consistent — the failure mode
/// the condition exists to exclude — on BOTH implementation styles.
/// (Ablation A2 in asserted form.)
#[test]
fn raw_hardware_breaks_the_guarantee() {
    // Store buffers go wrong on the writer side (the second data write
    // still buffered when its flag is observed); invalidation queues on
    // the reader side (a cached copy from round one never invalidated);
    // the raw pipeline on both, plus speculated synchronization. The
    // ping-pong workload exposes all three.
    for hw in HwImpl::ALL {
        let entry = catalog::ping_pong();
        let mut violation = false;
        for seed in 0..80 {
            let outcomes = check_condition_3_4_hw(
                hw,
                &entry.program,
                MemoryModel::Wo,
                Fidelity::Raw,
                [seed],
                &BTreeSet::new(),
                PairingPolicy::ByRole,
            )
            .unwrap();
            if outcomes[0].race_free && outcomes[0].part1_sc == Some(false) {
                violation = true;
                break;
            }
        }
        assert!(violation, "{hw}: expected a race-free-but-non-SC execution on raw hardware");
    }
}

/// Theorem 4.1 over random programs, weak models, and pairing policies.
#[test]
fn theorem_4_1_over_random_programs() {
    for seed in 0..12 {
        let cfg = generate::GenConfig::default().with_seed(seed);
        for program in [generate::locked(&cfg), generate::racy(&cfg)] {
            for model in [MemoryModel::Wo, MemoryModel::Drf1] {
                let mut sink = wmrd_trace::TraceBuilder::new(program.num_procs());
                let mut sched = wmrd_sim::RandomWeakSched::new(seed, 0.3);
                wmrd_sim::run_weak(
                    &program,
                    model,
                    Fidelity::Conditioned,
                    &mut sched,
                    &mut sink,
                    RunConfig::uniform(),
                )
                .unwrap();
                let trace = sink.finish();
                for policy in [PairingPolicy::ByRole, PairingPolicy::AllSync] {
                    let report = PostMortem::new(&trace).pairing(policy).analyze().unwrap();
                    assert!(check_theorem_4_1(&report), "seed {seed} {model} {policy}");
                }
            }
        }
    }
}

/// Theorem 4.2 with the exhaustive oracle on small enumerable programs.
#[test]
fn theorem_4_2_with_exhaustive_oracle() {
    for entry in [catalog::fig1a(), catalog::producer_consumer_racy(), catalog::counter_racy(2, 1)]
    {
        let result = enumerate_sc(&entry.program, &EnumConfig::default()).unwrap();
        let sigs = sc_race_signatures(&result.executions, PairingPolicy::ByRole).unwrap();
        assert!(!sigs.is_empty(), "{}: racy program must have SC races", entry.name);
        for model in MemoryModel::WEAK {
            for seed in 0..4 {
                let mut sink = wmrd_trace::TraceBuilder::new(entry.program.num_procs());
                let mut sched = wmrd_sim::RandomWeakSched::new(seed, 0.3);
                wmrd_sim::run_weak(
                    &entry.program,
                    model,
                    Fidelity::Conditioned,
                    &mut sched,
                    &mut sink,
                    RunConfig::uniform(),
                )
                .unwrap();
                let trace = sink.finish();
                let report = PostMortem::new(&trace).analyze().unwrap();
                let outcome = check_theorem_4_2(&trace, &report, &sigs);
                assert!(outcome.holds(), "{} {model} seed {seed}: {outcome:?}", entry.name);
            }
        }
    }
}

/// The DRF0-style pairing policy (AllSync) can only order *more* —
/// switching to it never introduces new data races.
#[test]
fn all_sync_pairing_is_monotone() {
    for seed in 0..10 {
        let cfg = generate::GenConfig {
            rogue_fraction: 0.5,
            ..generate::GenConfig::default().with_seed(seed)
        };
        let program = generate::racy(&cfg);
        let mut sink = wmrd_trace::TraceBuilder::new(program.num_procs());
        wmrd_sim::run_sc(
            &program,
            &mut wmrd_sim::RandomSched::new(seed),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        let trace = sink.finish();
        let by_role = PostMortem::new(&trace).pairing(PairingPolicy::ByRole).analyze().unwrap();
        let all_sync = PostMortem::new(&trace).pairing(PairingPolicy::AllSync).analyze().unwrap();
        assert!(
            all_sync.data_races().count() <= by_role.data_races().count(),
            "seed {seed}: AllSync produced more races than ByRole"
        );
    }
}
