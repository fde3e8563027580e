//! Cross-crate contracts of the exploration engine: seeded-scheduler
//! reproducibility, worker-count independence, the cross-execution
//! yield over the catalog, and the repro loop.

use std::collections::BTreeSet;

use wmrd_cli::run_cli;
use wmrd_core::{event_race_keys, PairingPolicy, PostMortem, RaceKey};
use wmrd_explore::{replay, run_campaign, CampaignSpec, ExecSpec};
use wmrd_predict::PredictOrder;
use wmrd_progs::catalog;
use wmrd_sim::{
    run_sc, run_weak_hw, Fidelity, HwImpl, MemoryModel, Program, RandomWeakSched, RunConfig,
};
use wmrd_trace::{Metrics, TraceBuilder, TraceSet};

fn sc_trace(program: &Program, seed: u64) -> TraceSet {
    let mut sink = TraceBuilder::new(program.num_procs());
    run_sc(program, &mut RandomWeakSched::new(seed, 0.0), &mut sink, RunConfig::default()).unwrap();
    sink.finish()
}

fn weak_trace(program: &Program, hw: HwImpl, seed: u64) -> TraceSet {
    let mut sched = RandomWeakSched::new(seed, 0.3);
    let mut sink = TraceBuilder::new(program.num_procs());
    run_weak_hw(
        hw,
        program,
        MemoryModel::Wo,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::default(),
    )
    .unwrap();
    sink.finish()
}

/// The races one single default-configuration run reaches: exactly what
/// `wmrd run <prog> --model wo` analyzes (seed 0, store buffers, drain
/// probability 0.3).
fn single_default_run_keys(program: &Program) -> BTreeSet<RaceKey> {
    let trace = weak_trace(program, HwImpl::StoreBuffer, 0);
    let report = PostMortem::new(&trace).analyze().unwrap();
    event_race_keys(&report.races, &trace)
}

/// Every seeded scheduler must replay byte-identically: same seed, same
/// trace, down to the binary encoding.
#[test]
fn seeded_schedulers_replay_byte_identically() {
    let program = catalog::work_queue_buggy().program;
    for seed in [0u64, 1, 17, 4096] {
        let a = sc_trace(&program, seed);
        let b = sc_trace(&program, seed);
        assert_eq!(a, b, "SC seed {seed}");
        assert_eq!(a.to_binary(), b.to_binary(), "SC seed {seed}: bytes");
        for hw in HwImpl::ALL {
            let a = weak_trace(&program, hw, seed);
            let b = weak_trace(&program, hw, seed);
            assert_eq!(a, b, "RandomWeakSched seed {seed} on {hw}");
            assert_eq!(a.to_binary(), b.to_binary(), "RandomWeakSched seed {seed} on {hw}: bytes");
        }
    }
    // Different seeds must actually diversify schedules somewhere.
    let traces: BTreeSet<Vec<u8>> =
        (0..16).map(|seed| weak_trace(&program, HwImpl::StoreBuffer, seed).to_binary()).collect();
    assert!(traces.len() > 1, "16 seeds produced one schedule — the seeding is broken");
}

/// Campaign reports are a function of (program, spec) alone: any worker
/// count produces the same report, so findings can be quoted from a
/// parallel hunt and re-checked serially.
#[test]
fn campaign_report_is_independent_of_worker_count() {
    let program = catalog::work_queue_buggy().program;
    let spec = CampaignSpec::new(0, 24)
        .with_hws(HwImpl::ALL.to_vec())
        .with_models(vec![MemoryModel::Wo, MemoryModel::RCsc]);
    let serial = run_campaign(&program, &spec, 1, &Metrics::disabled()).unwrap();
    for jobs in [2, 4, 8] {
        let parallel = run_campaign(&program, &spec, jobs, &Metrics::disabled()).unwrap();
        assert_eq!(serial, parallel, "jobs=1 vs jobs={jobs}");
    }
}

/// The tentpole claim: across the racy half of the catalog, a seed
/// sweep finds race identities that the single default-seed `run`
/// misses — and never loses one it found.
#[test]
fn campaign_extends_single_seed_coverage_over_the_catalog() {
    let mut extended = Vec::new();
    for entry in catalog::all().into_iter().filter(|e| e.racy) {
        let baseline = single_default_run_keys(&entry.program);
        // The exact fast path makes the per-seed analysis exhaustive, so
        // superset is a hard guarantee (seed 0 is one of the campaign's
        // points).
        let spec = CampaignSpec::new(0, 96);
        let report = run_campaign(&entry.program, &spec, 4, &Metrics::disabled()).unwrap();
        let campaign: BTreeSet<RaceKey> = report.keys().copied().collect();
        assert!(!campaign.is_empty(), "{}: campaign found no races in a racy program", entry.name);
        assert!(
            campaign.is_superset(&baseline),
            "{}: campaign lost races the single run found",
            entry.name
        );
        if campaign.len() > baseline.len() {
            extended.push(entry.name);
        }
    }
    assert!(
        !extended.is_empty(),
        "no catalog program had a race reachable only beyond the default seed"
    );
}

/// Every campaign finding must reproduce: feeding its first-reaching
/// coordinates back through `replay` reaches the same race identity.
#[test]
fn findings_reproduce_from_their_first_reaching_seed() {
    for entry in [catalog::work_queue_buggy(), catalog::fig1a(), catalog::peterson_racy()] {
        let spec = CampaignSpec::new(0, 32).with_hws(vec![HwImpl::StoreBuffer, HwImpl::InvalQueue]);
        let report = run_campaign(&entry.program, &spec, 4, &Metrics::disabled()).unwrap();
        assert!(!report.is_race_free(), "{} is racy", entry.name);
        for finding in &report.races {
            let replayed =
                replay(&entry.program, &finding.first, spec.config, spec.pairing).unwrap();
            assert!(
                replayed.keys.contains(&finding.key),
                "{}: seed {} on {} does not reproduce {:?}",
                entry.name,
                finding.first.seed,
                finding.first.hw,
                finding.key
            );
        }
    }
}

/// Race-free catalog programs stay race-free under the sweep, on both
/// hardware styles: exploration must not invent races.
#[test]
fn race_free_catalog_programs_survive_the_sweep() {
    for entry in [catalog::producer_consumer(), catalog::fig1b()] {
        let spec = CampaignSpec::new(0, 24).with_hws(vec![HwImpl::StoreBuffer, HwImpl::InvalQueue]);
        let report = run_campaign(&entry.program, &spec, 4, &Metrics::disabled()).unwrap();
        assert!(
            report.is_race_free(),
            "{}: exploration reported races in a DRF program: {:?}",
            entry.name,
            report.races
        );
    }
}

/// The default pairing the engine analyzes with matches what the
/// single-run pipeline uses, so coverage comparisons are apples to
/// apples.
#[test]
fn campaign_defaults_match_the_single_run_pipeline() {
    let spec = CampaignSpec::new(0, 4);
    assert_eq!(spec.hws, vec![HwImpl::StoreBuffer]);
    assert_eq!(spec.models, vec![MemoryModel::Wo]);
    assert_eq!(spec.drain_probs, vec![0.3]);
    assert_eq!(spec.pairing, PairingPolicy::ByRole);
    assert_eq!(spec.fidelity, Fidelity::Conditioned);
}

/// `explore --predict` analyses the trace its campaign's point 0
/// records: the one `replay` (and so `--repro`) re-executes on the
/// campaign's own machine. Under `--model sc --hw inval-queue`, point 0
/// of lazy-publish-racy at seed 7 only predicts its race, and the
/// command's report and metrics must be exactly those of that trace.
#[test]
fn explore_predict_analyses_the_campaign_point_zero_trace() {
    let entry = catalog::all().into_iter().find(|e| e.name == "lazy-publish-racy").unwrap();
    let exec = ExecSpec {
        hw: HwImpl::InvalQueue,
        model: MemoryModel::Sc,
        fidelity: Fidelity::Conditioned,
        drain_prob: 0.3,
        seed: 7,
    };
    let point0 =
        replay(&entry.program, &exec, RunConfig::default(), PairingPolicy::ByRole).unwrap().trace;
    let metrics = Metrics::enabled();
    let expected = wmrd_predict::predict_with_metrics(
        &point0,
        entry.name,
        PairingPolicy::ByRole,
        PredictOrder::Wcp,
        &metrics,
    )
    .unwrap();
    assert_eq!(expected.predicted_only().count(), 1, "{}", expected.render());

    let path = std::env::temp_dir()
        .join(format!("wmrd-explore-predict-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let args: Vec<String> = [
        "explore",
        entry.name,
        "--model",
        "sc",
        "--hw",
        "inval-queue",
        "--seeds",
        "7..8",
        "--jobs",
        "1",
        "--predict",
        "--metrics",
        &path,
    ]
    .map(str::to_string)
    .to_vec();
    let out = run_cli(&args).unwrap();
    assert!(out.contains("predicted race m[4] P0:Write × P1:Read"), "{out}");
    let explored = std::fs::read_to_string(&path).unwrap();
    let report = metrics.report();
    for (key, value) in report.counters.iter().chain(&report.gauges) {
        let line = format!("\"{key}\": {value}");
        assert!(explored.contains(&line), "explore --predict lacks {line}:\n{explored}");
    }
    std::fs::remove_file(&path).ok();
}
