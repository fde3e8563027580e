//! Cross-crate contracts of the predictive race engine: golden SHB and
//! WCP reports over committed traces of the whole program catalog, the
//! SHB ≡ hb1 baseline identity, the WCP ⊆ hb1 containment that lets one
//! conflict sweep serve both orders, and the soundness gate — every
//! predicted race identity must be reached by a real 64-seed explore
//! campaign of the same program, and the weakening must add detection
//! power (predicted-only yield) on several entries without a single
//! false prediction on the race-free ones.
//!
//! Each catalog entry has a committed single-execution trace in
//! `tests/data/predict/<entry>.bin` (binary `WMRD` format, recorded
//! under WO at a fixed seed) and two golden report files,
//! `<entry>.shb.txt` / `<entry>.wcp.txt`, holding the exact
//! `PredictReport::render()` text. The analysis is pure and
//! deterministic, so the files are stable across platforms.
//! The same traces also pin the post-mortem engine: `<entry>.postmortem.json`
//! holds the pretty JSON of `PostMortem::analyze()` — every race, the
//! partitions with their G′ component ids, order and first set, and the
//! SCP — so a rewrite of the hb1 or G′ machinery must reproduce them
//! byte for byte.
//! Regenerate the *reports* after an intentional engine change with:
//!
//! ```text
//! WMRD_REGOLD=1 cargo test -p wmrd-xtests --test predict
//! ```
//!
//! The traces themselves are fixtures, not regenerated: the three
//! `lock-courier` entries were recorded at seeds where the lock handoff
//! hides the race from hb1, which is exactly the situation the WCP
//! goldens pin.

use std::collections::BTreeSet;
use std::path::PathBuf;

use wmrd_cli::{run_cli, CliError};
use wmrd_core::{event_race_keys, PairingPolicy, PostMortem, RaceKey};
use wmrd_explore::{run_campaign, CampaignSpec};
use wmrd_predict::{predict, PredictGraph, PredictOrder};
use wmrd_progs::catalog;
use wmrd_trace::{Metrics, ToJson, TraceSet};

fn data_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/predict"))
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// Loads the committed execution trace of a catalog entry, checking it
/// re-encodes to exactly its committed bytes.
fn committed_trace(name: &str) -> TraceSet {
    let path = data_dir().join(format!("{name}.bin"));
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing committed trace {} ({e})", path.display()));
    let trace = TraceSet::from_binary(&bytes).expect("committed traces decode");
    assert!(trace.to_binary() == bytes, "{} does not re-encode to itself", path.display());
    trace
}

/// Compares `rendered` with the golden file `name` (or rewrites it
/// under `WMRD_REGOLD`), collecting a readable diff on mismatch.
fn check_golden(name: &str, rendered: &str, mismatches: &mut Vec<String>) {
    let path = data_dir().join(name);
    if std::env::var("WMRD_REGOLD").is_ok() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with WMRD_REGOLD=1"));
    if rendered != expected {
        mismatches.push(format!("== {name}\n-- expected:\n{expected}\n-- got:\n{rendered}"));
    }
}

/// Every catalog entry's rendered predictive report — under both
/// orders — matches its checked-in golden file: stats, kept/dropped
/// edge counts, the full key set with provenance marks, and the
/// verdict are all pinned byte-for-byte.
#[test]
fn catalog_reports_match_goldens() {
    let mut mismatches = Vec::new();
    for entry in catalog::all() {
        let trace = committed_trace(entry.name);
        for order in [PredictOrder::Shb, PredictOrder::Wcp] {
            let report = predict(&trace, entry.name, PairingPolicy::ByRole, order).unwrap();
            check_golden(&format!("{}.{order}.txt", entry.name), &report.render(), &mut mismatches);
        }
    }
    assert!(
        mismatches.is_empty(),
        "predict goldens diverged (WMRD_REGOLD=1 regenerates):\n{}",
        mismatches.join("\n")
    );
}

/// Every catalog entry's post-mortem report matches its checked-in
/// JSON: the races, each partition's G′ component id, the partition
/// order `P` and its first partitions, and the SCP boundaries.
#[test]
fn postmortem_reports_match_goldens() {
    let mut mismatches = Vec::new();
    for entry in catalog::all() {
        let trace = committed_trace(entry.name);
        let report = PostMortem::new(&trace).analyze().unwrap();
        let rendered = report.json().pretty();
        check_golden(&format!("{}.postmortem.json", entry.name), &rendered, &mut mismatches);
    }
    assert!(
        mismatches.is_empty(),
        "post-mortem goldens diverged (WMRD_REGOLD=1 regenerates):\n{}",
        mismatches.join("\n")
    );
}

/// The SHB order is the hb1 baseline by construction: on every
/// committed trace it predicts exactly the observed identities and
/// nothing more.
#[test]
fn shb_predicts_exactly_the_observed_races() {
    for entry in catalog::all() {
        let trace = committed_trace(entry.name);
        let report = predict(&trace, entry.name, PairingPolicy::ByRole, PredictOrder::Shb).unwrap();
        assert_eq!(
            report.keys, report.observed,
            "{}: SHB must equal hb1 on the same trace",
            entry.name
        );
        assert_eq!(report.predicted_only().count(), 0, "{}", entry.name);
    }
}

/// The invariant behind predict's single sweep, on every committed
/// trace: the WCP order lies inside hb1, so filtering the predicted
/// races by hb1 recovers exactly the post-mortem's races, and both
/// analyses examine the same candidate pairs.
#[test]
fn predictive_order_lies_inside_hb1_on_committed_traces() {
    let mut bins: Vec<PathBuf> = std::fs::read_dir(data_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "bin"))
        .collect();
    bins.sort();
    assert_eq!(bins.len(), 20, "one committed trace per catalog entry");
    for path in &bins {
        let name = path.file_stem().unwrap().to_string_lossy();
        let trace = committed_trace(&name);
        let graph = PredictGraph::build(&trace, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        for a in trace.events() {
            for b in trace.events() {
                assert!(
                    !graph.ordered(a.id, b.id) || graph.hb1().ordered(a.id, b.id),
                    "{name}: {} precedes {} under WCP but not under hb1",
                    a.id,
                    b.id
                );
            }
        }

        let metrics = Metrics::enabled();
        let postmortem = PostMortem::new(&trace).metrics(&metrics).analyze().unwrap();
        let candidates = metrics.report().gauge("analysis.candidate_pairs");
        let hb1_keys = event_race_keys(&postmortem.races, &trace);
        let shb = predict(&trace, &name, PairingPolicy::ByRole, PredictOrder::Shb).unwrap();
        let wcp = predict(&trace, &name, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(wcp.observed, shb.keys, "{name}");
        assert_eq!(shb.keys, hb1_keys, "{name}");
        for report in [&shb, &wcp] {
            assert_eq!(Some(report.stats.candidate_pairs), candidates, "{name} {}", report.order);
        }
    }
}

/// The soundness gate, enforced against real executions: every identity
/// the WCP order predicts from one committed trace must be observed by
/// some seed of a real 64-seed explore campaign over the same program.
/// A prediction no schedule can reach is a false positive, and a single
/// one fails the build.
#[test]
fn predictions_are_campaign_reachable() {
    let metrics = Metrics::disabled();
    let mut violations = Vec::new();
    for entry in catalog::all() {
        let trace = committed_trace(entry.name);
        let report = predict(&trace, entry.name, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        if report.keys.is_empty() {
            continue;
        }
        let campaign =
            run_campaign(&entry.program, &CampaignSpec::new(0, 64), 2, &metrics).unwrap();
        let reached: BTreeSet<RaceKey> = campaign.keys().copied().collect();
        for key in &report.keys {
            if !reached.contains(key) {
                violations.push(format!(
                    "program {}: predicted {key:?} was not reached by any campaign seed",
                    entry.name
                ));
            }
        }
    }
    assert!(violations.is_empty(), "prediction soundness violations:\n{}", violations.join("\n"));
}

/// The weakening pays for itself and never lies: on the race-free
/// entries WCP predicts nothing (zero false predictions over the full
/// catalog), while at least three racy entries yield a race hb1 misses
/// on the same trace (`predicted-only` — the E15 domination claim).
#[test]
fn weakening_dominates_hb1_without_false_predictions() {
    let mut dominated = Vec::new();
    for entry in catalog::all() {
        let trace = committed_trace(entry.name);
        let report = predict(&trace, entry.name, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        if !entry.racy {
            assert!(
                report.is_race_free(),
                "{} is race-free but WCP predicted {:?}",
                entry.name,
                report.keys
            );
        }
        if report.predicted_only().count() > 0 {
            dominated.push(entry.name);
        }
    }
    assert!(
        dominated.len() >= 3,
        "predicted ∪ observed must strictly dominate single-seed hb1 on ≥ 3 entries, got {dominated:?}"
    );
}

/// The CLI surface over a committed trace file: `wmrd predict` decodes
/// the binary trace, exits with findings, and marks the yield that goes
/// beyond hb1 as `predicted-only`.
#[test]
fn cli_predicts_from_committed_trace_files() {
    let path = data_dir().join("lazy-publish-racy.bin");
    let err = run_cli(&argv(&format!("predict {} --order wcp", path.display()))).unwrap_err();
    let CliError::PredictFindings { output, findings } = err else {
        panic!("the committed lazy-publish-racy trace must predict a race")
    };
    assert_eq!(findings, 1, "{output}");
    assert!(output.contains("[predicted-only]"), "{output}");
    assert!(output.contains("verdict: RACES PREDICTED"), "{output}");

    let clean = run_cli(&argv(&format!(
        "predict {} --order wcp",
        data_dir().join("counter-locked.bin").display()
    )))
    .unwrap();
    assert!(clean.contains("verdict: predictively race-free"), "{clean}");
}

/// Post-mortem analysis and WCP prediction stay output-sensitive at
/// scale: a ≈10⁵-event racy spin-lock trace (the generator and machine
/// of the benchmark's `analyze-large`, with 1,600 sections per
/// processor) goes through both within a bound generous for an
/// unoptimized build. A race sweep that enumerated every conflicting
/// pair, ordered or not, took 51 s for this size in an optimized build.
#[test]
fn postmortem_and_prediction_scale_past_1e5_events() {
    use std::time::{Duration, Instant};
    use wmrd_progs::generate::{racy, GenConfig};
    use wmrd_sim::{run_weak_hw, Fidelity, HwImpl, MemoryModel, RandomWeakSched, RunConfig};
    use wmrd_trace::TraceBuilder;

    let config = GenConfig {
        procs: 4,
        shared_locations: 16,
        sections_per_proc: 1_600,
        ops_per_section: 6,
        rogue_fraction: 0.3,
        seed: 1,
    };
    let program = racy(&config);
    let mut builder = TraceBuilder::new(program.num_procs());
    let mut sched = RandomWeakSched::new(1, 0.3);
    let (model, fidelity) = (MemoryModel::Wo, Fidelity::Conditioned);
    run_weak_hw(
        HwImpl::StoreBuffer,
        &program,
        model,
        fidelity,
        &mut sched,
        &mut builder,
        RunConfig::default(),
    )
    .unwrap();
    let trace = builder.finish();
    assert!(trace.num_events() >= 90_000, "{} events", trace.num_events());

    let start = Instant::now();
    let report = PostMortem::new(&trace).analyze().unwrap();
    let analyzed = start.elapsed();
    let predicted = predict(&trace, "scale", PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
    let took = start.elapsed();
    eprintln!("{} events: analyze {analyzed:?}, analyze + predict {took:?}", trace.num_events());
    assert!(!report.is_race_free(), "rogue sections race");
    assert!(event_race_keys(&report.races, &trace).is_subset(&predicted.keys));
    assert!(took < Duration::from_secs(120), "analyze + predict took {took:?}");
}
