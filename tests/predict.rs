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

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;

use wmrd_cli::{run_cli, CliError};
use wmrd_core::{event_race_keys, HbGraph, PairingPolicy, PostMortem, RaceKey, So1Edge};
use wmrd_explore::{run_campaign, CampaignSpec};
use wmrd_predict::{critical_sections, predict, CriticalSection, PredictGraph, PredictOrder};
use wmrd_progs::catalog;
use wmrd_progs::generate::{racy, GenConfig};
use wmrd_sim::{run_weak_hw, Fidelity, HwImpl, MemoryModel, RandomWeakSched, RunConfig};
use wmrd_trace::{EventId, Metrics, ToJson, TraceBuilder, TraceSet};

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

/// The all-pairs form of the chain-wide release rule, the oracle for
/// the closure `PredictGraph::build` must reproduce: every so1 edge
/// between conflicting sections is kept, as is every edge with a bare
/// endpoint, and every release gets one edge to each hb1-later,
/// conflicting section on its lock — S² `ordered` queries and up to S²
/// edges. `None` when nothing was dropped (the order is hb1 itself).
fn all_pairs_order(trace: &TraceSet) -> Option<HbGraph> {
    let hb1 = HbGraph::build(trace, PairingPolicy::ByRole).unwrap();
    let sections = critical_sections(trace);
    let by_release: HashMap<EventId, &CriticalSection> =
        sections.iter().filter_map(|s| Some((s.release?, s))).collect();
    let by_acquire: HashMap<EventId, &CriticalSection> =
        sections.iter().map(|s| (s.acquire, s)).collect();
    let (mut edges, dropped): (Vec<So1Edge>, Vec<So1Edge>) = hb1.so1().iter().partition(|edge| {
        match (by_release.get(&edge.release), by_acquire.get(&edge.acquire)) {
            (Some(src), Some(dst)) => src.conflicts_with(dst),
            _ => true,
        }
    });
    if dropped.is_empty() {
        return None;
    }
    for (i, s1) in sections.iter().enumerate() {
        let Some(r1) = s1.release else { continue };
        for (j, s2) in sections.iter().enumerate() {
            if i != j && s1.lock == s2.lock && s1.conflicts_with(s2) && hb1.ordered(r1, s2.acquire)
            {
                edges.push(So1Edge { release: r1, acquire: s2.acquire, loc: s1.lock });
            }
        }
    }
    Some(hb1.with_edges(edges).unwrap())
}

/// Runs a generated racy lock program on the store-buffer machine (the
/// generator and machine of the benchmark's `analyze-large`).
fn racy_store_buffer_trace(config: &GenConfig) -> TraceSet {
    let program = racy(config);
    let mut builder = TraceBuilder::new(program.num_procs());
    let mut sched = RandomWeakSched::new(config.seed, 0.3);
    run_weak_hw(
        HwImpl::StoreBuffer,
        &program,
        MemoryModel::Wo,
        Fidelity::Conditioned,
        &mut sched,
        &mut builder,
        RunConfig::default(),
    )
    .unwrap();
    builder.finish()
}

/// The WCP order, built with at most one chain-wide edge per release
/// and processor, orders exactly the event pairs the all-pairs rule
/// orders: on every committed trace and on seeded generated racy
/// traces whose lock chains pass through commuting sections.
#[test]
fn wcp_order_matches_the_all_pairs_release_rule() {
    let mut traces: Vec<(String, TraceSet)> = catalog::all()
        .iter()
        .map(|entry| (entry.name.to_string(), committed_trace(entry.name)))
        .collect();
    // Dense footprints put the first conflict at the head of a suffix;
    // sparse ones leave long runs of commuting sections before it.
    for (shared_locations, ops_per_section) in [(6, 3), (16, 2)] {
        for seed in 0..6 {
            let config = GenConfig {
                procs: 4,
                shared_locations,
                sections_per_proc: 12,
                ops_per_section,
                rogue_fraction: 0.3,
                seed,
            };
            let name = format!("racy {shared_locations}/{ops_per_section} seed {seed}");
            traces.push((name, racy_store_buffer_trace(&config)));
        }
    }
    let mut weakened = 0;
    for (name, trace) in &traces {
        let graph = PredictGraph::build(trace, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        let oracle = all_pairs_order(trace);
        assert_eq!(oracle.is_some(), !graph.dropped_edges().is_empty(), "{name}");
        let oracle = oracle.as_ref().unwrap_or(graph.hb1());
        weakened += usize::from(!graph.dropped_edges().is_empty());
        for a in trace.events() {
            for b in trace.events() {
                assert_eq!(
                    graph.ordered(a.id, b.id),
                    oracle.ordered(a.id, b.id),
                    "{name}: {} before {}",
                    a.id,
                    b.id
                );
            }
        }
        let bound = graph.kept_edges().len() + graph.sections().len() * trace.num_procs();
        assert!(graph.predictive().so1().len() <= bound, "{name}");
    }
    assert!(weakened >= 14, "only {weakened} traces dropped an edge");
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

    let config = GenConfig {
        procs: 4,
        shared_locations: 16,
        sections_per_proc: 1_600,
        ops_per_section: 6,
        rogue_fraction: 0.3,
        seed: 1,
    };
    let trace = racy_store_buffer_trace(&config);
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

    // The chain-wide release rule adds at most one edge per release and
    // processor on top of the kept so1 edges.
    let graph = PredictGraph::build(&trace, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
    let bound = graph.kept_edges().len() + graph.sections().len() * trace.num_procs();
    assert!(graph.predictive().so1().len() <= bound, "{} edges", graph.predictive().so1().len());
}
