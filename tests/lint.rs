//! Cross-crate contracts of the static may-race analyzer: golden
//! reports over the whole program catalog, the soundness oracle
//! (`dynamic ⊆ static`) against real 64-seed explore campaigns, the
//! critical-cycle classifier and fence synthesizer (goldens plus
//! dynamic verification of every repaired entry), and the CLI surface
//! (`wmrd lint`, assembly files, `explore --prune-static`,
//! `explore --verify-repair`).
//!
//! Golden files live in `tests/data/lint/`: `<entry>.txt` holds the
//! exact `LintReport::render()` text, `<entry>.cycles` the
//! `CycleReport::render()` classification, and `<entry>.repaired.wmrd`
//! the repaired program as assembly. The analyses are pure and
//! deterministic, so the files are stable across platforms.
//! Regenerate after an intentional analyzer change with:
//!
//! ```text
//! WMRD_REGOLD=1 cargo test -p wmrd-xtests --test lint
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;

use wmrd_cli::{run_cli, CliError};
use wmrd_core::{PairingPolicy, RaceKey};
use wmrd_explore::{run_campaign, CampaignSpec};
use wmrd_lint::RaceClass;
use wmrd_progs::catalog;
use wmrd_sim::{parse_asm, write_asm, Fidelity, HwImpl, MemoryModel, RunConfig};
use wmrd_trace::Metrics;
use wmrd_verify::sample_sc;
use wmrd_verify::theorems::{check_condition_3_4_hw, sc_race_signatures};

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/lint"))
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn example(name: &str) -> String {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples"))
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Every catalog entry's rendered lint report matches its checked-in
/// golden file — the full may-race set (pairs, keys, qualified locks,
/// verdict), not just a summary bit, is pinned.
#[test]
fn catalog_reports_match_goldens() {
    let regold = std::env::var("WMRD_REGOLD").is_ok();
    let dir = golden_dir();
    if regold {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut mismatches = Vec::new();
    for entry in catalog::all() {
        let rendered = wmrd_lint::analyze(&entry.program).render();
        let path = dir.join(format!("{}.txt", entry.name));
        if regold {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {} ({e}); run with WMRD_REGOLD=1", entry.name)
        });
        if rendered != expected {
            mismatches
                .push(format!("== {}\n-- expected:\n{expected}\n-- got:\n{rendered}", entry.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "lint goldens diverged (WMRD_REGOLD=1 regenerates):\n{}",
        mismatches.join("\n")
    );
}

/// Every catalog entry's critical-cycle classification matches its
/// checked-in `.cycles` golden — the per-key `sc-also`/`weak-only`
/// verdicts, witnesses, cycle counts, and the delay set are all pinned.
#[test]
fn catalog_cycle_classifications_match_goldens() {
    let regold = std::env::var("WMRD_REGOLD").is_ok();
    let dir = golden_dir();
    if regold {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut mismatches = Vec::new();
    for entry in catalog::all() {
        let report = wmrd_lint::analyze(&entry.program);
        let rendered = wmrd_lint::analyze_cycles(&entry.program, &report).render();
        let path = dir.join(format!("{}.cycles", entry.name));
        if regold {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing cycle golden {} ({e}); run with WMRD_REGOLD=1", entry.name)
        });
        if rendered != expected {
            mismatches
                .push(format!("== {}\n-- expected:\n{expected}\n-- got:\n{rendered}", entry.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "cycle goldens diverged (WMRD_REGOLD=1 regenerates):\n{}",
        mismatches.join("\n")
    );
}

/// Every catalog entry's repaired program matches its checked-in
/// `.repaired.wmrd` golden, round-trips through the assembly layer,
/// and respects the no-op contract: race-free entries gain *zero*
/// fences and zero strengthened locations, racy entries gain at least
/// one of the two.
#[test]
fn catalog_repairs_match_goldens_and_the_noop_contract() {
    let regold = std::env::var("WMRD_REGOLD").is_ok();
    let dir = golden_dir();
    if regold {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut mismatches = Vec::new();
    for entry in catalog::all() {
        let report = wmrd_lint::analyze(&entry.program);
        let rep = wmrd_lint::repair(&entry.program, &report);
        if entry.racy {
            assert!(
                !rep.plan.is_noop(),
                "{} is racy but its repair changes nothing:\n{}",
                entry.name,
                rep.plan.render()
            );
        } else {
            assert!(
                rep.plan.is_noop(),
                "{} is race-free but was 'repaired':\n{}",
                entry.name,
                rep.plan.render()
            );
            assert!(rep.plan.fences.is_empty(), "{}: phantom fences", entry.name);
            assert_eq!(rep.repaired, entry.program, "{}: no-op must be identity", entry.name);
        }
        let asm = write_asm(&rep.repaired);
        let reparsed = parse_asm(&asm).unwrap_or_else(|e| {
            panic!("{}: repaired program does not re-parse ({e}):\n{asm}", entry.name)
        });
        assert_eq!(reparsed, rep.repaired, "{}: asm round-trip", entry.name);
        let path = dir.join(format!("{}.repaired.wmrd", entry.name));
        if regold {
            std::fs::write(&path, &asm).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing repair golden {} ({e}); run with WMRD_REGOLD=1", entry.name)
        });
        if asm != expected {
            mismatches.push(format!("== {}\n-- expected:\n{expected}\n-- got:\n{asm}", entry.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "repair goldens diverged (WMRD_REGOLD=1 regenerates):\n{}",
        mismatches.join("\n")
    );
}

/// The synthesized repairs *work*: every racy catalog entry, repaired,
/// runs race-free across all three hardware backends on a 64-seed
/// campaign sweep AND satisfies Condition 3.4 (byte-level SC for its
/// race-free executions) on each backend. This is the dynamic proof
/// obligation behind `wmrd explore --verify-repair`.
#[test]
fn repaired_racy_entries_run_race_free_and_sc_on_every_backend() {
    let metrics = Metrics::disabled();
    for entry in catalog::all().into_iter().filter(|e| e.racy) {
        let report = wmrd_lint::analyze(&entry.program);
        let rep = wmrd_lint::repair(&entry.program, &report);
        let spec = CampaignSpec::new(0, 64).with_hws(HwImpl::ALL.to_vec());
        let campaign = run_campaign(&rep.repaired, &spec, 2, &metrics).unwrap();
        let dynamic: Vec<RaceKey> = campaign.keys().copied().collect();
        assert!(
            dynamic.is_empty(),
            "{}: repaired program still races: {dynamic:?}\n{}",
            entry.name,
            rep.plan.render()
        );
        let samples = sample_sc(&rep.repaired, 0..60, RunConfig::default()).unwrap();
        let sigs: BTreeSet<_> = sc_race_signatures(&samples, PairingPolicy::ByRole).unwrap();
        for hw in HwImpl::ALL {
            let outcomes = check_condition_3_4_hw(
                hw,
                &rep.repaired,
                MemoryModel::Wo,
                Fidelity::Conditioned,
                0..64,
                &sigs,
                PairingPolicy::ByRole,
            )
            .unwrap();
            let bad: Vec<_> = outcomes.iter().filter(|o| !o.holds()).collect();
            assert!(
                bad.is_empty(),
                "{}: repaired program violates Condition 3.4 on {hw}: {bad:?}",
                entry.name
            );
        }
    }
}

/// The ablation behind the classification: at least one catalog entry
/// whose races are classified `weak-only` actually reaches those races
/// under raw out-of-order hardware — the one configuration where the
/// SC-impossible interleavings materialize. (Raw executions can
/// livelock a spin loop, so each run is step-capped like
/// `explore --budget` would.)
#[test]
fn unrepaired_weak_only_races_reach_raw_ooo_hardware() {
    let metrics = Metrics::disabled();
    let mut weak_hits = 0usize;
    for name in ["peterson-sync", "work-queue-fixed", "double-checked-init"] {
        let entry = catalog::all().into_iter().find(|e| e.name == name).unwrap();
        let report = wmrd_lint::analyze(&entry.program);
        let cycles = wmrd_lint::analyze_cycles(&entry.program, &report);
        let mut spec = CampaignSpec::new(0, 64)
            .with_hws(vec![HwImpl::Ooo])
            .with_config(RunConfig::default().with_max_steps(4_000));
        spec.fidelity = Fidelity::Raw;
        let campaign = run_campaign(&entry.program, &spec, 2, &metrics).unwrap();
        weak_hits +=
            campaign.keys().filter(|k| cycles.class_of(k) == Some(RaceClass::WeakOnly)).count();
    }
    assert!(
        weak_hits > 0,
        "no weak-only-classified race materialized under raw ooo — the classification \
         distinguishes nothing"
    );
}

/// The ground-truth direction of the over-approximation: every catalog
/// entry marked racy must have a non-empty static may-race set.
#[test]
fn racy_entries_are_never_statically_race_free() {
    for entry in catalog::all() {
        let report = wmrd_lint::analyze(&entry.program);
        if entry.racy {
            assert!(
                !report.is_race_free(),
                "{} is racy but lint found nothing:\n{}",
                entry.name,
                report.render()
            );
        }
    }
}

/// The soundness oracle, enforced against real executions: a 64-seed
/// explore campaign per catalog entry, and every dynamic race identity
/// it finds must be inside the entry's static may-race set. A violation
/// prints the program and the escaped key.
#[test]
fn dynamic_races_are_covered_by_the_static_set() {
    let metrics = Metrics::disabled();
    let mut violations = Vec::new();
    for entry in catalog::all() {
        let lint = wmrd_lint::analyze(&entry.program);
        let spec = CampaignSpec::new(0, 64);
        let campaign = run_campaign(&entry.program, &spec, 2, &metrics).unwrap();
        let dynamic: BTreeSet<RaceKey> = campaign.keys().copied().collect();
        for key in &dynamic {
            if !lint.covers(key) {
                violations.push(format!(
                    "program {}: dynamic {key:?} escaped the static set\n{}",
                    entry.name,
                    lint.render()
                ));
            }
        }
        if !dynamic.is_empty() {
            assert!(
                !lint.is_race_free(),
                "{}: dynamic races exist but lint said race-free",
                entry.name
            );
        }
    }
    assert!(violations.is_empty(), "soundness violations:\n{}", violations.join("\n"));
}

/// The shipped `.wmrd` examples behave as their comments promise:
/// `spinlock.wmrd` lints race-free, `fig1b.wmrd` exits with findings
/// (the documented sound false positive on the bare-release handoff).
#[test]
fn example_asm_files_lint_as_documented() {
    let clean = run_cli(&argv(&format!("lint {}", example("spinlock.wmrd")))).unwrap();
    assert!(clean.contains("verdict: statically race-free"), "{clean}");
    assert!(clean.contains("qualified locks: m[0]"), "{clean}");

    let err = run_cli(&argv(&format!("lint {}", example("fig1b.wmrd")))).unwrap_err();
    let CliError::LintFindings { output, findings } = err else {
        panic!("fig1b.wmrd must produce findings")
    };
    assert!(findings >= 2, "both published locations pair: {output}");
    assert!(output.contains("verdict: MAY RACE"), "{output}");
}

/// Figure 1b is the paper's motivating example of a race the weak
/// hardware can never exhibit: the delay-set analysis must classify
/// both of its may-race keys `weak-only` (the release/spin-acquire
/// sync chain through `m[2]` breaks every critical cycle), and the
/// repair must not touch the program — no phantom fences on correct
/// code.
#[test]
fn fig1b_example_classifies_weak_only_and_gains_no_fences() {
    let err = run_cli(&argv(&format!("lint {} --cycles", example("fig1b.wmrd")))).unwrap_err();
    let CliError::LintFindings { output, .. } = err else {
        panic!("fig1b.wmrd still has may-race findings under --cycles")
    };
    assert!(output.contains("0 sc-also, 2 weak-only"), "{output}");
    assert!(output.contains("weak-only (sync chain via m[2])"), "{output}");
    assert!(output.contains("no-op (nothing to fix)"), "{output}");
    assert!(!output.contains("fence P"), "phantom fence:\n{output}");

    // Same verdict through the library, pinned structurally.
    let text = std::fs::read_to_string(example("fig1b.wmrd")).unwrap();
    let program = parse_asm(&text).unwrap();
    let report = wmrd_lint::analyze(&program);
    let cycles = wmrd_lint::analyze_cycles(&program, &report);
    assert!(!cycles.classes.is_empty());
    for class in &cycles.classes {
        assert_eq!(class.class, RaceClass::WeakOnly, "{:?}", class.key);
    }
    let rep = wmrd_lint::repair(&program, &report);
    assert!(rep.plan.is_noop(), "{}", rep.plan.render());
    assert_eq!(rep.repaired, program);
}

/// `explore --verify-repair` end to end: fig1a's synthesized repair
/// verifies (race-free + Condition 3.4 on every backend) and the
/// command reports the raw-hardware ablation on the unrepaired
/// program; peterson-sync's ablation connects the dynamic raw races to
/// their `weak-only` static classification.
#[test]
fn verify_repair_end_to_end() {
    let out = run_cli(&argv("explore fig1a --verify-repair --seeds 0..16 --jobs 2")).unwrap();
    assert!(out.contains("repair verification for fig1a"), "{out}");
    assert!(out.contains("2 sc-also, 0 weak-only"), "{out}");
    assert!(out.contains("0 race identities"), "{out}");
    for hw in HwImpl::ALL {
        assert!(out.contains(&format!("condition 3.4 on {hw}: 16/16 seed(s) clean")), "{out}");
    }
    assert!(out.contains("ablation (unrepaired, ooo raw):"), "{out}");
    assert!(out.contains("repair verified"), "{out}");

    let out =
        run_cli(&argv("explore peterson-sync --verify-repair --seeds 0..24 --jobs 2")).unwrap();
    assert!(out.contains("no-op (nothing to fix)"), "{out}");
    assert!(out.contains("repair verified"), "{out}");
    assert!(out.contains("classified weak-only"), "raw ablation must hit:\n{out}");
}

/// Assembly parse errors surface through the CLI with the file name,
/// line and column — the diagnostics a hand-written file needs.
#[test]
fn asm_errors_are_located() {
    let dir = std::env::temp_dir().join(format!("wmrd-lint-xtest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.wmrd");
    std::fs::write(&path, "program broken\nproc\n    ld r99, m[0]\n    halt\n").unwrap();
    let err = run_cli(&argv(&format!("lint {}", path.display()))).unwrap_err();
    let text = err.to_string();
    assert!(matches!(err, CliError::Asm { .. }), "{text}");
    assert!(text.contains("broken.wmrd"), "{text}");
    assert!(text.contains("line 3"), "{text}");
    std::fs::remove_file(&path).ok();
}

/// `explore --prune-static` end to end: a statically race-free program
/// is pruned without simulating, a racy one still runs its campaign and
/// the cross-check confirms `dynamic ⊆ static`.
#[test]
fn prune_static_end_to_end() {
    let pruned = run_cli(&argv(&format!(
        "explore {} --seeds 0..32 --prune-static",
        example("spinlock.wmrd")
    )))
    .unwrap();
    assert!(pruned.contains("campaign: spinlock (32 points)"), "{pruned}");
    assert!(pruned.contains("pruned statically"), "{pruned}");
    assert!(!pruned.contains("executions:"), "nothing must run:\n{pruned}");

    let checked = run_cli(&argv("explore fig1a --seeds 0..32 --jobs 2 --prune-static")).unwrap();
    assert!(checked.contains("deduplicated race"), "fig1a still explores:\n{checked}");
    assert!(checked.contains("static cross-check"), "{checked}");
    assert!(!checked.contains("escaped the static"), "cross-check violation:\n{checked}");
}

/// The static set is *useful*, not just sound: on entries where the
/// 64-seed campaign finds races, lint's key count stays within a small
/// factor of the dynamic count (no "everything races" blowup), and the
/// fully-locked counter is proven race-free outright.
#[test]
fn static_sets_are_tight_enough_to_prune() {
    let counter_locked = catalog::all()
        .into_iter()
        .find(|e| e.name == "counter-locked")
        .expect("counter-locked is in the catalog");
    let report = wmrd_lint::analyze(&counter_locked.program);
    assert!(report.is_race_free(), "the locked counter prunes:\n{}", report.render());

    let metrics = Metrics::disabled();
    for name in ["fig1a", "peterson-racy", "counter-racy"] {
        let entry = catalog::all().into_iter().find(|e| e.name == name).unwrap();
        let lint = wmrd_lint::analyze(&entry.program);
        let campaign =
            run_campaign(&entry.program, &CampaignSpec::new(0, 64), 2, &metrics).unwrap();
        let dynamic = campaign.keys().count();
        assert!(dynamic > 0, "{name} should race dynamically");
        assert!(
            lint.keys.len() <= dynamic.max(1) * 4,
            "{name}: static set ballooned to {} keys for {} dynamic",
            lint.keys.len(),
            dynamic
        );
    }
}

/// The cycle report scales with the program: `analyze`, `analyze_cycles`
/// and `repair` of a generated racy program the size of the benchmark
/// ladder's 10,000-event step (4 processors, 162 sections of 6
/// operations, ≈150 k may-race pairs) finish inside the bound even in
/// the unoptimized test profile, where they take ≈9 s. Classifying
/// each key by a scan over every pair takes over five times the bound.
#[test]
fn cycle_report_and_repair_scale_to_ten_thousand_events() {
    const BOUND_SECS: f64 = 60.0;
    let cfg = wmrd_progs::generate::GenConfig {
        procs: 4,
        shared_locations: 16,
        sections_per_proc: 162,
        ops_per_section: 6,
        rogue_fraction: 0.3,
        seed: 1,
    };
    let program = wmrd_progs::generate::racy(&cfg);
    let t = std::time::Instant::now();
    let report = wmrd_lint::analyze(&program);
    let cycles = wmrd_lint::analyze_cycles(&program, &report);
    let repair = wmrd_lint::repair(&program, &report);
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(cycles.classes.len(), report.keys.len());
    assert!(cycles.capped, "a program this size reaches the cycle cap");
    assert!(!repair.plan.is_noop(), "a racy program gets a repair");
    assert!(
        secs < BOUND_SECS,
        "lint of {} pairs took {secs:.1}s (bound {BOUND_SECS}s)",
        report.pairs.len()
    );
}
