//! The experiment functions. Each renders its block into the harness
//! and records its paper expectations; none prints or panics on a
//! failed expectation.

use std::collections::BTreeSet;

use wmrd_core::{
    event_race_keys, OnTheFly, OnTheFlyConfig, PairingPolicy, PostMortem, RaceKey, RaceKind,
    RaceReport,
};
use wmrd_explore::{run_campaign, CampaignSpec};
use wmrd_progs::{catalog, generate};
use wmrd_sim::{Fidelity, HwImpl, MemoryModel, Program};
use wmrd_trace::{EventId, Metrics, ProcId, TraceSet};
use wmrd_verify::theorems::{
    check_condition_3_4_hw, check_theorem_4_1, check_theorem_4_2, sc_race_signatures,
};
use wmrd_verify::{
    enumerate_sc, enumerate_weak, is_sequentially_consistent, sample_sc, EnumConfig,
};

use crate::{fig2_weak_run, model_cycles, out, sc_run, weak_run, Harness};

/// Lowercases `s` and maps every non-alphanumeric run to `-`, so
/// workload names become stable metric-key segments.
fn slug(s: &str) -> String {
    let words = s.split(|c: char| !c.is_ascii_alphanumeric()).filter(|w| !w.is_empty());
    words.collect::<Vec<_>>().join("-").to_ascii_lowercase()
}

fn analyze(trace: &TraceSet) -> RaceReport {
    analyze_with(trace, PairingPolicy::ByRole)
}

fn analyze_with(trace: &TraceSet, policy: PairingPolicy) -> RaceReport {
    PostMortem::new(trace).pairing(policy).analyze().expect("experiment traces analyze")
}

/// E1 — Figure 1a: an execution *with* data races, under every schedule.
pub(crate) fn e1_fig1a(h: &mut Harness) {
    out!(h, "=== E1: Figure 1a - execution with data races ===");
    let entry = catalog::fig1a();
    let lay = catalog::fig1_layout();
    let mut matching = 0;
    for seed in 0..10 {
        let report = analyze(&sc_run(&entry.program, seed).events);
        if seed == 0 {
            out!(h, "program: {} ({})\n{report}", entry.name, entry.description);
        }
        let first = report.reported_races();
        let race_on_x_and_y = first.first().is_some_and(|r| {
            r.kind == RaceKind::DataData
                && r.locations.contains(lay.x)
                && r.locations.contains(lay.y)
        });
        if !report.is_race_free()
            && report.partitions.first_indices().len() == 1
            && race_on_x_and_y
            && report.scp.covers_everything()
        {
            matching += 1;
        }
    }
    out!(
        h,
        "SC seeds 0..10: {matching}/10 show one first partition, its data-data race on x and y,"
    );
    out!(h, "and an SCP covering the whole execution");
    h.check(matching == 10, "E1: fig1a must race on x and y under every schedule");
}

/// E2 — Figure 1b: the race-free variant with Unset/Test&Set pairing.
pub(crate) fn e2_fig1b(h: &mut Harness) {
    out!(h, "=== E2: Figure 1b - race-free execution via Unset -> Test&Set pairing ===");
    let entry = catalog::fig1b();
    let (mut race_free, mut paired) = (0, 0);
    for seed in 0..10 {
        let report = analyze(&sc_run(&entry.program, seed).events);
        if seed == 0 {
            out!(h, "program: {} ({})\n{report}", entry.name, entry.description);
        }
        race_free += usize::from(report.is_race_free());
        paired += usize::from(report.num_so1_edges >= 1);
    }
    out!(h, "SC seeds 0..10: {race_free}/10 race-free, {paired}/10 with an so1 edge");
    out!(h, "(E7 checks it race-free on every weak model and backend)");
    h.check(race_free == 10 && paired == 10, "E2: fig1b must be race-free with its pairing found");
}

/// E3 — Figure 2b: the weak execution of the buggy work queue, with the
/// stale dequeue and the non-SC data races it causes.
pub(crate) fn e3_fig2_weak_execution(h: &mut Harness) {
    out!(h, "=== E3: Figure 2 - buggy work queue on WO: stale dequeue ===");
    let lay = catalog::work_queue_layout();
    let run = fig2_weak_run();
    let p2_ops = run.ops.proc_ops(ProcId::new(1)).expect("P2 traced");
    let q_empty = p2_ops.iter().find(|o| o.loc == lay.q_empty).expect("P2 read QEmpty");
    let q = p2_ops.iter().find(|o| o.loc == lay.q).expect("P2 read Q");
    out!(h, "P2 read QEmpty = {} (the NEW value written by P1)", q_empty.value);
    out!(
        h,
        "P2 read Q      = {} (the STALE value; P1's enqueue of {} was buffered)",
        q.value,
        lay.fresh_addr
    );
    h.check(
        q_empty.value.get() == 0 && q.value.get() == lay.stale_addr,
        "E3: the scripted schedule must reproduce the new QEmpty and the stale Q",
    );
    let report = analyze(&run.events);
    let races = report.data_races().count();
    out!(
        h,
        "data races in the weak execution: {races} across {} partition(s)",
        report.partitions.len()
    );
    out!(h, "reported (first partitions): {}", report.reported_races().len());
    out!(h, "withheld as potentially non-SC artifacts: {}", report.withheld_races().len());
}

/// E4 — Figure 3: the augmented graph's partitions, their order, and the
/// SCP boundary.
pub(crate) fn e4_fig3_partitions(h: &mut Harness) {
    out!(h, "=== E4: Figure 3 - first vs non-first partitions and the SCP ===");
    let report = analyze(&fig2_weak_run().events);
    out!(h, "{report}");
    let parts = &report.partitions;
    h.check(parts.len() == 2, "E4: Figure 3 shows two partitions");
    h.check(parts.first_indices().len() == 1, "E4: Figure 3 shows exactly one first partition");
    let lay = catalog::work_queue_layout();
    let Some(first) = report.first_partitions().next() else { return };
    let first_on_queue = !first.races.is_empty()
        && first
            .races
            .iter()
            .map(|&i| &report.races[i])
            .all(|r| r.locations.contains(lay.q) || r.locations.contains(lay.q_empty));
    h.check(first_on_queue, "E4: the first partition must be the QEmpty/Q races");
    let withheld = report.withheld_races();
    let region = |r: &&wmrd_core::DataRace| r.locations.iter().all(|l| l.addr() >= lay.region_base);
    h.check(
        withheld.len() == 2 && withheld.iter().all(region),
        "E4: the withheld partition must be the two P2/P3 region races",
    );
    let fi = parts.first_indices()[0];
    let other = 1 - fi;
    h.check(
        parts.precedes(fi, other) && !parts.precedes(other, fi),
        "E4: the first partition must precede the withheld one, not vice versa",
    );
    let (p0, p1) = (ProcId::new(0), ProcId::new(1));
    h.check(
        !report.scp.covers_everything()
            && report.scp.contains(EventId::new(p0, 0))
            && report.scp.contains(EventId::new(p1, 0))
            && report.scp.boundary(p1).is_some_and(|b| (1..3).contains(&b)),
        "E4: the SCP must keep both dequeue reads and end before P2's region work",
    );
    out!(h, "note: the SCP estimate is conservative - Figure 3 keeps P3's first phase inside");
    out!(h, "the SCP, while the estimator excises everything G'-after a race");
}

/// E5 — Theorem 4.1: first partitions exist iff data races exist; and
/// the AllSync pairing policy never adds data races.
pub(crate) fn e5_theorem_4_1(h: &mut Harness) {
    out!(h, "=== E5: Theorem 4.1 - first partitions exist iff data races exist ===");
    let (mut checked, mut held) = (0, 0);
    let mut tally = |report: RaceReport| {
        checked += 1;
        held += usize::from(check_theorem_4_1(&report));
    };
    for seed in 0..20 {
        let cfg = generate::GenConfig::default().with_seed(seed);
        for program in [generate::locked(&cfg), generate::racy(&cfg)] {
            for model in MemoryModel::WEAK {
                let run = weak_run(&program, model, seed);
                for policy in [PairingPolicy::ByRole, PairingPolicy::AllSync] {
                    tally(analyze_with(&run.events, policy));
                }
            }
        }
    }
    for entry in catalog::all() {
        for seed in 0..3 {
            tally(analyze(&sc_run(&entry.program, seed).events));
        }
    }
    out!(h, "executions: 20 seeds x locked/racy x 4 weak models x 2 pairing policies,");
    out!(h, "plus every catalog entry on SC seeds 0..3");
    out!(h, "Theorem 4.1 held in {held}/{checked}");
    h.check(checked == held, "E5: Theorem 4.1 must hold universally");
    let mut monotone = 0;
    for seed in 0..10 {
        let cfg = generate::GenConfig {
            rogue_fraction: 0.5,
            ..generate::GenConfig::default().with_seed(seed)
        };
        let run = sc_run(&generate::racy(&cfg), seed);
        let races = |policy| analyze_with(&run.events, policy).data_races().count();
        monotone += usize::from(races(PairingPolicy::AllSync) <= races(PairingPolicy::ByRole));
    }
    out!(h, "AllSync pairing added no data race over ByRole in {monotone}/10 racy SC executions");
    h.check(monotone == 10, "E5: the AllSync pairing must never add data races");
}

/// E6 — Theorem 4.2: each first partition contains a race that occurs in
/// a sequentially consistent execution.
pub(crate) fn e6_theorem_4_2(h: &mut Harness) {
    out!(h, "=== E6: Theorem 4.2 - first partitions contain SC races ===");
    // (a) Exhaustively enumerated oracles, every weak model.
    for entry in [catalog::fig1a(), catalog::producer_consumer_racy(), catalog::counter_racy(2, 1)]
    {
        let sc = enumerate_sc(&entry.program, &EnumConfig::default()).expect("enumerable");
        let sigs = sc_race_signatures(&sc.executions, PairingPolicy::ByRole).expect("analyzable");
        let (mut confirmed, mut total) = (0, 0);
        for model in MemoryModel::WEAK {
            for seed in 0..5 {
                let run = weak_run(&entry.program, model, seed);
                let outcome = check_theorem_4_2(&run.events, &analyze(&run.events), &sigs);
                total += outcome.partitions_checked;
                confirmed += outcome.partitions_confirmed;
            }
        }
        out!(
            h,
            "{}: {} SC executions (complete={}), {} race signature(s)\n  4 weak models x \
             seeds 0..5: {confirmed}/{total} first partitions confirmed",
            entry.name,
            sc.executions.len(),
            sc.complete,
            sigs.len()
        );
        h.check(
            !sigs.is_empty() && confirmed == total,
            format!("E6: every {} first partition must contain an SC race", entry.name),
        );
    }
    // (b) Sampled oracle for the work queue (too large to enumerate).
    let wq = catalog::work_queue_buggy();
    let samples = sample_sc(&wq.program, 0..200, wmrd_sim::RunConfig::default()).expect("runs");
    let wq_sigs = sc_race_signatures(&samples, PairingPolicy::ByRole).expect("analyzable");
    let run = fig2_weak_run();
    let outcome = check_theorem_4_2(&run.events, &analyze(&run.events), &wq_sigs);
    out!(
        h,
        "work-queue-buggy: {} distinct sampled SC executions, {} race signature(s)\n  \
         figure-2b execution: {}/{} first partitions confirmed",
        samples.len(),
        wq_sigs.len(),
        outcome.partitions_confirmed,
        outcome.partitions_checked
    );
    h.check(outcome.holds(), "E6: Theorem 4.2 must hold on the figure-2b execution");
}

/// E7 — Condition 3.4 / Theorem 3.5 on every conditioned weak machine.
pub(crate) fn e7_condition_3_4(h: &mut Harness) {
    out!(h, "=== E7: Condition 3.4 / Theorem 3.5 - conditioned weak machines obey it ===");
    out!(h, "20 catalog entries x seeds 0..5 per row");
    out!(h, "hardware      model  execs  racefree  cond-ok  scp-ok");
    let entries = catalog::all();
    let sigs: Vec<BTreeSet<RaceKey>> = entries
        .iter()
        .map(|entry| {
            if !entry.racy {
                return BTreeSet::new();
            }
            let samples = sample_sc(&entry.program, 0..60, wmrd_sim::RunConfig::uniform())
                .expect("samples run");
            sc_race_signatures(&samples, PairingPolicy::ByRole).expect("analyzable")
        })
        .collect();
    for hw in HwImpl::ALL {
        for model in MemoryModel::WEAK {
            let (mut execs, mut race_free, mut ok, mut scp_ok) = (0, 0, 0, 0);
            for (entry, sigs) in entries.iter().zip(&sigs) {
                let outcomes = check_condition_3_4_hw(
                    hw,
                    &entry.program,
                    model,
                    Fidelity::Conditioned,
                    0..5,
                    sigs,
                    PairingPolicy::ByRole,
                )
                .expect("checkable");
                let n = outcomes.len();
                let rf = outcomes.iter().filter(|o| o.race_free).count();
                let good = outcomes.iter().filter(|o| o.holds()).count();
                execs += n;
                race_free += rf;
                ok += good;
                scp_ok += outcomes.iter().filter(|o| o.scp_linearizes).count();
                h.check(
                    good == n && (entry.racy || rf == n),
                    format!(
                        "E7: {} on {model}/{hw}: Condition 3.4 must hold (and a DRF entry stay \
                         race-free)",
                        entry.name
                    ),
                );
            }
            let model = model.to_string();
            out!(
                h,
                "{:<13} {model:>5} {execs:>6} {race_free:>9} {ok:>8} {scp_ok:>7}",
                hw.to_string()
            );
        }
    }
    out!(h, "paper: all implementations of WO/RCsc (and proposed DRF0/DRF1) obey Condition 3.4");
}

/// E8 — Section 5 overhead claim: the trace information needed on weak
/// hardware is the same as on SC hardware, and event-level bit-vector
/// tracing is far smaller than per-operation tracing.
pub(crate) fn e8_trace_overhead(h: &mut Harness) {
    out!(h, "=== E8: Section 5 - tracing overhead, SC vs weak, events vs operations ===");
    out!(h, "workload              model     ops   op-bytes   ev-bytes     ev/op    ratio");
    let cfg = generate::GenConfig {
        procs: 4,
        sections_per_proc: 12,
        ops_per_section: 32,
        ..Default::default()
    };
    let workloads: [(&str, Program); 3] = [
        ("work-queue-buggy", catalog::work_queue_buggy().program),
        ("barrier(4)", catalog::barrier(4).program),
        ("gen-sectioned(32/s)", generate::sectioned(&cfg)),
    ];
    for (name, program) in &workloads {
        let mut bytes = vec![];
        for model in [MemoryModel::Sc, MemoryModel::Wo] {
            let run = if model == MemoryModel::Sc {
                sc_run(program, 3)
            } else {
                weak_run(program, model, 3)
            };
            let ops = run.ops.num_ops();
            let op_bytes = run.ops.encoded_size();
            let ev_bytes = run.events.to_binary().len();
            let key = format!("e8.{}.{}", slug(name), slug(&model.to_string()));
            h.metrics.set_gauge(&format!("{key}.ops"), ops as u64);
            h.metrics.set_gauge(&format!("{key}.op_bytes"), op_bytes as u64);
            h.metrics.set_gauge(&format!("{key}.event_bytes"), ev_bytes as u64);
            out!(
                h,
                "{:<20} {:>6} {:>7} {:>10} {:>10} {:>9.1} {:>8.2}",
                name,
                model.to_string(),
                ops,
                op_bytes,
                ev_bytes,
                ev_bytes as f64 / ops as f64,
                op_bytes as f64 / ev_bytes as f64
            );
            bytes.push((ev_bytes, op_bytes));
        }
        // The sectioned program performs the same operations on both
        // models, so the model must not change what its trace holds.
        if name.starts_with("gen-sectioned") {
            h.check(bytes[0] == bytes[1], "E8: gen-sectioned: SC and WO traces must be equal size");
            h.check(bytes[0].0 < bytes[0].1, "E8: gen-sectioned: events must beat per-op tracing");
        }
    }
}

/// E9 — Section 5: on-the-fly detection trades memory/accuracy against
/// post-mortem trace files.
pub(crate) fn e9_on_the_fly(h: &mut Harness) {
    out!(h, "=== E9: Section 5 - on-the-fly vs post-mortem ===");
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
    let postmortem_races = analyze(&run.events).data_races().count();
    let trace_bytes = run.events.to_binary().len();
    h.metrics.set_gauge("e9.postmortem.races", postmortem_races as u64);
    h.metrics.set_gauge("e9.postmortem.trace_bytes", trace_bytes as u64);
    out!(h, "post-mortem: {postmortem_races} data race(s); trace file {trace_bytes} bytes");
    out!(h, "{:>14} {:>8} {:>12} {:>13}", "history-limit", "races", "state-bytes", "dropped-reads");
    for limit in [None, Some(4), Some(2), Some(1)] {
        // Replay the same execution through the on-the-fly detector, in
        // issue order: what it would have observed live.
        let mut detector = OnTheFly::new(
            program.num_procs(),
            OnTheFlyConfig { read_history_limit: limit, ..OnTheFlyConfig::default() },
        );
        run.ops.replay(&mut detector);
        let label = limit.map_or_else(|| "unbounded".to_string(), |l| l.to_string());
        let (races, bytes) = (detector.races().len(), detector.approx_memory_bytes());
        let key = format!("e9.limit_{label}");
        h.metrics.set_gauge(&format!("{key}.races"), races as u64);
        h.metrics.set_gauge(&format!("{key}.state_bytes"), bytes as u64);
        h.metrics.set_gauge(&format!("{key}.dropped_reads"), detector.dropped_reads());
        out!(h, "{label:>14} {races:>8} {bytes:>12} {:>13}", detector.dropped_reads());
    }
}

/// E10 — Section 2.2: the weak models' performance motivation.
pub(crate) fn e10_model_performance(h: &mut Harness) {
    out!(h, "=== E10: Section 2.2 - weak models outperform SC on race-free programs ===");
    let gen = |sections_per_proc, ops_per_section| generate::GenConfig {
        procs: 4,
        sections_per_proc,
        ops_per_section,
        ..Default::default()
    };
    let workloads: [(&str, Program); 5] = [
        ("counter-locked(4x8)", catalog::counter_locked(4, 8).program),
        ("barrier(4)", catalog::barrier(4).program),
        ("producer-consumer", catalog::producer_consumer().program),
        ("gen-locked(4)", generate::locked(&gen(10, 8))),
        ("gen-overlap(4)", generate::overlap(&gen(6, 12))),
    ];
    out!(h, "workload                      SC        WO      RCsc      DRF0      DRF1  (simulated cycles)");
    for (name, program) in &workloads {
        let cycles: Vec<u64> = MemoryModel::ALL.iter().map(|&m| model_cycles(program, m)).collect();
        for (model, &c) in MemoryModel::ALL.iter().zip(&cycles) {
            h.metrics
                .set_gauge(&format!("e10.{}.{}.cycles", slug(name), slug(&model.to_string())), c);
        }
        out!(
            h,
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
                format!("E10: {name}: RCsc must strictly beat WO when writes pend at acquires"),
            );
        }
    }
}

/// E11 — exhaustive weak-execution verification: enumerate EVERY
/// schedule (steps and drains) of small programs on both buffer
/// machines and check Condition 3.4 on each execution.
pub(crate) fn e11_exhaustive_weak_check(h: &mut Harness) {
    out!(h, "=== E11: exhaustive weak-execution check of Condition 3.4 ===");
    let cfg = EnumConfig { max_executions: 200_000, max_steps_per_path: 300, spin_unroll_limit: 1 };
    out!(
        h,
        "program                    hardware model weak-exec      full  racefree  sc-ok  42-ok"
    );
    for entry in [catalog::fig1a(), catalog::producer_consumer(), catalog::producer_consumer_racy()]
    {
        let sc = enumerate_sc(&entry.program, &EnumConfig::default()).expect("enumerable");
        let sc_sigs =
            sc_race_signatures(&sc.executions, PairingPolicy::ByRole).expect("analyzable");
        for hw in [HwImpl::StoreBuffer, HwImpl::InvalQueue] {
            for model in [MemoryModel::Wo, MemoryModel::RCsc] {
                let weak = enumerate_weak(&entry.program, hw, model, Fidelity::Conditioned, &cfg)
                    .expect("enumerable");
                let (mut race_free, mut sc_ok, mut t42_ok) = (0, 0, 0);
                for exec in &weak.executions {
                    let report = analyze(&exec.events);
                    if report.is_race_free() {
                        race_free += 1;
                        let memory = entry.program.initial_memory();
                        sc_ok += usize::from(is_sequentially_consistent(&exec.ops, &memory));
                    } else {
                        t42_ok += usize::from(report.first_partitions().all(|part| {
                            let races: Vec<_> =
                                part.races.iter().map(|&i| report.races[i].clone()).collect();
                            event_race_keys(&races, &exec.events)
                                .iter()
                                .any(|s| sc_sigs.contains(s))
                        }));
                    }
                }
                // "full" = the whole schedule space was covered; spin loops
                // are cut after one redundant revisit, so programs with
                // spins report partial-but-representative coverage.
                let full = if weak.complete { "yes" } else { "spin-cut" };
                out!(
                    h,
                    "{:<22} {:>12} {:>5} {:>9} {full:>9} {race_free:>9} {sc_ok:>6} {t42_ok:>6}",
                    entry.name,
                    hw.to_string(),
                    model.to_string(),
                    weak.executions.len(),
                );
                let what = format!("E11: {} on {hw}/{model}", entry.name);
                h.check(race_free == sc_ok, format!("{what}: every race-free execution is SC"));
                h.check(
                    weak.executions.len() - race_free == t42_ok,
                    format!("{what}: every racy execution's first partitions contain SC races"),
                );
            }
        }
    }
}

/// The deduplicated race keys of a 64-seed conditioned WO campaign over
/// `hws` (seeded campaign reports do not depend on the job count).
fn campaign_keys(program: &Program, hws: &[HwImpl]) -> BTreeSet<RaceKey> {
    let spec = CampaignSpec::new(0, 64).with_hws(hws.to_vec());
    let report = run_campaign(program, &spec, 2, &Metrics::disabled()).expect("campaign runs");
    report.keys().copied().collect()
}

/// E16 — race yield across hardware backends: the out-of-order pipeline
/// reaches every key the buffer machines reach, and more.
pub(crate) fn e16_backend_yield(h: &mut Harness) {
    out!(h, "=== E16: race keys per backend, racy catalog entries, WO, seeds 0..64 ===");
    out!(h, "{:<26} {:>12} {:>11} {:>4}", "entry", "store-buffer", "inval-queue", "ooo");
    for entry in catalog::all().into_iter().filter(|e| e.racy) {
        let [sb, iq, ooo] = HwImpl::ALL.map(|hw| campaign_keys(&entry.program, &[hw]));
        out!(h, "{:<26} {:>12} {:>11} {:>4}", entry.name, sb.len(), iq.len(), ooo.len());
        h.check(
            sb.is_subset(&ooo) && iq.is_subset(&ooo),
            format!("E16: {}: ooo must reach every key the buffer machines reach", entry.name),
        );
        if entry.name == "double-checked-init-racy" {
            h.check(
                ooo.len() > sb.union(&iq).count(),
                "E16: ooo must reach keys no buffer machine reaches on double-checked-init-racy",
            );
        }
    }
}

/// E18 — delay sets and fence synthesis: classify, repair and re-run
/// every catalog entry.
pub(crate) fn e18_repair(h: &mut Harness) {
    out!(h, "=== E18: delay sets and fence synthesis over the catalog ===");
    out!(h, "races: keys of a 64-seed WO campaign on all three backends, before -> after repair");
    out!(
        h,
        "entry                     cycles sc-also weak-only delays fences strengthened   races"
    );
    for entry in catalog::all() {
        let report = wmrd_lint::analyze(&entry.program);
        let cycles = wmrd_lint::analyze_cycles(&entry.program, &report);
        let repair = wmrd_lint::repair(&entry.program, &report);
        let before = campaign_keys(&entry.program, &HwImpl::ALL).len();
        let after = campaign_keys(&repair.repaired, &HwImpl::ALL).len();
        let capped = if cycles.capped { "*" } else { "" };
        out!(
            h,
            "{:<24} {:>7} {:>7} {:>9} {:>6} {:>6} {:>12} {:>7}",
            entry.name,
            format!("{}{capped}", cycles.cycles),
            cycles.sc_also,
            cycles.weak_only,
            cycles.delays.len(),
            repair.plan.fences.len(),
            repair.plan.strengthened.len(),
            format!("{before} -> {after}")
        );
        if entry.racy {
            h.check(after == 0, format!("E18: {}: the repaired entry must not race", entry.name));
        } else {
            h.check(
                repair.plan.is_noop() && before == 0,
                format!("E18: {}: a race-free entry must get a no-op plan", entry.name),
            );
        }
    }
    out!(h, "* cycle enumeration stopped at its cap (MAX_CYCLES)");
}

/// A1 — ablation: first-partition filtering on vs off.
pub(crate) fn a1_first_partition_filter(h: &mut Harness) {
    out!(h, "=== A1: ablation - reporting first partitions vs all races ===");
    out!(h, "{:<22} {:>10} {:>12} {:>10}", "workload", "all-races", "first-parts", "reported");
    let mut rows = vec![("fig2b (weak)".to_string(), analyze(&fig2_weak_run().events))];
    for rounds in [2usize, 4, 8] {
        let cfg = generate::GenConfig { procs: 3, ..generate::GenConfig::default().with_seed(1) };
        let run = sc_run(&generate::phased(&cfg, rounds), 2);
        rows.push((format!("phased(r={rounds})"), analyze(&run.events)));
    }
    for (name, report) in &rows {
        out!(
            h,
            "{:<22} {:>10} {:>12} {:>10}",
            name,
            report.data_races().count(),
            report.partitions.first_indices().len(),
            report.reported_races().len()
        );
    }
}

/// A2 — ablation: Condition-3.4-honouring hardware vs raw weak hardware,
/// on every implementation style.
pub(crate) fn a2_raw_hardware(h: &mut Harness) {
    out!(h, "=== A2: ablation - conditioned vs raw weak hardware ===");
    let entry = catalog::ping_pong();
    for hw in HwImpl::ALL {
        let (mut runs, mut violations) = (0, 0);
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
            .expect("checkable");
            if outcomes[0].race_free {
                runs += 1;
                violations += usize::from(outcomes[0].part1_sc == Some(false));
            }
        }
        out!(h, "{hw}: {runs} race-free raw-WO executions of ping-pong, {violations} NOT SC");
        h.check(violations > 0, format!("A2: {hw}: raw hardware must exhibit the problem"));
    }
}

/// A3 — ablation: event-level vs operation-level tracing cost.
pub(crate) fn a3_trace_granularity(h: &mut Harness) {
    out!(h, "=== A3: ablation - event bit-vector tracing vs per-operation tracing ===");
    out!(h, "ops/section         ops    events     op-bytes     ev-bytes   ratio");
    let mut ratios = Vec::new();
    for ops_per_section in [4usize, 16, 64, 256] {
        let cfg = generate::GenConfig {
            procs: 4,
            sections_per_proc: 8,
            ops_per_section,
            ..Default::default()
        };
        let run = sc_run(&generate::sectioned(&cfg), 1);
        let op_bytes = run.ops.encoded_size();
        let ev_bytes = run.events.to_binary().len();
        let ratio = op_bytes as f64 / ev_bytes as f64;
        ratios.push(ratio);
        out!(
            h,
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
    h.check(ratios[3] > 1.0, "A3: long computation events must beat per-operation tracing");
}
