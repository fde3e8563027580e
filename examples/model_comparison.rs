//! Runs the same programs across SC, WO, RCsc, DRF0 and DRF1, comparing
//! simulated cost and detection results — Section 2.2's performance
//! motivation next to Section 4's detection guarantees.
//!
//! ```text
//! cargo run -p wmrd-xtests --example model_comparison
//! ```

use wmrd_core::PostMortem;
use wmrd_progs::{catalog, generate};
use wmrd_sim::{
    run_weak_hw, Fidelity, HwImpl, MemoryModel, Program, RandomWeakSched, RunConfig, WeakRoundRobin,
};
use wmrd_trace::{NullSink, TraceBuilder};

fn cycles(program: &Program, model: MemoryModel) -> u64 {
    let mut sink = NullSink::new();
    run_weak_hw(
        HwImpl::StoreBuffer,
        program,
        model,
        Fidelity::Conditioned,
        &mut WeakRoundRobin::new(),
        &mut sink,
        RunConfig::default(),
    )
    .expect("programs complete")
    .total_cycles()
}

fn race_verdict(program: &Program, model: MemoryModel, seed: u64) -> String {
    let mut sink = TraceBuilder::new(program.num_procs());
    let mut sched = RandomWeakSched::new(seed, 0.3);
    run_weak_hw(
        HwImpl::StoreBuffer,
        program,
        model,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::default(),
    )
    .expect("programs complete");
    let report = PostMortem::new(&sink.finish()).analyze().expect("analyzable");
    if report.is_race_free() {
        "race-free (certified SC)".into()
    } else {
        format!(
            "{} race(s), {} reported",
            report.data_races().count(),
            report.reported_races().len()
        )
    }
}

fn main() {
    let workloads: Vec<(&str, Program, bool)> = vec![
        ("fig1b (DRF)", catalog::fig1b().program, false),
        ("work-queue-buggy", catalog::work_queue_buggy().program, true),
        ("counter-locked(4x6)", catalog::counter_locked(4, 6).program, false),
        (
            "overlap (DRF)",
            generate::overlap(&generate::GenConfig {
                procs: 4,
                sections_per_proc: 6,
                ops_per_section: 12,
                ..Default::default()
            }),
            false,
        ),
    ];

    println!("simulated cycles by memory model (lower is better):");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload", "SC", "WO", "RCsc", "DRF0", "DRF1"
    );
    for (name, program, _) in &workloads {
        let row: Vec<u64> = MemoryModel::ALL.iter().map(|&m| cycles(program, m)).collect();
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}",
            name, row[0], row[1], row[2], row[3], row[4]
        );
    }

    println!();
    println!("detection verdicts on weak executions (seed 1):");
    println!("{:<22} {:<6} verdict", "workload", "model");
    for (name, program, _racy) in &workloads {
        for model in [MemoryModel::Wo, MemoryModel::RCsc] {
            println!("{:<22} {:<6} {}", name, model.to_string(), race_verdict(program, model, 1));
        }
    }

    println!();
    println!("takeaway: data-race-free programs get weak-model speedups *and* a");
    println!("sequential-consistency certificate from the detector; racy programs");
    println!("get first-partition reports that are valid under SC reasoning —");
    println!("no slow SC debugging mode required (the paper's conclusion).");
}
