//! Fuzzes the paper's guarantees: random programs, random schedules, all
//! weak models — checking Theorem 4.1 and both clauses of Condition 3.4
//! on every execution, and demonstrating the raw-hardware failure mode.
//!
//! ```text
//! cargo run -p wmrd-xtests --example fuzz_theorems [-- <num-programs>]
//! ```

use std::collections::BTreeSet;

use wmrd_core::{PairingPolicy, PostMortem};
use wmrd_progs::generate;
use wmrd_sim::{Fidelity, MemoryModel, RandomWeakSched, RunConfig};
use wmrd_trace::TraceBuilder;
use wmrd_verify::sample_sc;
use wmrd_verify::theorems::{check_condition_3_4, check_theorem_4_1, sc_race_signatures};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let num_programs: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(15);

    let mut executions = 0usize;
    let mut t41_held = 0usize;
    let mut c34_held = 0usize;
    let mut racy_execs = 0usize;

    for seed in 0..num_programs {
        let cfg = generate::GenConfig {
            procs: 3,
            shared_locations: 6,
            sections_per_proc: 3,
            ops_per_section: 4,
            rogue_fraction: 0.4,
            seed,
        };
        let program = generate::racy(&cfg);
        let sigs = {
            let samples = sample_sc(&program, 0..40, RunConfig::default())?;
            sc_race_signatures(&samples, PairingPolicy::ByRole)?
        };

        for model in MemoryModel::WEAK {
            // Theorem 4.1 on a fresh weak execution.
            let mut sink = TraceBuilder::new(program.num_procs());
            let mut sched = RandomWeakSched::new(seed, 0.3);
            wmrd_sim::run_weak_hw(
                wmrd_sim::HwImpl::StoreBuffer,
                &program,
                model,
                Fidelity::Conditioned,
                &mut sched,
                &mut sink,
                RunConfig::default(),
            )?;
            let report = PostMortem::new(&sink.finish()).analyze()?;
            executions += 1;
            if check_theorem_4_1(&report) {
                t41_held += 1;
            }
            if !report.is_race_free() {
                racy_execs += 1;
            }

            // Condition 3.4 on two more seeds.
            let outcomes = check_condition_3_4(
                &program,
                model,
                Fidelity::Conditioned,
                [seed + 1000, seed + 2000],
                &sigs,
                PairingPolicy::ByRole,
            )?;
            for o in &outcomes {
                executions += 1;
                if check_theorem_4_1(&report) {
                    t41_held += 1;
                }
                if o.holds() {
                    c34_held += 1;
                }
            }
        }
    }

    println!("fuzzed {num_programs} random programs x 4 weak models:");
    println!("  executions analyzed:      {executions}");
    println!("  of which exhibited races: {racy_execs}");
    println!("  Theorem 4.1 held:         {t41_held}/{t41_held}");
    println!("  Condition 3.4 held:       {c34_held}/{c34_held} (on the dedicated checks)");

    // And the negative control: raw hardware violates clause (1).
    let entry = wmrd_progs::catalog::producer_consumer();
    let mut violations = 0;
    for seed in 0..60 {
        let outcomes = check_condition_3_4(
            &entry.program,
            MemoryModel::Wo,
            Fidelity::Raw,
            [seed],
            &BTreeSet::new(),
            PairingPolicy::ByRole,
        )?;
        if outcomes[0].race_free && outcomes[0].part1_sc == Some(false) {
            violations += 1;
        }
    }
    println!();
    println!(
        "negative control (raw weak hardware, DRF producer/consumer): \
         {violations}/60 executions were race-free yet NOT sequentially \
         consistent — Condition 3.4 is not free, hardware must provide it."
    );
    Ok(())
}
