//! Seeded random program generators.
//!
//! Three families, all deterministic per seed:
//!
//! * [`locked`] — every shared access sits inside a `Test&Set`/`Unset`
//!   critical section, so the program is data-race-free by construction
//!   (the generator-side ground truth used by Theorem-checking tests).
//! * [`racy`] — a mix of protected and unprotected shared accesses with a
//!   tunable fraction of rogue accesses.
//! * [`phased`] — `k` rounds of unsynchronized sharing separated by
//!   (unpaired) release writes; each round's races form one partition
//!   ordered after the previous round's, producing long partition chains
//!   for the partition-analysis benchmarks.

use wmrd_sim::{Program, Reg};
use wmrd_trace::{Location, SplitMix64};

use crate::ProcBuilder;

/// Parameters for the random generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Number of processors.
    pub procs: usize,
    /// Shared locations (on top of the lock word).
    pub shared_locations: u32,
    /// Critical sections (or access bursts) per processor.
    pub sections_per_proc: usize,
    /// Data operations per section.
    pub ops_per_section: usize,
    /// For [`racy`]: probability that a section skips the lock.
    pub rogue_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            procs: 3,
            shared_locations: 8,
            sections_per_proc: 3,
            ops_per_section: 4,
            rogue_fraction: 0.3,
            seed: 0,
        }
    }
}

impl GenConfig {
    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

const LOCK: Location = Location::new(0);

fn shared_loc(rng: &mut SplitMix64, cfg: &GenConfig) -> Location {
    Location::new(1 + rng.range(0..cfg.shared_locations))
}

fn emit_ops(p: &mut ProcBuilder, rng: &mut SplitMix64, cfg: &GenConfig) {
    for _ in 0..cfg.ops_per_section {
        let loc = shared_loc(rng, cfg);
        if rng.chance(0.5) {
            p.ld(Reg::new(1), loc);
        } else {
            p.st(rng.range(0..100), loc);
        }
    }
}

/// Generates a data-race-free program: every shared access is inside a
/// spin-lock critical section on one global lock.
pub fn locked(cfg: &GenConfig) -> Program {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut program = Program::new("gen-locked", 1 + cfg.shared_locations);
    for _ in 0..cfg.procs {
        let mut p = ProcBuilder::new();
        for _ in 0..cfg.sections_per_proc {
            p.lock(Reg::new(0), LOCK);
            emit_ops(&mut p, &mut rng, cfg);
            p.unset(LOCK);
        }
        p.halt();
        program.push_proc(p.assemble().expect("generated program assembles"));
    }
    debug_assert!(program.validate().is_ok());
    program
}

/// Generates a program where each section independently decides (with
/// probability `rogue_fraction`) to skip the lock — those sections' shared
/// accesses can race.
pub fn racy(cfg: &GenConfig) -> Program {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut program = Program::new("gen-racy", 1 + cfg.shared_locations);
    for _ in 0..cfg.procs {
        let mut p = ProcBuilder::new();
        for _ in 0..cfg.sections_per_proc {
            let rogue = rng.chance(cfg.rogue_fraction);
            if !rogue {
                p.lock(Reg::new(0), LOCK);
            }
            emit_ops(&mut p, &mut rng, cfg);
            if !rogue {
                p.unset(LOCK);
            }
        }
        p.halt();
        program.push_proc(p.assemble().expect("generated program assembles"));
    }
    debug_assert!(program.validate().is_ok());
    program
}

/// Generates a `rounds`-phase program: in each round every processor
/// performs unsynchronized shared accesses (racing with the other
/// processors' accesses of that round), then issues an unpaired release
/// write to a per-processor location. Round `k+1`'s races are po-after
/// round `k`'s, so the analysis produces a chain of `rounds` partitions
/// of which only the first is reported.
pub fn phased(cfg: &GenConfig, rounds: usize) -> Program {
    let mut rng = SplitMix64::new(cfg.seed);
    // Layout: locations 1..=shared_locations are shared data; after them,
    // one private sync location per processor.
    let sync_base = 1 + cfg.shared_locations;
    let mut program = Program::new("gen-phased", sync_base + cfg.procs as u32);
    for proc in 0..cfg.procs {
        let mut p = ProcBuilder::new();
        let my_sync = Location::new(sync_base + proc as u32);
        for round in 0..rounds {
            // Each round touches a dedicated location so rounds don't
            // collide with each other across phases.
            let loc = Location::new(1 + (round as u32 % cfg.shared_locations));
            if rng.chance(0.5) {
                p.ld(Reg::new(1), loc);
            } else {
                p.st(round as i64, loc);
            }
            p.st_rel(1, my_sync); // unpaired: orders nothing across procs
        }
        p.halt();
        program.push_proc(p.assemble().expect("generated program assembles"));
    }
    debug_assert!(program.validate().is_ok());
    program
}

/// Generates a *data-heavy* race-free program for tracing-cost studies:
/// each processor performs `cfg.sections_per_proc` computation bursts of
/// `cfg.ops_per_section` data accesses to its own private slice of
/// locations, each burst closed by one (unpaired) release write to a
/// per-processor sync location. No spins, no sharing: the trace is
/// dominated by large computation events, the regime where Section 4.1's
/// bit-vector READ/WRITE sets pay off over per-operation records.
pub fn sectioned(cfg: &GenConfig) -> Program {
    let mut rng = SplitMix64::new(cfg.seed);
    let per_proc = cfg.shared_locations.max(1);
    let sync_base = 1 + per_proc * cfg.procs as u32;
    let mut program = Program::new("gen-sectioned", sync_base + cfg.procs as u32);
    for proc in 0..cfg.procs {
        let base = 1 + per_proc * proc as u32;
        let my_sync = Location::new(sync_base + proc as u32);
        let mut p = ProcBuilder::new();
        for _ in 0..cfg.sections_per_proc {
            for _ in 0..cfg.ops_per_section {
                let loc = Location::new(base + rng.range(0..per_proc));
                if rng.chance(0.5) {
                    p.ld(Reg::new(1), loc);
                } else {
                    p.st(rng.range(0..100), loc);
                }
            }
            p.st_rel(1, my_sync);
        }
        p.halt();
        program.push_proc(p.assemble().expect("generated program assembles"));
    }
    debug_assert!(program.validate().is_ok());
    program
}

/// Generates the *release-overlap* workload for the model-performance
/// experiment (E10): each processor alternates a burst of
/// `cfg.ops_per_section` writes to private locations with a short
/// lock-protected critical section padded by register work.
///
/// Under WO the `Test&Set` acquiring the lock must stall until the
/// private writes drain; under RCsc the acquire proceeds immediately and
/// the writes drain in the background while the critical section's
/// register work runs — the overlap RCsc's acquire/release distinction
/// exists to enable.
pub fn overlap(cfg: &GenConfig) -> Program {
    let per_proc = cfg.shared_locations.max(1);
    // Layout: lock at 0, shared word at 1, private slices after.
    let shared = Location::new(1);
    let private_base = 2;
    let mut program = Program::new("gen-overlap", private_base + per_proc * cfg.procs as u32);
    for proc in 0..cfg.procs {
        let base = private_base + per_proc * proc as u32;
        let mut p = ProcBuilder::new();
        for section in 0..cfg.sections_per_proc {
            for i in 0..cfg.ops_per_section {
                let loc = Location::new(base + (i as u32 % per_proc));
                p.st(section as i64, loc);
            }
            p.lock(Reg::new(0), LOCK);
            p.ld(Reg::new(1), shared).add(Reg::new(1), Reg::new(1), 1).st(Reg::new(1), shared);
            // Register padding: time for background drains to overlap.
            for _ in 0..cfg.ops_per_section {
                p.add(Reg::new(2), Reg::new(2), 1);
            }
            p.unset(LOCK);
        }
        p.halt();
        program.push_proc(p.assemble().expect("generated program assembles"));
    }
    debug_assert!(program.validate().is_ok());
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_core::PostMortem;
    use wmrd_sim::{run_sc, RandomWeakSched, RunConfig};
    use wmrd_trace::TraceBuilder;

    fn trace_of(program: &Program, seed: u64) -> wmrd_trace::TraceSet {
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(program, &mut RandomWeakSched::new(seed, 0.0), &mut sink, RunConfig::uniform())
            .expect("generated programs halt");
        sink.finish()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let cfg = GenConfig::default().with_seed(11);
        assert_eq!(locked(&cfg), locked(&cfg));
        assert_eq!(racy(&cfg), racy(&cfg));
        assert_eq!(phased(&cfg, 3), phased(&cfg, 3));
        let other = GenConfig::default().with_seed(12);
        assert_ne!(racy(&cfg), racy(&other));
    }

    #[test]
    fn locked_programs_are_race_free_in_practice() {
        for seed in 0..10 {
            let cfg = GenConfig::default().with_seed(seed);
            let program = locked(&cfg);
            for sched_seed in 0..3 {
                let trace = trace_of(&program, sched_seed);
                let report = PostMortem::new(&trace).analyze().unwrap();
                assert!(
                    report.is_race_free(),
                    "locked program seed {seed} sched {sched_seed} raced:\n{report}"
                );
            }
        }
    }

    #[test]
    fn racy_programs_mostly_race() {
        let mut raced = 0;
        for seed in 0..10 {
            let cfg = GenConfig { rogue_fraction: 0.8, ..GenConfig::default().with_seed(seed) };
            let trace = trace_of(&racy(&cfg), seed);
            if !PostMortem::new(&trace).analyze().unwrap().is_race_free() {
                raced += 1;
            }
        }
        assert!(raced >= 7, "expected most rogue-heavy programs to race, got {raced}/10");
    }

    #[test]
    fn racy_with_zero_rogue_fraction_is_locked() {
        let cfg = GenConfig { rogue_fraction: 0.0, ..GenConfig::default().with_seed(5) };
        let trace = trace_of(&racy(&cfg), 1);
        assert!(PostMortem::new(&trace).analyze().unwrap().is_race_free());
    }

    #[test]
    fn phased_programs_produce_partition_chains() {
        let cfg = GenConfig { procs: 2, shared_locations: 8, ..GenConfig::default().with_seed(3) };
        let rounds = 4;
        let program = phased(&cfg, rounds);
        let trace = trace_of(&program, 0);
        let report = PostMortem::new(&trace).analyze().unwrap();
        // Rounds write/read a location per round; with 2 procs some
        // rounds may pick read/read (no race), so partitions ≤ rounds,
        // but the chain property must hold: exactly one first partition
        // when any races exist, because later rounds are po-after round 1.
        if !report.is_race_free() {
            assert_eq!(
                report.partitions.first_indices().len(),
                1,
                "phase chain must yield a single first partition:\n{report}"
            );
        }
    }

    #[test]
    fn phased_round_one_is_the_first_partition() {
        // Force writes by probing seeds until round 0 races, then check
        // the first partition's races touch round 0's location.
        for seed in 0..20 {
            let cfg = GenConfig { procs: 3, ..GenConfig::default().with_seed(seed) };
            let program = phased(&cfg, 3);
            let trace = trace_of(&program, 0);
            let report = PostMortem::new(&trace).analyze().unwrap();
            if report.partitions.len() >= 2 {
                let first = report.first_partitions().next().unwrap();
                let race = &report.races[first.races[0]];
                assert!(
                    race.locations.contains(Location::new(1)),
                    "seed {seed}: first partition should be round 0 (location 1):\n{report}"
                );
                return;
            }
        }
        panic!("no seed produced a multi-partition phased program");
    }

    #[test]
    fn generated_programs_validate_and_halt() {
        let cfg = GenConfig { procs: 4, sections_per_proc: 5, ..GenConfig::default() };
        for program in [locked(&cfg), racy(&cfg), phased(&cfg, 5), sectioned(&cfg), overlap(&cfg)] {
            program.validate().unwrap();
            let _ = trace_of(&program, 7);
        }
    }

    #[test]
    fn sectioned_and_overlap_are_race_free() {
        for seed in 0..5 {
            let cfg = GenConfig { procs: 3, ..GenConfig::default().with_seed(seed) };
            for program in [sectioned(&cfg), overlap(&cfg)] {
                let trace = trace_of(&program, seed);
                let report = PostMortem::new(&trace).analyze().unwrap();
                assert!(report.is_race_free(), "{} seed {seed} raced:\n{report}", program.name());
            }
        }
    }

    #[test]
    fn sectioned_folds_large_computation_events() {
        let cfg = GenConfig {
            procs: 2,
            ops_per_section: 32,
            sections_per_proc: 2,
            ..GenConfig::default()
        };
        let program = sectioned(&cfg);
        let trace = trace_of(&program, 0);
        // Each section folds into one computation event + one sync event.
        let p0 = trace.processor(wmrd_trace::ProcId::new(0)).unwrap();
        assert_eq!(p0.events().len(), 4);
        let comp = p0.events()[0].as_computation().unwrap();
        assert_eq!(comp.op_count, 32);
    }
}
