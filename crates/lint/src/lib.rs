//! Static may-race analysis over program text.
//!
//! The detection pipeline in this workspace is post-mortem: it finds the
//! races of one *observed* execution. This crate closes the other side
//! of the gap: given only the program text (a [`Program`]), it computes
//! a conservative **may-race set** — an over-approximation that every
//! dynamic finding must fall inside. That makes it two things at once:
//!
//! * a **soundness oracle** — for any execution of the program, every
//!   data-race identity ([`RaceKey`](wmrd_core::RaceKey)) the dynamic
//!   detector reports must satisfy [`LintReport::covers`]; the xtest
//!   suite enforces `dynamic ⊆ static` over the whole program catalog;
//! * a **pre-filter** — a program whose may-race set is empty
//!   ([`LintReport::is_race_free`]) cannot produce findings, so explore
//!   campaigns can skip it (`wmrd explore --prune-static`).
//!
//! # How it works
//!
//! 1. **CFG construction** ([`Cfg`](cfg::Cfg)): one graph per processor
//!    from the [`Instr`](wmrd_sim::Instr) stream — fall-throughs, branch
//!    targets, `Halt` sinks.
//! 2. **Abstract interpretation** ([`absint`]): a worklist fixpoint over
//!    an interval domain for registers, with branch-edge refinement and
//!    widening on loops. Indirect addresses (`Addr::Ind`) resolve
//!    through the base register's interval into a conservative location
//!    range, clamped to the memory bounds (an out-of-range address
//!    aborts execution before any access). Values loaded from memory
//!    are unknown (`FULL`) — the documented imprecision: an access whose
//!    base was loaded covers all of memory.
//! 3. **Synchronization skeleton**: the same fixpoint tracks
//!    `TestSet`-result register tags and a must-held lock set. A lock is
//!    counted as acquired only on a branch edge proving the `test&set`
//!    read zero (the spin idiom's exit edge); `unset` releases it.
//!    [`report`] then *qualifies* locks globally — a lock word touched
//!    by anything other than its own `test&set`/`unset`, or released
//!    while not held, protects nothing.
//! 4. **Report** ([`LintReport`]): cross-processor access pairs with
//!    overlapping ranges, minus sync–sync pairs, read–read pairs and
//!    pairs sharing a qualified must-held lock, expanded into the same
//!    normalized [`RaceKey`](wmrd_core::RaceKey)s the dynamic side
//!    emits — static and dynamic results are directly comparable.
//!
//! The soundness argument and known imprecision are documented in
//! DESIGN.md ("Static analysis"). Note the oracle speaks about hardware
//! obeying the paper's Condition 3.4 (every [`Fidelity::Full`]
//! machine); the deliberately broken `Fidelity::Raw` ablation can
//! violate mutual exclusion itself, taking executions outside any
//! static contract.
//!
//! [`Fidelity::Full`]: wmrd_sim::Fidelity
//!
//! # Example
//!
//! ```
//! use wmrd_sim::{Addr, Instr, Operand, Program, Reg};
//! use wmrd_trace::Location;
//!
//! // P0 stores, P1 loads the same location: a textbook may-race.
//! let mut p = Program::new("demo", 1);
//! p.push_proc(vec![
//!     Instr::St { src: Operand::Imm(1), addr: Addr::Abs(Location::new(0)) },
//!     Instr::Halt,
//! ]);
//! p.push_proc(vec![
//!     Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(Location::new(0)) },
//!     Instr::Halt,
//! ]);
//! let report = wmrd_lint::analyze(&p);
//! assert!(!report.is_race_free());
//! assert_eq!(report.keys.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absint;
pub mod cfg;
pub mod cycles;
pub mod domain;
pub mod repair;
pub mod report;

use wmrd_sim::Program;
use wmrd_trace::{metric_keys, Metrics, ProcId};

pub use absint::{Access, LockOp};
pub use cycles::{analyze_cycles, CycleReport, DelayPair, KeyClass, RaceClass, Witness};
pub use domain::{AbsState, Interval};
pub use repair::{repair, FenceSite, Repair, RepairPlan, RewriteSite};
pub use report::{LintReport, MayRacePair, PairSide};

/// Statically analyzes a program and returns its may-race report.
///
/// The analysis is deterministic — same program, same report — and pure:
/// it never executes the program.
pub fn analyze(program: &Program) -> LintReport {
    let mut accesses = Vec::new();
    for (pi, code) in program.procs().iter().enumerate() {
        let states = absint::analyze_proc(code);
        accesses.extend(absint::proc_accesses(
            ProcId::new(pi as u16),
            code,
            &states,
            program.num_locations(),
        ));
    }
    report::build_report(program, accesses)
}

/// [`analyze`], timed under the `lint.analysis` phase with `lint.*`
/// counters recorded into `metrics`.
pub fn analyze_with_metrics(program: &Program, metrics: &Metrics) -> LintReport {
    let report = metrics.time(metric_keys::LINT_ANALYSIS, || analyze(program));
    report.record_into(metrics);
    report
}

/// [`analyze_cycles`], timed under the `lint.cycles.analysis` phase
/// with `lint.cycles.*` counters recorded into `metrics`.
pub fn analyze_cycles_with_metrics(
    program: &Program,
    report: &LintReport,
    metrics: &Metrics,
) -> CycleReport {
    let cycles =
        metrics.time(metric_keys::LINT_CYCLES_ANALYSIS, || analyze_cycles(program, report));
    metrics.add(metric_keys::LINT_CYCLES_FOUND, cycles.cycles as u64);
    metrics.add(metric_keys::LINT_CYCLES_SC_ALSO, cycles.sc_also as u64);
    metrics.add(metric_keys::LINT_CYCLES_WEAK_ONLY, cycles.weak_only as u64);
    metrics.add(metric_keys::LINT_CYCLES_DELAYS, cycles.delays.len() as u64);
    if cycles.capped {
        metrics.add(metric_keys::LINT_CYCLES_CAPPED, 1);
    }
    cycles
}

/// [`repair()`], timed under the `lint.repair.synthesis` phase with
/// `lint.repair.*` counters recorded into `metrics`.
pub fn repair_with_metrics(program: &Program, report: &LintReport, metrics: &Metrics) -> Repair {
    let result = metrics.time(metric_keys::LINT_REPAIR_SYNTHESIS, || repair(program, report));
    metrics.add(metric_keys::LINT_REPAIR_FENCES, result.plan.fences.len() as u64);
    metrics.add(metric_keys::LINT_REPAIR_STRENGTHENED, result.plan.strengthened.len() as u64);
    metrics.add(metric_keys::LINT_REPAIR_REWRITES, result.plan.rewrites.len() as u64);
    if result.plan.is_noop() {
        metrics.add(metric_keys::LINT_REPAIR_NOOP, 1);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_progs::catalog;

    #[test]
    fn analysis_is_deterministic_over_the_catalog() {
        for entry in catalog::all() {
            let a = analyze(&entry.program);
            let b = analyze(&entry.program);
            assert_eq!(a, b, "{}", entry.name);
        }
    }

    #[test]
    fn racy_catalog_entries_are_never_statically_race_free() {
        // The ground-truth direction of soundness: if the catalog says a
        // program races, the over-approximation must contain it.
        for entry in catalog::all() {
            let report = analyze(&entry.program);
            if entry.racy {
                assert!(
                    !report.is_race_free(),
                    "{} is racy but lint missed it:\n{}",
                    entry.name,
                    report.render()
                );
            }
        }
    }

    #[test]
    fn metrics_aggregate_across_programs() {
        let metrics = Metrics::enabled();
        let mut analyzed = 0;
        for entry in catalog::all() {
            analyze_with_metrics(&entry.program, &metrics);
            analyzed += 1;
        }
        assert_eq!(metrics.counter(metric_keys::LINT_PROGRAMS), Some(analyzed));
        assert!(metrics.counter(metric_keys::LINT_MAY_KEYS).unwrap_or(0) > 0);
    }
}
