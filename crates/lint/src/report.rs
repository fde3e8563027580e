//! Lock qualification, may-race pair construction and the report type.
//!
//! # From accesses to pairs
//!
//! Two abstract accesses *may race* when they come from different
//! processors, their location ranges overlap, they are not both
//! synchronization operations (a sync–sync conflict is exactly the
//! non-data-race class the dynamic side's
//! [`RaceKind`](wmrd_core::RaceKind) filters out), at least one side
//! writes, and no *qualified* lock is must-held around both sides.
//!
//! # Lock qualification
//!
//! The per-processor dataflow (see [`crate::absint`]) computes must-held
//! sets optimistically: it trusts that a `TestSet`/`Unset` location
//! behaves like a lock. That trust is discharged here, globally. A
//! location `l` is a **qualified lock** iff
//!
//! 1. every access (any processor) whose abstract range covers `l` is a
//!    `test&set` or `unset` with absolute address `l` — no plain loads,
//!    stores, or indirect accesses can perturb the lock word; and
//! 2. every `unset m[l]` executes at a point where `l` is must-held by
//!    the releasing processor — no "bare" releases that would hand the
//!    lock to a second owner while the first still holds it (Figure 1b's
//!    handoff `unset` is rejected by exactly this rule).
//!
//! Under 1–2 the usual mutual-exclusion induction goes through: a
//! confirmed `test&set` (read 0, wrote 1 atomically) keeps the lock word
//! 1 until the holder's `unset`, every later confirmation reads some
//! release's 0, and the acquire-read → release-write pairing makes
//! consecutive critical sections happens-before ordered on every
//! hardware obeying the paper's Condition 3.4. Accesses sharing a
//! qualified must-held lock therefore cannot race and are skipped.
//! Must-held sets mentioning *disqualified* locations are simply
//! filtered — the analysis degrades to reporting the pair, never to
//! missing it.

use std::collections::BTreeSet;

use wmrd_core::{RaceKey, SideKey};
use wmrd_trace::{metric_keys, AccessKind, Location, Metrics, ProcId};

use crate::absint::{Access, LockOp};

/// One side of a may-race instruction pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSide {
    /// Issuing processor.
    pub proc: ProcId,
    /// Instruction index within the processor's code.
    pub pc: usize,
    /// The instruction, disassembled.
    pub instr: String,
    /// `true` iff the side reads.
    pub reads: bool,
    /// `true` iff the side writes.
    pub writes: bool,
    /// `true` iff the side is a synchronization operation.
    pub sync: bool,
}

/// A pair of instructions that may race, with the overlap of their
/// abstract location ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MayRacePair {
    /// The side from the lower-numbered processor.
    pub a: PairSide,
    /// The other side.
    pub b: PairSide,
    /// First location both sides may touch.
    pub first: Location,
    /// Last location both sides may touch.
    pub last: Location,
}

/// A deterministic static may-race report for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Name of the analyzed program.
    pub program: String,
    /// Shared-memory size of the analyzed program.
    pub num_locations: u32,
    /// Processor count of the analyzed program.
    pub num_procs: usize,
    /// Abstract accesses extracted from reachable memory instructions.
    pub accesses: usize,
    /// Qualified lock locations (see the module docs).
    pub locks: Vec<Location>,
    /// May-race instruction pairs, in (proc, pc) order.
    pub pairs: Vec<MayRacePair>,
    /// The may-race set: every dynamic data-race identity of the
    /// program must be contained in it.
    pub keys: BTreeSet<RaceKey>,
}

wmrd_trace::impl_to_json!(PairSide { proc, pc, instr, reads, writes, sync });

wmrd_trace::impl_to_json!(MayRacePair { a, b, first, last });

// The `lint --format json` document (schema v1).
wmrd_trace::impl_to_json!(LintReport {
    program,
    num_locations,
    num_procs,
    accesses,
    locks,
    pairs,
    keys
});

impl LintReport {
    /// `true` iff the static may-race set is empty — the program cannot
    /// exhibit a data race on conforming hardware.
    pub fn is_race_free(&self) -> bool {
        self.keys.is_empty()
    }

    /// The soundness oracle: `true` iff `key` is in the may-race set.
    /// Every dynamically detected data-race key must satisfy this.
    pub fn covers(&self, key: &RaceKey) -> bool {
        self.keys.contains(key)
    }

    /// Records `lint.*` metrics for this report.
    pub fn record_into(&self, metrics: &Metrics) {
        metrics.incr(metric_keys::LINT_PROGRAMS);
        metrics.add(metric_keys::LINT_MAY_PAIRS, self.pairs.len() as u64);
        metrics.add(metric_keys::LINT_MAY_KEYS, self.keys.len() as u64);
        metrics.add(metric_keys::LINT_LOCKS, self.locks.len() as u64);
        if self.is_race_free() {
            metrics.incr(metric_keys::LINT_RACE_FREE);
        }
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "static may-race report for '{}' ({} procs, {} locations, {} accesses)",
            self.program, self.num_procs, self.num_locations, self.accesses
        );
        if self.locks.is_empty() {
            let _ = writeln!(out, "  qualified locks: none");
        } else {
            let locks: Vec<String> = self.locks.iter().map(|l| l.to_string()).collect();
            let _ = writeln!(out, "  qualified locks: {}", locks.join(", "));
        }
        let _ = writeln!(out, "  may-race pairs: {}", self.pairs.len());
        for pair in &self.pairs {
            let range = if pair.first == pair.last {
                pair.first.to_string()
            } else {
                format!("{}..{}", pair.first, pair.last)
            };
            let _ = writeln!(
                out,
                "    {}@{} `{}` x {}@{} `{}` on {}",
                pair.a.proc, pair.a.pc, pair.a.instr, pair.b.proc, pair.b.pc, pair.b.instr, range
            );
        }
        let _ = writeln!(out, "  may-race keys: {}", self.keys.len());
        for key in &self.keys {
            let _ = writeln!(out, "    {}: {} x {}", key.loc, side_str(&key.a), side_str(&key.b));
        }
        let verdict = if self.is_race_free() { "statically race-free" } else { "MAY RACE" };
        let _ = writeln!(out, "  verdict: {verdict}");
        out
    }
}

fn side_str(side: &SideKey) -> String {
    let class = if side.sync { "sync" } else { "data" };
    format!("{} {} {}", side.proc, side.kind, class)
}

/// Builds the report from every processor's abstract accesses (already
/// in (proc, pc) order).
pub fn build_report(program: &wmrd_sim::Program, accesses: Vec<Access>) -> LintReport {
    let qualified = qualified_locks(&accesses);
    let mut pairs = Vec::new();
    let mut keys = BTreeSet::new();
    for (i, x) in accesses.iter().enumerate() {
        for y in &accesses[i + 1..] {
            if x.proc == y.proc {
                continue; // program order covers same-processor pairs
            }
            let first = x.lo.max(y.lo);
            let last = x.hi.min(y.hi);
            if first > last {
                continue; // ranges cannot overlap
            }
            if x.sync && y.sync {
                continue; // sync-sync conflicts are not data races
            }
            if !(x.writes || y.writes) {
                continue; // two reads do not conflict
            }
            if x.held.intersection(&y.held).any(|l| qualified.contains(l)) {
                continue; // a common qualified lock orders the sides
            }
            pairs.push(MayRacePair {
                a: pair_side(x),
                b: pair_side(y),
                first: Location::new(first),
                last: Location::new(last),
            });
            for loc in first..=last {
                for ka in kinds(x) {
                    for kb in kinds(y) {
                        if ka == AccessKind::Read && kb == AccessKind::Read {
                            continue;
                        }
                        keys.insert(RaceKey::new(
                            Location::new(loc),
                            SideKey { proc: x.proc, kind: ka, sync: x.sync },
                            SideKey { proc: y.proc, kind: kb, sync: y.sync },
                        ));
                    }
                }
            }
        }
    }
    LintReport {
        program: program.name().to_string(),
        num_locations: program.num_locations(),
        num_procs: program.num_procs(),
        accesses: accesses.len(),
        locks: qualified.into_iter().collect(),
        pairs,
        keys,
    }
}

fn pair_side(a: &Access) -> PairSide {
    PairSide {
        proc: a.proc,
        pc: a.pc,
        instr: a.instr.to_string(),
        reads: a.reads,
        writes: a.writes,
        sync: a.sync,
    }
}

pub(crate) fn kinds(a: &Access) -> impl Iterator<Item = AccessKind> + '_ {
    [(a.reads, AccessKind::Read), (a.writes, AccessKind::Write)]
        .into_iter()
        .filter(|(present, _)| *present)
        .map(|(_, kind)| kind)
}

/// The globally qualified lock locations (module docs, rules 1–2).
fn qualified_locks(accesses: &[Access]) -> BTreeSet<Location> {
    let candidates: BTreeSet<Location> = accesses
        .iter()
        .filter_map(|a| match a.lock_op {
            Some(LockOp::Acquire(l)) | Some(LockOp::Release(l)) => Some(l),
            None => None,
        })
        .collect();
    candidates
        .into_iter()
        .filter(|&l| {
            accesses.iter().all(|a| {
                if !(a.lo <= l.addr() && l.addr() <= a.hi) {
                    return true; // cannot touch the lock word
                }
                match a.lock_op {
                    // An absolute lock op covering l addresses exactly l.
                    Some(LockOp::Acquire(_)) => true,
                    Some(LockOp::Release(_)) => a.held.contains(&l),
                    None => false,
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::{analyze_proc, proc_accesses};
    use wmrd_sim::{Addr, Instr, Operand, Program, Reg};

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn accesses_of(program: &Program) -> Vec<Access> {
        let mut out = Vec::new();
        for (pi, code) in program.procs().iter().enumerate() {
            let states = analyze_proc(code);
            out.extend(proc_accesses(
                ProcId::new(pi as u16),
                code,
                &states,
                program.num_locations(),
            ));
        }
        out
    }

    fn spin(lock: u32, body: Vec<Instr>) -> Vec<Instr> {
        let mut code = vec![
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(lock)) },
            Instr::Bnz { cond: Reg::new(0), target: 0 },
        ];
        code.extend(body);
        code.push(Instr::Unset { addr: Addr::Abs(l(lock)) });
        code.push(Instr::Halt);
        code
    }

    #[test]
    fn locked_stores_do_not_pair() {
        let mut p = Program::new("locked", 3);
        let body = vec![Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) }];
        p.push_proc(spin(2, body.clone()));
        p.push_proc(spin(2, body));
        p.validate().unwrap();
        let report = build_report(&p, accesses_of(&p));
        assert_eq!(report.locks, vec![l(2)], "the spin lock qualifies");
        assert!(report.is_race_free(), "{}", report.render());
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn unlocked_stores_pair_with_reads() {
        let mut p = Program::new("racy", 2);
        p.push_proc(vec![Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        p.push_proc(vec![
            Instr::Ld { dst: Reg::new(1), addr: Addr::Abs(l(0)) },
            Instr::Ld { dst: Reg::new(2), addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        p.validate().unwrap();
        let report = build_report(&p, accesses_of(&p));
        assert!(!report.is_race_free());
        assert_eq!(report.pairs.len(), 1, "only the overlapping pair: {}", report.render());
        assert_eq!(report.keys.len(), 1);
        let key = report.keys.iter().next().unwrap();
        assert_eq!(key.loc, l(0));
        assert!(report.covers(key));
        let other = RaceKey::new(
            l(1),
            SideKey { proc: ProcId::new(0), kind: AccessKind::Write, sync: false },
            SideKey { proc: ProcId::new(1), kind: AccessKind::Read, sync: false },
        );
        assert!(!report.covers(&other));
    }

    #[test]
    fn bare_release_disqualifies_the_lock() {
        // Figure 1b's handoff: P0 unsets without ever acquiring. The
        // lock word must not qualify, so P1's "critical section" reads
        // still pair with P0's writes.
        let mut p = Program::new("handoff", 3);
        p.set_init(l(2), wmrd_trace::Value::new(1));
        p.push_proc(vec![
            Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) },
            Instr::Unset { addr: Addr::Abs(l(2)) },
            Instr::Halt,
        ]);
        p.push_proc(spin(2, vec![Instr::Ld { dst: Reg::new(1), addr: Addr::Abs(l(0)) }]));
        p.validate().unwrap();
        let report = build_report(&p, accesses_of(&p));
        assert!(report.locks.is_empty(), "bare release breaks qualification");
        assert!(
            report.keys.iter().any(|k| k.loc == l(0)),
            "the data pair survives: {}",
            report.render()
        );
    }

    #[test]
    fn plain_store_to_the_lock_word_disqualifies_it() {
        let mut p = Program::new("smashed-lock", 3);
        p.push_proc(spin(2, vec![Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) }]));
        p.push_proc(vec![
            Instr::St { src: Operand::Imm(0), addr: Addr::Abs(l(2)) }, // smashes the lock word
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(2)) },
            Instr::Bnz { cond: Reg::new(0), target: 1 },
            Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) },
            Instr::Unset { addr: Addr::Abs(l(2)) },
            Instr::Halt,
        ]);
        p.validate().unwrap();
        let report = build_report(&p, accesses_of(&p));
        assert!(report.locks.is_empty(), "a plain store may smash the lock");
        assert!(report.keys.iter().any(|k| k.loc == l(0)), "{}", report.render());
    }

    #[test]
    fn sync_sync_pairs_are_not_data_races() {
        let mut p = Program::new("sync-only", 1);
        p.push_proc(vec![
            Instr::StSync { src: Operand::Imm(1), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        p.push_proc(vec![
            Instr::StSync { src: Operand::Imm(2), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        p.validate().unwrap();
        let report = build_report(&p, accesses_of(&p));
        assert!(report.is_race_free(), "{}", report.render());
    }

    #[test]
    fn data_sync_pairs_are_data_races() {
        let mut p = Program::new("data-sync", 1);
        p.push_proc(vec![Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        p.push_proc(vec![Instr::LdSync { dst: Reg::new(0), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        p.validate().unwrap();
        let report = build_report(&p, accesses_of(&p));
        assert_eq!(report.keys.len(), 1);
        let key = report.keys.iter().next().unwrap();
        assert!(key.a.sync != key.b.sync, "one sync side: {}", report.render());
    }

    #[test]
    fn single_processor_programs_are_race_free() {
        let mut p = Program::new("solo", 4);
        p.push_proc(vec![
            Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) },
            Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        p.validate().unwrap();
        let report = build_report(&p, accesses_of(&p));
        assert!(report.is_race_free());
        assert_eq!(report.accesses, 2);
    }

    #[test]
    fn render_mentions_the_verdict_and_pairs() {
        let mut p = Program::new("fig1a-ish", 1);
        p.push_proc(vec![Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        p.push_proc(vec![Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        let text = build_report(&p, accesses_of(&p)).render();
        assert!(text.contains("MAY RACE"), "{text}");
        assert!(text.contains("st 1, m[0]"), "{text}");
        assert!(text.contains("P0"), "{text}");
        let mut q = Program::new("quiet", 1);
        q.push_proc(vec![Instr::Halt]);
        let text = build_report(&q, accesses_of(&q)).render();
        assert!(text.contains("statically race-free"), "{text}");
        assert!(text.contains("qualified locks: none"), "{text}");
    }

    #[test]
    fn metrics_recording() {
        let metrics = Metrics::enabled();
        let mut p = Program::new("quiet", 1);
        p.push_proc(vec![Instr::Halt]);
        build_report(&p, accesses_of(&p)).record_into(&metrics);
        assert_eq!(metrics.counter(metric_keys::LINT_PROGRAMS), Some(1));
        assert_eq!(metrics.counter(metric_keys::LINT_RACE_FREE), Some(1));
    }
}
