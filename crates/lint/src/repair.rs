//! Static race repair: sync strengthening plus fence synthesis.
//!
//! The cycle analysis ([`crate::cycles`]) splits the may-race set in
//! two, and each half needs a different medicine:
//!
//! * **`sc-also` races** manifest under sequential consistency, so no
//!   fence can remove them — a fence orders a processor's own accesses,
//!   it does not publish them to the detector's happens-before. These
//!   are *protocol* bugs: the program forgot to mark its
//!   synchronization accesses as synchronization. Repair therefore
//!   **strengthens** locations: a greedy loop picks the location
//!   involved in the most `sc-also` pairs (preferring locations whose
//!   loaded value feeds a branch — the flag/spin idiom — and breaking
//!   remaining ties towards the lowest address), rewrites every
//!   resolved data access of it (`ld → ld.acq`, `st → st.rel`), and
//!   re-classifies, until no `sc-also` pair remains. Re-classification
//!   matters: strengthening the flag of a producer/consumer handoff
//!   turns the *data* pair `weak-only` via the new sync chain, so the
//!   payload is never strengthened — the repair mirrors what a
//!   programmer would write.
//! * **`weak-only` delays** are ordering obligations: the po edges of
//!   critical cycles (the Shasha–Snir delay set) that conforming
//!   hardware does not already enforce. Repair covers them with
//!   `Fence` insertions via greedy maximum-cover: a fence slot "before
//!   instruction `k`" covers delay `(i, j)` iff every path from `i` to
//!   `j` passes `k`; the slot covering the most uncovered delays wins
//!   (ties to the lowest `(proc, pc)`). Fences are computed from the
//!   *original* program's delay set — under raw (non-conforming)
//!   hardware the strengthened operations have no implicit ordering
//!   either, and the explicit fences are exactly what
//!   `explore --verify-repair`'s raw ablation exercises.
//!
//! Pairs with an unresolved side (interval over-approximations of
//! indirect addressing) are excluded from repair: rewriting a whole
//! address range would be guesswork, and the dynamic verification
//! harness confirms the resolved-scope repair already eliminates every
//! observable race of the catalog. Programs whose report contains no
//! `sc-also` pair and no uncovered critical delay repair to themselves
//! (`is_noop`), which is the golden-test contract for every already
//! race-free workload.

use std::collections::BTreeSet;
use std::fmt;

use wmrd_sim::{Addr, Instr, Program};
use wmrd_trace::{Location, ProcId};

use crate::cycles::{build_cycle_report, feeds_branch, CycleReport, Skeleton};
use crate::report::LintReport;

/// Cap on strengthening rounds (each round strengthens one location, so
/// the loop terminates long before this in practice).
pub const MAX_ROUNDS: usize = 64;

/// A synthesized fence, in the *original* program's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FenceSite {
    /// Processor receiving the fence.
    pub proc: ProcId,
    /// The fence is inserted immediately before this instruction index.
    pub before: usize,
}

/// A data access rewritten into a synchronization access, in the
/// original program's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RewriteSite {
    /// Processor owning the instruction.
    pub proc: ProcId,
    /// Instruction index.
    pub pc: usize,
    /// The strengthened location.
    pub loc: Location,
}

/// What the repair did, in original-program coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairPlan {
    /// Name of the repaired program.
    pub program: String,
    /// Locations strengthened, in greedy selection order.
    pub strengthened: Vec<Location>,
    /// Instructions rewritten (`ld → ld.acq`, `st → st.rel`).
    pub rewrites: Vec<RewriteSite>,
    /// Fences inserted.
    pub fences: Vec<FenceSite>,
    /// Strengthening rounds executed.
    pub rounds: usize,
}

wmrd_trace::impl_to_json!(FenceSite { proc, before });

wmrd_trace::impl_to_json!(RewriteSite { proc, pc, loc });

// The `repair` field of the `lint --cycles --format json` envelope.
wmrd_trace::impl_to_json!(RepairPlan { program, strengthened, rewrites, fences, rounds });

impl RepairPlan {
    /// `true` iff the repair changed nothing.
    pub fn is_noop(&self) -> bool {
        self.strengthened.is_empty() && self.fences.is_empty()
    }

    /// Renders the plan as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_noop() {
            let _ = writeln!(out, "repair for '{}': no-op (nothing to fix)", self.program);
            return out;
        }
        let _ = writeln!(
            out,
            "repair for '{}': {} location(s) strengthened over {} round(s), {} fence(s)",
            self.program,
            self.strengthened.len(),
            self.rounds,
            self.fences.len()
        );
        for loc in &self.strengthened {
            let sites: Vec<String> = self
                .rewrites
                .iter()
                .filter(|r| r.loc == *loc)
                .map(|r| format!("{}@{}", r.proc, r.pc))
                .collect();
            let _ = writeln!(out, "  strengthen {loc}: {}", sites.join(", "));
        }
        for f in &self.fences {
            let _ = writeln!(out, "  fence {} before @{}", f.proc, f.before);
        }
        out
    }
}

impl fmt::Display for RepairPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A repair: the plan plus the rebuilt program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repair {
    /// What was changed, and where.
    pub plan: RepairPlan,
    /// The repaired program (identical to the input when
    /// [`RepairPlan::is_noop`]).
    pub repaired: Program,
}

/// Repairs `program` given its lint `report`: strengthens locations
/// until no resolved `sc-also` pair remains, then fence-covers the
/// original program's uncovered critical delays.
pub fn repair(program: &Program, report: &LintReport) -> Repair {
    let sk0 = Skeleton::build(program);
    repair_from(program, &sk0, &build_cycle_report(report, &sk0))
}

/// [`repair`], given the original program's skeleton and cycle report.
pub(crate) fn repair_from(program: &Program, sk0: &Skeleton, cycles: &CycleReport) -> Repair {
    // Fences come from the original program's delay set.
    let uncovered: Vec<(usize, usize, usize)> =
        cycles.uncovered_delays().map(|d| (d.proc.index(), d.from, d.to)).collect();
    let fences = greedy_fence_cover(sk0, uncovered);

    // Strengthening loop: re-lint and re-classify after each pick.
    let mut cur = program.clone();
    let mut strengthened: Vec<Location> = Vec::new();
    let mut rewrites: Vec<RewriteSite> = Vec::new();
    let mut rounds = 0usize;
    while rounds < MAX_ROUNDS {
        let Some(loc) = pick_strengthen_target(&cur, &strengthened) else { break };
        rounds += 1;
        strengthened.push(loc);
        for (pi, code) in program.procs().iter().enumerate() {
            for (pc, instr) in code.iter().enumerate() {
                if rewrites_at(instr, loc) {
                    rewrites.push(RewriteSite { proc: ProcId::new(pi as u16), pc, loc });
                }
            }
        }
        cur = strengthen_location(&cur, loc);
    }

    let repaired = insert_fences(&cur, &fences);
    debug_assert!(repaired.validate().is_ok(), "repair produced an invalid program");
    Repair {
        plan: RepairPlan {
            program: program.name().to_string(),
            strengthened,
            rewrites,
            fences: fences
                .into_iter()
                .map(|(p, k)| FenceSite { proc: ProcId::new(p as u16), before: k })
                .collect(),
            rounds,
        },
        repaired,
    }
}

/// The location the greedy strengthening round picks, if any `sc-also`
/// pair with both sides resolved remains.
fn pick_strengthen_target(cur: &Program, already: &[Location]) -> Option<Location> {
    let report = crate::analyze(cur);
    let sk = Skeleton::build(cur);
    let mut counts: std::collections::BTreeMap<Location, usize> = Default::default();
    for p in &report.pairs {
        let (Some(x), Some(y)) = (sk.access(p.a.proc, p.a.pc), sk.access(p.b.proc, p.b.pc)) else {
            continue;
        };
        if !(x.resolved && y.resolved) || sk.witness(x, y).is_some() {
            continue;
        }
        *counts.entry(Location::new(x.lo.max(y.lo))).or_insert(0) += 1;
    }
    counts.retain(|l, _| !already.contains(l));
    let best = *counts.values().max()?;
    counts
        .iter()
        .filter(|(_, &c)| c == best)
        .map(|(&l, _)| l)
        // Prefer a location whose loaded value feeds a branch (the
        // guard-flag idiom); `false < true`, so max_by_key with the
        // negated address as the tiebreaker lands on (checked, lowest).
        .max_by_key(|&l| (has_checked_data_read(cur, &sk, l), std::cmp::Reverse(l)))
}

/// Some processor loads `loc` with a plain `ld` whose value feeds a
/// branch — the tell of a hand-rolled guard flag.
fn has_checked_data_read(program: &Program, sk: &Skeleton, loc: Location) -> bool {
    program.procs().iter().enumerate().any(|(pi, code)| {
        code.iter().enumerate().any(|(pc, instr)| match instr {
            Instr::Ld { dst, addr: Addr::Abs(l) } if *l == loc => {
                feeds_branch(code, &sk.cfgs[pi], pc, *dst)
            }
            _ => false,
        })
    })
}

/// `true` iff strengthening `loc` rewrites this instruction.
fn rewrites_at(instr: &Instr, loc: Location) -> bool {
    matches!(instr,
        Instr::Ld { addr: Addr::Abs(l), .. } | Instr::St { addr: Addr::Abs(l), .. } if *l == loc)
}

/// Rewrites every resolved data access of `loc` into its
/// synchronization counterpart.
fn strengthen_location(program: &Program, loc: Location) -> Program {
    let mut out = Program::new(program.name().to_string(), program.num_locations());
    for &(l, v) in program.init() {
        out.set_init(l, v);
    }
    for code in program.procs() {
        out.push_proc(
            code.iter()
                .map(|instr| match *instr {
                    Instr::Ld { dst, addr: Addr::Abs(l) } if l == loc => {
                        Instr::LdAcq { dst, addr: Addr::Abs(l) }
                    }
                    Instr::St { src, addr: Addr::Abs(l) } if l == loc => {
                        Instr::StRel { src, addr: Addr::Abs(l) }
                    }
                    other => other,
                })
                .collect(),
        );
    }
    out
}

/// Greedy maximum-cover of the uncovered delays by fence slots.
/// Delays and the returned slots are `(proc index, pc)` pairs in the
/// original program's coordinates.
fn greedy_fence_cover(
    sk: &Skeleton,
    mut uncovered: Vec<(usize, usize, usize)>,
) -> Vec<(usize, usize)> {
    let mut fences: Vec<(usize, usize)> = Vec::new();
    while !uncovered.is_empty() {
        let procs: BTreeSet<usize> = uncovered.iter().map(|d| d.0).collect();
        let mut best: Option<(usize, (usize, usize))> = None;
        for &proc in &procs {
            for k in 0..sk.code[proc].len() {
                let count = uncovered
                    .iter()
                    .filter(|&&(dp, i, j)| dp == proc && slot_covers(sk, proc, k, i, j))
                    .count();
                if count > 0
                    && best.is_none_or(|(bc, bs)| count > bc || (count == bc && (proc, k) < bs))
                {
                    best = Some((count, (proc, k)));
                }
            }
        }
        let Some((_, slot)) = best else {
            // No slot covers anything (cannot happen: the slot before
            // `j` always covers `(i, j)`), but never loop forever.
            break;
        };
        fences.push(slot);
        uncovered.retain(|&(dp, i, j)| !(dp == slot.0 && slot_covers(sk, slot.0, slot.1, i, j)));
    }
    fences.sort_unstable();
    fences.dedup();
    fences
}

/// A fence before instruction `k` covers the delay `(i, j)` iff every
/// CFG path from `i` to `j` passes `k` — checked by removing `k` and
/// testing that `j` became unreachable from `i`'s successors.
fn slot_covers(sk: &Skeleton, proc: usize, k: usize, i: usize, j: usize) -> bool {
    let cfg = &sk.cfgs[proc];
    let mut seen = vec![false; cfg.len()];
    let mut work: std::collections::VecDeque<usize> =
        cfg.succs(i).iter().copied().filter(|&s| s != k).collect();
    while let Some(q) = work.pop_front() {
        if seen[q] {
            continue;
        }
        if q == j {
            return false;
        }
        seen[q] = true;
        work.extend(cfg.succs(q).iter().copied().filter(|&s| s != k));
    }
    true
}

/// Rebuilds the program with fences inserted before the given original
/// instruction indices, remapping branch targets. A branch to a fenced
/// instruction lands on its fence (the fence must not be skippable).
fn insert_fences(program: &Program, fences: &[(usize, usize)]) -> Program {
    let mut out = Program::new(program.name().to_string(), program.num_locations());
    for &(l, v) in program.init() {
        out.set_init(l, v);
    }
    for (pi, code) in program.procs().iter().enumerate() {
        let slots: Vec<usize> = fences.iter().filter(|&&(p, _)| p == pi).map(|&(_, k)| k).collect();
        let shift = |q: usize| q + slots.iter().filter(|&&k| k <= q).count();
        let target = |t: usize| if slots.contains(&t) { shift(t) - 1 } else { shift(t) };
        let mut rebuilt = Vec::with_capacity(code.len() + slots.len());
        for (q, instr) in code.iter().enumerate() {
            if slots.contains(&q) {
                rebuilt.push(Instr::Fence);
            }
            rebuilt.push(match *instr {
                Instr::Jmp { target: t } => Instr::Jmp { target: target(t) },
                Instr::Bz { cond, target: t } => Instr::Bz { cond, target: target(t) },
                Instr::Bnz { cond, target: t } => Instr::Bnz { cond, target: target(t) },
                other => other,
            });
        }
        out.push_proc(rebuilt);
    }
    out
}
