//! Critical-cycle delay-set analysis and race classification.
//!
//! [`LintReport`] answers *whether* two accesses may race; this module
//! answers *what kind* of race it would be and *what ordering work* the
//! hardware must do. Following Shasha–Snir delay-set analysis, it builds
//! a static **conflict graph** whose nodes are the abstract accesses the
//! interpreter resolves: **program-order edges** (CFG reachability
//! within one processor) and **conflict edges** (cross-processor
//! overlapping accesses, at least one write). Mixed cycles through that
//! graph — each processor contributing one access or a program-ordered
//! pair — are the executions weak hardware can realize out of order; the
//! po edges of cycles that run through an `sc-also` conflict are the
//! **delay set** a `Fence` cover must enforce.
//!
//! # Classification
//!
//! Every may-race key is tagged:
//!
//! * **`weak-only`** — a static ordering witness ties the two sides to
//!   the program's synchronization skeleton, so on hardware obeying the
//!   paper's Condition 3.4 the pair is ordered (or mutually excluded)
//!   in every execution and only the *static* analysis, not the
//!   hardware, can realize the race. Three witnesses are recognized:
//!   1. **lock** — both sides must-hold a common `Test&Set` lock;
//!   2. **sync chain** — one side is (or is post-dominated by) a
//!      synchronization write of some location `L` and the other side
//!      is dominated by a *checked* synchronization read of `L` (a
//!      sync read whose value feeds a branch before being clobbered —
//!      the spin/guard idiom), i.e. a release→confirmed-acquire handoff
//!      orders the pair exactly as the detector's `hb1` would;
//!   3. **mutual guard** — each side executes only behind a checked
//!      sync read of a location the *other* processor sync-writes (the
//!      Dekker entry-protocol shape: the pair is mutually excluded
//!      under any sequentially consistent interleaving of the guards).
//! * **`sc-also`** — no witness: the race needs no weak-memory
//!   reordering to manifest, so fences cannot remove it (a fence orders
//!   accesses, it does not create `hb1` edges); repair must strengthen
//!   the accesses into synchronization operations instead.
//!
//! The witnesses are deliberately syntactic — no value reasoning — and
//! therefore heuristic in the `weak-only` direction; the
//! `explore --verify-repair` harness keeps them honest dynamically by
//! re-running every repaired program across all hardware backends.
//!
//! # Bounds
//!
//! Cycle enumeration is exact but bounded: every cycle visits each
//! processor at most once and contributes at most two accesses per
//! processor (minimal critical cycles need no more), only accesses with
//! statically resolved addresses participate, and at most
//! [`MAX_CYCLES`] distinct cycles are collected (`capped` reports
//! truncation). Truncation leaves every key's class alone — classes
//! come from witnesses, not cycles — but the per-key cycle counts and
//! the delay set, and so the fences repair derives from it, then rest
//! on the truncated sample. Pairs with an unresolved side are
//! address-approximation artifacts; they are classified but excluded
//! from the delay set and from repair (see DESIGN.md §11).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

use wmrd_core::{RaceKey, SideKey};
use wmrd_sim::{Addr, Instr, Program};
use wmrd_trace::{AccessKind, Json, Location, ProcId, ToJson};

use crate::absint::Access;
use crate::cfg::Cfg;
use crate::report::{kinds, LintReport};

/// Cap on distinct enumerated cycles; `CycleReport::capped` records a
/// hit. Generous: the whole catalog stays far below it.
pub const MAX_CYCLES: usize = 4096;

/// The two race classes of a may-race key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceClass {
    /// No ordering witness: the race can manifest under sequential
    /// consistency; repair requires sync strengthening, not fences.
    ScAlso,
    /// A static witness orders or excludes the pair on conforming
    /// hardware: only weak reordering (or static over-approximation)
    /// realizes it.
    WeakOnly,
}

impl ToJson for RaceClass {
    fn json(&self) -> Json {
        self.to_string().json()
    }
}

impl fmt::Display for RaceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceClass::ScAlso => write!(f, "sc-also"),
            RaceClass::WeakOnly => write!(f, "weak-only"),
        }
    }
}

/// Why a pair (and hence a key) classifies `weak-only`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Witness {
    /// Both sides must-hold this lock.
    Lock {
        /// The common must-held lock word.
        loc: Location,
    },
    /// Release→confirmed-acquire handoff through this location.
    SyncChain {
        /// The synchronization location carrying the handoff.
        loc: Location,
    },
    /// Dekker-style mutual guards on these two locations.
    MutualGuard {
        /// Location guarding the lower-processor side.
        a: Location,
        /// Location guarding the other side.
        b: Location,
    },
}

/// Tagged by `kind`: `{"kind": "mutual-guard", "a": 3, "b": 4}`.
impl ToJson for Witness {
    fn json(&self) -> Json {
        match *self {
            Witness::Lock { loc } => Json::object([("kind", "lock".json()), ("loc", loc.json())]),
            Witness::SyncChain { loc } => {
                Json::object([("kind", "sync-chain".json()), ("loc", loc.json())])
            }
            Witness::MutualGuard { a, b } => {
                Json::object([("kind", "mutual-guard".json()), ("a", a.json()), ("b", b.json())])
            }
        }
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::Lock { loc } => write!(f, "lock {loc}"),
            Witness::SyncChain { loc } => write!(f, "sync chain via {loc}"),
            Witness::MutualGuard { a, b } => write!(f, "mutual guard {a}/{b}"),
        }
    }
}

/// One classified may-race key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyClass {
    /// The race identity, as in [`LintReport::keys`].
    pub key: RaceKey,
    /// Its class.
    pub class: RaceClass,
    /// The witness, for `weak-only` keys.
    pub witness: Option<Witness>,
    /// Distinct enumerated cycles through any conflict edge
    /// contributing this key.
    pub cycles: usize,
}

/// A program-order edge of some enumerated cycle: the Shasha–Snir
/// *delay* — hardware must globally perform `from` before `to`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DelayPair {
    /// The processor both ends execute on.
    pub proc: ProcId,
    /// Instruction index performed first.
    pub from: usize,
    /// Instruction index that must wait.
    pub to: usize,
    /// `true` iff conforming hardware already enforces the delay: the
    /// first end is a synchronization operation, the second is a
    /// synchronization write, or every path between them crosses a
    /// fence or synchronization operation.
    pub enforced: bool,
    /// `true` iff the delay lies on a cycle through an `sc-also`
    /// conflict — the class a fence cover must enforce.
    pub critical: bool,
}

/// The cycle/classification report layered over a [`LintReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleReport {
    /// Name of the analyzed program.
    pub program: String,
    /// Distinct cycles enumerated (over resolved accesses).
    pub cycles: usize,
    /// `true` iff enumeration stopped at [`MAX_CYCLES`].
    pub capped: bool,
    /// Classified keys, in [`LintReport::keys`] order.
    pub classes: Vec<KeyClass>,
    /// The delay set, deduplicated and ordered.
    pub delays: Vec<DelayPair>,
    /// Number of `sc-also` keys.
    pub sc_also: usize,
    /// Number of `weak-only` keys.
    pub weak_only: usize,
}

wmrd_trace::impl_to_json!(KeyClass { key, class, witness, cycles });

wmrd_trace::impl_to_json!(DelayPair { proc, from, to, enforced, critical });

// The `cycles` field of the `lint --cycles --format json` envelope.
wmrd_trace::impl_to_json!(CycleReport {
    program,
    cycles,
    capped,
    classes,
    delays,
    sc_also,
    weak_only
});

impl CycleReport {
    /// The classification of `key`, if it is in the may-race set.
    pub fn class_of(&self, key: &RaceKey) -> Option<RaceClass> {
        self.classes.iter().find(|c| &c.key == key).map(|c| c.class)
    }

    /// Delay pairs that are critical (on an `sc-also` cycle) and not
    /// already hardware-enforced — the fence-synthesis obligation.
    pub fn uncovered_delays(&self) -> impl Iterator<Item = &DelayPair> {
        self.delays.iter().filter(|d| d.critical && !d.enforced)
    }

    /// Renders the classification as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let capped = if self.capped { " (capped)" } else { "" };
        let _ = writeln!(
            out,
            "cycle classification for '{}' ({} cycle(s){capped}, {} key(s): {} sc-also, {} weak-only)",
            self.program,
            self.cycles,
            self.classes.len(),
            self.sc_also,
            self.weak_only
        );
        let critical = self.delays.iter().filter(|d| d.critical).count();
        let uncovered = self.uncovered_delays().count();
        let _ = writeln!(
            out,
            "  delay set: {} pair(s) ({} critical, {} uncovered)",
            self.delays.len(),
            critical,
            uncovered
        );
        for d in self.delays.iter().filter(|d| d.critical) {
            let state = if d.enforced { "enforced" } else { "UNCOVERED" };
            let _ = writeln!(out, "    delay {}@{} -> @{} [{}]", d.proc, d.from, d.to, state);
        }
        for c in &self.classes {
            let why = match (&c.class, &c.witness) {
                (RaceClass::WeakOnly, Some(w)) => format!(" ({w})"),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "  {}: {} x {} -> {}{}, {} cycle(s)",
                c.key.loc,
                side(&c.key.a),
                side(&c.key.b),
                c.class,
                why,
                c.cycles
            );
        }
        out
    }
}

fn side(s: &wmrd_core::SideKey) -> String {
    let class = if s.sync { "sync" } else { "data" };
    format!("{} {} {}", s.proc, s.kind, class)
}

/// The per-program static skeleton shared by classification and repair:
/// CFGs, accesses, reachability and the sync-ordering dataflows.
#[derive(Debug)]
pub(crate) struct Skeleton {
    pub(crate) cfgs: Vec<Cfg>,
    /// Per-processor instruction streams (fence positions feed the
    /// delay-enforcement check).
    pub(crate) code: Vec<Vec<Instr>>,
    /// Accesses grouped by processor, each in pc order.
    pub(crate) accesses: Vec<Vec<Access>>,
    /// `at_pc[p][pc]`: index into `accesses[p]` of the (first) access
    /// at `pc`.
    at_pc: Vec<Vec<Option<usize>>>,
    /// `reach[p][i][j]`: a CFG path leads from pc `i` to pc `j` (i ≠ j
    /// allowed to both hold on loops; `i == j` only via a cycle).
    reach: Vec<Vec<Vec<bool>>>,
    /// `rel_after[p][pc]`: locations a sync *write* of which lies on
    /// every path strictly after `pc`.
    rel_after: Vec<Vec<BTreeSet<Location>>>,
    /// `acq_before[p][pc]`: locations a *checked* sync read of which
    /// lies on every path strictly before `pc`.
    acq_before: Vec<Vec<BTreeSet<Location>>>,
    /// `checked[p][pc]`: pc is a sync read whose value feeds a branch
    /// before being clobbered.
    checked: Vec<Vec<bool>>,
    /// Locations each processor sync-writes at a resolved address.
    sync_writes: Vec<BTreeSet<Location>>,
    /// Locations some processor `test&set`s — lock-protocol words, whose
    /// handoffs order outside accesses only conditionally (see
    /// [`Skeleton::witness`]).
    lock_like: BTreeSet<Location>,
    /// Locations with a nonzero initial value. A `test&set` of such a
    /// word confirms a *release happened* (only an `unset` can make the
    /// spin exit), so its handoff is ordering even without conflicting
    /// sections — the Figure 1b shape.
    init_nonzero: BTreeSet<Location>,
}

impl Skeleton {
    pub(crate) fn build(program: &Program) -> Self {
        let mut cfgs = Vec::new();
        let mut codes = Vec::new();
        let mut accesses = Vec::new();
        let mut at_pc = Vec::new();
        let mut reach = Vec::new();
        let mut rel_after = Vec::new();
        let mut acq_before = Vec::new();
        let mut checked = Vec::new();
        let mut sync_writes = Vec::new();
        let lock_like: BTreeSet<Location> = program
            .procs()
            .iter()
            .flatten()
            .filter_map(|i| match i {
                Instr::TestSet { addr: Addr::Abs(l), .. } => Some(*l),
                _ => None,
            })
            .collect();
        let init_nonzero: BTreeSet<Location> = program
            .initial_memory()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.get() != 0)
            .map(|(i, _)| Location::new(i as u32))
            .collect();
        for (pi, code) in program.procs().iter().enumerate() {
            let cfg = Cfg::build(code);
            let states = crate::absint::analyze_proc(code);
            let accs = crate::absint::proc_accesses(
                ProcId::new(pi as u16),
                code,
                &states,
                program.num_locations(),
            );
            let n = code.len();
            let mut rch = vec![vec![false; n]; n];
            for (i, row) in rch.iter_mut().enumerate() {
                let mut work: VecDeque<usize> = cfg.succs(i).iter().copied().collect();
                while let Some(j) = work.pop_front() {
                    if !row[j] {
                        row[j] = true;
                        work.extend(cfg.succs(j));
                    }
                }
            }
            let chk: Vec<bool> = (0..n).map(|pc| is_checked_read(code, &cfg, pc)).collect();
            let rel = must_after_sync_writes(code, &cfg);
            let acq = must_before_checked_reads(code, &cfg, &chk);
            let sw: BTreeSet<Location> = accs
                .iter()
                .filter(|a| a.sync && a.writes && a.resolved)
                .map(|a| Location::new(a.lo))
                .collect();
            let mut idx = vec![None; n];
            for (k, a) in accs.iter().enumerate() {
                idx[a.pc].get_or_insert(k);
            }
            cfgs.push(cfg);
            codes.push(code.clone());
            accesses.push(accs);
            at_pc.push(idx);
            reach.push(rch);
            rel_after.push(rel);
            acq_before.push(acq);
            checked.push(chk);
            sync_writes.push(sw);
        }
        Skeleton {
            cfgs,
            code: codes,
            accesses,
            at_pc,
            reach,
            rel_after,
            acq_before,
            checked,
            sync_writes,
            lock_like,
            init_nonzero,
        }
    }

    pub(crate) fn access(&self, proc: ProcId, pc: usize) -> Option<&Access> {
        self.access_at(proc.index(), pc)
    }

    fn access_at(&self, proc: usize, pc: usize) -> Option<&Access> {
        let k = (*self.at_pc.get(proc)?.get(pc)?)?;
        Some(&self.accesses[proc][k])
    }

    fn reaches(&self, proc: usize, i: usize, j: usize) -> bool {
        self.reach[proc][i][j]
    }

    /// Sync-write locations every path strictly after the access passes,
    /// plus the access's own location if it is itself a resolved sync
    /// write — the release end of a chain.
    fn rel_after_star(&self, a: &Access) -> BTreeSet<Location> {
        let mut out = self.rel_after[a.proc.index()][a.pc].clone();
        if a.sync && a.writes && a.resolved {
            out.insert(Location::new(a.lo));
        }
        out
    }

    /// Checked-sync-read locations every path strictly before the
    /// access passes, plus the access itself if it is a resolved
    /// checked sync read — the confirmed-acquire end of a chain.
    fn acq_before_star(&self, a: &Access) -> BTreeSet<Location> {
        let mut out = self.acq_before[a.proc.index()][a.pc].clone();
        if a.sync && a.reads && a.resolved && self.checked[a.proc.index()][a.pc] {
            out.insert(Location::new(a.lo));
        }
        out
    }

    /// The critical sections of `L` on two processors conflict: some
    /// access of `p` holding `L` overlaps some access of `q` holding
    /// `L`, at least one a write. Sync accesses of `L` itself (the
    /// protocol's own `unset`s) do not count.
    fn sections_conflict(&self, p: ProcId, q: ProcId, l: Location) -> bool {
        let section = |proc: ProcId| {
            self.accesses[proc.index()]
                .iter()
                .filter(move |a| a.held.contains(&l) && !(a.sync && a.resolved && a.lo == l.addr()))
        };
        section(p)
            .any(|a| section(q).any(|b| a.lo.max(b.lo) <= a.hi.min(b.hi) && (a.writes || b.writes)))
    }

    /// The weak-only witness for a pair, if any.
    pub(crate) fn witness(&self, x: &Access, y: &Access) -> Option<Witness> {
        if let Some(l) = x.held.intersection(&y.held).next() {
            return Some(Witness::Lock { loc: *l });
        }
        // A chain through a lock-protocol word is ordering only when
        // the two critical sections themselves conflict, or the word
        // starts nonzero (the spin exit then proves an `unset` ran) —
        // acquiring an initially-free lock over a disjoint section
        // proves nothing about which release (if any) came before, so
        // those handoffs (the WCP counterexample shape) are incidental,
        // not ordering.
        let chain = |a: &Access, b: &Access| {
            self.rel_after_star(a)
                .intersection(&self.acq_before_star(b))
                .find(|&&l| {
                    !self.lock_like.contains(&l)
                        || self.init_nonzero.contains(&l)
                        || self.sections_conflict(a.proc, b.proc, l)
                })
                .copied()
        };
        if let Some(loc) = chain(x, y).or_else(|| chain(y, x)) {
            return Some(Witness::SyncChain { loc });
        }
        let guard = |a: &Access, other: &BTreeSet<Location>| {
            self.acq_before_star(a).intersection(other).next().copied()
        };
        let gx = guard(x, &self.sync_writes[y.proc.index()]);
        let gy = guard(y, &self.sync_writes[x.proc.index()]);
        if let (Some(a), Some(b)) = (gx, gy) {
            return Some(Witness::MutualGuard { a, b });
        }
        None
    }

    /// `true` iff conforming hardware already globally performs the po
    /// pair `(i, j)` in order (see [`DelayPair::enforced`]).
    pub(crate) fn delay_enforced(&self, proc: usize, i: usize, j: usize) -> bool {
        let code_sync = |pc: usize| self.access_at(proc, pc).is_some_and(|a| a.sync);
        let sync_write = |pc: usize| self.access_at(proc, pc).is_some_and(|a| a.sync && a.writes);
        if code_sync(i) || sync_write(j) {
            return true;
        }
        // Every path i -> j crosses a fence or sync operation iff j is
        // unreachable once those blockers are removed from the graph.
        let cfg = &self.cfgs[proc];
        let blocker = |pc: usize| code_sync(pc) || matches!(self.code[proc][pc], Instr::Fence);
        let mut seen = vec![false; cfg.len()];
        let mut work: VecDeque<usize> = cfg.succs(i).iter().copied().collect();
        while let Some(q) = work.pop_front() {
            if seen[q] || blocker(q) {
                continue;
            }
            if q == j {
                return false;
            }
            seen[q] = true;
            work.extend(cfg.succs(q));
        }
        true
    }
}

/// `pc` is a sync read whose destination register feeds a conditional
/// branch before any redefinition — the guard/spin idiom.
fn is_checked_read(code: &[Instr], cfg: &Cfg, pc: usize) -> bool {
    let r = match code[pc] {
        Instr::LdAcq { dst, .. } | Instr::LdSync { dst, .. } | Instr::TestSet { dst, .. } => dst,
        _ => return false,
    };
    feeds_branch(code, cfg, pc, r)
}

/// The value `pc` leaves in `r` feeds a conditional branch on some path
/// before any redefinition of `r`.
pub(crate) fn feeds_branch(code: &[Instr], cfg: &Cfg, pc: usize, r: wmrd_sim::Reg) -> bool {
    let mut seen = vec![false; code.len()];
    let mut work: VecDeque<usize> = cfg.succs(pc).iter().copied().collect();
    while let Some(q) = work.pop_front() {
        if seen[q] {
            continue;
        }
        seen[q] = true;
        match code[q] {
            Instr::Bz { cond, .. } | Instr::Bnz { cond, .. } if cond == r => return true,
            ref instr if instr.dst() == Some(r) => continue, // clobbered on this path
            _ => work.extend(cfg.succs(q)),
        }
    }
    false
}

/// Greatest fixpoint of "every path strictly from here onwards passes a
/// resolved sync write of L" — computed including the instruction's own
/// generation, then stripped to the strict-successor view.
fn must_after_sync_writes(code: &[Instr], cfg: &Cfg) -> Vec<BTreeSet<Location>> {
    let gen: Vec<Option<Location>> = code
        .iter()
        .map(|i| match i {
            Instr::StRel { addr: Addr::Abs(l), .. }
            | Instr::StSync { addr: Addr::Abs(l), .. }
            | Instr::TestSet { addr: Addr::Abs(l), .. }
            | Instr::Unset { addr: Addr::Abs(l) } => Some(*l),
            _ => None,
        })
        .collect();
    let universe: BTreeSet<Location> = gen.iter().flatten().copied().collect();
    let n = code.len();
    // out[pc] = gen(pc) ∪ ⋂_{s ∈ succs(pc)} out[s]; sinks contribute ∅.
    let mut out: Vec<BTreeSet<Location>> = vec![universe; n];
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            let mut next: BTreeSet<Location> = match cfg.succs(pc).split_first() {
                None => BTreeSet::new(),
                Some((&f, rest)) => {
                    let mut acc = out[f].clone();
                    for &s in rest {
                        acc = acc.intersection(&out[s]).copied().collect();
                    }
                    acc
                }
            };
            if let Some(l) = gen[pc] {
                next.insert(l);
            }
            if next != out[pc] {
                out[pc] = next;
                changed = true;
            }
        }
    }
    // The strict view: what every path *after* pc passes.
    (0..n)
        .map(|pc| match cfg.succs(pc).split_first() {
            None => BTreeSet::new(),
            Some((&f, rest)) => {
                let mut acc = out[f].clone();
                for &s in rest {
                    acc = acc.intersection(&out[s]).copied().collect();
                }
                acc
            }
        })
        .collect()
}

/// Greatest fixpoint of "every path from entry to strictly before here
/// passes a checked sync read of L".
fn must_before_checked_reads(
    code: &[Instr],
    cfg: &Cfg,
    checked: &[bool],
) -> Vec<BTreeSet<Location>> {
    let gen: Vec<Option<Location>> = code
        .iter()
        .enumerate()
        .map(|(pc, i)| match i {
            Instr::LdAcq { addr: Addr::Abs(l), .. }
            | Instr::LdSync { addr: Addr::Abs(l), .. }
            | Instr::TestSet { addr: Addr::Abs(l), .. }
                if checked[pc] =>
            {
                Some(*l)
            }
            _ => None,
        })
        .collect();
    let universe: BTreeSet<Location> = gen.iter().flatten().copied().collect();
    let n = code.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for pc in 0..n {
        for &s in cfg.succs(pc) {
            preds[s].push(pc);
        }
    }
    let mut inn: Vec<BTreeSet<Location>> = vec![universe; n];
    if n > 0 {
        inn[0] = BTreeSet::new();
    }
    let mut changed = true;
    while changed {
        changed = false;
        for pc in 1..n {
            let mut next: Option<BTreeSet<Location>> = None;
            for &p in &preds[pc] {
                let mut flow = inn[p].clone();
                if let Some(l) = gen[p] {
                    flow.insert(l);
                }
                next = Some(match next {
                    None => flow,
                    Some(acc) => acc.intersection(&flow).copied().collect(),
                });
            }
            let next = next.unwrap_or_default();
            if next != inn[pc] {
                inn[pc] = next;
                changed = true;
            }
        }
    }
    inn
}

/// A cycle: per-processor segments `(proc, entry, exit)` in traversal
/// order, `entry == exit` for single-access segments.
type CycleSig = Vec<(usize, usize, usize)>;

/// Classifies the report's keys and computes the delay set.
pub fn analyze_cycles(program: &Program, report: &LintReport) -> CycleReport {
    let sk = Skeleton::build(program);
    build_cycle_report(report, &sk)
}

/// One report pair, resolved to its skeleton accesses and classified.
struct PairClass<'a> {
    x: &'a Access,
    y: &'a Access,
    class: RaceClass,
    witness: Option<Witness>,
    /// The pair's conflict edge `(min, max)` by flat index, when both
    /// sides are resolved.
    edge: Option<(usize, usize)>,
}

pub(crate) fn build_cycle_report(report: &LintReport, sk: &Skeleton) -> CycleReport {
    // The conflict graph's nodes: resolved accesses in (proc, pc) order,
    // indexed by (proc, pc) with the first position winning.
    let flat: Vec<&Access> = sk.accesses.iter().flatten().filter(|a| a.resolved).collect();
    let mut flat_at: Vec<Vec<Option<usize>>> =
        sk.code.iter().map(|code| vec![None; code.len()]).collect();
    for (i, a) in flat.iter().enumerate() {
        flat_at[a.proc.index()][a.pc].get_or_insert(i);
    }

    // Classify every report pair through its (proc, pc) accesses;
    // indices stay aligned with `report.pairs`.
    let pair_class: Vec<Option<PairClass>> = report
        .pairs
        .iter()
        .map(|p| {
            let (x, y) = (sk.access(p.a.proc, p.a.pc)?, sk.access(p.b.proc, p.b.pc)?);
            let witness = sk.witness(x, y);
            let class = if witness.is_some() { RaceClass::WeakOnly } else { RaceClass::ScAlso };
            let edge = match (flat_at[x.proc.index()][x.pc], flat_at[y.proc.index()][y.pc]) {
                (Some(i), Some(j)) => Some((i.min(j), i.max(j))),
                _ => None,
            };
            Some(PairClass { x, y, class, witness, edge })
        })
        .collect();

    // The conflict graph over resolved accesses (sync-sync edges
    // included — they carry ordering through cycles; lock-mediated
    // edges excluded — mutual exclusion collapses those cycles).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); flat.len()];
    for (i, x) in flat.iter().enumerate() {
        for (j, y) in flat.iter().enumerate().skip(i + 1) {
            if x.proc == y.proc
                || x.lo.max(y.lo) > x.hi.min(y.hi)
                || !(x.writes || y.writes)
                || x.held.intersection(&y.held).next().is_some()
            {
                continue;
            }
            adj[i].push(j);
            adj[j].push(i);
        }
    }

    // sc-also conflict edges, by flat index, for criticality.
    let sc_edge: BTreeSet<(usize, usize)> = pair_class
        .iter()
        .flatten()
        .filter(|pc| pc.class == RaceClass::ScAlso)
        .filter_map(|pc| pc.edge)
        .collect();

    let (cycles, capped) = enumerate_cycles(&flat, &adj, sk);

    // Per-key cycle counts and criticality; delay pairs.
    let mut delay_map: BTreeMap<(usize, usize, usize), bool> = BTreeMap::new();
    let mut edge_cycles: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for sig in &cycles {
        let mut edges = Vec::new();
        // Conflict edges connect segment k's exit to segment k+1's entry.
        for k in 0..sig.len() {
            let (_, _, exit) = sig[k];
            let (entry, _, _) = sig[(k + 1) % sig.len()];
            edges.push((exit.min(entry), exit.max(entry)));
        }
        let critical = edges.iter().any(|e| sc_edge.contains(e));
        for e in &edges {
            *edge_cycles.entry(*e).or_insert(0) += 1;
        }
        for &(_, entry, exit) in sig {
            if entry != exit {
                let (pa, pb) = (flat[entry], flat[exit]);
                let key = (pa.proc.index(), pa.pc, pb.pc);
                let e = delay_map.entry(key).or_insert(false);
                *e |= critical;
            }
        }
    }

    let delays: Vec<DelayPair> = delay_map
        .into_iter()
        .map(|((proc, from, to), critical)| DelayPair {
            proc: ProcId::new(proc as u16),
            from,
            to,
            enforced: sk.delay_enforced(proc, from, to),
            critical,
        })
        .collect();

    // Key classification: a key is weak-only iff every contributing
    // pair is, its witness is the first weak-only pair's, and its cycle
    // count sums over contributing resolved edges. One pass over the
    // pairs in report order; each pair range-queries, per side pair it
    // expands to, the keys within its overlap `[first, last]`.
    let mut by_sides: HashMap<(SideKey, SideKey), Vec<(u32, usize)>> = HashMap::new();
    for (k, key) in report.keys.iter().enumerate() {
        // `keys` is location-major, so every list is sorted by location.
        by_sides.entry((key.a, key.b)).or_default().push((key.loc.addr(), k));
    }
    let mut classes: Vec<KeyClass> = report
        .keys
        .iter()
        .map(|&key| KeyClass { key, class: RaceClass::WeakOnly, witness: None, cycles: 0 })
        .collect();
    let mut hits: Vec<usize> = Vec::new();
    for pc in pair_class.iter().flatten() {
        let (x, y) = (pc.x, pc.y);
        let (first, last) = (x.lo.max(y.lo), x.hi.min(y.hi));
        hits.clear();
        for ka in kinds(x) {
            for kb in kinds(y) {
                if ka == AccessKind::Read && kb == AccessKind::Read {
                    continue;
                }
                let sides = RaceKey::new(
                    Location::new(first),
                    SideKey { proc: x.proc, kind: ka, sync: x.sync },
                    SideKey { proc: y.proc, kind: kb, sync: y.sync },
                );
                let Some(locs) = by_sides.get(&(sides.a, sides.b)) else { continue };
                let from = locs.partition_point(|&(loc, _)| loc < first);
                hits.extend(locs[from..].iter().take_while(|e| e.0 <= last).map(|e| e.1));
            }
        }
        hits.sort_unstable();
        hits.dedup();
        let through = pc.edge.and_then(|e| edge_cycles.get(&e)).copied().unwrap_or(0);
        for &k in &hits {
            let c = &mut classes[k];
            match pc.class {
                RaceClass::ScAlso => {
                    c.class = RaceClass::ScAlso;
                    c.witness = None;
                }
                RaceClass::WeakOnly => {
                    if c.class == RaceClass::WeakOnly && c.witness.is_none() {
                        c.witness = pc.witness;
                    }
                }
            }
            c.cycles += through;
        }
    }

    let sc_also = classes.iter().filter(|c| c.class == RaceClass::ScAlso).count();
    let weak_only = classes.len() - sc_also;
    CycleReport {
        program: report.program.clone(),
        cycles: cycles.len(),
        capped,
        classes,
        delays,
        sc_also,
        weak_only,
    }
}

/// Enumerates distinct cycles over the conflict graph: each processor
/// visited at most once, contributing one access or a program-ordered
/// pair. Returns canonical signatures and whether the cap was hit.
fn enumerate_cycles(
    flat: &[&Access],
    adj: &[Vec<usize>],
    sk: &Skeleton,
) -> (BTreeSet<CycleSig>, bool) {
    // po_succ[i]: the flat accesses program-ordered after `i`,
    // ascending. `flat` is grouped by processor, so only `i`'s own
    // block can hold them.
    let mut po_succ: Vec<Vec<usize>> = Vec::with_capacity(flat.len());
    let mut base = 0;
    for block in flat.chunk_by(|a, b| a.proc == b.proc) {
        for a in block {
            po_succ.push(
                (0..block.len())
                    .filter(|&k| {
                        block[k].pc != a.pc && sk.reaches(a.proc.index(), a.pc, block[k].pc)
                    })
                    .map(|k| base + k)
                    .collect(),
            );
        }
        base += block.len();
    }
    let mut search = Search {
        flat,
        adj,
        po_succ: &po_succ,
        on_path: vec![false; sk.accesses.len()],
        path: Vec::new(),
        found: BTreeSet::new(),
        capped: false,
    };
    for (start, a) in flat.iter().enumerate() {
        if search.capped {
            break;
        }
        // Segments: (entry, exit); `start` is the cycle's minimum flat
        // index and the entry of its segment.
        let proc = a.proc.index();
        search.on_path[proc] = true;
        for exit0 in search.exits(start, start) {
            search.path.push((start, exit0));
            search.dfs(start, exit0);
            search.path.pop();
        }
        search.on_path[proc] = false;
    }
    (search.found, search.capped)
}

/// The state of the cycle DFS: the path so far as `(entry, exit)`
/// segments and a visited flag per processor.
struct Search<'a> {
    flat: &'a [&'a Access],
    adj: &'a [Vec<usize>],
    po_succ: &'a [Vec<usize>],
    on_path: Vec<bool>,
    path: Vec<(usize, usize)>,
    found: BTreeSet<CycleSig>,
    capped: bool,
}

impl<'a> Search<'a> {
    /// A segment entered at `entry` exits at `entry` itself or at a
    /// po-successor above `start`, ascending.
    fn exits(&self, entry: usize, start: usize) -> impl Iterator<Item = usize> + 'a {
        let succ = &self.po_succ[entry];
        let from = succ.partition_point(|&t| t <= start);
        std::iter::once(entry).chain(succ[from..].iter().copied())
    }

    fn dfs(&mut self, start: usize, cur_exit: usize) {
        if self.capped {
            return;
        }
        for &next in &self.adj[cur_exit] {
            let path = &self.path;
            if next == start && path.len() >= 2 {
                // A two-segment cycle of two lone accesses would reuse its
                // single conflict edge in both directions — not a cycle.
                if path.len() == 2 && path[0].0 == path[0].1 && path[1].0 == path[1].1 {
                    continue;
                }
                let sig: CycleSig =
                    path.iter().map(|&(e, x)| (self.flat[e].proc.index(), e, x)).collect();
                self.found.insert(canonical(sig));
                if self.found.len() >= MAX_CYCLES {
                    self.capped = true;
                    return;
                }
                continue;
            }
            let proc = self.flat[next].proc.index();
            if next <= start || self.on_path[proc] {
                continue;
            }
            self.on_path[proc] = true;
            for exit in self.exits(next, start) {
                self.path.push((next, exit));
                self.dfs(start, exit);
                self.path.pop();
            }
            self.on_path[proc] = false;
        }
    }
}

/// Canonical form: the lexicographically least rotation over both
/// traversal directions. The DFS starts every cycle at its minimum flat
/// index, whose processor is the cycle's smallest (`flat` is ordered by
/// processor and each processor appears once), so the first segment
/// already leads; only the direction of the rest is open.
fn canonical(mut sig: CycleSig) -> CycleSig {
    let n = sig.len();
    if sig[n - 1] < sig[1] {
        sig[1..].reverse();
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::repair_from;
    use wmrd_progs::catalog;
    use wmrd_progs::generate::{racy, GenConfig};
    use wmrd_sim::write_asm;

    /// The straightforward forms the report must reproduce exactly: every
    /// key scans every pair through linear access and flat-position
    /// searches, and the DFS rescans all accesses for each segment's
    /// exits and canonicalizes over all 2n rotations.
    mod reference {
        use super::*;

        fn access(sk: &Skeleton, proc: ProcId, pc: usize) -> Option<&Access> {
            sk.accesses.get(proc.index())?.iter().find(|a| a.pc == pc)
        }

        pub(super) fn build_cycle_report(report: &LintReport, sk: &Skeleton) -> CycleReport {
            struct PairClass {
                a: (usize, usize),
                b: (usize, usize),
                class: RaceClass,
                witness: Option<Witness>,
                resolved: bool,
            }
            let pair_class: Vec<Option<PairClass>> = report
                .pairs
                .iter()
                .map(|p| {
                    let (x, y) = (access(sk, p.a.proc, p.a.pc)?, access(sk, p.b.proc, p.b.pc)?);
                    let witness = sk.witness(x, y);
                    let class =
                        if witness.is_some() { RaceClass::WeakOnly } else { RaceClass::ScAlso };
                    Some(PairClass {
                        a: (x.proc.index(), x.pc),
                        b: (y.proc.index(), y.pc),
                        class,
                        witness,
                        resolved: x.resolved && y.resolved,
                    })
                })
                .collect();
            let flat: Vec<&Access> = sk.accesses.iter().flatten().filter(|a| a.resolved).collect();
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); flat.len()];
            for (i, x) in flat.iter().enumerate() {
                for (j, y) in flat.iter().enumerate().skip(i + 1) {
                    if x.proc == y.proc
                        || x.lo.max(y.lo) > x.hi.min(y.hi)
                        || !(x.writes || y.writes)
                        || x.held.intersection(&y.held).next().is_some()
                    {
                        continue;
                    }
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
            let flat_pos = |(proc, pc): (usize, usize)| {
                flat.iter().position(|a| a.proc.index() == proc && a.pc == pc)
            };
            let sc_edge: BTreeSet<(usize, usize)> = pair_class
                .iter()
                .flatten()
                .filter(|pc| pc.resolved && pc.class == RaceClass::ScAlso)
                .filter_map(|pc| {
                    let fi = flat_pos(pc.a)?;
                    let fj = flat_pos(pc.b)?;
                    Some((fi.min(fj), fi.max(fj)))
                })
                .collect();
            let (cycles, capped) = enumerate_cycles(&flat, &adj, sk);
            let mut delay_map: BTreeMap<(usize, usize, usize), bool> = BTreeMap::new();
            let mut edge_cycles: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            for sig in &cycles {
                let mut edges = Vec::new();
                for k in 0..sig.len() {
                    let (_, _, exit) = sig[k];
                    let (entry, _, _) = sig[(k + 1) % sig.len()];
                    edges.push((exit.min(entry), exit.max(entry)));
                }
                let critical = edges.iter().any(|e| sc_edge.contains(e));
                for e in &edges {
                    *edge_cycles.entry(*e).or_insert(0) += 1;
                }
                for &(_, entry, exit) in sig {
                    if entry != exit {
                        let (pa, pb) = (flat[entry], flat[exit]);
                        let e = delay_map.entry((pa.proc.index(), pa.pc, pb.pc)).or_insert(false);
                        *e |= critical;
                    }
                }
            }
            let delays: Vec<DelayPair> = delay_map
                .into_iter()
                .map(|((proc, from, to), critical)| DelayPair {
                    proc: ProcId::new(proc as u16),
                    from,
                    to,
                    enforced: sk.delay_enforced(proc, from, to),
                    critical,
                })
                .collect();
            let mut classes = Vec::new();
            for key in &report.keys {
                let mut class = RaceClass::WeakOnly;
                let mut witness = None;
                let mut cycles_through = 0usize;
                for (idx, p) in report.pairs.iter().enumerate() {
                    let Some(pc) = &pair_class[idx] else { continue };
                    let (Some(x), Some(y)) =
                        (access(sk, p.a.proc, p.a.pc), access(sk, p.b.proc, p.b.pc))
                    else {
                        continue;
                    };
                    if !pair_contributes(x, y, key) {
                        continue;
                    }
                    match pc.class {
                        RaceClass::ScAlso => {
                            class = RaceClass::ScAlso;
                            witness = None;
                        }
                        RaceClass::WeakOnly => {
                            if class == RaceClass::WeakOnly && witness.is_none() {
                                witness = pc.witness;
                            }
                        }
                    }
                    if let (Some(fi), Some(fj)) = (flat_pos(pc.a), flat_pos(pc.b)) {
                        cycles_through +=
                            edge_cycles.get(&(fi.min(fj), fi.max(fj))).copied().unwrap_or(0);
                    }
                }
                classes.push(KeyClass { key: *key, class, witness, cycles: cycles_through });
            }
            let sc_also = classes.iter().filter(|c| c.class == RaceClass::ScAlso).count();
            let weak_only = classes.len() - sc_also;
            CycleReport {
                program: report.program.clone(),
                cycles: cycles.len(),
                capped,
                classes,
                delays,
                sc_also,
                weak_only,
            }
        }

        fn pair_contributes(x: &Access, y: &Access, key: &RaceKey) -> bool {
            let first = x.lo.max(y.lo);
            let last = x.hi.min(y.hi);
            if key.loc.addr() < first || key.loc.addr() > last {
                return false;
            }
            let kinds = |a: &Access| {
                [(a.reads, AccessKind::Read), (a.writes, AccessKind::Write)]
                    .into_iter()
                    .filter(|(p, _)| *p)
                    .map(|(_, k)| k)
                    .collect::<Vec<_>>()
            };
            for ka in kinds(x) {
                for kb in kinds(y) {
                    if ka == AccessKind::Read && kb == AccessKind::Read {
                        continue;
                    }
                    let cand = RaceKey::new(
                        key.loc,
                        SideKey { proc: x.proc, kind: ka, sync: x.sync },
                        SideKey { proc: y.proc, kind: kb, sync: y.sync },
                    );
                    if &cand == key {
                        return true;
                    }
                }
            }
            false
        }

        fn enumerate_cycles(
            flat: &[&Access],
            adj: &[Vec<usize>],
            sk: &Skeleton,
        ) -> (BTreeSet<CycleSig>, bool) {
            let mut found: BTreeSet<CycleSig> = BTreeSet::new();
            let mut capped = false;
            let po = |i: usize, j: usize| -> bool {
                let (a, b) = (flat[i], flat[j]);
                a.proc == b.proc && a.pc != b.pc && sk.reaches(a.proc.index(), a.pc, b.pc)
            };
            for start in 0..flat.len() {
                if capped {
                    break;
                }
                let exits: Vec<usize> = std::iter::once(start)
                    .chain((0..flat.len()).filter(|&t| t > start && po(start, t)))
                    .collect();
                for &exit0 in &exits {
                    let mut path: Vec<(usize, usize)> = vec![(start, exit0)];
                    let mut procs: BTreeSet<usize> = BTreeSet::from([flat[start].proc.index()]);
                    let mut ctx = (&mut found, &mut capped);
                    dfs(start, exit0, &mut path, &mut procs, flat, adj, sk, &mut ctx);
                }
            }
            (found, capped)
        }

        #[allow(clippy::too_many_arguments)]
        fn dfs(
            start: usize,
            cur_exit: usize,
            path: &mut Vec<(usize, usize)>,
            procs: &mut BTreeSet<usize>,
            flat: &[&Access],
            adj: &[Vec<usize>],
            sk: &Skeleton,
            ctx: &mut (&mut BTreeSet<CycleSig>, &mut bool),
        ) {
            if *ctx.1 {
                return;
            }
            for &next in &adj[cur_exit] {
                if next == start && path.len() >= 2 {
                    if path.len() == 2 && path[0].0 == path[0].1 && path[1].0 == path[1].1 {
                        continue;
                    }
                    let sig: CycleSig =
                        path.iter().map(|&(e, x)| (flat[e].proc.index(), e, x)).collect();
                    ctx.0.insert(canonical(sig));
                    if ctx.0.len() >= MAX_CYCLES {
                        *ctx.1 = true;
                        return;
                    }
                    continue;
                }
                if next <= start || procs.contains(&flat[next].proc.index()) {
                    continue;
                }
                let po = |i: usize, j: usize| -> bool {
                    let (a, b) = (flat[i], flat[j]);
                    a.proc == b.proc && a.pc != b.pc && sk.reaches(a.proc.index(), a.pc, b.pc)
                };
                let exits: Vec<usize> = std::iter::once(next)
                    .chain((0..flat.len()).filter(|&t| t > start && t != next && po(next, t)))
                    .collect();
                procs.insert(flat[next].proc.index());
                for &exit in &exits {
                    path.push((next, exit));
                    dfs(start, exit, path, procs, flat, adj, sk, ctx);
                    path.pop();
                }
                procs.remove(&flat[next].proc.index());
            }
        }

        fn canonical(sig: CycleSig) -> CycleSig {
            let n = sig.len();
            let mut best: Option<CycleSig> = None;
            for rot in 0..n {
                let fwd: CycleSig = (0..n).map(|k| sig[(rot + k) % n]).collect();
                let rev: CycleSig = (0..n).map(|k| sig[(rot + n - k) % n]).collect();
                for cand in [fwd, rev] {
                    if best.as_ref().is_none_or(|b| &cand < b) {
                        best = Some(cand);
                    }
                }
            }
            best.expect("cycle has at least two segments")
        }
    }

    /// Asserts the report, its rendering and the repaired program equal
    /// the reference's; returns whether enumeration hit the cap.
    fn assert_matches_reference(program: &Program) -> bool {
        let report = crate::analyze(program);
        let sk = Skeleton::build(program);
        for (p, accs) in sk.accesses.iter().enumerate() {
            for pc in 0..sk.code[p].len() {
                let linear = accs.iter().find(|a| a.pc == pc).map(std::ptr::from_ref);
                let indexed = sk.access(ProcId::new(p as u16), pc).map(std::ptr::from_ref);
                assert_eq!(indexed, linear, "{}", program.name());
            }
        }
        let got = build_cycle_report(&report, &sk);
        let want = reference::build_cycle_report(&report, &sk);
        assert_eq!(got, want, "{}:\n{}", program.name(), want.render());
        assert_eq!(got.render(), want.render());
        let (got_fix, want_fix) =
            (repair_from(program, &sk, &got), repair_from(program, &sk, &want));
        assert_eq!(got_fix.plan, want_fix.plan, "{}", program.name());
        assert_eq!(write_asm(&got_fix.repaired), write_asm(&want_fix.repaired));
        got.capped
    }

    #[test]
    fn catalog_reports_match_the_reference() {
        for entry in catalog::all() {
            assert_matches_reference(&entry.program);
        }
    }

    /// 252 seeded racy programs: every (P, sections, locations) in
    /// 2–4 × 2–15 × {3, 16}, three seeds each. Most reach the cycle cap,
    /// which pins where enumeration stops; the rest pin full runs.
    #[test]
    fn generated_reports_match_the_reference() {
        const PROGRAMS: usize = 252;
        let mut capped = 0;
        for i in 0..PROGRAMS {
            let cfg = GenConfig {
                procs: 2 + i % 3,
                sections_per_proc: 2 + (i / 3) % 14,
                shared_locations: [3, 16][(i / 42) % 2],
                ops_per_section: 4,
                rogue_fraction: 0.3,
                seed: i as u64,
            };
            capped += usize::from(assert_matches_reference(&racy(&cfg)));
        }
        assert!(
            capped >= 10 && PROGRAMS - capped >= 10,
            "{capped} of {PROGRAMS} programs reach the cycle cap"
        );
    }

    #[test]
    fn canonical_picks_the_least_direction() {
        let fwd = vec![(0, 0, 1), (1, 4, 4), (2, 7, 7)];
        let rev = vec![(0, 0, 1), (2, 7, 7), (1, 4, 4)];
        assert_eq!(canonical(fwd.clone()), fwd);
        assert_eq!(canonical(rev), fwd);
        let two = vec![(0, 0, 0), (1, 3, 5)];
        assert_eq!(canonical(two.clone()), two);
    }
}
