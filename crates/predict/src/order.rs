//! The predictive partial orders: SHB and the WCP-style weakening.
//!
//! Both orders are the dynamic side's [`HbGraph`] — one node per event,
//! `po` edges between consecutive events of a processor, release →
//! acquire edges from the recorded `so1` pairing — and differ only in
//! *which* synchronization edges they admit:
//!
//! * [`PredictOrder::Shb`] keeps every `so1` edge. The order equals hb1,
//!   so the "predicted" races are exactly the observed ones — the sound
//!   baseline (the SHB paper's insight is that hb over the *recorded*
//!   trace is already predictive for the first race).
//! * [`PredictOrder::Wcp`] keeps a release → acquire edge only when the
//!   two critical sections it joins contain conflicting accesses
//!   (WCP's core weakening: non-conflicting critical sections on the
//!   same lock commute, so the order between them is a scheduling
//!   accident, not a program constraint). The rule is applied
//!   *chain-wide*, not just to adjacent handoffs: a release is ordered
//!   before every hb1-later conflicting section on its lock, even when
//!   the lock passed through commuting sections in between. Per
//!   processor, the sections on a lock that a release hb1-precedes are
//!   a suffix of that processor's sections on it, so one edge to the
//!   suffix's first conflicting section orders the rest through `po`:
//!   the order gets at most `kept + S·P` edges for `S` sections and `P`
//!   processors, found by binary search in `O(P·(1 + F)·log S)` per
//!   release whose section touches `F` locations. Edges whose release
//!   or acquire is not part of a recovered critical section —
//!   bare handoffs such as the paper's Figure 1b `Unset` — are kept
//!   unconditionally: without lock discipline there is no commuting
//!   argument, and dropping them would be unsound for flag
//!   synchronization.
//!
//! Fewer edges mean fewer ordered pairs, so the WCP-style order finds a
//! superset of the hb1 races: conflicting accesses whose only ordering
//! ran through a dropped edge become *predicted* races, reachable in
//! some other schedule of the same program.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;

use wmrd_core::{AnalysisError, HbGraph, PairingPolicy, So1Edge};
use wmrd_trace::{EventId, Location, ProcId, TraceSet};

use crate::sections::{critical_sections, CriticalSection};

/// Which predictive partial order to build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PredictOrder {
    /// SHB-style: `po ∪ so1`, the hb1 baseline (predicted = observed).
    Shb,
    /// WCP-style: release → acquire edges only between critical
    /// sections with conflicting accesses.
    #[default]
    Wcp,
}

impl PredictOrder {
    /// Parses the CLI spelling (`shb` / `wcp`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "shb" => Some(PredictOrder::Shb),
            "wcp" => Some(PredictOrder::Wcp),
            _ => None,
        }
    }
}

/// Lowercase, like the CLI spelling.
impl wmrd_trace::ToJson for PredictOrder {
    fn json(&self) -> wmrd_trace::Json {
        wmrd_trace::Json::Str(self.to_string())
    }
}

impl fmt::Display for PredictOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PredictOrder::Shb => "shb",
            PredictOrder::Wcp => "wcp",
        })
    }
}

/// The predictive order of one traced execution: `(po ∪ kept-so1)+`.
///
/// Every edge of the order lies inside hb1, so predictive-ordered
/// implies hb1-ordered: the hb1 races of the trace are exactly the
/// predicted races that [`hb1`](Self::hb1) leaves unordered.
#[derive(Debug)]
pub struct PredictGraph {
    hb1: HbGraph,
    /// The weakened order; `None` when the weakening dropped no edge,
    /// so the order is hb1 itself (always under SHB).
    weak: Option<HbGraph>,
    order: PredictOrder,
    sections: Vec<CriticalSection>,
    kept: Vec<So1Edge>,
    dropped: Vec<So1Edge>,
}

impl PredictGraph {
    /// Builds the predictive order of `trace` under a pairing policy.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DanglingRelease`] for unresolvable
    /// pairings — the same failure mode as [`HbGraph::build`].
    pub fn build(
        trace: &TraceSet,
        policy: PairingPolicy,
        order: PredictOrder,
    ) -> Result<Self, AnalysisError> {
        let hb1 = HbGraph::build(trace, policy)?;
        let sections = match order {
            PredictOrder::Shb => Vec::new(),
            PredictOrder::Wcp => critical_sections(trace),
        };
        // The section (if any) releasing / acquiring at each event, by
        // dense node. Sections and so1 edges name events of `trace`,
        // which `hb1` was built over.
        let node = |event: EventId| hb1.node_of(event).expect("an event of the trace") as usize;
        let mut by_release: Vec<Option<u32>> = vec![None; hb1.num_events()];
        let mut by_acquire: Vec<Option<u32>> = vec![None; hb1.num_events()];
        for (i, section) in sections.iter().enumerate() {
            by_acquire[node(section.acquire)] = Some(i as u32);
            if let Some(release) = section.release {
                by_release[node(release)] = Some(i as u32);
            }
        }

        let (kept, dropped): (Vec<So1Edge>, Vec<So1Edge>) = hb1.so1().iter().partition(|edge| {
            match (by_release[node(edge.release)], by_acquire[node(edge.acquire)]) {
                // Lock-discipline pair: both endpoints delimit
                // recovered critical sections on this lock. The edge
                // is a program constraint only if their bodies
                // conflict.
                (Some(src), Some(dst)) => {
                    sections[src as usize].conflicts_with(&sections[dst as usize])
                }
                // Bare release and/or bare acquire: a flag handoff,
                // kept unconditionally.
                _ => true,
            }
        });
        if dropped.is_empty() {
            // Every chain-wide edge below lies inside hb1, so with no
            // edge dropped the order would be hb1 again.
            return Ok(PredictGraph { hb1, weak: None, order, sections, kept, dropped });
        }

        // WCP's release rule, chain-wide: every release is ordered
        // before the acquire of every hb1-later, conflicting section on
        // its lock. Adjacent pairs are already kept edges; the rest run
        // through intermediate commuting sections, and dropping the
        // adjacent edges alone would disorder them (unsound). Within
        // one processor's sections on the lock, the acquires `r1`
        // hb1-precedes are a suffix (a path into an acquire extends
        // along po), so one edge to the suffix's first conflicting
        // section orders all the later ones through po: at most one
        // edge per release and processor. `r1`'s own section is
        // skipped; an so1 cycle can put it in the suffix.
        let groups = LockGroups::new(&sections);
        let mut edges = kept.clone();
        for (i, s1) in sections.iter().enumerate() {
            let Some(r1) = s1.release else { continue };
            for group in groups.of_lock(s1.lock) {
                let start =
                    group.members.partition_point(|&m| !hb1.ordered(r1, sections[m].acquire));
                let own = (group.proc == s1.proc).then(|| groups.position[i]);
                if let Some(at) = group.first_conflict(&sections, s1, start as u32, own) {
                    let acquire = sections[group.members[at as usize]].acquire;
                    edges.push(So1Edge { release: r1, acquire, loc: s1.lock });
                }
            }
        }
        let weak = hb1.with_edges(edges)?;
        Ok(PredictGraph { hb1, weak: Some(weak), order, sections, kept, dropped })
    }

    /// The order this graph was built under.
    pub fn order(&self) -> PredictOrder {
        self.order
    }

    /// Number of events (nodes).
    pub fn num_events(&self) -> usize {
        self.hb1.num_events()
    }

    /// The full hb1 order of the same trace.
    pub fn hb1(&self) -> &HbGraph {
        &self.hb1
    }

    /// The recovered critical sections (empty under [`PredictOrder::Shb`]).
    pub fn sections(&self) -> &[CriticalSection] {
        &self.sections
    }

    /// The `so1` edges admitted into the order.
    pub fn kept_edges(&self) -> &[So1Edge] {
        &self.kept
    }

    /// The `so1` edges the weakening removed.
    pub fn dropped_edges(&self) -> &[So1Edge] {
        &self.dropped
    }

    /// The predictive order itself: the weakened order, or hb1 when the
    /// weakening dropped no edge.
    pub fn predictive(&self) -> &HbGraph {
        self.weak.as_ref().unwrap_or(&self.hb1)
    }

    /// `true` iff `a` precedes `b` in the predictive order.
    pub fn ordered(&self, a: EventId, b: EventId) -> bool {
        self.predictive().ordered(a, b)
    }

    /// `true` iff neither event precedes the other — the "unordered"
    /// half of the race definition, under the *predictive* order.
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        !self.ordered(a, b) && !self.ordered(b, a)
    }
}

/// The critical sections grouped by (lock, processor): the per-lock,
/// per-processor state of the chain-wide release rule.
struct LockGroups {
    groups: Vec<Group>,
    /// The groups of each lock, processors ascending.
    by_lock: HashMap<Location, Vec<usize>>,
    /// Each section's position within its group.
    position: Vec<u32>,
}

/// One processor's sections on one lock, in chain order.
struct Group {
    proc: ProcId,
    /// Indices of the member sections.
    members: Vec<usize>,
    /// Built by the first query that [`SCAN`] members do not answer.
    index: OnceCell<GroupIndex>,
}

/// The `(location, position)` pairs of a group's members that write /
/// access each location, sorted: each location's members are one
/// ascending run.
struct GroupIndex {
    writers: Vec<(Location, u32)>,
    accessors: Vec<(Location, u32)>,
}

/// Members a query tests one by one before it consults the group's
/// index. On `analyze-large`-sized spin-lock traces these tests settle
/// all but about 0.3% of queries, so most groups never build an index;
/// an eager, index-only query made `predict` about 12% slower there.
const SCAN: u32 = 4;

impl LockGroups {
    fn new(sections: &[CriticalSection]) -> Self {
        let mut groups: Vec<Group> = Vec::new();
        let mut by_lock: HashMap<Location, Vec<usize>> = HashMap::new();
        let mut position = Vec::with_capacity(sections.len());
        for (i, section) in sections.iter().enumerate() {
            // `critical_sections` lists processors in ascending order and
            // a processor's sections on one lock in chain order (at most
            // one is open at a time), so each section extends the last
            // group of its lock or opens the next one.
            let of_lock = by_lock.entry(section.lock).or_default();
            let g = match of_lock.last() {
                Some(&g) if groups[g].proc == section.proc => g,
                _ => {
                    of_lock.push(groups.len());
                    let group =
                        Group { proc: section.proc, members: Vec::new(), index: OnceCell::new() };
                    groups.push(group);
                    groups.len() - 1
                }
            };
            position.push(groups[g].members.len() as u32);
            groups[g].members.push(i);
        }
        LockGroups { groups, by_lock, position }
    }

    /// The groups of `lock`.
    fn of_lock(&self, lock: Location) -> impl Iterator<Item = &Group> {
        self.by_lock.get(&lock).into_iter().flatten().map(|&g| &self.groups[g])
    }
}

impl Group {
    /// The first member at or after position `start`, other than `own`,
    /// whose body conflicts with `section`'s. Past the first [`SCAN`]
    /// members, it is the minimum over `section`'s footprint of each
    /// location's first conflicting member, found by binary search.
    fn first_conflict(
        &self,
        sections: &[CriticalSection],
        section: &CriticalSection,
        start: u32,
        own: Option<u32>,
    ) -> Option<u32> {
        let conflicts = |at: u32| {
            Some(at) != own && sections[self.members[at as usize]].conflicts_with(section)
        };
        let scanned = (start + SCAN).min(self.members.len() as u32);
        if let Some(at) = (start..scanned).find(|&at| conflicts(at)) {
            return Some(at);
        }
        if scanned as usize == self.members.len() {
            return None;
        }
        let index = self.index.get_or_init(|| GroupIndex::new(sections, &self.members));
        let first = |list: &[(Location, u32)], loc: Location| {
            let from = list.partition_point(|&entry| entry < (loc, scanned));
            let run = list[from..].iter().take_while(|&&(l, _)| l == loc);
            run.map(|&(_, at)| at).find(|&at| Some(at) != own)
        };
        let written = section.writes.iter().filter_map(|loc| first(&index.accessors, loc));
        let read = section.reads.iter().filter_map(|loc| first(&index.writers, loc));
        written.chain(read).min()
    }
}

impl GroupIndex {
    fn new(sections: &[CriticalSection], members: &[usize]) -> Self {
        let (mut writers, mut accessors) = (Vec::new(), Vec::new());
        for (at, &m) in (0u32..).zip(members) {
            let section = &sections[m];
            writers.extend(section.writes.iter().map(|loc| (loc, at)));
            accessors.extend(section.writes.iter().chain(&section.reads).map(|loc| (loc, at)));
        }
        writers.sort_unstable();
        accessors.sort_unstable();
        accessors.dedup();
        GroupIndex { writers, accessors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::{AccessKind, OpId, SyncRole, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn e(proc: u16, index: u32) -> EventId {
        EventId::new(p(proc), index)
    }

    /// Two critical sections on the same lock touching disjoint data:
    /// P0 {acq s; write x; rel s}, P1 {acq s (observing P0's release);
    /// write y; rel s}.
    fn disjoint_sections_trace() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        let s = l(9);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let rel = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(1), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.finish()
    }

    /// Same shape but both sections write x — conflicting bodies.
    fn conflicting_sections_trace() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        let s = l(9);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let rel = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.data_access(p(1), l(0), AccessKind::Write, Value::new(2), None);
        b.sync_access(p(1), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.finish()
    }

    /// Figure 1b: a bare handoff release with no enclosing section.
    fn fig1b_trace() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        let (x, y, s) = (l(0), l(1), l(9));
        b.data_access(p(0), x, AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), y, AccessKind::Write, Value::new(1), None);
        let rel = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.sync_access(p(1), s, AccessKind::Write, SyncRole::None, Value::new(1), None);
        b.data_access(p(1), y, AccessKind::Read, Value::new(1), None);
        b.data_access(p(1), x, AccessKind::Read, Value::new(1), None);
        b.finish()
    }

    #[test]
    fn order_parsing_and_display() {
        assert_eq!(PredictOrder::parse("shb"), Some(PredictOrder::Shb));
        assert_eq!(PredictOrder::parse("WCP"), Some(PredictOrder::Wcp));
        assert_eq!(PredictOrder::parse("hb2"), None);
        assert_eq!(PredictOrder::Shb.to_string(), "shb");
        assert_eq!(PredictOrder::Wcp.to_string(), "wcp");
        assert_eq!(PredictOrder::default(), PredictOrder::Wcp);
    }

    #[test]
    fn shb_keeps_every_edge() {
        let t = disjoint_sections_trace();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Shb).unwrap();
        assert_eq!(g.kept_edges().len(), 1);
        assert!(g.dropped_edges().is_empty());
        assert!(g.sections().is_empty(), "SHB skips section recovery");
        // The cross-processor data events are ordered through the lock.
        assert!(g.ordered(e(0, 1), e(1, 1)));
    }

    #[test]
    fn wcp_drops_the_edge_between_disjoint_sections() {
        let t = disjoint_sections_trace();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(g.sections().len(), 2);
        assert!(g.kept_edges().is_empty(), "non-conflicting sections commute");
        assert_eq!(g.dropped_edges().len(), 1);
        assert!(g.concurrent(e(0, 1), e(1, 1)), "bodies become unordered");
    }

    #[test]
    fn wcp_keeps_the_edge_between_conflicting_sections() {
        let t = conflicting_sections_trace();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(g.kept_edges().len(), 1);
        assert!(g.dropped_edges().is_empty());
        assert!(g.ordered(e(0, 1), e(1, 1)), "conflicting bodies stay ordered");
    }

    /// Three sections chained through the same lock: P0 {write x},
    /// P1 {write y}, P2 {write x}. Both adjacent handoffs join
    /// commuting sections (x/y, y/x disjoint) and are dropped, but the
    /// outer pair conflicts on x — the chain-wide release rule must
    /// keep P0's body ordered before P2's.
    #[test]
    fn wcp_orders_conflicting_sections_across_a_commuting_chain() {
        let mut b = TraceBuilder::new(3);
        let s = l(9);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let r0 = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(r0));
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(1), None);
        let r1 = b.sync_access(p(1), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(2), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(r1));
        b.data_access(p(2), l(0), AccessKind::Write, Value::new(2), None);
        b.sync_access(p(2), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        let t = b.finish();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(g.sections().len(), 3);
        assert!(g.kept_edges().is_empty(), "both adjacent handoffs commute");
        assert_eq!(g.dropped_edges().len(), 2);
        assert!(g.ordered(e(0, 1), e(2, 1)), "outer conflicting bodies stay ordered");
        assert!(g.concurrent(e(0, 1), e(1, 1)), "inner commuting bodies do not");
        assert!(g.concurrent(e(1, 1), e(2, 1)));
    }

    /// Appends one critical section on lock `s` to `proc`'s trace: an
    /// acquire observing `observed`, one write of `loc`, a release.
    /// Returns the release.
    fn section(b: &mut TraceBuilder, proc: u16, loc: u32, observed: Option<OpId>) -> OpId {
        let s = l(9);
        b.sync_access(p(proc), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, observed);
        b.data_access(p(proc), l(loc), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(proc), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None)
    }

    /// The first sections of a group that a release hb1-precedes need
    /// not conflict with it: P0 {write x}, then P1 {write y0} … {write
    /// y4} {write x}, chained through one lock. Every handoff commutes
    /// and is dropped; the one chain-wide edge runs from P0's release
    /// past P1's commuting sections (more than one scan's worth, so
    /// the group's index answers) to its last section.
    #[test]
    fn wcp_skips_a_commuting_head_of_the_ordered_suffix() {
        let mut b = TraceBuilder::new(2);
        let mut release = section(&mut b, 0, 0, None);
        for y in 1..=SCAN + 1 {
            release = section(&mut b, 1, y, Some(release));
        }
        section(&mut b, 1, 0, Some(release));
        let t = b.finish();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        let last = 3 * (SCAN + 1);
        assert_eq!(g.sections().len(), SCAN as usize + 3);
        assert!(g.kept_edges().is_empty(), "every handoff commutes");
        assert_eq!(
            g.predictive().so1(),
            [So1Edge { release: e(0, 2), acquire: e(1, last), loc: l(9) }],
            "one edge, to the first conflicting section of P1's suffix"
        );
        assert!(g.ordered(e(0, 1), e(1, last + 1)), "the x writes stay ordered");
        assert!(g.concurrent(e(0, 1), e(1, 1)), "the commuting head does not");
    }

    /// In a weak execution a release can hb1-precede its own section's
    /// acquire. P0 runs sections {write y0} … {write y4} {write x}
    /// {write x}; P1's section {write z} observes P0's first x release
    /// and P0's first acquire observes P1's release, an so1 cycle that
    /// puts every P0 acquire in the suffix of every P0 release but the
    /// last. Each section conflicts with itself, so the rule must skip
    /// the release's own section, both among the scanned members and
    /// in the group's index, and order the first x release only before
    /// the second x section.
    #[test]
    fn wcp_skips_the_releases_own_section_on_an_so1_cycle() {
        let mut b = TraceBuilder::new(2);
        // Op ids are per-processor sequence numbers, so P0's first
        // acquire can name P1's release before it is recorded.
        let first_x = SCAN + 1;
        section(&mut b, 0, 1, Some(OpId::new(p(1), 2)));
        for y in 2..=first_x {
            section(&mut b, 0, y, None);
        }
        let x_release = section(&mut b, 0, 0, None);
        section(&mut b, 0, 0, None);
        section(&mut b, 1, 10, Some(x_release));
        let t = b.finish();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        let x_release = e(0, 3 * first_x + 2);
        assert_eq!(g.dropped_edges().len(), 2, "both handoffs of the cycle commute");
        assert!(g.hb1().ordered(x_release, e(0, 0)), "hb1 closes the cycle");
        assert_eq!(
            g.predictive().so1(),
            [So1Edge { release: x_release, acquire: e(0, 3 * first_x + 3), loc: l(9) }],
            "one edge, past the release's own section"
        );
        assert!(!g.ordered(x_release, e(0, 3 * first_x)), "the weakened order has no cycle");
        assert!(g.concurrent(e(0, 1), e(1, 1)));
    }

    #[test]
    fn wcp_keeps_bare_handoff_edges() {
        let t = fig1b_trace();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        // P1's Test&Set acquire opens an (unreleased) section, but P0's
        // bare release delimits none — the edge survives unconditionally.
        assert_eq!(g.sections().len(), 1);
        assert_eq!(g.sections()[0].release, None);
        assert_eq!(g.kept_edges().len(), 1, "the flag handoff is not weakened");
        assert!(g.ordered(e(0, 0), e(1, 2)), "fig1b stays race-free under WCP");
    }

    #[test]
    fn unknown_events_are_unordered() {
        let t = fig1b_trace();
        let g = PredictGraph::build(&t, PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert!(!g.ordered(e(7, 0), e(0, 0)));
        assert!(g.num_events() > 0);
        assert_eq!(g.order(), PredictOrder::Wcp);
    }
}
