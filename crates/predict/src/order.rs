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
//!   the lock passed through commuting sections in between. Edges whose
//!   release or acquire is not part of a recovered critical section —
//!   bare handoffs such as the paper's Figure 1b `Unset` — are kept
//!   unconditionally: without lock discipline there is no commuting
//!   argument, and dropping them would be unsound for flag
//!   synchronization.
//!
//! Fewer edges mean fewer ordered pairs, so the WCP-style order finds a
//! superset of the hb1 races: conflicting accesses whose only ordering
//! ran through a dropped edge become *predicted* races, reachable in
//! some other schedule of the same program.

use std::collections::HashMap;
use std::fmt;

use wmrd_core::{AnalysisError, HbGraph, PairingPolicy, So1Edge};
use wmrd_trace::{EventId, TraceSet};

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
    /// Returns [`AnalysisError::Trace`] for invalid traces and
    /// [`AnalysisError::DanglingRelease`] for unresolvable pairings —
    /// the same failure modes as [`HbGraph::build`].
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
        // The section (if any) releasing / acquiring at a given event.
        let mut by_release: HashMap<EventId, usize> = HashMap::new();
        let mut by_acquire: HashMap<EventId, usize> = HashMap::new();
        for (i, section) in sections.iter().enumerate() {
            by_acquire.insert(section.acquire, i);
            if let Some(release) = section.release {
                by_release.insert(release, i);
            }
        }

        let (kept, dropped): (Vec<So1Edge>, Vec<So1Edge>) = hb1.so1().iter().partition(|edge| {
            match (by_release.get(&edge.release), by_acquire.get(&edge.acquire)) {
                // Lock-discipline pair: both endpoints delimit
                // recovered critical sections on this lock. The edge
                // is a program constraint only if their bodies
                // conflict.
                (Some(&src), Some(&dst)) => sections[src].conflicts_with(&sections[dst]),
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

        // WCP's release rule, chain-wide: for every hb1-ordered pair of
        // same-lock sections with conflicting bodies, order the earlier
        // release before the later acquire. Adjacent pairs are already
        // kept edges; this pass restores the orderings that run through
        // intermediate commuting sections (dropping the adjacent edges
        // alone would disorder the conflicting pair — unsound).
        let mut edges = kept.clone();
        for (i, s1) in sections.iter().enumerate() {
            let Some(r1) = s1.release else { continue };
            for (j, s2) in sections.iter().enumerate() {
                if i != j
                    && s1.lock == s2.lock
                    && s1.conflicts_with(s2)
                    && hb1.ordered(r1, s2.acquire)
                {
                    edges.push(So1Edge { release: r1, acquire: s2.acquire, loc: s1.lock });
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

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::{AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSink, Value};

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
