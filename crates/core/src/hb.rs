//! The happens-before-1 graph over events (Definition 2.3, Section 4.1).
//!
//! One node per event; edges for program order (`po`, consecutive events
//! of the same processor) and synchronization order (`so1`, paired
//! release → acquire). `hb1` is the transitive closure, answered by the
//! crate's chain-clock order: `po` is one chain per processor, so only
//! the `so1` edges are stored. For a weak execution the graph may
//! contain cycles (the paper notes `so1` of a weak execution need not be
//! a partial order); the order condenses them into strongly connected
//! components first.

use wmrd_trace::{EventId, TraceError, TraceSet};

use crate::graph::ChainOrder;
use crate::{so1_edges, AnalysisError, PairingPolicy, So1Edge};

/// The happens-before-1 graph of one traced execution.
#[derive(Debug)]
pub struct HbGraph {
    so1: Vec<So1Edge>,
    /// `(po ∪ so1)+` over the processors' event chains; valid traces
    /// number their events densely, so an event is its chain position.
    order: ChainOrder,
}

impl HbGraph {
    /// Builds the hb1 graph of `trace` under a pairing policy: its
    /// [`so1_edges`] passed to [`with_sync_edges`](Self::with_sync_edges).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Trace`] for invalid traces and
    /// [`AnalysisError::DanglingRelease`] for unresolvable pairings.
    pub fn build(trace: &TraceSet, policy: PairingPolicy) -> Result<Self, AnalysisError> {
        trace.validate()?;
        let so1 = so1_edges(trace, policy)?;
        Self::over(trace, so1)
    }

    /// Builds `(po ∪ sync)+` over `trace` from an explicit list of
    /// synchronization edges — any subset of `so1`, or edges inside its
    /// closure, gives an order no stronger than hb1.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Trace`] for invalid traces or an edge
    /// endpoint that is not an event of `trace`.
    pub fn with_sync_edges(trace: &TraceSet, sync: Vec<So1Edge>) -> Result<Self, AnalysisError> {
        trace.validate()?;
        Self::over(trace, sync)
    }

    /// The shared constructor; `trace` is already validated.
    fn over(trace: &TraceSet, sync: Vec<So1Edge>) -> Result<Self, AnalysisError> {
        let chains = trace.processors().iter().map(|proc_trace| proc_trace.len());
        let edges = sync.iter().map(|edge| (edge.release, edge.acquire));
        let order = ChainOrder::new(chains, edges).map_err(TraceError::UnknownEvent)?;
        Ok(HbGraph { so1: sync, order })
    }

    /// The chain-clock order behind the graph.
    pub(crate) fn order(&self) -> &ChainOrder {
        &self.order
    }

    /// Number of events (nodes).
    pub fn num_events(&self) -> usize {
        self.order.num_nodes()
    }

    /// Number of `po` edges: one per event that has a successor on its
    /// processor.
    pub fn num_po_edges(&self) -> usize {
        self.order.chain_lens().map(|len| len.saturating_sub(1)).sum()
    }

    /// The synchronization edges of the order (`so1` for
    /// [`build`](Self::build)).
    pub fn so1(&self) -> &[So1Edge] {
        &self.so1
    }

    /// The dense node index of an event; `None` for an unknown processor
    /// or an index at or past its processor's last event.
    pub fn node_of(&self, event: EventId) -> Option<u32> {
        self.order.node(event)
    }

    /// `true` iff `a` hb1-precedes `b` (a path of length ≥ 1 exists).
    ///
    /// Unknown events are unordered.
    pub fn ordered(&self, a: EventId, b: EventId) -> bool {
        self.order.ordered(a, b)
    }

    /// `true` iff neither `a` hb1 `b` nor `b` hb1 `a` — the "not ordered"
    /// half of the race definition.
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        !self.ordered(a, b) && !self.ordered(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::{
        AccessKind, Location, OpId, ProcId, SyncRole, TraceBuilder, TraceSink, Value,
    };

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn e(proc: u16, index: u32) -> EventId {
        EventId::new(p(proc), index)
    }

    /// Figure 1b's shape: P0 writes x,y then Unsets s; P1 Test&Sets s,
    /// then reads y,x.
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
    fn builds_po_and_so1() {
        let t = fig1b_trace();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        // P0: comp(x,y), Unset. P1: T&S-read, T&S-write, comp(y,x).
        assert_eq!(hb.num_events(), 5);
        assert_eq!(hb.num_po_edges(), 3);
        assert_eq!(hb.so1().len(), 1);
        assert_eq!(hb.so1()[0].release, e(0, 1));
        assert_eq!(hb.so1()[0].acquire, e(1, 0));
    }

    #[test]
    fn hb1_orders_across_pairing() {
        let t = fig1b_trace();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        // P0's computation event hb1-precedes P1's computation event via
        // po; Unset; so1; po; — the chain that makes Figure 1b race-free.
        assert!(hb.ordered(e(0, 0), e(1, 2)));
        assert!(!hb.ordered(e(1, 2), e(0, 0)));
        let _ = hb.concurrent(e(0, 0), e(0, 0)); // self comparisons unspecified
        assert!(!hb.ordered(e(0, 0), e(0, 0)), "acyclic hb1 orders no event before itself");
    }

    #[test]
    fn unpaired_events_are_concurrent() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        assert!(hb.concurrent(e(0, 0), e(1, 0)));
        assert_eq!(hb.so1().len(), 0);
    }

    #[test]
    fn program_order_is_transitive() {
        let mut b = TraceBuilder::new(1);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        assert_eq!(hb.num_events(), 4);
        assert!(hb.ordered(e(0, 0), e(0, 3)), "po is transitive through hb1");
        assert!(!hb.ordered(e(0, 3), e(0, 0)));
    }

    #[test]
    fn unknown_events_are_unordered() {
        let t = fig1b_trace();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        assert!(!hb.ordered(e(7, 0), e(0, 0)));
        assert!(hb.node_of(e(0, 0)).is_some());
        // Past the end of a processor is unknown, not the next
        // processor's first node.
        let n = t.processors()[1].len() as u32;
        for unknown in [e(7, 0), e(0, 2), e(0, 99), e(1, n)] {
            assert!(hb.node_of(unknown).is_none(), "{unknown}");
            assert!(hb.concurrent(unknown, e(1, 0)), "{unknown}");
        }
    }

    #[test]
    fn event_node_roundtrip() {
        let t = fig1b_trace();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let nodes: Vec<u32> = t.events().map(|ev| hb.node_of(ev.id).unwrap()).collect();
        assert_eq!(nodes, (0..hb.num_events() as u32).collect::<Vec<_>>(), "dense, in event order");
    }

    /// Each acquire observes the other processor's po-later release:
    /// P0 = [acquire a ← P1's release, write x, release b] and
    /// P1 = [acquire b ← P0's release, write x, release a]. Only a
    /// non-SC execution can record this, and its hb1 is one cycle
    /// through all six events.
    fn cyclic_trace() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        let (x, la, lb) = (l(0), l(8), l(9));
        // Op ids are per-processor sequence numbers, so each acquire
        // can name the other processor's release before it is recorded.
        let release = |proc: u16| Some(OpId::new(p(proc), 2));
        b.sync_access(p(0), la, AccessKind::Read, SyncRole::Acquire, Value::new(1), release(1));
        b.data_access(p(0), x, AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), lb, AccessKind::Write, SyncRole::Release, Value::new(1), None);
        b.sync_access(p(1), lb, AccessKind::Read, SyncRole::Acquire, Value::new(1), release(0));
        b.data_access(p(1), x, AccessKind::Write, Value::new(2), None);
        b.sync_access(p(1), la, AccessKind::Write, SyncRole::Release, Value::new(1), None);
        b.finish()
    }

    #[test]
    fn cyclic_hb1_orders_the_cycle_both_ways() {
        let t = cyclic_trace();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        assert_eq!(hb.so1().len(), 2);
        let cycle: Vec<EventId> = t.events().map(|ev| ev.id).collect();
        assert_eq!(cycle.len(), 6);
        for &a in &cycle {
            for &b in &cycle {
                assert!(hb.ordered(a, b), "{a} and {b} lie on one hb1 cycle");
            }
        }
        let report = crate::PostMortem::new(&t).analyze().unwrap();
        assert_eq!(report.num_so1_edges, 2);
        assert!(report.is_race_free(), "the writes of x are hb1-ordered through the cycle");
        assert!(report.scp.covers_everything());
    }

    #[test]
    fn sync_edges_must_name_events_of_the_trace() {
        let t = fig1b_trace();
        let past_end = e(0, t.processors()[0].len() as u32);
        for (release, acquire, unknown) in [
            (past_end, e(1, 0), past_end),
            (e(0, 1), e(1, 99), e(1, 99)),
            (e(5, 0), e(1, 0), e(5, 0)),
        ] {
            let edge = So1Edge { release, acquire, loc: l(9) };
            match HbGraph::with_sync_edges(&t, vec![edge]) {
                Err(AnalysisError::Trace(TraceError::UnknownEvent(bad))) => {
                    assert_eq!(bad, unknown)
                }
                other => panic!("{release} -> {acquire}: expected UnknownEvent, got {other:?}"),
            }
        }
    }
}
