//! The augmented happens-before-1 graph G′ (Section 4.2).
//!
//! G′ is the hb1 graph plus, for each **data** race, a doubly-directed
//! edge between the two events involved. A path in G′ from one race's
//! events to another's exists iff the first race *affects* the second
//! (Definition 3.3) — so the strongly connected components of G′ group
//! mutually-affecting races, and paths between components order the
//! groups.

use wmrd_trace::EventId;

use crate::graph::ChainOrder;
use crate::{DataRace, HbGraph};

/// The augmented graph G′ of one execution.
#[derive(Debug)]
pub struct AugmentedGraph<'a> {
    hb: &'a HbGraph,
    /// The order of hb1's chains under the `so1` and race edges.
    order: ChainOrder,
    /// Indices (into the race slice used at construction) of the *data*
    /// races whose edges were added.
    data_race_indices: Vec<usize>,
}

impl<'a> AugmentedGraph<'a> {
    /// Builds G′ from the hb1 graph and the detected races.
    ///
    /// Only data races add edges (`SyncSync` races are not part of the
    /// paper's construction); the indices of the races used are
    /// remembered and exposed via
    /// [`data_race_indices`](Self::data_race_indices).
    pub fn build(hb: &'a HbGraph, races: &[DataRace]) -> Self {
        let data_race_indices: Vec<usize> = (0..races.len())
            .filter(|&i| {
                let race = &races[i];
                race.is_data_race() && hb.node_of(race.a).is_some() && hb.node_of(race.b).is_some()
            })
            .collect();
        // so1 first, then each race's two directions: the edge order G′
        // component ids (and so partition ids) follow.
        let sync = hb.so1().iter().map(|edge| (edge.release, edge.acquire));
        let race_edges = data_race_indices
            .iter()
            .flat_map(|&i| [(races[i].a, races[i].b), (races[i].b, races[i].a)]);
        let order = ChainOrder::new(hb.order().chain_lens(), sync.chain(race_edges))
            .expect("hb1 edges and race endpoints are events of the graph");
        AugmentedGraph { hb, order, data_race_indices }
    }

    /// The underlying hb1 graph.
    pub fn hb(&self) -> &HbGraph {
        self.hb
    }

    /// Indices of the data races that contributed edges.
    pub fn data_race_indices(&self) -> &[usize] {
        &self.data_race_indices
    }

    /// Number of strongly connected components of G′.
    pub fn num_components(&self) -> usize {
        self.order.num_components()
    }

    /// The G′ strongly-connected component of an event.
    pub fn component_of(&self, event: EventId) -> Option<u32> {
        self.order.component(event)
    }

    /// `true` iff a path of length ≥ 1 exists from `a` to `b` in G′.
    pub fn path(&self, a: EventId, b: EventId) -> bool {
        self.order.ordered(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_races, PairingPolicy};
    use wmrd_trace::{AccessKind, Location, ProcId, TraceBuilder, TraceSet, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn e(proc: u16, index: u32) -> EventId {
        EventId::new(p(proc), index)
    }

    fn racy_trace() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.finish()
    }

    #[test]
    fn race_edges_create_a_two_cycle() {
        let t = racy_trace();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        let aug = AugmentedGraph::build(&hb, &races);
        assert_eq!(aug.data_race_indices(), &[0]);
        // The two race endpoints are mutually reachable in G′ ...
        assert!(aug.path(e(0, 0), e(1, 0)));
        assert!(aug.path(e(1, 0), e(0, 0)));
        // ... and share a component.
        assert_eq!(aug.component_of(e(0, 0)), aug.component_of(e(1, 0)));
        // While in plain hb1 they are concurrent.
        assert!(hb.concurrent(e(0, 0), e(1, 0)));
    }

    #[test]
    fn sync_sync_races_add_no_edges() {
        use wmrd_trace::SyncRole;
        let mut b = TraceBuilder::new(2);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::new(1), None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        assert_eq!(races.len(), 1);
        let aug = AugmentedGraph::build(&hb, &races);
        assert!(aug.data_race_indices().is_empty());
        assert!(!aug.path(e(0, 0), e(1, 0)));
        assert_eq!(aug.num_components(), hb.num_events(), "no race edge, no cycle");
    }

    #[test]
    fn race_affects_po_successors() {
        // P0: racy write, then more work. The race affects P0's later
        // event through G′.
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(
            p(0),
            l(9),
            AccessKind::Write,
            wmrd_trace::SyncRole::Release,
            Value::ZERO,
            None,
        );
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(2), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        assert_eq!(races.len(), 1);
        let aug = AugmentedGraph::build(&hb, &races);
        // From the race endpoint on P1 there is a G′ path to P0's third
        // event (via the race edge and P0's po).
        assert!(aug.path(e(1, 0), e(0, 2)));
        // But not in plain hb1.
        assert!(!hb.ordered(e(1, 0), e(0, 2)));
    }

    #[test]
    fn hb_accessor() {
        let t = racy_trace();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        let aug = AugmentedGraph::build(&hb, &races);
        assert_eq!(aug.hb().num_events(), 2);
        assert!(aug.component_of(e(9, 0)).is_none());
        assert!(!aug.path(e(9, 0), e(0, 0)));
    }
}
