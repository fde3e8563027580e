//! Race partitions and the first partitions (Section 4.2).
//!
//! Data races are partitioned by the strongly connected components of the
//! augmented graph G′; partitions are partially ordered by path existence
//! between their components (`P`, Definition 4.1). A partition is
//! **first** if no other race-containing partition precedes it. The
//! paper's Theorems 4.1/4.2 guarantee that (a) first partitions exist iff
//! any data race occurred, and (b) each first partition contains at least
//! one race that also occurs in a sequentially consistent execution.

use std::collections::HashMap;
use std::fmt;

use wmrd_trace::EventId;

use crate::{AugmentedGraph, DataRace};

/// One partition: the data races whose events share a G′ strongly
/// connected component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RacePartition {
    /// The G′ component id this partition corresponds to.
    pub component: u32,
    /// Indices into the analysis's race list.
    pub races: Vec<usize>,
    /// The distinct events involved in the partition's races, sorted.
    pub events: Vec<EventId>,
}

impl RacePartition {
    /// Number of races in the partition.
    pub fn len(&self) -> usize {
        self.races.len()
    }

    /// `true` if the partition holds no races (never produced by
    /// [`partition_races`]; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.races.is_empty()
    }
}

/// The set of race partitions of one execution, with their partial order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionSet {
    partitions: Vec<RacePartition>,
    /// `order[i]` = indices of partitions that partition `i` precedes
    /// (directly or transitively) under `P`.
    order: Vec<Vec<usize>>,
    /// Indices of the first partitions.
    first: Vec<usize>,
}

impl PartitionSet {
    /// All partitions, in ascending component order.
    pub fn partitions(&self) -> &[RacePartition] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// `true` iff there are no race partitions (⇔ no data races,
    /// Theorem 4.1).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Indices of the first partitions.
    pub fn first_indices(&self) -> &[usize] {
        &self.first
    }

    /// Iterates over the first partitions.
    pub fn first_partitions(&self) -> impl Iterator<Item = &RacePartition> {
        self.first.iter().map(|&i| &self.partitions[i])
    }

    /// Iterates over the non-first partitions (the races a sound reporter
    /// withholds: they may be artifacts / non-SC races).
    pub fn non_first_partitions(&self) -> impl Iterator<Item = &RacePartition> {
        self.partitions.iter().enumerate().filter(|(i, _)| !self.first.contains(i)).map(|(_, p)| p)
    }

    /// `true` iff partition `i` is a first partition.
    pub fn is_first(&self, i: usize) -> bool {
        self.first.contains(&i)
    }

    /// `true` iff partition `i` precedes partition `j` under `P`
    /// (a G′ path from an event of `i` to an event of `j`).
    pub fn precedes(&self, i: usize, j: usize) -> bool {
        self.order.get(i).is_some_and(|succ| succ.contains(&j))
    }
}

/// Groups the data races of an execution into partitions and identifies
/// the first partitions.
///
/// `races` must be the same slice the [`AugmentedGraph`] was built from.
pub fn partition_races(aug: &AugmentedGraph<'_>, races: &[DataRace]) -> PartitionSet {
    // Group data races by their (shared) component: both endpoints of a
    // data race are in one component because of the doubly-directed edge.
    let mut by_comp: HashMap<u32, Vec<usize>> = HashMap::new();
    for &i in aug.data_race_indices() {
        let race = &races[i];
        let comp = aug.component_of(race.a).expect("race endpoints are events of the graph");
        debug_assert_eq!(Some(comp), aug.component_of(race.b));
        by_comp.entry(comp).or_default().push(i);
    }
    let mut comps: Vec<u32> = by_comp.keys().copied().collect();
    comps.sort_unstable();

    let mut partitions = Vec::with_capacity(comps.len());
    for &comp in &comps {
        let race_indices = by_comp.remove(&comp).expect("key collected above");
        let mut events: Vec<EventId> =
            race_indices.iter().flat_map(|&i| [races[i].a, races[i].b]).collect();
        events.sort_unstable();
        events.dedup();
        partitions.push(RacePartition { component: comp, races: race_indices, events });
    }

    // Order partitions: i precedes j iff a G′ path runs between their
    // components (Definition 4.1). A component's events are mutually
    // reachable, so any one event of each partition answers for all.
    let n = partitions.len();
    let mut order = vec![Vec::new(); n];
    for i in 0..n {
        for j in 0..n {
            if i != j && aug.path(partitions[i].events[0], partitions[j].events[0]) {
                order[i].push(j);
            }
        }
    }
    let first = (0..n).filter(|&j| (0..n).all(|i| i == j || !order[i].contains(&j))).collect();
    PartitionSet { partitions, order, first }
}

wmrd_trace::impl_to_json!(RacePartition { component, races, events });

wmrd_trace::impl_to_json!(PartitionSet { partitions, order, first });

impl fmt::Display for PartitionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "no race partitions");
        }
        for (i, part) in self.partitions.iter().enumerate() {
            let marker = if self.is_first(i) { "FIRST" } else { "later" };
            writeln!(
                f,
                "partition {i} [{marker}] component {}: {} race(s), {} event(s)",
                part.component,
                part.len(),
                part.events.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_races, HbGraph, PairingPolicy};
    use wmrd_trace::{
        AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSet, TraceSink, Value,
    };

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    struct Analysis {
        races: Vec<DataRace>,
        parts: PartitionSet,
    }

    fn analyze(trace: &TraceSet) -> Analysis {
        let hb = HbGraph::build(trace, PairingPolicy::ByRole).unwrap();
        let races = detect_races(trace, &hb);
        let aug = AugmentedGraph::build(&hb, &races);
        let parts = partition_races(&aug, &races);
        Analysis { races, parts }
    }

    #[test]
    fn race_free_trace_has_no_partitions() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(1), None);
        let a = analyze(&b.finish());
        assert!(a.parts.is_empty());
        assert_eq!(a.parts.first_partitions().count(), 0);
        assert_eq!(a.parts.to_string(), "no race partitions");
    }

    #[test]
    fn single_race_is_its_own_first_partition() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let a = analyze(&b.finish());
        assert_eq!(a.parts.len(), 1);
        assert_eq!(a.parts.first_indices(), &[0]);
        assert!(a.parts.is_first(0));
        assert_eq!(a.parts.partitions()[0].len(), 1);
        assert_eq!(a.parts.partitions()[0].events.len(), 2);
        assert!(!a.parts.precedes(0, 0));
    }

    /// Two independent races (disjoint locations, disjoint processors'
    /// phases): both partitions are first.
    #[test]
    fn independent_races_are_both_first() {
        let mut b = TraceBuilder::new(4);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(2), l(5), AccessKind::Write, Value::new(1), None);
        b.data_access(p(3), l(5), AccessKind::Read, Value::ZERO, None);
        let a = analyze(&b.finish());
        assert_eq!(a.parts.len(), 2);
        assert_eq!(a.parts.first_partitions().count(), 2);
        assert_eq!(a.parts.non_first_partitions().count(), 0);
    }

    /// A race whose participants are po-before a second race's
    /// participants: the second partition is ordered after the first and
    /// is not reported.
    #[test]
    fn downstream_race_is_not_first() {
        let mut b = TraceBuilder::new(2);
        // Race 1 on x between P0.e0 and P1.e0.
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        // Sync events split the computation events (no pairing: the sync
        // ops access different locations, so no so1 edge).
        b.sync_access(p(0), l(8), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        // Race 2 on y between P0.e2 and P1.e2 — po-after race 1's events.
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let a = analyze(&b.finish());
        assert_eq!(a.races.len(), 2);
        assert_eq!(a.parts.len(), 2);
        assert_eq!(a.parts.first_partitions().count(), 1);
        assert_eq!(a.parts.non_first_partitions().count(), 1);
        // The first partition is the one on location 0.
        let first = a.parts.first_partitions().next().unwrap();
        let race = &a.races[first.races[0]];
        assert!(race.locations.contains(l(0)));
        // And it precedes the other.
        let fi = a.parts.first_indices()[0];
        let other = (0..2).find(|&i| i != fi).unwrap();
        assert!(a.parts.precedes(fi, other));
        assert!(!a.parts.precedes(other, fi));
    }

    /// Mutually-affecting races collapse into one partition (a G′ cycle
    /// through two races).
    #[test]
    fn cyclically_related_races_share_a_partition() {
        let mut b = TraceBuilder::new(2);
        // P0: write x ; sync ; write y     P1: write y ; sync ; write x
        // Race on x: (P0.e0, P1.e2); race on y: (P0.e2, P1.e0).
        // G′ has the cycle P0.e0 -> P1.e2 (race) ... wait, race edges are
        // doubly directed: P0.e0 <-> P1.e2 and P0.e2 <-> P1.e0, plus po
        // P0.e0 -> P0.e2 and P1.e0 -> P1.e2. Cycle: P0.e0 -> P0.e2 ->
        // P1.e0 -> P1.e2 -> P0.e0.
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), l(8), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(2), None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(1), l(0), AccessKind::Write, Value::new(2), None);
        let a = analyze(&b.finish());
        assert_eq!(a.races.len(), 2);
        assert_eq!(a.parts.len(), 1, "mutually affecting races form one partition");
        assert!(a.parts.is_first(0));
        assert_eq!(a.parts.partitions()[0].len(), 2);
        assert_eq!(a.parts.partitions()[0].events.len(), 4);
    }

    #[test]
    fn display_marks_first_partitions() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let a = analyze(&b.finish());
        let s = a.parts.to_string();
        assert!(s.contains("FIRST"), "{s}");
    }

    #[test]
    fn partition_len_and_empty() {
        let part = RacePartition { component: 0, races: vec![], events: vec![] };
        assert!(part.is_empty());
        assert_eq!(part.len(), 0);
    }
}
