//! Data-race detection: conflicting, hb1-unordered event pairs with a
//! data participant (Definition 2.4 lifted to events, Section 4.1),
//! found by one window sweep over the chain-clock order.

use std::fmt;

use wmrd_trace::{EventId, EventKind, LocSet, Location, ProcId, TraceSet};

use crate::graph::ChainOrder;
use crate::HbGraph;

/// Classification of a data race by the kinds of operations involved.
///
/// The paper (Definition 2.4): a race is a **data race** iff at least one
/// participant is a data operation, and only data races enter the
/// augmented graph (Section 4.2). Unordered conflicting pairs of two
/// synchronization events are not races here; the detector only counts
/// them ([`DetectStats::sync_races`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Both participants are computation (data) events.
    DataData,
    /// One participant is a computation event, the other a
    /// synchronization event.
    DataSync,
}

wmrd_trace::impl_to_json!(enum RaceKind);

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RaceKind::DataData => "data-data",
            RaceKind::DataSync => "data-sync",
        })
    }
}

/// A detected data race `⟨a, b⟩`: two conflicting events, at least one
/// of them a computation event, not ordered by hb1.
///
/// Pairs are normalized so `a < b` (by processor, then index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataRace {
    /// First participant (smaller event id).
    pub a: EventId,
    /// Second participant.
    pub b: EventId,
    /// The locations on which the two events conflict.
    pub locations: LocSet,
    /// Data/sync classification.
    pub kind: RaceKind,
}

impl DataRace {
    /// `true` iff `event` is one of the race's participants.
    pub fn involves(&self, event: EventId) -> bool {
        self.a == event || self.b == event
    }
}

wmrd_trace::impl_to_json!(DataRace { a, b, locations, kind });

impl fmt::Display for DataRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}> on {} ({})", self.a, self.b, self.locations, self.kind)
    }
}

/// Counters from one invocation of the race detector: how many pairs
/// could be data races versus how many are, plus the unordered
/// sync-sync pairs.
///
/// Deterministic for a fixed trace: `candidate_pairs` depends only on
/// the trace's accesses, not on the order that tests concurrency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectStats {
    /// Σ |`conflict_locations(a, b)`| over the cross-processor event
    /// pairs with at least one data participant: every pair that could
    /// be a data race, weighted by its conflict locations. Bounds
    /// `races` from above.
    pub candidate_pairs: u64,
    /// Candidates confirmed unordered — the reported data races.
    pub races: u64,
    /// Unordered conflicting pairs of two synchronization events. They
    /// are not data races and are counted, not reported.
    pub sync_races: u64,
}

/// Finds every data race of the execution: conflicting event pairs,
/// at least one of them a computation event, not ordered by hb1.
pub fn detect_races(trace: &TraceSet, hb: &HbGraph) -> Vec<DataRace> {
    detect_races_in(trace, hb).0
}

/// The race sweep behind every event-level detector: the data races of
/// `trace` under the order `hb` — hb1 for the paper's detector, a
/// weaker order over the same events for predicted races — with the
/// [`DetectStats`] the observability layer records as
/// `analysis.candidate_pairs` / `analysis.races` / `analysis.sync_races`.
///
/// Each event `a` is compared only with the events of each later
/// processor `q` that are unordered with it, the window `[lo, hi)` of
/// `q`'s chain between `a`'s predecessors and its successors. Both
/// ends only grow as `a` walks its processor, so the windows and the
/// per-location access lists they cut are followed by forward
/// cursors, and the cost is `O(A·P + races)` for `A` accesses and `P`
/// processors, however many conflicting pairs are ordered. `hb` must
/// be an order over `trace`'s events ([`HbGraph::build`] of the same
/// trace, or [`HbGraph::with_edges`] of such an order).
pub fn detect_races_in(trace: &TraceSet, hb: &HbGraph) -> (Vec<DataRace>, DetectStats) {
    let lists = AccessLists::new(event_accesses(trace));
    let mut races = Vec::new();
    let sync_races = lists.sweep(hb.order(), |a, b| {
        let (Some(ea), Some(eb)) = (trace.event(a), trace.event(b)) else { return };
        let kind =
            if ea.is_sync() || eb.is_sync() { RaceKind::DataSync } else { RaceKind::DataData };
        races.push(DataRace { a, b, locations: ea.conflict_locations(eb), kind });
    });
    let stats = DetectStats {
        candidate_pairs: lists.candidate_pairs(),
        races: races.len() as u64,
        sync_races,
    };
    (races, stats)
}

/// The accesses of `trace`'s events, each event's together, events in
/// chain order, read from the borrowed READ/WRITE sets.
fn event_accesses(trace: &TraceSet) -> Vec<Access> {
    let mut accesses = Vec::new();
    for event in trace.events() {
        let access = |loc, write, sync| Access { event: event.id, loc, write, sync };
        match &event.kind {
            EventKind::Sync(s) => accesses.push(access(s.loc, s.kind.is_write(), true)),
            EventKind::Computation(c) => {
                accesses.extend(c.writes.iter().map(|loc| access(loc, true, false)));
                let read_only = c.reads.iter().filter(|&loc| !c.writes.contains(loc));
                accesses.extend(read_only.map(|loc| access(loc, false, false)));
            }
        }
    }
    accesses
}

/// One access of an event to one location: the unit the race sweep
/// indexes. An event that reads and writes a location writes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub(crate) event: EventId,
    pub(crate) loc: Location,
    pub(crate) write: bool,
    pub(crate) sync: bool,
}

/// Access classes, the low bits of an [`AccessLists`] group: data or
/// sync, times write or read-only.
const DATA_WRITE: usize = 0;
const DATA_READ: usize = 1;
const SYNC_WRITE: usize = 2;
const SYNC_READ: usize = 3;
const CLASSES: usize = 4;

/// The access lists of one execution, one per (location, chain, class)
/// group. Only the (location, chain) pairs some access has are kept,
/// sorted by address and then chain, so each location's pairs form one
/// row of the chains that access it and there are at most as many
/// pairs as accesses. Group `g = pair · 4 + class` lists the indices of
/// its events on their chain, ascending, as
/// `indices[start[g]..start[g + 1]]`.
#[derive(Debug)]
pub(crate) struct AccessLists {
    /// The accesses grouped by event, events in chain order.
    by_event: Vec<Entry>,
    pairs: Vec<Pair>,
    start: Vec<usize>,
    indices: Vec<u32>,
}

/// An [`Access`] as the sweep keeps it: its location as its own
/// (location, chain) pair.
#[derive(Debug, Clone, Copy)]
struct Entry {
    event: EventId,
    pair: usize,
    write: bool,
    sync: bool,
}

impl Entry {
    fn class(self) -> usize {
        (self.sync as usize) << 1 | !self.write as usize
    }
}

/// One (location, chain) pair: the chain's processor, and the end of
/// the location's row of pairs.
#[derive(Debug, Clone, Copy)]
struct Pair {
    proc: ProcId,
    row_end: usize,
}

impl AccessLists {
    /// Indexes `accesses`, which must list each event's accesses
    /// together, events in chain order.
    pub(crate) fn new(accesses: Vec<Access>) -> Self {
        let mut addrs: Vec<u32> = accesses.iter().map(|a| a.loc.addr()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        // Until the pairs are known, an entry's `pair` is its
        // location's number.
        let mut by_event: Vec<Entry> = accesses
            .into_iter()
            .map(|a| {
                let pair = addrs.binary_search(&a.loc.addr()).expect("collected above");
                Entry { event: a.event, pair, write: a.write, sync: a.sync }
            })
            .collect();
        // Each location's row of the chains that access it, counted
        // and then filled. Events arrive in chain order, so each row
        // fills in ascending chain order.
        let mut last: Vec<Option<ProcId>> = vec![None; addrs.len()];
        let mut row_start = vec![0; addrs.len() + 1];
        for entry in &by_event {
            let proc = entry.event.proc;
            if last[entry.pair].replace(proc) != Some(proc) {
                row_start[entry.pair + 1] += 1;
            }
        }
        for loc in 1..row_start.len() {
            row_start[loc] += row_start[loc - 1];
        }
        let mut pairs = vec![Pair { proc: ProcId::new(0), row_end: 0 }; row_start[addrs.len()]];
        let mut fill = row_start.clone();
        last.fill(None);
        for entry in &mut by_event {
            let (loc, proc) = (entry.pair, entry.event.proc);
            if last[loc].replace(proc) != Some(proc) {
                pairs[fill[loc]] = Pair { proc, row_end: row_start[loc + 1] };
                fill[loc] += 1;
            }
            entry.pair = fill[loc] - 1;
        }
        // A counting sort by group, `start[g]` serving as group `g`'s
        // insertion point and then moved back one place. Events arrive
        // in chain order, so each list comes out ascending.
        let own_group = |e: &Entry| e.pair * CLASSES + e.class();
        let groups = pairs.len() * CLASSES;
        let mut start = vec![0; groups + 1];
        for entry in &by_event {
            start[own_group(entry) + 1] += 1;
        }
        for g in 1..start.len() {
            start[g] += start[g - 1];
        }
        let mut indices = vec![0u32; by_event.len()];
        for entry in &by_event {
            let slot = &mut start[own_group(entry)];
            indices[*slot] = entry.event.index;
            *slot += 1;
        }
        start.copy_within(0..groups, 1);
        start[0] = 0;
        AccessLists { by_event, pairs, start, indices }
    }

    /// Calls `race(a, b)` once for each conflicting pair with a data
    /// participant whose events `order` leaves unordered, `a` on an
    /// earlier chain than `b`, in `(a, b)` order. Returns the number of
    /// unordered conflicting pairs of two sync events, summed from
    /// window sizes: a sync event has one access, so each such pair is
    /// one list entry.
    ///
    /// An access visits only the later chains in its location's row.
    /// Each list's `[lo, hi)` slice is kept by a `(start, end)` cursor
    /// that, like the window it follows, only moves forward while one
    /// source chain is walked; it restarts when the next chain begins.
    pub(crate) fn sweep(&self, order: &ChainOrder, mut race: impl FnMut(EventId, EventId)) -> u64 {
        let mut sync_pairs = 0;
        // The events racing with the current one.
        let mut hits: Vec<EventId> = Vec::new();
        let mut cursors = Cursors::new(self.indices.len());
        for chain in self.by_event.chunk_by(|x, y| x.event.proc == y.event.proc) {
            let p = chain[0].event.proc.index();
            cursors.restart();
            let mut windows = order.windows(p);
            for accesses in chain.chunk_by(|x, y| x.event == y.event) {
                let a = accesses[0].event;
                hits.clear();
                for &access in accesses {
                    let classes: &[usize] = match access.write {
                        true => &[DATA_WRITE, DATA_READ, SYNC_WRITE, SYNC_READ],
                        false => &[DATA_WRITE, SYNC_WRITE],
                    };
                    for pair in access.pair + 1..self.pairs[access.pair].row_end {
                        let q = self.pairs[pair].proc;
                        let (lo, hi) = windows.window(a.index, q.index());
                        if lo >= hi {
                            continue;
                        }
                        for &class in classes {
                            let g = pair * CLASSES + class;
                            let list = (self.start[g], self.start[g + 1]);
                            let found = cursors.window(&self.indices, list, lo, hi);
                            if access.sync && class >= SYNC_WRITE {
                                sync_pairs += found.len() as u64;
                            } else {
                                hits.extend(found.iter().map(|&index| EventId::new(q, index)));
                            }
                        }
                    }
                }
                hits.sort_unstable();
                hits.dedup();
                for &b in &hits {
                    race(a, b);
                }
            }
        }
        sync_pairs
    }

    /// Σ over locations of the conflicting cross-chain access pairs with
    /// a data side, from the list lengths alone.
    pub(crate) fn candidate_pairs(&self) -> u64 {
        // Two groups of `(accesses, read-only accesses)` conflict in all
        // their pairs but the read-only ones.
        let conflicting =
            |(all1, reads1): (u64, u64), (all2, reads2): (u64, u64)| all1 * all2 - reads1 * reads2;
        let add = |x: (u64, u64), y: (u64, u64)| (x.0 + y.0, x.1 + y.1);
        let len = |g: usize| (self.start[g + 1] - self.start[g]) as u64;
        let mut total = 0;
        let mut row = 0;
        while row < self.pairs.len() {
            let row_end = self.pairs[row].row_end;
            // The counts on the location's earlier chains.
            let (mut data, mut sync) = ((0, 0), (0, 0));
            for g in (row * CLASSES..row_end * CLASSES).step_by(CLASSES) {
                let data_here = (len(g + DATA_WRITE) + len(g + DATA_READ), len(g + DATA_READ));
                let sync_here = (len(g + SYNC_WRITE) + len(g + SYNC_READ), len(g + SYNC_READ));
                total += conflicting(data, data_here)
                    + conflicting(data, sync_here)
                    + conflicting(sync, data_here);
                (data, sync) = (add(data, data_here), add(sync, sync_here));
            }
            row = row_end;
        }
        total
    }
}

/// The forward cursors of [`AccessLists::sweep`]: for each non-empty
/// list `indices[first..end]`, kept at `first`, the `(start, end)`
/// bounds of the slice last asked for, stamped with the source chain
/// they were moved for. Keyed by position, they take `O(A)` words.
struct Cursors {
    slots: Vec<(u32, usize, usize)>,
    source: u32,
}

impl Cursors {
    fn new(accesses: usize) -> Self {
        Cursors { slots: vec![(0, 0, 0); accesses], source: 0 }
    }

    /// Starts the next source chain: every cursor goes back to the
    /// start of its list when next asked.
    fn restart(&mut self) {
        self.source += 1;
    }

    /// The entries of the ascending list `indices[first..end]` in
    /// `[lo, hi)`. Within one source chain, `lo` and `hi` must not
    /// decrease across calls for one list, so the bounds only move
    /// forward.
    fn window<'a>(
        &mut self,
        indices: &'a [u32],
        (first, end): (usize, usize),
        lo: u32,
        hi: u32,
    ) -> &'a [u32] {
        if first == end {
            return &[];
        }
        let (source, start, stop) = &mut self.slots[first];
        if *source != self.source {
            (*source, *start, *stop) = (self.source, first, first);
        }
        while *start < end && indices[*start] < lo {
            *start += 1;
        }
        *stop = (*stop).max(*start);
        while *stop < end && indices[*stop] < hi {
            *stop += 1;
        }
        &indices[*start..*stop]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PairingPolicy, So1Edge};
    use wmrd_trace::{AccessKind, ProcId, SyncRole, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn e(proc: u16, index: u32) -> EventId {
        EventId::new(p(proc), index)
    }

    fn analyze(trace: &TraceSet) -> Vec<DataRace> {
        let hb = HbGraph::build(trace, PairingPolicy::ByRole).unwrap();
        detect_races(trace, &hb)
    }

    /// Figure 1a: P0 writes x then y; P1 reads y then x; no sync at all.
    /// Both conflicting pairs race.
    #[test]
    fn fig1a_has_two_data_races() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        // Each processor's accesses fold into ONE computation event, so at
        // the event level this is a single race on {x, y}.
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let (races, stats) = detect_races_in(&t, &hb);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::DataData);
        assert_eq!(races[0].locations.len(), 2, "conflicts on both x and y");
        assert_eq!(stats.candidate_pairs, 2, "one pair, weighted by its two locations");
    }

    /// Figure 1b: same accesses but separated by Unset/Test&Set pairing —
    /// race-free.
    #[test]
    fn fig1b_is_race_free() {
        let mut b = TraceBuilder::new(2);
        let s = l(9);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        let rel = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.sync_access(p(1), s, AccessKind::Write, SyncRole::None, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        let t = b.finish();
        assert!(analyze(&t).is_empty());
    }

    #[test]
    fn write_write_race() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Write, Value::new(2), None);
        let races = analyze(&b.finish());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].a, e(0, 0));
        assert_eq!(races[0].b, e(1, 0));
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        assert!(analyze(&b.finish()).is_empty());
    }

    #[test]
    fn different_locations_do_not_race() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(1), None);
        assert!(analyze(&b.finish()).is_empty());
    }

    #[test]
    fn sync_data_conflict_is_a_data_race() {
        // A data access racing with a synchronization access to the same
        // location: still a data race per Definition 2.4.
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(9), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        let races = analyze(&b.finish());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::DataSync);
    }

    #[test]
    fn sync_sync_race_is_not_a_data_race() {
        // Two unpaired sync writes to the same location: unordered, but
        // not a data race — absent from the races, present in the count.
        let mut b = TraceBuilder::new(2);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::new(1), None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let (races, stats) = detect_races_in(&t, &hb);
        assert!(races.is_empty());
        assert_eq!(stats, DetectStats { candidate_pairs: 0, races: 0, sync_races: 1 });
    }

    #[test]
    fn same_processor_never_races() {
        let mut b = TraceBuilder::new(1);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(2), None);
        assert!(analyze(&b.finish()).is_empty());
    }

    #[test]
    fn ordering_through_intermediate_processor() {
        // P0 releases to P1, P1 releases to P2: P0's write is ordered
        // before P2's read through the chain; no race.
        let mut b = TraceBuilder::new(3);
        let (x, s1, s2) = (l(0), l(8), l(9));
        b.data_access(p(0), x, AccessKind::Write, Value::new(1), None);
        let r1 = b.sync_access(p(0), s1, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), s1, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(r1));
        let r2 = b.sync_access(p(1), s2, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(2), s2, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(r2));
        b.data_access(p(2), x, AccessKind::Read, Value::new(1), None);
        assert!(analyze(&b.finish()).is_empty());
    }

    #[test]
    fn races_are_sorted_and_normalized() {
        let mut b = TraceBuilder::new(3);
        b.data_access(p(2), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let races = analyze(&b.finish());
        assert_eq!(races.len(), 3);
        for r in &races {
            assert!(r.a < r.b, "normalized order");
        }
        let pairs: Vec<_> = races.iter().map(|r| (r.a, r.b)).collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted, "deterministic output order");
    }

    #[test]
    fn display_forms() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(3), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(3), AccessKind::Read, Value::ZERO, None);
        let races = analyze(&b.finish());
        assert_eq!(races[0].to_string(), "<P0.e0, P1.e0> on {3} (data-data)");
        assert_eq!(RaceKind::DataSync.to_string(), "data-sync");
    }

    #[test]
    fn stats_count_candidates_and_races() {
        // Three writers to one location race pairwise; a second location
        // is written by one processor and read (already-ordered) by the
        // same processor, contributing no candidates.
        let mut b = TraceBuilder::new(3);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(2), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), l(7), AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), l(7), AccessKind::Read, Value::new(1), None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let (races, stats) = detect_races_in(&t, &hb);
        assert_eq!(stats.candidate_pairs, 3, "C(3,2) distinct cross-proc pairs");
        assert_eq!(stats.races, 3);
        assert_eq!(stats.races, races.len() as u64);
    }

    #[test]
    fn stats_candidates_can_exceed_races() {
        // Release/acquire orders the conflicting pair: it is examined
        // (one candidate) but confirmed ordered (zero races).
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let rel =
            b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let (races, stats) = detect_races_in(&t, &hb);
        assert!(races.is_empty());
        assert!(stats.candidate_pairs >= 1);
        assert_eq!(stats.races, 0);
    }

    #[test]
    fn involves() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let races = analyze(&b.finish());
        assert!(races[0].involves(e(0, 0)));
        assert!(races[0].involves(e(1, 0)));
        assert!(!races[0].involves(e(1, 5)));
    }

    /// A sparse trace on the highest processor id: P0 reads 2,000
    /// locations in each of two events split by a release, P65534
    /// writes one of them, and the 65,533 processors between have no
    /// events. The access lists keep one pair per (location, chain)
    /// that occurs, not one per access and not one per declared
    /// processor, so the table stays within four groups per access,
    /// and both races are found.
    #[test]
    fn sparse_processors_keep_the_access_table_within_the_accesses() {
        let last = u16::MAX - 1;
        let mut b = TraceBuilder::new(usize::from(u16::MAX));
        for run in 0..2 {
            for addr in 0..2000 {
                b.data_access(p(0), l(addr), AccessKind::Read, Value::ZERO, None);
            }
            if run == 0 {
                b.sync_access(
                    p(0),
                    l(5000),
                    AccessKind::Write,
                    SyncRole::Release,
                    Value::ZERO,
                    None,
                );
            }
        }
        b.data_access(p(last), l(1234), AccessKind::Write, Value::new(1), None);
        let t = b.finish();
        let lists = AccessLists::new(event_accesses(&t));
        assert_eq!(lists.indices.len(), 4002);
        assert_eq!(lists.pairs.len(), 2002, "one pair per (location, chain) that occurs");
        assert!(lists.start.len() <= CLASSES * lists.indices.len() + 1);
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let (races, stats) = detect_races_in(&t, &hb);
        let race = |a| DataRace {
            a,
            b: e(last, 0),
            locations: [l(1234)].into_iter().collect(),
            kind: RaceKind::DataData,
        };
        assert_eq!(races, [race(e(0, 0)), race(e(0, 2))]);
        assert_eq!(stats, DetectStats { candidate_pairs: 2, races: 2, sync_races: 0 });
    }

    /// The all-pairs definition the window sweep must reproduce: every
    /// cross-processor conflicting pair, tested with `concurrent`.
    fn all_pairs(trace: &TraceSet, hb: &HbGraph) -> (Vec<DataRace>, DetectStats) {
        let mut races = Vec::new();
        let mut stats = DetectStats::default();
        let sets: Vec<_> = trace.events().map(|ev| (ev, ev.read_set(), ev.write_set())).collect();
        for (ea, r1, w1) in &sets {
            for (eb, r2, w2) in sets.iter().filter(|(eb, ..)| ea.id.proc < eb.id.proc) {
                if !(w1.intersects(r2) || w1.intersects(w2) || w2.intersects(r1)) {
                    continue;
                }
                let locations = ea.conflict_locations(eb);
                let unordered = hb.concurrent(ea.id, eb.id);
                if ea.is_sync() && eb.is_sync() {
                    stats.sync_races += unordered as u64;
                    continue;
                }
                stats.candidate_pairs += locations.len() as u64;
                if unordered {
                    let kind = if ea.is_sync() || eb.is_sync() {
                        RaceKind::DataSync
                    } else {
                        RaceKind::DataData
                    };
                    races.push(DataRace { a: ea.id, b: eb.id, locations, kind });
                }
            }
        }
        stats.races = races.len() as u64;
        (races, stats)
    }

    /// Asserts that the sweep under `hb` finds the all-pairs races in
    /// the same order with the same stats, and that every chain's
    /// [`Windows`](crate::graph::Windows), walked in chain order, holds
    /// exactly the events `concurrent` with each event. Returns the
    /// races and stats, and how many windows were inverted (`lo > hi`,
    /// an hb1 cycle through the event and the chain).
    fn check_sweep(
        trace: &TraceSet,
        hb: &HbGraph,
        ctx: &str,
    ) -> (Vec<DataRace>, DetectStats, usize) {
        let (races, stats) = detect_races_in(trace, hb);
        assert_eq!((races.clone(), stats), all_pairs(trace, hb), "{ctx}");
        let lens: Vec<u32> = trace.processors().iter().map(|pt| pt.len() as u32).collect();
        let mut inverted = 0;
        for (source, &len) in lens.iter().enumerate() {
            let mut windows = hb.order().windows(source);
            for index in 0..len {
                let a = EventId::new(p(source as u16), index);
                for (q, &q_len) in lens.iter().enumerate() {
                    let (lo, hi) = windows.window(index, q);
                    inverted += (lo > hi) as usize;
                    for b_index in 0..q_len {
                        let b = EventId::new(p(q as u16), b_index);
                        let inside = lo <= b_index && b_index < hi;
                        assert_eq!(inside, hb.concurrent(a, b), "{a} vs {b}: {ctx}");
                    }
                }
            }
        }
        (races, stats, inverted)
    }

    /// `so1` with each edge kept by a coin flip: a weakened order
    /// inside hb1, the shape of a WCP-style predictive order.
    fn so1_subset(rng: &mut wmrd_trace::SplitMix64, hb1: &HbGraph) -> Vec<So1Edge> {
        hb1.so1().iter().copied().filter(|_| rng.chance(0.5)).collect()
    }

    /// A random execution of 1–6 processors over 6 locations, recorded
    /// at event and at operation granularity: runs of data accesses fold
    /// into computation events with random READ/WRITE sets, and sync
    /// reads may observe an earlier release of their location.
    fn random_execution(rng: &mut wmrd_trace::SplitMix64) -> (TraceSet, wmrd_trace::OpTrace) {
        let procs = rng.range(1..7usize);
        let mut sink = wmrd_trace::MultiSink::new(
            TraceBuilder::new(procs),
            wmrd_trace::OpRecorder::new(procs),
        );
        let mut releases: Vec<(Location, wmrd_trace::OpId)> = Vec::new();
        for _ in 0..rng.range(0..40) {
            let proc = p(rng.range(0..procs as u16));
            let loc = l(rng.range(0..6));
            let write = rng.chance(0.5);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            if rng.chance(0.6) {
                sink.data_access(proc, loc, kind, Value::new(1), None);
            } else if write {
                let role = if rng.chance(0.7) { SyncRole::Release } else { SyncRole::None };
                let op = sink.sync_access(proc, loc, kind, role, Value::new(1), None);
                releases.push((loc, op));
            } else {
                let observed = releases.iter().rev().find(|r| r.0 == loc && rng.chance(0.5));
                let observed = observed.map(|r| r.1);
                sink.sync_access(proc, loc, kind, SyncRole::Acquire, Value::ZERO, observed);
            }
        }
        let (events, ops) = sink.into_inner();
        (events.finish(), ops.finish())
    }

    /// A lock-heavy `generate::racy` program: 4 processors × 30
    /// sections of 6 operations over 16 locations, 30% of sections
    /// skipping the lock.
    fn racy_program(seed: u64) -> wmrd_sim::Program {
        wmrd_progs::generate::racy(&wmrd_progs::generate::GenConfig {
            procs: 4,
            shared_locations: 16,
            sections_per_proc: 30,
            ops_per_section: 6,
            rogue_fraction: 0.3,
            seed,
        })
    }

    /// The window sweep against the all-pairs definition on random
    /// executions, under hb1, under random subsets of `so1` (weakened
    /// orders like WCP's) and under random sync edges that make hb1
    /// cyclic: the same races in the same order (locations and kinds
    /// included), the same `candidate_pairs` and `sync_races`, and
    /// each window agreeing with `concurrent` for every (event, chain).
    /// The same execution unfolded to one event per operation is one
    /// more input, under its hb1. Then the same on simulated lock-heavy
    /// `generate::racy` traces (4 processors × 30 sections) on two weak
    /// machines, under hb1 and a weakened order.
    #[test]
    fn window_sweep_matches_all_pairs_on_random_traces() {
        let mut rng = wmrd_trace::SplitMix64::new(17);
        let (mut cyclic, mut multi_location, mut sync_pairs, mut inverted) = (0, 0, 0, 0);
        for round in 0..400 {
            let (trace, ops) = random_execution(&mut rng);
            let ids: Vec<EventId> = trace.events().map(|ev| ev.id).collect();
            let random_edges = (0..rng.range(0..ids.len() + 1)).map(|_| So1Edge {
                release: ids[rng.range(0..ids.len())],
                acquire: ids[rng.range(0..ids.len())],
                loc: l(0),
            });
            let random_edges: Vec<So1Edge> = random_edges.collect();
            let hb1 = HbGraph::build(&trace, PairingPolicy::ByRole).unwrap();
            let orders = [
                hb1.with_edges(random_edges).unwrap(),
                hb1.with_edges(so1_subset(&mut rng, &hb1)).unwrap(),
                hb1,
            ];
            for hb in &orders {
                let ctx = format!("round {round}: {trace:?} under {:?}", hb.so1());
                let (races, stats, inverted_here) = check_sweep(&trace, hb, &ctx);
                cyclic += ids.iter().any(|&a| hb.ordered(a, a)) as usize;
                multi_location += races.iter().filter(|r| r.locations.len() > 1).count();
                sync_pairs += stats.sync_races;
                inverted += inverted_here;
            }

            let unfolded = ops.to_event_trace();
            let hb = HbGraph::build(&unfolded, PairingPolicy::ByRole).unwrap();
            check_sweep(&unfolded, &hb, &format!("round {round}, unfolded: {ops:?}"));
        }
        assert!(cyclic > 50, "random sync edges must make hb1 cyclic often ({cyclic})");
        assert!(inverted > 50, "cycles must invert windows often ({inverted})");
        assert!(multi_location > 50 && sync_pairs > 50, "{multi_location} {sync_pairs}");

        use wmrd_sim::{run_weak_hw, Fidelity, HwImpl, MemoryModel, RandomWeakSched, RunConfig};

        let mut racy_races = 0;
        for (seed, hw) in [(0, HwImpl::StoreBuffer), (1, HwImpl::InvalQueue)] {
            let program = racy_program(seed);
            let mut builder = TraceBuilder::new(program.num_procs());
            let mut sched = RandomWeakSched::new(seed, 0.3);
            let (model, fidelity, config) =
                (MemoryModel::Wo, Fidelity::Conditioned, RunConfig::default());
            run_weak_hw(hw, &program, model, fidelity, &mut sched, &mut builder, config).unwrap();
            let trace = builder.finish();
            assert!(trace.num_events() > 500, "lock-heavy: {} events", trace.num_events());
            let hb1 = HbGraph::build(&trace, PairingPolicy::ByRole).unwrap();
            let weakened = hb1.with_edges(so1_subset(&mut rng, &hb1)).unwrap();
            for hb in [&hb1, &weakened] {
                let ctx = format!("racy seed {seed} on {hw:?} under {:?}", hb.so1());
                racy_races += check_sweep(&trace, hb, &ctx).0.len();
            }
        }
        assert!(racy_races > 0, "generated racy traces race");
    }
}
