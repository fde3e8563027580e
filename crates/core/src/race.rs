//! Data-race detection: conflicting, hb1-unordered event pairs with a
//! data participant (Definition 2.4 lifted to events, Section 4.1),
//! found by one window sweep over the chain-clock order.

use std::fmt;

use wmrd_trace::{EventId, LocSet, Location, ProcId, TraceSet};

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
/// processor `q` that are unordered with it, the window
/// `[lo, hi)` of `q`'s chain between `a`'s predecessors and its
/// successors. Per-location access lists turn a window into its
/// conflicting events by binary search, so the cost is
/// `O(A·P·log A + races)` for `A` accesses and `P` processors, however
/// many conflicting pairs are ordered. `hb` must be an order over
/// `trace`'s events ([`HbGraph::build`] or
/// [`HbGraph::with_sync_edges`] of the same trace).
pub fn detect_races_in(trace: &TraceSet, hb: &HbGraph) -> (Vec<DataRace>, DetectStats) {
    let mut accesses = Vec::new();
    for event in trace.events() {
        let (writes, reads) = (event.write_set(), event.read_set());
        let sync = event.is_sync();
        accesses.extend(writes.iter().map(|loc| Access {
            event: event.id,
            loc,
            write: true,
            sync,
        }));
        accesses.extend(reads.iter().filter(|&loc| !writes.contains(loc)).map(|loc| Access {
            event: event.id,
            loc,
            write: false,
            sync,
        }));
    }
    let lists = AccessLists::new(accesses);
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

/// One access of an event to one location: the unit the race sweep
/// indexes. An event that reads and writes a location writes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub(crate) event: EventId,
    pub(crate) loc: Location,
    pub(crate) write: bool,
    pub(crate) sync: bool,
}

/// Access classes, the low bits of an [`AccessLists`] key: data or
/// sync, times write or read-only.
const DATA_WRITE: u64 = 0;
const DATA_READ: u64 = 1;
const SYNC_WRITE: u64 = 2;
const SYNC_READ: u64 = 3;

impl Access {
    fn class(self) -> u64 {
        (self.sync as u64) << 1 | !self.write as u64
    }
}

/// The sorted access lists of one execution, per (location, chain,
/// class), kept as one flat vector of `(key, index)` sorted by key and
/// then by the event's index on its chain.
#[derive(Debug)]
pub(crate) struct AccessLists {
    /// The accesses grouped by event, events in chain order.
    by_event: Vec<Access>,
    /// `(key(loc, chain, class), index)`, sorted.
    entries: Vec<(u64, u32)>,
}

fn key(loc: Location, chain: usize, class: u64) -> u64 {
    (loc.addr() as u64) << 18 | (chain as u64) << 2 | class
}

impl AccessLists {
    /// Indexes `accesses`, which must list each event's accesses
    /// together, events in chain order.
    pub(crate) fn new(by_event: Vec<Access>) -> Self {
        let mut entries: Vec<(u64, u32)> = by_event
            .iter()
            .map(|a| (key(a.loc, a.event.proc.index(), a.class()), a.event.index))
            .collect();
        entries.sort_unstable();
        AccessLists { by_event, entries }
    }

    /// The indices of the `class` accesses to `loc` on `chain` that lie
    /// in `[lo, hi)`.
    fn window(&self, loc: Location, chain: usize, class: u64, lo: u32, hi: u32) -> &[(u64, u32)] {
        let k = key(loc, chain, class);
        let start = self.entries.partition_point(|&e| e < (k, lo));
        let end = self.entries.partition_point(|&e| e < (k, hi));
        &self.entries[start..end]
    }

    /// Calls `race(a, b)` once for each conflicting pair with a data
    /// participant whose events `order` leaves unordered, `a` on an
    /// earlier chain than `b`, in `(a, b)` order. Returns the number of
    /// unordered conflicting pairs of two sync events, summed from
    /// window sizes: a sync event has one access, so each such pair is
    /// one list entry.
    pub(crate) fn sweep(&self, order: &ChainOrder, mut race: impl FnMut(EventId, EventId)) -> u64 {
        let mut sync_pairs = 0;
        let mut hits: Vec<u32> = Vec::new();
        for accesses in self.by_event.chunk_by(|x, y| x.event == y.event) {
            let a = accesses[0].event;
            for q in a.proc.index() + 1..order.num_chains() {
                let (lo, hi) = order.window(a, q);
                if lo >= hi {
                    continue;
                }
                hits.clear();
                for &access in accesses {
                    let classes: &[u64] = match access.write {
                        true => &[DATA_WRITE, DATA_READ, SYNC_WRITE, SYNC_READ],
                        false => &[DATA_WRITE, SYNC_WRITE],
                    };
                    for &class in classes {
                        let found = self.window(access.loc, q, class, lo, hi);
                        if access.sync && class >= SYNC_WRITE {
                            sync_pairs += found.len() as u64;
                        } else {
                            hits.extend(found.iter().map(|&(_, index)| index));
                        }
                    }
                }
                hits.sort_unstable();
                hits.dedup();
                let proc = ProcId::new(q as u16);
                for &index in &hits {
                    race(a, EventId::new(proc, index));
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
        let mut total = 0;
        // The counts on the current location's earlier chains.
        let (mut data, mut sync) = ((0, 0), (0, 0));
        let mut loc = None;
        for group in self.entries.chunk_by(|x, y| x.0 >> 2 == y.0 >> 2) {
            let here = group[0].0 >> 18;
            if loc.replace(here) != Some(here) {
                (data, sync) = ((0, 0), (0, 0));
            }
            let count = |class| group.iter().filter(|e| e.0 & 3 == class).count() as u64;
            let data_here = (count(DATA_WRITE) + count(DATA_READ), count(DATA_READ));
            let sync_here = (count(SYNC_WRITE) + count(SYNC_READ), count(SYNC_READ));
            total += conflicting(data, data_here)
                + conflicting(data, sync_here)
                + conflicting(sync, data_here);
            (data, sync) = (add(data, data_here), add(sync, sync_here));
        }
        total
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

    /// The all-pairs definition the window sweep must reproduce: every
    /// cross-processor conflicting pair, tested with `ordered`.
    fn all_pairs(trace: &TraceSet, hb: &HbGraph) -> (Vec<DataRace>, DetectStats) {
        let mut races = Vec::new();
        let mut stats = DetectStats::default();
        for ea in trace.events() {
            for eb in trace.events().filter(|eb| ea.id.proc < eb.id.proc) {
                let locations = ea.conflict_locations(eb);
                if locations.is_empty() {
                    continue;
                }
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

    /// The window sweep against the all-pairs definition on random
    /// executions, under hb1 and under random sync edges that make hb1
    /// cyclic: the same races (locations and kinds included), the same
    /// `candidate_pairs` and `sync_races`, and `ChainOrder::window`
    /// agreeing with `ordered` for every (event, chain). The operation
    /// level runs the same sweep over its own order.
    #[test]
    fn window_sweep_matches_all_pairs_on_random_traces() {
        let mut rng = wmrd_trace::SplitMix64::new(17);
        let (mut cyclic, mut multi_location, mut sync_pairs) = (0, 0, 0);
        for round in 0..400 {
            let (trace, ops) = random_execution(&mut rng);
            let ids: Vec<EventId> = trace.events().map(|ev| ev.id).collect();
            let random_edges = (0..rng.range(0..ids.len() + 1)).map(|_| So1Edge {
                release: ids[rng.range(0..ids.len())],
                acquire: ids[rng.range(0..ids.len())],
                loc: l(0),
            });
            let random_edges: Vec<So1Edge> = random_edges.collect();
            let orders = [
                HbGraph::build(&trace, PairingPolicy::ByRole).unwrap(),
                HbGraph::with_sync_edges(&trace, random_edges).unwrap(),
            ];
            for hb in &orders {
                let ctx = format!("round {round}: {trace:?} under {:?}", hb.so1());
                let (races, stats) = detect_races_in(&trace, hb);
                assert_eq!((races.clone(), stats), all_pairs(&trace, hb), "{ctx}");
                cyclic += ids.iter().any(|&a| hb.ordered(a, a)) as usize;
                multi_location += races.iter().filter(|r| r.locations.len() > 1).count();
                sync_pairs += stats.sync_races;
                let chains = trace.processors().len();
                for &a in &ids {
                    for q in 0..chains {
                        let (lo, hi) = hb.order().window(a, q);
                        for index in 0..trace.processors()[q].len() as u32 {
                            let b = EventId::new(p(q as u16), index);
                            let inside = lo <= index && index < hi;
                            assert_eq!(inside, hb.concurrent(a, b), "{a} vs {b}: {ctx}");
                        }
                    }
                    assert_eq!(hb.order().window(a, chains), (0, 0), "no such chain");
                }
            }

            let analysis = crate::ops::OpAnalysis::analyze(&ops, PairingPolicy::ByRole).unwrap();
            let mut expected = Vec::new();
            for x in ops.iter() {
                for y in ops.iter().filter(|y| x.id.proc < y.id.proc && x.loc == y.loc) {
                    let conflict = x.kind == AccessKind::Write || y.kind == AccessKind::Write;
                    let unordered = !analysis.ordered(x.id, y.id) && !analysis.ordered(y.id, x.id);
                    if conflict && unordered && !(x.is_sync() && y.is_sync()) {
                        expected.push((x.id, y.id, x.loc));
                    }
                }
            }
            let found: Vec<_> = analysis.races().iter().map(|r| (r.a, r.b, r.loc)).collect();
            assert_eq!(found, expected, "round {round}: {ops:?}");
        }
        assert!(cyclic > 50, "random sync edges must make hb1 cyclic often ({cyclic})");
        assert!(multi_location > 50 && sync_pairs > 50, "{multi_location} {sync_pairs}");
    }
}
