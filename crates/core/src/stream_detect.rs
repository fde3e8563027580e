//! Streaming race detection with epoch-compressed clocks — the engine
//! behind the daemon's `STREAM`/`FEED`/`CLOSE` verbs.
//!
//! The [`OnTheFly`](crate::OnTheFly) detector already runs during
//! execution, but it was built as the paper's Section 5 *comparison
//! point* and deliberately inherits the classic on-the-fly
//! inaccuracies: bounded read history and per-location synchronization
//! clocks that order an acquire after *every* earlier release of the
//! location. A serving daemon needs the opposite trade-off — results
//! that exactly match the post-mortem analysis, delivered while the
//! trace is still arriving. [`StreamDetector`] provides that:
//!
//! * **Exact pairing.** Release clocks are snapshotted per operation
//!   and an acquire joins only the clock of the release it *observed*
//!   (the `observed` field carried by the stream format), which is
//!   precisely the `so1` relation [`HbGraph`](crate::HbGraph) builds
//!   post-mortem.
//! * **Epoch compression.** Per location, while only one processor has
//!   ever touched it, state is a fixed-size *exclusive* record and the
//!   hot path does no vector-clock work at all — the common case for
//!   thread-local data. The first access from a second processor
//!   *promotes* the location to a shared table keyed by processor
//!   (counted by [`promotions`](StreamDetector::promotions)).
//! * **Race-identity granularity.** Per processor and location only the
//!   *latest* access of each (read/write × data/sync) class is kept —
//!   four slots, not an unbounded history. That is lossy at the
//!   operation level but lossless at the [`RaceKey`] level, which is
//!   what the catalog aggregates: see *Why this equals post-mortem*
//!   below.
//!
//! # Why streamed ≡ post-mortem (DESIGN.md §7 has the long form)
//!
//! Feed order is the simulator's sink order, which linearly extends
//! happens-before-1 — in particular a release is always fed before any
//! acquire that observed it. Suppose an older access `X` of some class
//! was overwritten by a same-class `X′` before the conflicting `Y`
//! arrives. If `X` races `Y`, then `X′` races `Y` too: `X′` ordered
//! before `Y` would (by `X →po X′`) order `X` before `Y`, and `Y`
//! cannot be ordered before `X′` because `X′` was fed earlier. Since
//! `X` and `X′` share processor, kind and sync class, `⟨X′,Y⟩` has the
//! same [`RaceKey`] as `⟨X,Y⟩` — keeping only the latest record loses
//! no keys. Conversely every pair reported here is hb1-concurrent and
//! conflicting, so post-mortem [`detect_races`](crate::detect_races)
//! (which reports *every* such event pair) finds it too.
//!
//! # Memory bound per session
//!
//! With `P` processors, `L` locations touched and `S` sync writes, the
//! detector holds `P` vector clocks, at most `4·P` class records per
//! *shared* location (exclusive locations are O(1)), and one snapshot
//! clock per sync write: `O(P² + L·P + S·P)` words. There is no
//! unbounded read history and nothing grows with data-access count —
//! the property that makes long-lived streaming sessions safe.

use std::collections::{BTreeSet, HashMap};

use wmrd_trace::{
    AccessKind, Location, OpCounters, OpId, ProcId, StreamRecord, SyncRole, TraceSink, Value,
};

use crate::{OnTheFlyRace, PairingPolicy, RaceKey, RaceKind, SideKey, VectorClock};

/// Classes per (processor, location): read/write × data/sync.
const CLASSES: usize = 4;

/// Index of the (kind, sync) class: writes occupy the upper half, sync
/// accesses the odd slots.
fn class_index(kind: AccessKind, sync: bool) -> usize {
    (matches!(kind, AccessKind::Write) as usize) * 2 + usize::from(sync)
}

/// Kind and sync flag encoded by a class index.
fn class_meta(idx: usize) -> (AccessKind, bool) {
    let kind = if idx >= 2 { AccessKind::Write } else { AccessKind::Read };
    (kind, idx % 2 == 1)
}

/// The latest access of one class: the operation id (the race witness)
/// and the accessor's own clock component at access time (the epoch the
/// ordering test compares against).
#[derive(Debug, Clone, Copy)]
struct ClassRecord {
    op: OpId,
    time: u64,
}

type ClassSlots = [Option<ClassRecord>; CLASSES];

/// Per-location state: exclusive (one processor so far, fixed size) or
/// shared (promoted on the first cross-processor access; one entry per
/// processor, sorted, so race witnesses are found in processor order).
#[derive(Debug)]
enum LocState {
    Exclusive { owner: ProcId, classes: ClassSlots },
    Shared { procs: Vec<(ProcId, ClassSlots)> },
}

/// A resumable, epoch-compressed race detector for streaming sessions.
///
/// Feed it chunks of decoded [`StreamRecord`]s (it is also a plain
/// [`TraceSink`], so a simulator can drive it directly); each
/// [`feed`](StreamDetector::feed) call returns the races whose *second*
/// access arrived in that chunk — detection latency is one event, not
/// one trace. Races are deduplicated by [`RaceKey`], the same
/// execution-independent identity the catalog aggregates, so the key
/// set after the final chunk equals the post-mortem key set for the
/// same trace (asserted over the whole catalog by `tests/stream.rs`).
///
/// # Example
///
/// ```
/// use wmrd_core::{PairingPolicy, StreamDetector};
/// use wmrd_trace::{AccessKind, Location, ProcId, TraceSink, Value};
///
/// let mut d = StreamDetector::new(2, PairingPolicy::ByRole);
/// let x = Location::new(0);
/// d.data_access(ProcId::new(0), x, AccessKind::Write, Value::new(1), None);
/// d.data_access(ProcId::new(1), x, AccessKind::Read, Value::new(0), None);
/// assert_eq!(d.take_races().len(), 1); // reported the moment the read lands
/// assert_eq!(d.race_keys().len(), 1);
/// ```
#[derive(Debug)]
pub struct StreamDetector {
    pairing: PairingPolicy,
    /// One clock per processor: what that processor knows happened.
    clocks: Vec<VectorClock>,
    /// Positional operation-id assignment, shared with every other sink.
    op_counters: OpCounters,
    locations: HashMap<Location, LocState>,
    /// Clock snapshot (and role) of every sync write, keyed by its
    /// operation id — the lookup table for exact `so1` pairing.
    release_clocks: HashMap<OpId, (SyncRole, VectorClock)>,
    /// Every race identity seen so far (the dedup set and the result).
    keys: BTreeSet<RaceKey>,
    /// Witnesses for keys found since the last `feed`/`take_races`.
    pending: Vec<OnTheFlyRace>,
    events: u64,
    promotions: u64,
}

impl StreamDetector {
    /// Creates a detector for `num_procs` processors (grows on demand if
    /// the stream mentions more).
    pub fn new(num_procs: usize, pairing: PairingPolicy) -> Self {
        StreamDetector {
            pairing,
            clocks: vec![VectorClock::new(); num_procs],
            op_counters: OpCounters::with_procs(num_procs),
            locations: HashMap::new(),
            release_clocks: HashMap::new(),
            keys: BTreeSet::new(),
            pending: Vec::new(),
            events: 0,
            promotions: 0,
        }
    }

    /// Applies a chunk of records and returns the races detected *by
    /// this chunk* — one witness pair per newly seen [`RaceKey`].
    ///
    /// Operation ids are assigned positionally (`n`-th record of
    /// processor `p` is `Pp#n`), exactly as [`StreamRecord::apply`]
    /// documents, so `observed` references into earlier chunks resolve
    /// correctly. The chunking itself is irrelevant: any split of the
    /// same record sequence yields the same accumulated key set
    /// (property-tested in `tests/props.rs`).
    pub fn feed(&mut self, records: &[StreamRecord]) -> Vec<OnTheFlyRace> {
        for r in records {
            r.apply(self);
        }
        self.take_races()
    }

    /// Drains the witnesses accumulated since the last drain (the
    /// non-chunked twin of [`feed`](StreamDetector::feed)).
    pub fn take_races(&mut self) -> Vec<OnTheFlyRace> {
        std::mem::take(&mut self.pending)
    }

    /// Every race identity detected so far, in key order.
    pub fn race_keys(&self) -> &BTreeSet<RaceKey> {
        &self.keys
    }

    /// Operations processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Locations promoted from the exclusive fast path to the shared
    /// table — the contention measure `stream.epochs_promoted` reports.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Approximate bytes of detector state (same estimate contract as
    /// [`OnTheFly::approx_memory_bytes`](crate::OnTheFly::approx_memory_bytes):
    /// a growth signal, not an audit). Bounded by `O(P² + L·P + S·P)`
    /// words — see the module docs.
    pub fn approx_memory_bytes(&self) -> usize {
        let clock_bytes: usize = self.clocks.iter().map(VectorClock::approx_bytes).sum();
        let release_bytes: usize =
            self.release_clocks.values().map(|(_, v)| 16 + v.approx_bytes()).sum();
        let loc_bytes: usize = self
            .locations
            .values()
            .map(|s| match s {
                LocState::Exclusive { .. } => 16 + std::mem::size_of::<ClassSlots>(),
                LocState::Shared { procs } => {
                    16 + procs.len() * std::mem::size_of::<(ProcId, ClassSlots)>()
                }
            })
            .sum();
        let key_bytes = self.keys.len() * std::mem::size_of::<RaceKey>();
        clock_bytes + release_bytes + loc_bytes + key_bytes
    }

    /// Clears all state, returning the detector to its just-constructed
    /// state (pairing policy and processor count are kept) — session
    /// slots in the daemon are recycled through this.
    pub fn reset(&mut self) {
        let procs = self.clocks.len();
        self.clocks.clear();
        self.clocks.resize_with(procs, VectorClock::new);
        self.op_counters = OpCounters::with_procs(procs);
        self.locations.clear();
        self.release_clocks.clear();
        self.keys.clear();
        self.pending.clear();
        self.events = 0;
        self.promotions = 0;
    }

    fn ensure_proc(&mut self, proc: ProcId) {
        if proc.index() >= self.clocks.len() {
            self.clocks.resize_with(proc.index() + 1, VectorClock::new);
        }
    }

    /// Checks the access against the location's class records, reports
    /// new race identities, and installs the access as its class's
    /// latest record.
    fn touch(&mut self, proc: ProcId, loc: Location, kind: AccessKind, sync: bool, op: OpId) {
        self.events += 1;
        let time = self.clocks[proc.index()].get(proc);
        let cls = class_index(kind, sync);
        let rec = ClassRecord { op, time };

        let state = self
            .locations
            .entry(loc)
            .or_insert_with(|| LocState::Exclusive { owner: proc, classes: ClassSlots::default() });
        // Exclusive fast path: the owning processor re-touching its own
        // location cannot race with itself — just refresh the slot.
        if let LocState::Exclusive { owner, classes } = state {
            if *owner == proc {
                classes[cls] = Some(rec);
                return;
            }
            // First cross-processor access: promote to the shared table.
            let procs = vec![(*owner, std::mem::take(classes))];
            *state = LocState::Shared { procs };
            self.promotions += 1;
        }

        // Shared path: test every other processor's class records for
        // conflict + concurrency, then install our own record.
        let LocState::Shared { procs } = state else {
            unreachable!("exclusive same-owner path returned above")
        };
        let clock = &self.clocks[proc.index()];
        let mut hits: Vec<(ClassRecord, AccessKind, bool)> = Vec::new();
        for &(other, ref slots) in procs.iter() {
            if other == proc {
                continue;
            }
            for (idx, slot) in slots.iter().enumerate() {
                let Some(other_rec) = slot else { continue };
                let (other_kind, other_sync) = class_meta(idx);
                if kind == AccessKind::Read && other_kind == AccessKind::Read {
                    continue; // read-read pairs do not conflict
                }
                if sync && other_sync {
                    continue; // sync-sync is never a *data* race
                }
                if other_rec.time > clock.get(other) {
                    hits.push((*other_rec, other_kind, other_sync));
                }
            }
        }
        for (other_rec, other_kind, other_sync) in hits {
            let key = RaceKey::new(
                loc,
                SideKey { proc: other_rec.op.proc, kind: other_kind, sync: other_sync },
                SideKey { proc, kind, sync },
            );
            if self.keys.insert(key) {
                let race_kind =
                    if other_sync || sync { RaceKind::DataSync } else { RaceKind::DataData };
                self.pending.push(OnTheFlyRace {
                    earlier: other_rec.op,
                    later: op,
                    loc,
                    kind: race_kind,
                });
            }
        }
        let at = match procs.binary_search_by_key(&proc, |&(p, _)| p) {
            Ok(at) => at,
            Err(at) => {
                procs.insert(at, (proc, ClassSlots::default()));
                at
            }
        };
        procs[at].1[cls] = Some(rec);
    }
}

impl TraceSink for StreamDetector {
    fn data_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        _value: Value,
        _observed: Option<OpId>,
    ) -> OpId {
        self.ensure_proc(proc);
        let op = self.op_counters.assign(proc);
        self.clocks[proc.index()].tick(proc);
        self.touch(proc, loc, kind, false, op);
        op
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        _value: Value,
        observed_release: Option<OpId>,
    ) -> OpId {
        self.ensure_proc(proc);
        let op = self.op_counters.assign(proc);
        self.clocks[proc.index()].tick(proc);
        if kind == AccessKind::Read {
            // Exact so1: join only the snapshot of the release this read
            // *observed* — before the race check, so the pair itself is
            // ordered, not racing. An unresolved reference transfers
            // nothing. For `None` that matches `so1_edges` post-mortem;
            // a release the stream never delivered is one post-mortem
            // rejects (`DanglingRelease`), where the stream carries on.
            if let Some(rel) = observed_release {
                if let Some((rel_role, snapshot)) = self.release_clocks.get(&rel) {
                    let transfers = match self.pairing {
                        PairingPolicy::ByRole => rel_role.is_release() && role.is_acquire(),
                        PairingPolicy::AllSync => true,
                    };
                    if transfers {
                        self.clocks[proc.index()].join(snapshot);
                    }
                }
            }
            self.touch(proc, loc, kind, true, op);
        } else {
            self.touch(proc, loc, kind, true, op);
            // Snapshot *after* the tick so the acquire is ordered after
            // this very operation. Every sync write is recorded — the
            // pairing policy decides at join time whether it transfers.
            self.release_clocks.insert(op, (role, self.clocks[proc.index()].clone()));
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_races, event_race_keys, HbGraph, OnTheFly, OnTheFlyConfig, PostMortem};
    use wmrd_trace::{TraceBuilder, TraceSet};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn detector() -> StreamDetector {
        StreamDetector::new(2, PairingPolicy::ByRole)
    }

    /// Post-mortem race keys of a trace built by `feed`.
    fn postmortem_keys(trace: &TraceSet) -> BTreeSet<RaceKey> {
        let hb = HbGraph::build(trace, PairingPolicy::ByRole).unwrap();
        event_race_keys(&detect_races(trace, &hb), trace)
    }

    #[test]
    fn detects_race_on_second_access() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        assert!(d.take_races().is_empty(), "first access alone cannot race");
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let races = d.take_races();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::DataData);
        assert_eq!(races[0].earlier, OpId::new(p(0), 0));
        assert_eq!(races[0].later, OpId::new(p(1), 0));
    }

    /// One access racing with several processors reports its witnesses
    /// in processor order, whatever order those processors arrived in.
    #[test]
    fn witnesses_come_in_processor_order() {
        let mut d = StreamDetector::new(4, PairingPolicy::ByRole);
        for proc in [3, 0, 2] {
            d.data_access(p(proc), l(0), AccessKind::Write, Value::new(1), None);
        }
        d.take_races();
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let earlier: Vec<usize> = d.take_races().iter().map(|r| r.earlier.proc.index()).collect();
        assert_eq!(earlier, [0, 2, 3]);
    }

    #[test]
    fn same_processor_stays_exclusive_and_race_free() {
        let mut d = detector();
        for i in 0..100 {
            let kind = if i % 2 == 0 { AccessKind::Write } else { AccessKind::Read };
            d.data_access(p(0), l(0), kind, Value::new(1), None);
        }
        assert!(d.take_races().is_empty());
        assert_eq!(d.promotions(), 0, "single-owner location never promotes");
        assert_eq!(d.events(), 100);
        // The second processor's first touch promotes exactly once.
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(d.promotions(), 1);
        assert_eq!(d.take_races().len(), 1);
    }

    #[test]
    fn exact_pairing_requires_the_observed_release() {
        // With the observed edge: ordered, no race.
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let rel =
            d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        d.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        assert!(d.take_races().is_empty(), "observed release-acquire orders the accesses");

        // Without it the detector must NOT assume ordering (this is
        // where the approximate OnTheFly differs: it orders any acquire
        // after any earlier release of the location).
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        let races = d.take_races();
        assert_eq!(races.iter().filter(|r| r.loc == l(0)).count(), 1, "{races:?}");
    }

    #[test]
    fn pairing_policy_matches_postmortem_rules() {
        // A sync write with role None transfers nothing under ByRole,
        // everything under AllSync — mirror of so1_edges.
        let run = |pairing| {
            let mut d = StreamDetector::new(2, pairing);
            d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
            let w =
                d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::None, Value::new(1), None);
            d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::new(1), Some(w));
            d.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
            d.race_keys().iter().filter(|k| k.loc == l(0)).count()
        };
        assert_eq!(run(PairingPolicy::ByRole), 1, "role-less write does not release");
        assert_eq!(run(PairingPolicy::AllSync), 0, "AllSync pairs any observed sync write");
    }

    #[test]
    fn keys_dedup_across_feeds_but_witnesses_are_per_chunk() {
        let mut d = detector();
        let w = StreamRecord {
            sync: false,
            proc: p(0),
            loc: l(0),
            kind: AccessKind::Write,
            role: SyncRole::None,
            value: Value::new(1),
            observed: None,
        };
        let r = StreamRecord { proc: p(1), kind: AccessKind::Read, ..w };
        assert!(d.feed(&[w]).is_empty());
        assert_eq!(d.feed(&[r]).len(), 1, "second access triggers the report");
        // The same source-level pair racing again is the same RaceKey:
        // no duplicate report, the key set stays at one.
        assert!(d.feed(&[w, r]).is_empty());
        assert_eq!(d.race_keys().len(), 1);
        assert_eq!(d.events(), 4);
    }

    #[test]
    fn streamed_keys_equal_postmortem_keys() {
        // Drive identical callbacks into a TraceBuilder (for post-mortem)
        // and the stream detector; the key sets must coincide. Mixes
        // data/sync races, a properly synchronized pair, and a
        // multi-writer location.
        let feed = |s: &mut dyn TraceSink| {
            s.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
            s.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
            let rel =
                s.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            s.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
            s.data_access(p(1), l(1), AccessKind::Write, Value::new(2), None);
            s.data_access(p(0), l(1), AccessKind::Write, Value::new(3), None);
            s.data_access(p(0), l(9), AccessKind::Read, Value::ZERO, None); // data-sync
        };
        let mut b = TraceBuilder::new(2);
        feed(&mut b);
        let trace = b.finish();

        let mut d = detector();
        feed(&mut d);

        assert_eq!(*d.race_keys(), postmortem_keys(&trace));
        assert!(!d.race_keys().is_empty());
        // And the one-call driver agrees on the count.
        let report = PostMortem::new(&trace).analyze().unwrap();
        assert_eq!(report.is_race_free(), d.race_keys().is_empty());
    }

    #[test]
    fn latest_record_suffices_for_key_identity() {
        // P0 writes x twice (second overwrites the first's class slot),
        // then P1 reads x: post-mortem sees two racing pairs but ONE
        // key; streaming must report exactly that key.
        let feed = |s: &mut dyn TraceSink| {
            s.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
            s.data_access(p(0), l(0), AccessKind::Write, Value::new(2), None);
            s.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        };
        let mut b = TraceBuilder::new(2);
        feed(&mut b);
        let mut d = detector();
        feed(&mut d);
        let keys = postmortem_keys(&b.finish());
        assert_eq!(keys.len(), 1);
        assert_eq!(*d.race_keys(), keys);
    }

    #[test]
    fn stricter_than_approximate_onthefly() {
        // Two releases on the same sync location; the acquire observed
        // only the FIRST. OnTheFly's per-location sync clock orders the
        // acquire after both (missing the race with the second writer's
        // data); the exact detector does not.
        let feed = |s: &mut dyn TraceSink| {
            let rel0 =
                s.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            s.data_access(p(1), l(0), AccessKind::Write, Value::new(1), None);
            s.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            s.sync_access(p(2), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel0));
            s.data_access(p(2), l(0), AccessKind::Read, Value::new(1), None);
        };
        let mut approx = OnTheFly::new(3, OnTheFlyConfig::default());
        feed(&mut approx);
        let mut exact = StreamDetector::new(3, PairingPolicy::ByRole);
        feed(&mut exact);
        let mut b = TraceBuilder::new(3);
        feed(&mut b);

        let data_races = |ks: &BTreeSet<RaceKey>| ks.iter().filter(|k| k.loc == l(0)).count();
        assert_eq!(data_races(exact.race_keys()), 1, "exact pairing keeps the race");
        assert_eq!(*exact.race_keys(), postmortem_keys(&b.finish()));
        assert!(
            approx.finish().iter().all(|r| r.loc != l(0)),
            "the approximate detector misses it (the gap this type closes)"
        );
    }

    #[test]
    fn reset_recycles_the_session() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(d.race_keys().len(), 1);
        let before = d.approx_memory_bytes();
        d.reset();
        assert!(d.race_keys().is_empty());
        assert_eq!((d.events(), d.promotions()), (0, 0));
        assert!(d.approx_memory_bytes() < before);
        // Ids restart and detection works again.
        let op = d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        assert_eq!(op, OpId::new(p(0), 0));
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(d.take_races().len(), 1);
    }

    #[test]
    fn reset_detector_reports_byte_identical_to_fresh_on_a_second_trace() {
        // The reuse contract: a session recycled with reset() must be
        // indistinguishable from a fresh detector on the next trace —
        // same race keys, same per-chunk witnesses, same event and
        // promotion counts. Trace A dirties every piece of session
        // state: epoch promotions, release clocks, pending pairing,
        // reported keys.
        let trace_a = |d: &mut StreamDetector| {
            d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
            d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
            let rel =
                d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
            d.data_access(p(1), l(1), AccessKind::Write, Value::new(2), None);
            d.data_access(p(0), l(1), AccessKind::Write, Value::new(3), None);
        };
        let trace_b = |d: &mut StreamDetector| {
            d.data_access(p(1), l(1), AccessKind::Write, Value::new(5), None);
            d.data_access(p(0), l(1), AccessKind::Read, Value::ZERO, None);
            d.sync_access(p(1), l(8), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            d.sync_access(p(0), l(8), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
            d.data_access(p(0), l(0), AccessKind::Write, Value::new(6), None);
            d.data_access(p(1), l(0), AccessKind::Write, Value::new(7), None);
        };
        let render = |d: &mut StreamDetector| {
            let races = d.take_races();
            format!(
                "keys={:?} races={races:?} events={} promotions={}",
                d.race_keys(),
                d.events(),
                d.promotions()
            )
        };

        let mut fresh = detector();
        trace_b(&mut fresh);
        let expected = render(&mut fresh);

        let mut reused = detector();
        trace_a(&mut reused);
        assert!(!reused.race_keys().is_empty(), "trace A must report races");
        assert!(reused.promotions() > 0, "trace A must promote epochs");
        reused.reset();
        trace_b(&mut reused);
        assert_eq!(
            render(&mut reused),
            expected,
            "reset must be indistinguishable from construction"
        );
    }

    #[test]
    fn memory_is_bounded_by_locations_not_accesses() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let after_two = d.approx_memory_bytes();
        // 10k more accesses to the same location: class slots are
        // overwritten in place, so state must not grow.
        for _ in 0..5_000 {
            d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
            d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        }
        assert_eq!(d.approx_memory_bytes(), after_two);
        assert_eq!(d.race_keys().len(), 1, "still the one identity");
    }
}
