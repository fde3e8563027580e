//! An on-the-fly (vector-clock) race detector.
//!
//! Section 5 of the paper compares the post-mortem approach against
//! on-the-fly techniques: they avoid trace files but are "typically less
//! accurate and have higher run-time overhead", because space limits
//! force them to buffer only partial history. This detector makes that
//! trade-off concrete:
//!
//! * It is a [`TraceSink`], so the simulator can run it *during*
//!   execution — no trace file at all.
//! * Per location it keeps the last write and a bounded list of reads
//!   ([`OnTheFlyConfig::read_history_limit`]); shrinking the bound saves
//!   memory and loses races, which is the accuracy knob experiment E9
//!   sweeps.
//! * It orders processors through per-location synchronization clocks —
//!   an approximation of exact `so1` pairing (it orders an acquire after
//!   *every* earlier release of that location, not only the one whose
//!   value it returned), so it can also miss races the post-mortem
//!   analysis finds. This, too, is the accuracy gap the paper describes.
//!
//! It reports races *as they occur*, so the first race it sees is a
//! first race of the execution — on conditioned weak hardware, a race
//! the sequentially consistent prefix contains.

use std::collections::HashMap;
use std::fmt;

use wmrd_trace::{AccessKind, Location, OpCounters, OpId, ProcId, SyncRole, TraceSink, Value};

use crate::{PairingPolicy, RaceKind, VectorClock};

/// Configuration for the on-the-fly detector. The default pairs by
/// role and remembers every read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnTheFlyConfig {
    /// Pairing policy (which sync operations transfer ordering).
    pub pairing: PairingPolicy,
    /// Maximum reads remembered per location (`None` = unbounded). The
    /// paper's accuracy-vs-space knob: with a bound, old reads are
    /// forgotten and write-read races against them go undetected.
    pub read_history_limit: Option<usize>,
}

/// A race reported by the on-the-fly detector, at operation granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OnTheFlyRace {
    /// The earlier operation (by detection time).
    pub earlier: OpId,
    /// The operation whose execution detected the race.
    pub later: OpId,
    /// The location raced on.
    pub loc: Location,
    /// Data/sync classification.
    pub kind: RaceKind,
}

impl fmt::Display for OnTheFlyRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}> on {} ({})", self.earlier, self.later, self.loc, self.kind)
    }
}

#[derive(Debug, Clone, Copy)]
struct AccessRecord {
    op: OpId,
    /// The accessor's clock component at access time.
    time: u64,
    sync: bool,
}

#[derive(Debug, Clone, Default)]
struct LocationState {
    last_write: Option<AccessRecord>,
    reads: Vec<AccessRecord>,
    dropped_reads: u64,
}

/// The on-the-fly detector. Feed it an execution (it is a
/// [`TraceSink`]), then call [`finish`](OnTheFly::finish).
#[derive(Debug)]
pub struct OnTheFly {
    config: OnTheFlyConfig,
    clocks: Vec<VectorClock>,
    op_counters: OpCounters,
    locations: HashMap<Location, LocationState>,
    sync_clocks: HashMap<Location, VectorClock>,
    races: Vec<OnTheFlyRace>,
    dropped_reads: u64,
}

impl OnTheFly {
    /// Creates a detector for `num_procs` processors.
    pub fn new(num_procs: usize, config: OnTheFlyConfig) -> Self {
        OnTheFly {
            config,
            clocks: vec![VectorClock::new(); num_procs],
            op_counters: OpCounters::with_procs(num_procs),
            locations: HashMap::new(),
            sync_clocks: HashMap::new(),
            races: Vec::new(),
            dropped_reads: 0,
        }
    }

    /// The races found so far.
    pub fn races(&self) -> &[OnTheFlyRace] {
        &self.races
    }

    /// Number of read records discarded because of
    /// [`OnTheFlyConfig::read_history_limit`].
    ///
    /// Each dropped read is a *potential missed race*: a later write to
    /// the same location can no longer be checked against it, so a
    /// non-zero value means the reported race set may be incomplete
    /// (never unsound — every race reported is real). The counter is
    /// cumulative over the detector's lifetime and survives
    /// [`finish`](OnTheFly::finish); only [`reset`](OnTheFly::reset)
    /// zeroes it. Experiment E9 sweeps the history bound against this
    /// counter to chart the paper's accuracy-vs-space trade-off.
    pub fn dropped_reads(&self) -> u64 {
        self.dropped_reads
    }

    /// Approximate bytes of detector state — the "memory instead of
    /// trace files" cost on-the-fly detection pays (experiment E9).
    ///
    /// Counts the per-processor vector clocks, the per-location
    /// synchronization clocks, and every buffered access record
    /// (`last_write` + bounded read history per location), using
    /// `size_of`-based estimates. It is an *estimate*: allocator
    /// overhead and `HashMap` bucket slack are not modeled, so treat it
    /// as a growth signal (compare two readings), not a byte-accurate
    /// audit. Grows monotonically between [`reset`](OnTheFly::reset)s
    /// except when a write prunes happened-before reads.
    pub fn approx_memory_bytes(&self) -> usize {
        let clock_bytes: usize = self.clocks.iter().map(VectorClock::approx_bytes).sum();
        let sync_bytes: usize = self.sync_clocks.values().map(|v| 16 + v.approx_bytes()).sum();
        let loc_bytes: usize = self
            .locations
            .values()
            .map(|s| {
                48 + (s.reads.len() + usize::from(s.last_write.is_some()))
                    * std::mem::size_of::<AccessRecord>()
            })
            .sum();
        clock_bytes + sync_bytes + loc_bytes
    }

    /// Takes the detected races (in detection order), leaving the
    /// detector's clocks and access history intact.
    ///
    /// The detector remains usable: more accesses can be fed and later
    /// races will still be detected against the retained history. To
    /// start over for a fresh execution, call
    /// [`reset`](OnTheFly::reset) instead — `finish` used to consume
    /// the detector, which blocked exactly that reuse in long-lived
    /// sessions.
    pub fn finish(&mut self) -> Vec<OnTheFlyRace> {
        std::mem::take(&mut self.races)
    }

    /// Clears all state — clocks, operation counters, access history,
    /// pending races, and the [`dropped_reads`](OnTheFly::dropped_reads)
    /// counter — returning the detector to its just-constructed state
    /// (configuration and processor count are kept).
    pub fn reset(&mut self) {
        let procs = self.clocks.len();
        self.clocks.clear();
        self.clocks.resize_with(procs, VectorClock::new);
        self.op_counters = OpCounters::with_procs(procs);
        self.locations.clear();
        self.sync_clocks.clear();
        self.races.clear();
        self.dropped_reads = 0;
    }

    fn ensure_proc(&mut self, proc: ProcId) {
        if proc.index() >= self.clocks.len() {
            self.clocks.resize_with(proc.index() + 1, VectorClock::new);
        }
    }

    fn report(&mut self, earlier: AccessRecord, later: OpId, loc: Location, later_sync: bool) {
        let kind = match (earlier.sync, later_sync) {
            (false, false) => RaceKind::DataData,
            // Two synchronization operations never form a *data* race
            // (Definition 2.4); an on-the-fly debugger reports data races
            // only.
            (true, true) => return,
            _ => RaceKind::DataSync,
        };
        self.races.push(OnTheFlyRace { earlier: earlier.op, later, loc, kind });
    }

    /// `true` iff the recorded access happened-before the current
    /// operation of `proc`.
    fn ordered_before(&self, rec: &AccessRecord, proc: ProcId) -> bool {
        rec.time <= self.clocks[proc.index()].get(rec.op.proc)
    }

    fn check_read(&mut self, proc: ProcId, loc: Location, op: OpId, sync: bool) {
        let Some(state) = self.locations.get(&loc) else { return };
        if let Some(w) = state.last_write {
            if w.op.proc != proc && !self.ordered_before(&w, proc) {
                self.report(w, op, loc, sync);
            }
        }
    }

    fn check_write(&mut self, proc: ProcId, loc: Location, op: OpId, sync: bool) {
        let Some(state) = self.locations.get(&loc) else { return };
        let mut hits: Vec<AccessRecord> = Vec::new();
        if let Some(w) = state.last_write {
            if w.op.proc != proc && !self.ordered_before(&w, proc) {
                hits.push(w);
            }
        }
        for r in &state.reads {
            if r.op.proc != proc && !self.ordered_before(r, proc) {
                hits.push(*r);
            }
        }
        for h in hits {
            self.report(h, op, loc, sync);
        }
    }

    fn record_read(&mut self, proc: ProcId, loc: Location, op: OpId, sync: bool) {
        let time = self.clocks[proc.index()].get(proc);
        let state = self.locations.entry(loc).or_default();
        state.reads.push(AccessRecord { op, time, sync });
        if let Some(limit) = self.config.read_history_limit {
            while state.reads.len() > limit {
                state.reads.remove(0);
                state.dropped_reads += 1;
                self.dropped_reads += 1;
            }
        }
    }

    fn record_write(&mut self, proc: ProcId, loc: Location, op: OpId, sync: bool) {
        let time = self.clocks[proc.index()].get(proc);
        let state = self.locations.entry(loc).or_default();
        state.last_write = Some(AccessRecord { op, time, sync });
        // Reads that happened-before this write can no longer race with
        // anything that happens after it; drop the ones ordered before us
        // to bound growth even without an explicit limit.
        let clock = &self.clocks[proc.index()];
        state.reads.retain(|r| r.time > clock.get(r.op.proc));
    }
}

impl TraceSink for OnTheFly {
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
        match kind {
            AccessKind::Read => {
                self.check_read(proc, loc, op, false);
                self.record_read(proc, loc, op, false);
            }
            AccessKind::Write => {
                self.check_write(proc, loc, op, false);
                self.record_write(proc, loc, op, false);
            }
        }
        op
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        _value: Value,
        _observed_release: Option<OpId>,
    ) -> OpId {
        self.ensure_proc(proc);
        let op = self.op_counters.assign(proc);
        self.clocks[proc.index()].tick(proc);
        let transfers = match self.config.pairing {
            PairingPolicy::ByRole => match kind {
                AccessKind::Write => role.is_release(),
                AccessKind::Read => role.is_acquire(),
            },
            PairingPolicy::AllSync => true,
        };
        match kind {
            AccessKind::Read => {
                // Join *before* the race check: the acquire is ordered
                // after the releases it synchronizes with, and must not
                // be reported as racing with them.
                if transfers {
                    if let Some(sc) = self.sync_clocks.get(&loc) {
                        let sc = sc.clone();
                        self.clocks[proc.index()].join(&sc);
                    }
                }
                self.check_read(proc, loc, op, true);
                self.record_read(proc, loc, op, true);
            }
            AccessKind::Write => {
                self.check_write(proc, loc, op, true);
                if transfers {
                    let clock = self.clocks[proc.index()].clone();
                    self.sync_clocks.entry(loc).or_default().join(&clock);
                }
                self.record_write(proc, loc, op, true);
            }
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn detector() -> OnTheFly {
        OnTheFly::new(2, OnTheFlyConfig::default())
    }

    #[test]
    fn detects_write_read_race() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let races = d.finish();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::DataData);
        assert_eq!(races[0].loc, l(0));
    }

    #[test]
    fn detects_read_write_and_write_write_races() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Read, Value::ZERO, None);
        d.data_access(p(1), l(0), AccessKind::Write, Value::new(1), None);
        assert_eq!(d.races().len(), 1, "read-write");
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(2), None);
        // P0's write races with P1's write.
        assert_eq!(d.races().len(), 2, "write-write added");
    }

    #[test]
    fn release_acquire_orders_accesses() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        assert!(d.finish().is_empty(), "properly synchronized: no race");
    }

    #[test]
    fn unpaired_sync_roles_do_not_order_by_role() {
        // Sync write without release role transfers nothing under ByRole.
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::None, Value::new(1), None);
        d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::new(1), None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        assert_eq!(d.finish().len(), 1);

        // Under AllSync the same trace is ordered.
        let mut d = OnTheFly::new(
            2,
            OnTheFlyConfig { pairing: PairingPolicy::AllSync, ..OnTheFlyConfig::default() },
        );
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::None, Value::new(1), None);
        d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::new(1), None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        assert!(d.finish().is_empty());
    }

    #[test]
    fn same_processor_accesses_never_race() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.data_access(p(0), l(0), AccessKind::Read, Value::new(1), None);
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(2), None);
        assert!(d.finish().is_empty());
    }

    #[test]
    fn data_sync_race_detected() {
        let mut d = detector();
        d.data_access(p(0), l(9), AccessKind::Write, Value::new(1), None);
        d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        let races = d.finish();
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::DataSync);
    }

    #[test]
    fn bounded_history_misses_races() {
        // Three readers, then a racing writer. With history limit 1, two
        // of the three write-read races go unreported.
        let config = OnTheFlyConfig { read_history_limit: Some(1), ..OnTheFlyConfig::default() };
        let mut d = OnTheFly::new(4, config);
        for i in 0..3 {
            d.data_access(p(i), l(0), AccessKind::Read, Value::ZERO, None);
        }
        d.data_access(p(3), l(0), AccessKind::Write, Value::new(1), None);
        assert_eq!(d.races().len(), 1, "only the remembered read races");
        assert_eq!(d.dropped_reads(), 2);

        // Unbounded history catches all three.
        let mut d = OnTheFly::new(4, OnTheFlyConfig::default());
        for i in 0..3 {
            d.data_access(p(i), l(0), AccessKind::Read, Value::ZERO, None);
        }
        d.data_access(p(3), l(0), AccessKind::Write, Value::new(1), None);
        assert_eq!(d.races().len(), 3);
        assert_eq!(d.dropped_reads(), 0);
    }

    #[test]
    fn memory_accounting_grows_with_state() {
        let mut d = detector();
        let before = d.approx_memory_bytes();
        for i in 0..50 {
            d.data_access(p(0), l(i), AccessKind::Write, Value::new(1), None);
        }
        assert!(d.approx_memory_bytes() > before);
    }

    #[test]
    fn display() {
        let mut d = detector();
        d.data_access(p(0), l(3), AccessKind::Write, Value::new(1), None);
        d.data_access(p(1), l(3), AccessKind::Read, Value::ZERO, None);
        let races = d.finish();
        assert_eq!(races[0].to_string(), "<P0#0, P1#0> on m[3] (data-data)");
    }

    #[test]
    fn finish_drains_races_and_reset_reuses_the_detector() {
        let mut d = detector();
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(d.finish().len(), 1);
        assert!(d.races().is_empty(), "finish drains the race buffer");
        // History survives finish: a third processor's read still races
        // with the retained write.
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(d.finish().len(), 1, "detector stays live after finish");

        // reset() forgets everything: the same read is now race-free.
        d.reset();
        assert_eq!(d.dropped_reads(), 0);
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        assert!(d.finish().is_empty(), "reset cleared the write history");
        // Operation ids restart from zero after reset.
        let op = d.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        assert_eq!(op, OpId::new(p(0), 0));
    }

    #[test]
    fn reset_detector_reports_byte_identical_to_fresh_on_a_second_trace() {
        // The regression this pins: reset() must return the detector to
        // its just-constructed state, so analyzing trace B after
        // (trace A, reset) renders exactly what a fresh detector
        // renders on B — operation ids, race order, drop counters, all
        // of it. Trace A deliberately touches every piece of state:
        // sync clocks, read history, a dropped read, pending races.
        let trace_a = |d: &mut OnTheFly| {
            d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
            d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
            d.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            d.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
            d.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
            d.data_access(p(0), l(1), AccessKind::Read, Value::ZERO, None);
            d.data_access(p(0), l(2), AccessKind::Write, Value::new(2), None);
        };
        let trace_b = |d: &mut OnTheFly| {
            d.data_access(p(1), l(2), AccessKind::Write, Value::new(7), None);
            d.data_access(p(0), l(2), AccessKind::Read, Value::ZERO, None);
            d.sync_access(p(1), l(8), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            d.data_access(p(0), l(0), AccessKind::Write, Value::new(3), None);
            d.sync_access(p(0), l(8), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
            d.data_access(p(1), l(0), AccessKind::Write, Value::new(4), None);
        };
        let config = OnTheFlyConfig { read_history_limit: Some(1), ..OnTheFlyConfig::default() };

        let mut fresh = OnTheFly::new(2, config);
        trace_b(&mut fresh);
        let expected = (format!("{:?}", fresh.finish()), fresh.dropped_reads());

        let mut reused = OnTheFly::new(2, config);
        trace_a(&mut reused);
        assert!(!reused.races().is_empty(), "trace A must dirty the race buffer");
        assert!(reused.dropped_reads() > 0, "trace A must dirty the drop counter");
        reused.reset();
        trace_b(&mut reused);
        let actual = (format!("{:?}", reused.finish()), reused.dropped_reads());
        assert_eq!(actual, expected, "reset must be indistinguishable from construction");
    }

    #[test]
    fn ordered_reads_are_pruned_on_write() {
        let mut d = detector();
        // P1 reads; P1 releases; P0 acquires and writes: the read is
        // ordered before the write and gets pruned, not raced with.
        d.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        d.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        d.sync_access(p(0), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        d.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        assert!(d.races().is_empty());
        let state = d.locations.get(&l(0)).unwrap();
        assert!(state.reads.is_empty(), "ordered read pruned");
    }
}
