//! Instrumentation hooks.
//!
//! A [`TraceSink`] receives a callback for every memory operation an
//! execution performs, in per-processor issue order. The simulator in
//! `wmrd-sim` plays the role of the paper's "trusted facility (such as a
//! compiler)" that adds instrumentation: it drives a sink while executing.
//!
//! Sinks assign operation identities themselves: every implementation
//! counts memory operations per processor, so any two sinks observing the
//! same execution assign identical [`OpId`]s. This is what lets the
//! producer (the simulator) and several consumers (event-level builder,
//! operation-level recorder, on-the-fly detector) agree on operation
//! identity without a central allocator.

use std::fmt;

use crate::{
    AccessKind, ComputationEvent, EventKind, LocSet, Location, MemOp, OpClass, OpId, OpTrace,
    ProcId, SyncEvent, SyncOrderEntry, SyncRole, TraceSet, Value,
};

/// Receiver of per-operation instrumentation callbacks.
///
/// Callbacks for one processor arrive in that processor's program order;
/// callbacks of different processors may interleave arbitrarily (they
/// reflect the execution's issue order). Both callbacks return the
/// [`OpId`] assigned to the operation.
///
/// # Flush-on-drop
///
/// Sinks that own an external resource (a file, a socket) must not
/// hold committed operations hostage in internal buffers across a
/// drop: a workload that panics mid-run still needs its committed
/// prefix to be recoverable. The contract is that each callback either
/// hands the operation to the underlying resource before returning or
/// the sink's `Drop` makes a best-effort flush of whatever is pending;
/// only an explicit terminal call (like
/// [`StreamWriter::finish`](crate::StreamWriter::finish)) may *report*
/// errors. [`StreamWriter`](crate::StreamWriter) implements exactly
/// this; purely in-memory sinks satisfy it trivially.
pub trait TraceSink {
    /// A data operation executed.
    ///
    /// `observed` is the identity of the write whose value a *read*
    /// returned (`None` for writes, or for reads that returned the initial
    /// memory value).
    fn data_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        value: Value,
        observed: Option<OpId>,
    ) -> OpId;

    /// A synchronization operation executed.
    ///
    /// `observed_release` is the identity of the synchronization write
    /// whose value a sync *read* returned, if any; it drives `so1` pairing
    /// (Definition 2.1(3)).
    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        value: Value,
        observed_release: Option<OpId>,
    ) -> OpId;
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn data_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        value: Value,
        observed: Option<OpId>,
    ) -> OpId {
        (**self).data_access(proc, loc, kind, value, observed)
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        value: Value,
        observed_release: Option<OpId>,
    ) -> OpId {
        (**self).sync_access(proc, loc, kind, role, value, observed_release)
    }
}

/// The per-processor operation counter every sink assigns ids with:
/// the `n`-th operation processor `p` issues is `Pp#n` (the sink
/// contract), whatever the sink records.
#[derive(Debug, Clone, Default)]
pub struct OpCounters {
    next: Vec<u32>,
}

impl OpCounters {
    /// Counters for `n` processors, all at zero (more are added on
    /// demand).
    pub fn with_procs(n: usize) -> Self {
        OpCounters { next: vec![0; n] }
    }

    /// The next id of `proc`, growing the counters to cover it.
    pub fn assign(&mut self, proc: ProcId) -> OpId {
        if proc.index() >= self.next.len() {
            self.next.resize(proc.index() + 1, 0);
        }
        let seq = self.next[proc.index()];
        self.next[proc.index()] += 1;
        OpId::new(proc, seq)
    }
}

/// A sink that counts operations but records nothing.
///
/// Useful as the baseline in instrumentation-overhead measurements and in
/// tests that only need operation ids.
#[derive(Debug, Clone, Default)]
pub struct NullSink {
    counters: OpCounters,
    data_ops: u64,
    sync_ops: u64,
}

impl NullSink {
    /// Creates a null sink.
    pub fn new() -> Self {
        NullSink::default()
    }

    /// Number of data operations observed.
    pub fn data_ops(&self) -> u64 {
        self.data_ops
    }

    /// Number of synchronization operations observed.
    pub fn sync_ops(&self) -> u64 {
        self.sync_ops
    }
}

impl TraceSink for NullSink {
    fn data_access(
        &mut self,
        proc: ProcId,
        _loc: Location,
        _kind: AccessKind,
        _value: Value,
        _observed: Option<OpId>,
    ) -> OpId {
        self.data_ops += 1;
        self.counters.assign(proc)
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        _loc: Location,
        _kind: AccessKind,
        _role: SyncRole,
        _value: Value,
        _observed_release: Option<OpId>,
    ) -> OpId {
        self.sync_ops += 1;
        self.counters.assign(proc)
    }
}

/// Pending computation event being accumulated for one processor.
#[derive(Debug, Clone, Default)]
struct PendingComp {
    reads: LocSet,
    writes: LocSet,
    first_op: Option<OpId>,
    count: u32,
}

/// Builds the event-level [`TraceSet`] the paper's post-mortem analysis
/// consumes.
///
/// Consecutive data operations of a processor are folded into one
/// computation event whose READ/WRITE sets are bit-vectors; each
/// synchronization operation closes the processor's pending computation
/// event (if any) and becomes a synchronization event stamped with a global
/// sequence number (trace stream 2 of Section 4.1).
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    trace: TraceSet,
    counters: OpCounters,
    pending: Vec<PendingComp>,
    next_sync_seq: u64,
    /// Maps an op id of a sync op to its event id, so `observed_release`
    /// at the op level can be resolved to events by consumers.
    sync_events_recorded: u64,
}

impl TraceBuilder {
    /// Creates a builder for `num_procs` processors.
    pub fn new(num_procs: usize) -> Self {
        TraceBuilder {
            trace: TraceSet::new(num_procs),
            counters: OpCounters::with_procs(num_procs),
            pending: vec![PendingComp::default(); num_procs],
            next_sync_seq: 0,
            sync_events_recorded: 0,
        }
    }

    /// Number of synchronization events recorded so far.
    pub fn sync_events_recorded(&self) -> u64 {
        self.sync_events_recorded
    }

    /// Grows to accommodate `proc` — sinks accept any processor id on
    /// demand (the sink contract; see [`NullSink`], which does the same
    /// through its counters).
    fn ensure_proc(&mut self, proc: ProcId) {
        self.trace.ensure_processor(proc);
        if self.pending.len() <= proc.index() {
            self.pending.resize_with(proc.index() + 1, PendingComp::default);
        }
    }

    fn flush_pending(&mut self, proc: ProcId) {
        let pending = &mut self.pending[proc.index()];
        let Some(first_op) = pending.first_op else { return };
        let ev = ComputationEvent {
            reads: std::mem::take(&mut pending.reads),
            writes: std::mem::take(&mut pending.writes),
            first_op,
            op_count: pending.count,
        };
        pending.first_op = None;
        pending.count = 0;
        self.trace
            .processor_mut(proc)
            .expect("builder created trace with this processor")
            .push(EventKind::Computation(ev));
    }

    /// Finalizes the trace: flushes pending computation events and returns
    /// the completed [`TraceSet`].
    pub fn finish(mut self) -> TraceSet {
        let procs: Vec<ProcId> =
            (0..self.trace.num_procs()).map(|i| ProcId::new(i as u16)).collect();
        for p in procs {
            self.flush_pending(p);
        }
        debug_assert!(self.trace.validate().is_ok());
        self.trace
    }
}

impl TraceSink for TraceBuilder {
    fn data_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        _value: Value,
        _observed: Option<OpId>,
    ) -> OpId {
        self.ensure_proc(proc);
        let id = self.counters.assign(proc);
        let pending = &mut self.pending[proc.index()];
        if pending.first_op.is_none() {
            pending.first_op = Some(id);
        }
        match kind {
            AccessKind::Read => pending.reads.insert(loc),
            AccessKind::Write => pending.writes.insert(loc),
        };
        pending.count += 1;
        id
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        value: Value,
        observed_release: Option<OpId>,
    ) -> OpId {
        self.ensure_proc(proc);
        let id = self.counters.assign(proc);
        self.flush_pending(proc);
        let global_seq = self.next_sync_seq;
        self.next_sync_seq += 1;
        let event_id = self
            .trace
            .processor_mut(proc)
            .expect("builder created trace with this processor")
            .push(EventKind::Sync(SyncEvent {
                op: id,
                loc,
                kind,
                role,
                value,
                global_seq,
                observed_release,
            }));
        self.trace.push_sync_order(SyncOrderEntry { global_seq, event: event_id, loc, kind });
        self.sync_events_recorded += 1;
        id
    }
}

/// Records the exact operation-level trace ([`OpTrace`]).
#[derive(Debug, Clone, Default)]
pub struct OpRecorder {
    trace: OpTrace,
}

impl OpRecorder {
    /// Creates a recorder for `num_procs` processors.
    pub fn new(num_procs: usize) -> Self {
        OpRecorder { trace: OpTrace::new(num_procs) }
    }

    /// Returns the recorded operation-level trace.
    pub fn finish(self) -> OpTrace {
        self.trace
    }
}

impl TraceSink for OpRecorder {
    fn data_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        value: Value,
        observed: Option<OpId>,
    ) -> OpId {
        self.trace.ensure_procs(proc.index() + 1);
        self.trace
            .push(
                proc,
                MemOp {
                    id: OpId::new(proc, 0),
                    loc,
                    kind,
                    class: OpClass::Data,
                    value,
                    observed_write: observed,
                },
            )
            .expect("recorder grows to fit every processor")
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        value: Value,
        observed_release: Option<OpId>,
    ) -> OpId {
        self.trace.ensure_procs(proc.index() + 1);
        self.trace
            .push(
                proc,
                MemOp {
                    id: OpId::new(proc, 0),
                    loc,
                    kind,
                    class: OpClass::Sync(role),
                    value,
                    observed_write: observed_release,
                },
            )
            .expect("recorder grows to fit every processor")
    }
}

/// Fans instrumentation out to two sinks.
///
/// Both children observe the same callbacks and therefore assign the same
/// operation ids; `MultiSink` returns the first child's ids (the second's
/// are equal by construction, which is debug-asserted).
#[derive(Clone)]
pub struct MultiSink<A, B> {
    a: A,
    b: B,
}

impl<A: TraceSink, B: TraceSink> MultiSink<A, B> {
    /// Combines two sinks.
    pub fn new(a: A, b: B) -> Self {
        MultiSink { a, b }
    }

    /// Splits the combinator back into its children.
    pub fn into_inner(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: fmt::Debug, B: fmt::Debug> fmt::Debug for MultiSink<A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiSink").field("a", &self.a).field("b", &self.b).finish()
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for MultiSink<A, B> {
    fn data_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        value: Value,
        observed: Option<OpId>,
    ) -> OpId {
        let id = self.a.data_access(proc, loc, kind, value, observed);
        let id2 = self.b.data_access(proc, loc, kind, value, observed);
        debug_assert_eq!(id, id2, "sinks disagree on operation identity");
        id
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        value: Value,
        observed_release: Option<OpId>,
    ) -> OpId {
        let id = self.a.sync_access(proc, loc, kind, role, value, observed_release);
        let id2 = self.b.sync_access(proc, loc, kind, role, value, observed_release);
        debug_assert_eq!(id, id2, "sinks disagree on operation identity");
        id
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

    #[test]
    fn null_sink_counts_and_assigns() {
        let mut s = NullSink::new();
        let a = s.data_access(p(0), l(0), AccessKind::Write, Value::ZERO, None);
        let b = s.data_access(p(0), l(1), AccessKind::Read, Value::ZERO, None);
        let c = s.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        assert_eq!(a, OpId::new(p(0), 0));
        assert_eq!(b, OpId::new(p(0), 1));
        assert_eq!(c, OpId::new(p(1), 0));
        assert_eq!(s.data_ops(), 2);
        assert_eq!(s.sync_ops(), 1);
    }

    #[test]
    fn builder_folds_consecutive_data_ops() {
        let mut b = TraceBuilder::new(1);
        b.data_access(p(0), l(0), AccessKind::Write, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(0), l(2), AccessKind::Write, Value::ZERO, None);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(3), AccessKind::Write, Value::ZERO, None);
        let t = b.finish();
        let events = t.processor(p(0)).unwrap().events();
        assert_eq!(events.len(), 3, "comp, sync, comp");
        let c0 = events[0].as_computation().unwrap();
        assert_eq!(c0.op_count, 3);
        assert!(c0.reads.contains(l(1)));
        assert!(c0.writes.contains(l(0)) && c0.writes.contains(l(2)));
        assert_eq!(c0.first_op, OpId::new(p(0), 0));
        assert!(events[1].is_sync());
        let c2 = events[2].as_computation().unwrap();
        assert_eq!(c2.op_count, 1);
        assert_eq!(c2.first_op, OpId::new(p(0), 4));
    }

    #[test]
    fn builder_sync_only_trace() {
        let mut b = TraceBuilder::new(1);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(0), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        assert_eq!(b.sync_events_recorded(), 2);
        let t = b.finish();
        assert_eq!(t.num_events(), 2);
        assert_eq!(t.sync_order().len(), 2);
        assert_eq!(t.sync_order()[0].global_seq, 0);
        assert_eq!(t.sync_order()[1].global_seq, 1);
    }

    #[test]
    fn builder_empty_finish() {
        let t = TraceBuilder::new(3).finish();
        assert_eq!(t.num_procs(), 3);
        assert_eq!(t.num_events(), 0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn builder_interleaved_processors() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::ZERO, None);
        b.data_access(p(1), l(1), AccessKind::Write, Value::ZERO, None);
        b.data_access(p(0), l(2), AccessKind::Write, Value::ZERO, None);
        let t = b.finish();
        // Interleaving does not split a processor's run of data ops.
        assert_eq!(t.processor(p(0)).unwrap().len(), 1);
        assert_eq!(t.processor(p(1)).unwrap().len(), 1);
        assert_eq!(t.processor(p(0)).unwrap().events()[0].as_computation().unwrap().op_count, 2);
    }

    #[test]
    fn op_recorder_records_everything() {
        let mut r = OpRecorder::new(2);
        let w = r.data_access(p(0), l(0), AccessKind::Write, Value::new(5), None);
        r.data_access(p(1), l(0), AccessKind::Read, Value::new(5), Some(w));
        r.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        let t = r.finish();
        assert_eq!(t.num_ops(), 3);
        let read = &t.proc_ops(p(1)).unwrap()[0];
        assert_eq!(read.observed_write, Some(w));
        assert!(t.proc_ops(p(1)).unwrap()[1].is_sync());
    }

    #[test]
    fn multi_sink_agrees_on_ids() {
        let mut m = MultiSink::new(TraceBuilder::new(1), OpRecorder::new(1));
        let a = m.data_access(p(0), l(0), AccessKind::Write, Value::ZERO, None);
        let b = m.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        assert_eq!(a, OpId::new(p(0), 0));
        assert_eq!(b, OpId::new(p(0), 1));
        let (builder, recorder) = m.into_inner();
        let events = builder.finish();
        let ops = recorder.finish();
        assert_eq!(events.num_events(), 2);
        assert_eq!(ops.num_ops(), 2);
    }

    #[test]
    fn counters_grow_on_demand() {
        let mut s = NullSink::new();
        let id = s.data_access(p(7), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(id, OpId::new(p(7), 0));
    }

    #[test]
    fn builder_and_recorder_grow_on_demand() {
        // The sink contract: any processor id is accepted; sinks grow.
        let mut b = TraceBuilder::new(1);
        b.data_access(p(3), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(5), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        let t = b.finish();
        assert_eq!(t.num_procs(), 6);
        assert_eq!(t.processor(p(3)).unwrap().len(), 1);
        assert!(t.validate().is_ok());

        let mut r = OpRecorder::new(1);
        let id = r.data_access(p(4), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(id, OpId::new(p(4), 0));
        assert_eq!(r.finish().num_procs(), 5);
    }
}
