//! Operation-level traces.
//!
//! The paper notes (Section 4.1) that tracing the program order of *all*
//! memory operations "in general would be impractical", which is why the
//! production pipeline works on events. The workspace still implements
//! operation-level traces: they are exact, they let us state the paper's
//! definitions at the granularity they are written at, and they are the
//! yardstick the event-level analysis is cross-validated against (and the
//! baseline of the trace-size ablation, E8). They are analyzed as the
//! *unfolded* event trace ([`OpTrace::to_event_trace`]): one event per
//! operation, nothing folded, through the one event pipeline.

// Decode paths must report malformed input, never panic on it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::{
    ComputationEvent, EventKind, LocSet, MemOp, OpClass, OpId, ProcId, ProcessorTrace, SyncEvent,
    SyncOrderEntry, TraceError, TraceMeta, TraceSet, TraceSink,
};

/// A full operation-level trace: every memory operation of every
/// processor, in per-processor program order, plus the global issue
/// order in which the operations were observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpTrace {
    ops: Vec<Vec<MemOp>>,
    issue_order: Vec<OpId>,
}

impl OpTrace {
    /// Creates an empty trace for `num_procs` processors.
    pub fn new(num_procs: usize) -> Self {
        OpTrace { ops: vec![Vec::new(); num_procs], issue_order: Vec::new() }
    }

    /// The global order in which operations were pushed (for a recorded
    /// execution: the issue order), the order [`replay`](Self::replay)
    /// feeds them in.
    pub fn issue_order(&self) -> &[OpId] {
        &self.issue_order
    }

    /// Iterates over the operations in global issue order.
    pub fn iter_issue_order(&self) -> impl Iterator<Item = &MemOp> {
        self.issue_order.iter().filter_map(|id| self.op(*id))
    }

    /// Feeds every operation to `sink` in issue order, so the sink
    /// observes what it would have observed live: each processor's
    /// operations arrive in program order and get the same ids.
    pub fn replay<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        for op in self.iter_issue_order() {
            let (proc, loc, kind, value, observed) =
                (op.id.proc, op.loc, op.kind, op.value, op.observed_write);
            match op.class {
                OpClass::Data => sink.data_access(proc, loc, kind, value, observed),
                OpClass::Sync(role) => sink.sync_access(proc, loc, kind, role, value, observed),
            };
        }
    }

    /// The unfolded event trace: this execution as an event trace with
    /// nothing folded, so the event pipeline analyzes it at the
    /// granularity the paper's definitions are stated at.
    ///
    /// Each data operation is one computation event (`first_op` = its
    /// id, `op_count` = 1) and each synchronization operation one sync
    /// event, so event `(p, i)` is operation `(p, i)`. Sync events are
    /// stamped and ordered in issue order. A sync read that observed a
    /// recorded *data* write pairs with nothing: its `observed_release`
    /// is `None`. A reference to an operation the trace never recorded
    /// is kept, so pairing reports it as a dangling release.
    // The parts are valid by construction: `push` numbers each
    // processor's operations densely, and issue order lists each once.
    #[allow(clippy::expect_used)]
    pub fn to_event_trace(&self) -> TraceSet {
        let mut procs: Vec<ProcessorTrace> =
            (0..self.num_procs()).map(|pi| ProcessorTrace::new(ProcId::new(pi as u16))).collect();
        let mut sync_order = Vec::new();
        for op in self.iter_issue_order() {
            let proc = &mut procs[op.id.proc.index()];
            match op.class {
                OpClass::Data => {
                    let access: LocSet = [op.loc].into_iter().collect();
                    let (reads, writes) = match op.kind.is_write() {
                        true => (LocSet::new(), access),
                        false => (access, LocSet::new()),
                    };
                    proc.push(EventKind::Computation(ComputationEvent {
                        reads,
                        writes,
                        first_op: op.id,
                        op_count: 1,
                    }));
                }
                OpClass::Sync(role) => {
                    let global_seq = sync_order.len() as u64;
                    let observed_release =
                        op.observed_write.filter(|&w| !self.op(w).is_some_and(MemOp::is_data));
                    let (loc, kind) = (op.loc, op.kind);
                    let event = proc.push(EventKind::Sync(SyncEvent {
                        op: op.id,
                        loc,
                        kind,
                        role,
                        value: op.value,
                        global_seq,
                        observed_release,
                    }));
                    sync_order.push(SyncOrderEntry { global_seq, event, loc, kind });
                }
            }
        }
        TraceSet::from_parts(TraceMeta::default(), procs, sync_order)
            .expect("an operation trace unfolds into a valid event trace")
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.ops.len()
    }

    /// Grows the trace to hold at least `n` processors (used by sinks,
    /// which accept any processor id on demand).
    pub(crate) fn ensure_procs(&mut self, n: usize) {
        if self.ops.len() < n {
            self.ops.resize(n, Vec::new());
        }
    }

    /// Appends an operation to its processor's log, assigning its sequence
    /// number.
    ///
    /// The `id` field of the pushed op is overwritten with the next
    /// `(proc, seq)` pair for that processor; the assigned id is returned.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownProcessor`] if `proc` is out of range.
    pub fn push(&mut self, proc: ProcId, mut op: MemOp) -> Result<OpId, TraceError> {
        let log = self.ops.get_mut(proc.index()).ok_or(TraceError::UnknownProcessor(proc))?;
        let id = OpId::new(proc, log.len() as u32);
        op.id = id;
        log.push(op);
        self.issue_order.push(id);
        Ok(id)
    }

    /// The operations of one processor in program order.
    pub fn proc_ops(&self, proc: ProcId) -> Option<&[MemOp]> {
        self.ops.get(proc.index()).map(|v| v.as_slice())
    }

    /// Looks up an operation by id.
    pub fn op(&self, id: OpId) -> Option<&MemOp> {
        self.ops.get(id.proc.index())?.get(id.seq as usize)
    }

    /// Total number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.iter().map(|v| v.len()).sum()
    }

    /// Iterates over every operation of every processor.
    pub fn iter(&self) -> impl Iterator<Item = &MemOp> {
        self.ops.iter().flatten()
    }

    /// Estimated size in bytes of a compact per-operation trace record
    /// (used by the trace-size ablation): op id (6) + location (4) +
    /// kind/class byte + value (8) + optional observed write (1 or 7).
    pub fn encoded_size(&self) -> usize {
        self.iter().map(|op| 6 + 4 + 1 + 8 + if op.observed_write.is_some() { 7 } else { 1 }).sum()
    }
}

crate::impl_to_json!(OpTrace { ops, issue_order });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, EventId, Location, SyncRole, Value};

    fn raw_op(loc: u32, kind: AccessKind) -> MemOp {
        MemOp {
            id: OpId::new(ProcId::new(0), 0), // overwritten by push
            loc: Location::new(loc),
            kind,
            class: OpClass::Data,
            value: Value::ZERO,
            observed_write: None,
        }
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut t = OpTrace::new(2);
        let p1 = ProcId::new(1);
        let a = t.push(p1, raw_op(0, AccessKind::Write)).unwrap();
        let b = t.push(p1, raw_op(1, AccessKind::Read)).unwrap();
        assert_eq!(a, OpId::new(p1, 0));
        assert_eq!(b, OpId::new(p1, 1));
        assert_eq!(t.proc_ops(p1).unwrap().len(), 2);
        assert_eq!(t.num_ops(), 2);
        assert_eq!(t.op(a).unwrap().loc, Location::new(0));
    }

    #[test]
    fn push_rejects_unknown_proc() {
        let mut t = OpTrace::new(1);
        let err = t.push(ProcId::new(5), raw_op(0, AccessKind::Read));
        assert!(matches!(err, Err(TraceError::UnknownProcessor(_))));
    }

    #[test]
    fn lookup_misses() {
        let t = OpTrace::new(1);
        assert!(t.op(OpId::new(ProcId::new(0), 0)).is_none());
        assert!(t.proc_ops(ProcId::new(3)).is_none());
    }

    #[test]
    fn iter_and_encoded_size() {
        let mut t = OpTrace::new(2);
        t.push(ProcId::new(0), raw_op(0, AccessKind::Write)).unwrap();
        let mut read = raw_op(0, AccessKind::Read);
        read.observed_write = Some(OpId::new(ProcId::new(0), 0));
        t.push(ProcId::new(1), read).unwrap();
        assert_eq!(t.iter().count(), 2);
        // write: 6+4+1+8+1 = 20; read with observed: 6+4+1+8+7 = 26
        assert_eq!(t.encoded_size(), 46);
    }

    #[test]
    fn json_shape() {
        use crate::ToJson;
        let mut t = OpTrace::new(1);
        t.push(ProcId::new(0), raw_op(3, AccessKind::Write)).unwrap();
        assert_eq!(
            t.json().render(),
            r#"{"ops":[[{"id":{"proc":0,"seq":0},"loc":3,"kind":"Write","class":"Data","value":0,"observed_write":null}]],"issue_order":[{"proc":0,"seq":0}]}"#
        );
    }

    #[test]
    fn issue_order_preserves_interleaving() {
        let mut t = OpTrace::new(2);
        let a = t.push(ProcId::new(1), raw_op(0, AccessKind::Write)).unwrap();
        let b = t.push(ProcId::new(0), raw_op(1, AccessKind::Write)).unwrap();
        let c = t.push(ProcId::new(1), raw_op(2, AccessKind::Read)).unwrap();
        assert_eq!(t.issue_order(), &[a, b, c]);
        let locs: Vec<u32> = t.iter_issue_order().map(|o| o.loc.addr()).collect();
        assert_eq!(locs, vec![0, 1, 2]);
    }

    #[test]
    fn replay_feeds_issue_order_to_a_sink() {
        let mut t = OpTrace::new(2);
        t.push(ProcId::new(1), raw_op(0, AccessKind::Write)).unwrap();
        let mut sync = raw_op(9, AccessKind::Write);
        sync.class = OpClass::Sync(SyncRole::Release);
        t.push(ProcId::new(0), sync).unwrap();
        let mut read = raw_op(0, AccessKind::Read);
        read.observed_write = Some(OpId::new(ProcId::new(1), 0));
        t.push(ProcId::new(0), read).unwrap();
        let mut copy = crate::OpRecorder::new(2);
        t.replay(&mut copy);
        assert_eq!(copy.finish(), t);
    }

    #[test]
    fn unfolds_one_event_per_operation() {
        let (p0, p1) = (ProcId::new(0), ProcId::new(1));
        let mut t = OpTrace::new(2);
        let w = t.push(p0, raw_op(0, AccessKind::Write)).unwrap();
        t.push(p0, raw_op(1, AccessKind::Write)).unwrap();
        let mut rel = raw_op(9, AccessKind::Write);
        rel.class = OpClass::Sync(SyncRole::Release);
        let rel = t.push(p0, rel).unwrap();
        let mut acq = raw_op(9, AccessKind::Read);
        acq.class = OpClass::Sync(SyncRole::Acquire);
        acq.observed_write = Some(rel);
        t.push(p1, acq.clone()).unwrap();
        // A sync read of a data write's value, and one of an operation
        // the trace never recorded.
        acq.observed_write = Some(w);
        t.push(p1, acq.clone()).unwrap();
        acq.observed_write = Some(OpId::new(p1, 77));
        t.push(p1, acq).unwrap();
        t.push(p1, raw_op(0, AccessKind::Read)).unwrap();

        let events = t.to_event_trace();
        assert_eq!(events.num_events(), t.num_ops(), "nothing folded");
        let computation = events.event(EventId::new(p0, 1)).unwrap().as_computation().unwrap();
        assert_eq!((computation.first_op, computation.op_count), (OpId::new(p0, 1), 1));
        assert!(computation.writes.contains(Location::new(1)) && computation.reads.is_empty());
        let read = events.event(EventId::new(p1, 3)).unwrap().as_computation().unwrap();
        assert!(read.reads.contains(Location::new(0)) && read.writes.is_empty());
        let observed = |i| events.event(EventId::new(p1, i)).unwrap().as_sync().unwrap();
        assert_eq!(observed(0).observed_release, Some(rel));
        assert_eq!(observed(1).observed_release, None, "a data write pairs with nothing");
        assert_eq!(observed(2).observed_release, Some(OpId::new(p1, 77)), "dangling is kept");
        let order: Vec<_> = events.sync_order().iter().map(|e| e.event).collect();
        let e = EventId::new;
        assert_eq!(order, [e(p0, 2), e(p1, 0), e(p1, 1), e(p1, 2)], "issue order");
        assert!(events.sync_order().iter().zip(0..).all(|(entry, n)| entry.global_seq == n));
    }
}
