//! Event-level records (Section 4.1 of the paper).
//!
//! Tracing every memory operation is impractical, so the execution of each
//! processor is viewed as a sequence of *events*: a **synchronization
//! event** is a single synchronization operation; a **computation event**
//! is a maximal group of consecutively executed data operations, summarized
//! by its READ and WRITE location sets.

use std::fmt;

use crate::{AccessKind, LocSet, Location, OpId, ProcId, SyncRole, Value};

/// Identifier of an event: the issuing processor and the zero-based index
/// of the event in that processor's event sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// Issuing processor.
    pub proc: ProcId,
    /// Zero-based position in the processor's event sequence.
    pub index: u32,
}

impl EventId {
    /// Creates an event id.
    pub const fn new(proc: ProcId, index: u32) -> Self {
        EventId { proc, index }
    }

    /// `true` iff `self` precedes `other` in the same processor's event
    /// sequence (program order at event granularity).
    pub fn program_order_before(self, other: EventId) -> bool {
        self.proc == other.proc && self.index < other.index
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.e{}", self.proc, self.index)
    }
}

/// A single synchronization operation, traced individually.
///
/// Besides the fields of the underlying operation, a sync event records:
///
/// * `global_seq` — its position in the per-location synchronization order
///   (trace stream 2 of Section 4.1); the simulator stamps sync operations
///   with a global monotone counter, which induces the per-location order.
/// * `observed_release` — for sync *reads*, the identity of the sync write
///   whose value the read returned, enabling exact `so1` pairing
///   (Definition 2.1(3)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SyncEvent {
    /// The underlying operation's identity.
    pub op: OpId,
    /// Location accessed.
    pub loc: Location,
    /// Read or write.
    pub kind: AccessKind,
    /// Acquire/release/plain classification.
    pub role: SyncRole,
    /// Value read or written.
    pub value: Value,
    /// Global issue stamp among synchronization operations.
    pub global_seq: u64,
    /// For sync reads: which sync write's value was returned (`None` if the
    /// read observed the initial value or a *data* write).
    pub observed_release: Option<OpId>,
}

/// A maximal run of consecutively executed data operations of one
/// processor, summarized by bit-vector READ and WRITE sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputationEvent {
    /// Locations read by at least one operation of the event (`READ(A)`).
    pub reads: LocSet,
    /// Locations written by at least one operation of the event
    /// (`WRITE(A)`).
    pub writes: LocSet,
    /// Identity of the first data operation folded into this event.
    pub first_op: OpId,
    /// Number of data operations folded into this event.
    pub op_count: u32,
}

impl ComputationEvent {
    /// All locations touched by the event (`READ ∪ WRITE`).
    pub fn accessed(&self) -> LocSet {
        self.reads.union(&self.writes)
    }
}

/// The payload of an event: either one synchronization operation or one
/// computation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A single synchronization operation.
    Sync(SyncEvent),
    /// A group of consecutive data operations.
    Computation(ComputationEvent),
}

/// An event of a processor's execution, with its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Identity (processor and per-processor index).
    pub id: EventId,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// `true` iff this is a synchronization event.
    pub fn is_sync(&self) -> bool {
        matches!(self.kind, EventKind::Sync(_))
    }

    /// `true` iff this is a computation event.
    pub fn is_computation(&self) -> bool {
        matches!(self.kind, EventKind::Computation(_))
    }

    /// The sync payload, if any.
    pub fn as_sync(&self) -> Option<&SyncEvent> {
        match &self.kind {
            EventKind::Sync(s) => Some(s),
            EventKind::Computation(_) => None,
        }
    }

    /// The computation payload, if any.
    pub fn as_computation(&self) -> Option<&ComputationEvent> {
        match &self.kind {
            EventKind::Computation(c) => Some(c),
            EventKind::Sync(_) => None,
        }
    }

    /// Locations this event reads (acquires and sync reads count as reads).
    pub fn read_set(&self) -> LocSet {
        match &self.kind {
            EventKind::Sync(s) if s.kind.is_read() => {
                let mut l = LocSet::new();
                l.insert(s.loc);
                l
            }
            EventKind::Sync(_) => LocSet::new(),
            EventKind::Computation(c) => c.reads.clone(),
        }
    }

    /// Locations this event writes.
    pub fn write_set(&self) -> LocSet {
        match &self.kind {
            EventKind::Sync(s) if s.kind.is_write() => {
                let mut l = LocSet::new();
                l.insert(s.loc);
                l
            }
            EventKind::Sync(_) => LocSet::new(),
            EventKind::Computation(c) => c.writes.clone(),
        }
    }

    /// `true` iff this event reads `loc` — [`read_set`](Self::read_set)
    /// membership without building the set.
    pub fn reads_loc(&self, loc: Location) -> bool {
        match &self.kind {
            EventKind::Sync(s) => s.kind.is_read() && s.loc == loc,
            EventKind::Computation(c) => c.reads.contains(loc),
        }
    }

    /// `true` iff this event writes `loc` — [`write_set`](Self::write_set)
    /// membership without building the set.
    pub fn writes_loc(&self, loc: Location) -> bool {
        match &self.kind {
            EventKind::Sync(s) => s.kind.is_write() && s.loc == loc,
            EventKind::Computation(c) => c.writes.contains(loc),
        }
    }

    /// `true` iff the two events *conflict*: some location is written by
    /// one and accessed by the other (Section 4.1's lift of the
    /// operation-level conflict definition to events).
    pub fn conflicts_with(&self, other: &Event) -> bool {
        match (&self.kind, &other.kind) {
            (EventKind::Sync(s), _) => sync_conflicts(s, other),
            (_, EventKind::Sync(s)) => sync_conflicts(s, self),
            (EventKind::Computation(a), EventKind::Computation(b)) => {
                a.writes.intersects(&b.reads)
                    || a.writes.intersects(&b.writes)
                    || b.writes.intersects(&a.reads)
            }
        }
    }

    /// The locations on which the two events conflict.
    pub fn conflict_locations(&self, other: &Event) -> LocSet {
        let single = |s: &SyncEvent, other: &Event| {
            let mut out = LocSet::new();
            if sync_conflicts(s, other) {
                out.insert(s.loc);
            }
            out
        };
        match (&self.kind, &other.kind) {
            (EventKind::Sync(s), _) => single(s, other),
            (_, EventKind::Sync(s)) => single(s, self),
            (EventKind::Computation(a), EventKind::Computation(b)) => {
                LocSet::conflict(&a.reads, &a.writes, &b.reads, &b.writes)
            }
        }
    }
}

/// `true` iff the sync access `s` conflicts with `other`: a sync access
/// touches one location, so the test is two membership checks.
fn sync_conflicts(s: &SyncEvent, other: &Event) -> bool {
    other.writes_loc(s.loc) || (s.kind.is_write() && other.reads_loc(s.loc))
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::Sync(s) => {
                write!(f, "{} sync/{} {}({},{})", self.id, s.role, s.kind, s.loc, s.value)
            }
            EventKind::Computation(c) => {
                write!(f, "{} comp R={} W={}", self.id, c.reads, c.writes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(proc: u16, index: u32, reads: &[u32], writes: &[u32]) -> Event {
        Event {
            id: EventId::new(ProcId::new(proc), index),
            kind: EventKind::Computation(ComputationEvent {
                reads: reads.iter().map(|&l| Location::new(l)).collect(),
                writes: writes.iter().map(|&l| Location::new(l)).collect(),
                first_op: OpId::new(ProcId::new(proc), 0),
                op_count: (reads.len() + writes.len()) as u32,
            }),
        }
    }

    fn sync(proc: u16, index: u32, loc: u32, kind: AccessKind, role: SyncRole) -> Event {
        Event {
            id: EventId::new(ProcId::new(proc), index),
            kind: EventKind::Sync(SyncEvent {
                op: OpId::new(ProcId::new(proc), 0),
                loc: Location::new(loc),
                kind,
                role,
                value: Value::ZERO,
                global_seq: 0,
                observed_release: None,
            }),
        }
    }

    #[test]
    fn event_id_program_order() {
        let a = EventId::new(ProcId::new(0), 0);
        let b = EventId::new(ProcId::new(0), 3);
        let c = EventId::new(ProcId::new(1), 1);
        assert!(a.program_order_before(b));
        assert!(!b.program_order_before(a));
        assert!(!a.program_order_before(c));
        assert_eq!(a.to_string(), "P0.e0");
    }

    #[test]
    fn computation_conflicts() {
        let a = comp(0, 0, &[], &[1, 2]);
        let b = comp(1, 0, &[2], &[]);
        let c = comp(1, 1, &[3], &[]);
        assert!(a.conflicts_with(&b), "write-read overlap conflicts");
        assert!(b.conflicts_with(&a), "symmetric");
        assert!(!a.conflicts_with(&c));
        assert!(!b.conflicts_with(&c), "read-read never conflicts");
        let locs: Vec<u32> = a.conflict_locations(&b).iter().map(|l| l.addr()).collect();
        assert_eq!(locs, vec![2]);
    }

    #[test]
    fn write_write_conflict() {
        let a = comp(0, 0, &[], &[5]);
        let b = comp(1, 0, &[], &[5]);
        assert!(a.conflicts_with(&b));
        assert_eq!(a.conflict_locations(&b).len(), 1);
    }

    #[test]
    fn sync_event_sets() {
        let rel = sync(0, 0, 9, AccessKind::Write, SyncRole::Release);
        assert!(rel.is_sync());
        assert!(!rel.is_computation());
        assert!(rel.read_set().is_empty());
        assert!(rel.write_set().contains(Location::new(9)));
        let acq = sync(1, 0, 9, AccessKind::Read, SyncRole::Acquire);
        assert!(acq.read_set().contains(Location::new(9)));
        assert!(acq.write_set().is_empty());
        // A sync write conflicts with a sync read of the same location.
        assert!(rel.conflicts_with(&acq));
        // Two sync reads do not conflict.
        assert!(!acq.conflicts_with(&sync(0, 1, 9, AccessKind::Read, SyncRole::Acquire)));
    }

    #[test]
    fn sync_data_conflict() {
        // The paper's Figure 1b caption: "no synchronization operation
        // conflicts with a data operation" is required for race-freedom —
        // sync vs. data conflicts are detectable.
        let rel = sync(0, 0, 4, AccessKind::Write, SyncRole::Release);
        let data = comp(1, 0, &[4], &[]);
        assert!(rel.conflicts_with(&data));
    }

    /// The borrowing predicates agree with the cloned READ/WRITE sets,
    /// and the conflict locations equal the set-algebra definition
    /// word for word (no trailing zero words), across sync and
    /// computation events whose sets span different word counts.
    #[test]
    fn borrowed_predicates_match_the_sets() {
        let events = [
            comp(0, 0, &[1, 70], &[2]),
            comp(1, 0, &[2, 200], &[70, 1]),
            comp(1, 1, &[], &[]),
            sync(0, 1, 2, AccessKind::Write, SyncRole::Release),
            sync(1, 2, 70, AccessKind::Read, SyncRole::Acquire),
            sync(1, 3, 2, AccessKind::Read, SyncRole::None),
        ];
        for a in &events {
            for addr in 0..256 {
                let loc = Location::new(addr);
                assert_eq!(a.reads_loc(loc), a.read_set().contains(loc), "{a} reads {addr}");
                assert_eq!(a.writes_loc(loc), a.write_set().contains(loc), "{a} writes {addr}");
            }
            for b in &events {
                let (r1, w1) = (a.read_set(), a.write_set());
                let (r2, w2) = (b.read_set(), b.write_set());
                let mut expected = w1.intersection(&r2);
                expected.union_with(&w1.intersection(&w2));
                expected.union_with(&w2.intersection(&r1));
                assert_eq!(a.conflict_locations(b), expected, "{a} x {b}");
                assert_eq!(a.conflicts_with(b), !expected.is_empty(), "{a} x {b}");
            }
        }
    }

    #[test]
    fn accessors() {
        let e = comp(0, 0, &[1], &[2]);
        assert!(e.as_computation().is_some());
        assert!(e.as_sync().is_none());
        assert_eq!(e.as_computation().unwrap().accessed().len(), 2);
        let s = sync(0, 0, 1, AccessKind::Read, SyncRole::Acquire);
        assert!(s.as_sync().is_some());
        assert!(s.as_computation().is_none());
    }

    #[test]
    fn display() {
        let e = comp(0, 1, &[1], &[2]);
        assert_eq!(e.to_string(), "P0.e1 comp R={1} W={2}");
        let s = sync(2, 0, 9, AccessKind::Write, SyncRole::Release);
        assert_eq!(s.to_string(), "P2.e0 sync/release write(m[9],0)");
    }
}
