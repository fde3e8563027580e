//! Operation-granularity analysis (the paper's Definitions 2.2–2.4 and
//! 3.3, stated on individual memory operations).
//!
//! The production pipeline works on events (Section 4.1); this module
//! implements the same theory at the exact granularity the definitions
//! are written at. It exists for three reasons:
//!
//! 1. **Cross-validation** — on small programs, every event-level data
//!    race must correspond to at least one operation-level data race and
//!    vice versa (an integration test enforces this).
//! 2. **Theorem checking** — the model-checking oracle in `wmrd-verify`
//!    compares the races of weak executions against enumerated
//!    sequentially consistent executions at operation granularity.
//! 3. **Cost baseline** — operation-level tracing is what Section 4.1
//!    calls impractical; the trace-size ablation (E8) quantifies that
//!    against event-level bit-vector tracing.

use std::fmt;

use wmrd_trace::{AccessKind, EventId, Location, MemOp, OpId, OpTrace, ProcId};

use crate::graph::ChainOrder;
use crate::race::{Access, AccessLists};
use crate::{AnalysisError, PairingPolicy, RaceKind};

/// A data race between two individual memory operations: at least one
/// of them is a data operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRace {
    /// First operation (smaller id).
    pub a: OpId,
    /// Second operation.
    pub b: OpId,
    /// The location both access.
    pub loc: Location,
    /// Data/sync classification.
    pub kind: RaceKind,
}

impl fmt::Display for OpRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}> on {} ({})", self.a, self.b, self.loc, self.kind)
    }
}

/// The operation-level hb1 analysis of one execution.
///
/// Both orders run over the processors' operation chains: operation
/// `seq` of processor `p` is the chain position `(p, seq)`.
#[derive(Debug)]
pub struct OpAnalysis {
    /// `(po ∪ so1)+` over operations.
    hb: ChainOrder,
    /// G′ over operations: hb1 plus both directions of each data race.
    aug: ChainOrder,
    races: Vec<OpRace>,
    so1_edge_count: usize,
}

/// The chain position of an operation.
fn pos(id: OpId) -> EventId {
    EventId::new(id.proc, id.seq)
}

impl OpAnalysis {
    /// Builds hb1 over operations, finds all races, and builds the
    /// operation-level augmented graph.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::DanglingRelease`] if a sync read's
    /// `observed_write` cannot be resolved to a recorded sync write.
    pub fn analyze(trace: &OpTrace, policy: PairingPolicy) -> Result<Self, AnalysisError> {
        let chain_lens = (0..trace.num_procs())
            .map(|pi| trace.proc_ops(ProcId::new(pi as u16)).map_or(0, <[MemOp]>::len));
        // so1: release -> acquire via observed_write.
        let mut so1 = Vec::new();
        for op in trace.iter() {
            if !op.is_sync() || op.kind != AccessKind::Read {
                continue;
            }
            let Some(writer_id) = op.observed_write else { continue };
            let writer = trace
                .op(writer_id)
                .ok_or(AnalysisError::DanglingRelease { reader: pos(op.id), release: writer_id })?;
            if !writer.is_sync() {
                continue; // a data write's value reached a sync read: no pairing
            }
            let pairs = match policy {
                PairingPolicy::ByRole => {
                    writer.class.sync_role().is_some_and(|r| r.is_release())
                        && op.class.sync_role().is_some_and(|r| r.is_acquire())
                }
                PairingPolicy::AllSync => true,
            };
            if pairs {
                so1.push((pos(writer.id), pos(op.id)));
            }
        }
        let hb = ChainOrder::new(chain_lens, so1.iter().copied())
            .expect("so1 endpoints are recorded operations");

        // Races: the event-level window sweep, one access per operation.
        let accesses = trace
            .iter()
            .map(|op| Access {
                event: pos(op.id),
                loc: op.loc,
                write: op.kind == AccessKind::Write,
                sync: op.is_sync(),
            })
            .collect();
        let mut races = Vec::new();
        AccessLists::new(accesses).sweep(&hb, |a, b| {
            let op = |e: EventId| trace.op(OpId::new(e.proc, e.index));
            let (Some(a), Some(b)) = (op(a), op(b)) else { return };
            let kind =
                if a.is_sync() || b.is_sync() { RaceKind::DataSync } else { RaceKind::DataData };
            races.push(OpRace { a: a.id, b: b.id, loc: a.loc, kind });
        });

        // Augmented graph: hb edges + double edges per race.
        let race_edges = races.iter().flat_map(|r| [(pos(r.a), pos(r.b)), (pos(r.b), pos(r.a))]);
        let aug = ChainOrder::new(hb.chain_lens(), so1.iter().copied().chain(race_edges))
            .expect("race endpoints are recorded operations");

        Ok(OpAnalysis { hb, aug, races, so1_edge_count: so1.len() })
    }

    /// Every data race of the execution, sorted.
    pub fn races(&self) -> &[OpRace] {
        &self.races
    }

    /// The data races: every race, since only data races are kept.
    pub fn data_races(&self) -> impl Iterator<Item = &OpRace> {
        self.races.iter()
    }

    /// Number of `so1` edges found.
    pub fn so1_edge_count(&self) -> usize {
        self.so1_edge_count
    }

    /// Number of operations analyzed.
    pub fn num_ops(&self) -> usize {
        self.hb.num_nodes()
    }

    /// `true` iff `a` hb1-precedes `b`.
    pub fn ordered(&self, a: OpId, b: OpId) -> bool {
        self.hb.ordered(pos(a), pos(b))
    }

    /// `true` iff race `i` affects operation `z` (Definition 3.3, via G′
    /// reachability).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn affects_op(&self, i: usize, z: OpId) -> bool {
        let race = self.races[i];
        if race.a == z || race.b == z {
            return true;
        }
        self.aug.ordered(pos(race.a), pos(z)) || self.aug.ordered(pos(race.b), pos(z))
    }

    /// `true` iff race `i` affects race `j`.
    pub fn affects_race(&self, i: usize, j: usize) -> bool {
        let rj = self.races[j];
        self.affects_op(i, rj.a) || self.affects_op(i, rj.b)
    }

    /// Per-processor boundaries of the execution's **race-free prefix**:
    /// for each processor, the sequence number of its first operation
    /// that participates in a data race or is hb1/G′-after one (the
    /// processor's operation count when no operation qualifies).
    ///
    /// On hardware obeying Condition 3.4, sequential consistency is
    /// preserved "at least until a data race actually occurs", so the
    /// race-free prefix must always be explainable by an SC interleaving
    /// — the checkable core of Definition 3.2 (the full SCP additionally
    /// contains the first races themselves, whose membership is verified
    /// separately through Theorem 4.2's cross-execution check).
    pub fn race_free_boundaries(&self) -> Vec<u32> {
        self.hb
            .chain_lens()
            .enumerate()
            .map(|(pi, len)| {
                let proc = ProcId::new(pi as u16);
                (0..len as u32)
                    .find(|&seq| {
                        (0..self.races.len()).any(|ri| self.affects_op(ri, OpId::new(proc, seq)))
                    })
                    .unwrap_or(len as u32)
            })
            .collect()
    }

    /// Indices of data races not affected by any *other* data race — the
    /// "first data races" Condition 3.4(2) guarantees occur in a
    /// sequentially consistent prefix.
    pub fn unaffected_data_races(&self) -> Vec<usize> {
        let n = self.races.len();
        (0..n).filter(|&j| (0..n).all(|i| i == j || !self.affects_race(i, j))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::{OpClass, ProcId, SyncRole, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn recorder(n: usize) -> wmrd_trace::OpRecorder {
        wmrd_trace::OpRecorder::new(n)
    }

    #[test]
    fn finds_operation_level_races() {
        let mut r = recorder(2);
        // Figure 1a at op granularity: write x / write y vs read y / read x.
        r.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        r.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        r.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        r.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let a = OpAnalysis::analyze(&r.finish(), PairingPolicy::ByRole).unwrap();
        // Unlike the event level (one race), op level sees both races.
        assert_eq!(a.races().len(), 2);
        assert!(a.races().iter().all(|r| r.kind == RaceKind::DataData));
        assert_eq!(a.num_ops(), 4);
    }

    #[test]
    fn pairing_orders_operations() {
        let mut r = recorder(2);
        r.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let rel =
            r.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        r.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        r.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        let a = OpAnalysis::analyze(&r.finish(), PairingPolicy::ByRole).unwrap();
        assert_eq!(a.so1_edge_count(), 1);
        assert!(a.races().is_empty());
        assert!(a.ordered(OpId::new(p(0), 0), OpId::new(p(1), 1)));
        assert!(!a.ordered(OpId::new(p(1), 1), OpId::new(p(0), 0)));
    }

    #[test]
    fn data_write_value_reaching_sync_read_is_not_pairing() {
        let mut r = recorder(2);
        let w = r.data_access(p(0), l(9), AccessKind::Write, Value::new(1), None);
        r.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::new(1), Some(w));
        let a = OpAnalysis::analyze(&r.finish(), PairingPolicy::ByRole).unwrap();
        assert_eq!(a.so1_edge_count(), 0);
        // And they race (data-sync conflict, unordered).
        assert_eq!(a.races().len(), 1);
        assert_eq!(a.races()[0].kind, RaceKind::DataSync);
    }

    #[test]
    fn unaffected_races_at_op_level() {
        let mut r = recorder(2);
        // Race 1 on x, then (no pairing) race 2 on y.
        r.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        r.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        r.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        r.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let a = OpAnalysis::analyze(&r.finish(), PairingPolicy::ByRole).unwrap();
        assert_eq!(a.races().len(), 2);
        let unaffected = a.unaffected_data_races();
        assert_eq!(unaffected.len(), 1, "the x race is the only first race");
        assert_eq!(a.races()[unaffected[0]].loc, l(0));
        assert!(a.affects_race(unaffected[0], 1 - unaffected[0]));
    }

    #[test]
    fn affects_own_successors() {
        let mut r = recorder(2);
        r.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        r.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        r.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let a = OpAnalysis::analyze(&r.finish(), PairingPolicy::ByRole).unwrap();
        assert_eq!(a.races().len(), 1);
        assert!(a.affects_op(0, OpId::new(p(0), 0)), "involves");
        assert!(a.affects_op(0, OpId::new(p(0), 1)), "po successor");
        assert!(!a.affects_op(0, OpId::new(p(9), 0)), "unknown op unaffected");
    }

    #[test]
    fn dangling_observed_write_is_error() {
        let mut t = OpTrace::new(1);
        t.push(
            p(0),
            MemOp {
                id: OpId::new(p(0), 0),
                loc: l(9),
                kind: AccessKind::Read,
                class: OpClass::Sync(SyncRole::Acquire),
                value: Value::ZERO,
                observed_write: Some(OpId::new(p(0), 77)),
            },
        )
        .unwrap();
        assert!(matches!(
            OpAnalysis::analyze(&t, PairingPolicy::ByRole),
            Err(AnalysisError::DanglingRelease { .. })
        ));
    }

    #[test]
    fn display() {
        let race = OpRace {
            a: OpId::new(p(0), 1),
            b: OpId::new(p(1), 2),
            loc: l(5),
            kind: RaceKind::DataData,
        };
        assert_eq!(race.to_string(), "<P0#1, P1#2> on m[5] (data-data)");
    }
}
