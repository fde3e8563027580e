//! The store-buffer memory system: writes drained out of order.
//!
//! [`WeakMachine`] is the workspace's model of the weak systems of
//! Section 2.2: the one [`Machine`] over [`StoreBuffers`]. Each core has
//! a **store buffer** holding its pending data writes. A buffered write
//! becomes globally visible only when *drained* — and drains of different
//! locations may happen in any order (weak ordering permits reordering
//! data writes between synchronization points; per-location program
//! order is preserved, as every real coherence protocol does). The
//! issuing core always sees its own buffered writes (store-to-load
//! forwarding).
//!
//! With [`Fidelity::Conditioned`] (the default), synchronization
//! operations execute strongly against shared memory and *flush* the
//! issuing core's buffer according to the model's rule
//! ([`MemoryModel::sync_write_drains`] /
//! [`MemoryModel::sync_read_drains`]). Such a machine provides sequential
//! consistency to every data-race-free execution and can violate
//! sequential consistency only through data races — it obeys the paper's
//! Condition 3.4 the same way the paper argues (Theorem 3.5) all
//! practical WO/RCsc/DRF0/DRF1 implementations do. Under
//! [`MemoryModel::Sc`] data writes go straight to memory.
//!
//! With [`Fidelity::Raw`], synchronization writes are buffered like data
//! writes and nothing flushes implicitly. This hypothetical hardware
//! violates Condition 3.4 — even race-free programs can behave
//! non-sequentially-consistently — and exists for the ablation showing
//! that dynamic race detection is meaningless without the condition.
//!
//! *Who decides when buffers drain?* The scheduler. Draining is an
//! explicit action ([`Machine::drain_one`]) so that scripted schedules
//! can reproduce executions like the paper's Figure 2b, where `P1`'s
//! write of `QEmpty` becomes visible *before* its program-order-earlier
//! write of `Q`, letting `P2` read the stale queue entry `37`.
//!
//! The out-of-order pipeline ([`OooMachine`](crate::OooMachine)) keeps
//! its retired stores in the same [`StoreBuffers`].

use std::collections::hash_map::DefaultHasher;
use std::hash::Hash;
use std::sync::Arc;

use wmrd_trace::{AccessKind, Location, OpId, ProcId, SyncRole, Value};

use crate::machine::{MachineState, MemCell};
use crate::{Fidelity, Machine, MemoryModel, MemorySystem, Program, SimError, Timing};

/// A write as a memory system receives it; in a store buffer, one not
/// yet globally visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferedWrite {
    /// Target location.
    pub loc: Location,
    /// Value to be written.
    pub value: Value,
    /// The write's identity (assigned at issue; the trace records writes
    /// at issue time, in program order).
    pub op: OpId,
    /// `true` iff this is a buffered *synchronization* write (only
    /// possible under [`Fidelity::Raw`]).
    pub sync: bool,
}

impl BufferedWrite {
    /// The memory cell this write leaves once visible.
    pub(crate) fn cell(&self) -> MemCell {
        MemCell::written(self.value, self.op, self.sync)
    }
}

/// Per-processor store buffers.
#[derive(Debug, Clone)]
pub struct StoreBuffers {
    bufs: Vec<Vec<BufferedWrite>>,
}

impl StoreBuffers {
    /// The pending writes of processor `pi`, oldest first.
    pub(crate) fn buffer(&self, pi: usize) -> &[BufferedWrite] {
        self.bufs.get(pi).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Appends a write to `pi`'s buffer.
    pub(crate) fn push(&mut self, pi: usize, w: BufferedWrite) {
        self.bufs[pi].push(w);
    }

    /// `pi`'s newest buffered write to `loc` (store-to-load forwarding).
    pub(crate) fn forward(&self, pi: usize, loc: Location) -> Option<MemCell> {
        self.bufs[pi].iter().rev().find(|w| w.loc == loc).map(BufferedWrite::cell)
    }

    /// `true` iff a processor other than `pi` buffers a write to `loc`.
    pub(crate) fn remote_pending(&self, pi: usize, loc: Location) -> bool {
        self.bufs.iter().enumerate().any(|(i, b)| i != pi && b.iter().any(|w| w.loc == loc))
    }

    /// Overlays `pi`'s buffered writes, oldest first, onto `mem`.
    pub(crate) fn overlay(&self, pi: usize, mem: &mut [Value]) {
        for w in &self.bufs[pi] {
            mem[w.loc.index()] = w.value;
        }
    }
}

impl MemorySystem for StoreBuffers {
    fn new(procs: usize) -> Self {
        StoreBuffers { bufs: vec![Vec::new(); procs] }
    }

    fn clear(&mut self) {
        self.bufs.iter_mut().for_each(Vec::clear);
    }

    fn flushes_at(model: MemoryModel, kind: AccessKind, role: SyncRole) -> bool {
        match kind {
            AccessKind::Read => model.sync_read_drains(role),
            AccessKind::Write => model.sync_write_drains(role),
        }
    }

    fn load(&mut self, st: &mut MachineState, pi: usize, loc: Location) -> (MemCell, bool) {
        if let Some(cell) = self.forward(pi, loc) {
            st.stats.buffer_forwards += 1;
            return (cell, true);
        }
        if self.remote_pending(pi, loc) {
            // Another processor still buffers a write to this location:
            // the value just read is already outdated.
            st.stats.stale_reads += 1;
        }
        (st.mem[loc.index()].clone(), false)
    }

    fn store(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite) -> bool {
        if st.model == MemoryModel::Sc {
            st.mem[w.loc.index()] = w.cell();
            return false;
        }
        self.push(pi, w);
        st.stats.buffered_writes += 1;
        true
    }

    fn sync_load(&self, st: &MachineState, pi: usize, loc: Location) -> MemCell {
        self.forward(pi, loc).unwrap_or_else(|| st.mem[loc.index()].clone())
    }

    fn sync_store(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite) {
        match st.fidelity {
            Fidelity::Conditioned => st.mem[w.loc.index()] = w.cell(),
            Fidelity::Raw => self.push(pi, w),
        }
    }

    fn flush(&mut self, mem: &mut [MemCell], pi: usize) -> Option<usize> {
        let buf = &mut self.bufs[pi];
        let n = buf.len();
        for w in buf.drain(..) {
            mem[w.loc.index()] = w.cell();
        }
        Some(n)
    }

    /// An entry may drain only if no older entry targets the same
    /// location (drains of the same location follow program order —
    /// coherence).
    fn drain(&mut self, mem: &mut [MemCell], pi: usize, index: usize) -> bool {
        if !self.drainable(pi).contains(&index) {
            return false;
        }
        let w = self.bufs[pi].remove(index);
        mem[w.loc.index()] = w.cell();
        true
    }

    fn drainable(&self, pi: usize) -> Vec<usize> {
        let buf = self.buffer(pi);
        buf.iter()
            .enumerate()
            .filter(|(i, w)| buf[..*i].iter().all(|e| e.loc != w.loc))
            .map(|(i, _)| i)
            .collect()
    }

    fn pending_len(&self, pi: usize) -> usize {
        self.buffer(pi).len()
    }

    fn hash_into(&self, h: &mut DefaultHasher, behavioral: bool) {
        if !behavioral {
            return self.bufs.hash(h);
        }
        for w in self.bufs.iter().flatten() {
            (w.loc, w.value, w.sync).hash(h);
        }
    }
}

/// The one machine over per-core store buffers, parameterized by weak
/// memory model and fidelity to Condition 3.4.
pub type WeakMachine = Machine<StoreBuffers>;

impl WeakMachine {
    /// Creates a machine at the program's initial state.
    ///
    /// Passing [`MemoryModel::Sc`] is allowed and yields a machine whose
    /// data writes complete at once (handy for uniform model sweeps);
    /// [`ScMachine`](crate::ScMachine) is the canonical SC reference.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if the program fails
    /// [`Program::validate`].
    pub fn new(
        program: Arc<Program>,
        model: MemoryModel,
        fidelity: Fidelity,
        timing: Timing,
    ) -> Result<Self, SimError> {
        Machine::build(program, model, fidelity, timing)
    }

    /// The pending writes of one processor, oldest first.
    pub fn buffer(&self, proc: ProcId) -> &[BufferedWrite] {
        self.memory_system().buffer(proc.index())
    }

    /// `true` iff no store buffer holds a pending write.
    pub fn buffers_empty(&self) -> bool {
        self.pending_empty()
    }

    /// Memory values as each write *will* land once all buffers drain —
    /// i.e. global memory overlaid with every buffer (drain order for the
    /// same location is per-processor program order; cross-processor
    /// same-location conflicts resolve arbitrarily in processor order, as
    /// they would for any drain interleaving).
    pub fn settled_memory_values(&self) -> Vec<Value> {
        let mut mem = self.memory_values();
        for pi in 0..self.cores.len() {
            self.memory_system().overlay(pi, &mut mem);
        }
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Instr, Operand, Reg};
    use wmrd_trace::{NullSink, OpRecorder};

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn wo(prog: Program) -> WeakMachine {
        WeakMachine::new(Arc::new(prog), MemoryModel::Wo, Fidelity::Conditioned, Timing::uniform())
            .unwrap()
    }

    fn store(imm: i64, loc: u32) -> Instr {
        Instr::St { src: Operand::Imm(imm), addr: Addr::Abs(l(loc)) }
    }

    fn load(r: u8, loc: u32) -> Instr {
        Instr::Ld { dst: Reg::new(r), addr: Addr::Abs(l(loc)) }
    }

    #[test]
    fn data_writes_are_buffered_until_drained() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(7, 0), Instr::Halt]);
        prog.push_proc(vec![load(0, 0), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.buffer(p(0)).len(), 1);
        assert_eq!(m.memory_values()[0], Value::ZERO, "not yet visible");
        // P1 reads the *old* value: the race lets it see 0.
        m.step(p(1), &mut sink).unwrap();
        assert_eq!(m.reg(p(1), Reg::new(0)), 0);
        // After draining, memory holds 7.
        m.drain_one(p(0), 0).unwrap();
        assert_eq!(m.memory_values()[0], Value::new(7));
        assert!(m.buffers_empty());
    }

    #[test]
    fn own_buffer_forwarding() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(5, 0), load(0, 0), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 5, "forwarded from own buffer");
        assert_eq!(m.memory_values()[0], Value::ZERO, "still buffered");
    }

    #[test]
    fn forwarding_uses_newest_entry() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(1, 0), store(2, 0), load(0, 0), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        for _ in 0..3 {
            m.step(p(0), &mut sink).unwrap();
        }
        assert_eq!(m.reg(p(0), Reg::new(0)), 2);
    }

    #[test]
    fn same_location_drains_keep_program_order() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(1, 0), store(9, 1), store(2, 0), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        for _ in 0..3 {
            m.step(p(0), &mut sink).unwrap();
        }
        // Entry 2 (second write to loc 0) may not drain before entry 0.
        assert_eq!(m.drainable_indices(p(0)), vec![0, 1]);
        assert!(matches!(m.drain_one(p(0), 2), Err(SimError::BadDrain { .. })));
        // Out-of-order drain of different locations is fine.
        m.drain_one(p(0), 1).unwrap();
        assert_eq!(m.memory_values()[1], Value::new(9));
        assert_eq!(m.drainable_indices(p(0)), vec![0]);
        m.drain_one(p(0), 0).unwrap();
        m.drain_one(p(0), 0).unwrap();
        assert_eq!(m.memory_values()[0], Value::new(2));
    }

    #[test]
    fn wo_sync_write_flushes_buffer() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(7, 0), Instr::Unset { addr: Addr::Abs(l(1)) }, Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.buffer(p(0)).len(), 1);
        m.step(p(0), &mut sink).unwrap(); // Unset flushes under WO
        assert!(m.buffers_empty());
        assert_eq!(m.memory_values()[0], Value::new(7));
    }

    #[test]
    fn rcsc_test_set_does_not_flush_but_unset_does() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            store(7, 0),
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(1)) },
            Instr::Unset { addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        let mut m = WeakMachine::new(
            Arc::new(prog),
            MemoryModel::RCsc,
            Fidelity::Conditioned,
            Timing::uniform(),
        )
        .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap(); // Test&Set: acquire, no flush under RCsc
        assert_eq!(m.buffer(p(0)).len(), 1, "RCsc acquire leaves data write buffered");
        assert_eq!(m.memory_values()[1], Value::new(1), "sync write executed strongly");
        m.step(p(0), &mut sink).unwrap(); // Unset: release flushes
        assert!(m.buffers_empty());
    }

    #[test]
    fn wo_test_set_flushes() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            store(7, 0),
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert!(m.buffers_empty(), "WO flushes at every sync op");
    }

    #[test]
    fn fence_flushes() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(1, 0), Instr::Fence, Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert!(m.buffers_empty());
        assert_eq!(m.memory_values()[0], Value::new(1));
    }

    #[test]
    fn raw_fidelity_buffers_sync_writes() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(7, 0), Instr::Unset { addr: Addr::Abs(l(1)) }, Instr::Halt]);
        let mut m =
            WeakMachine::new(Arc::new(prog), MemoryModel::Wo, Fidelity::Raw, Timing::uniform())
                .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.buffer(p(0)).len(), 2, "raw machine buffers the Unset too");
        assert!(m.buffer(p(0))[1].sync);
    }

    #[test]
    fn raw_fidelity_breaks_mutual_exclusion() {
        // Both processors Test&Set the same lock; on raw hardware both
        // writes sit in buffers, so both reads see 0 and both "succeed".
        let mut prog = Program::new("t", 1);
        let ts = Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) };
        prog.push_proc(vec![ts, Instr::Halt]);
        prog.push_proc(vec![ts, Instr::Halt]);
        let mut m =
            WeakMachine::new(Arc::new(prog), MemoryModel::Wo, Fidelity::Raw, Timing::uniform())
                .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(1), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 0);
        assert_eq!(m.reg(p(1), Reg::new(0)), 0, "mutual exclusion violated without Condition 3.4");
    }

    #[test]
    fn conditioned_test_set_is_atomic() {
        let mut prog = Program::new("t", 1);
        let ts = Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) };
        prog.push_proc(vec![ts, Instr::Halt]);
        prog.push_proc(vec![ts, Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(1), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 0);
        assert_eq!(m.reg(p(1), Reg::new(0)), 1, "second test&set must fail");
    }

    #[test]
    fn observed_release_through_memory() {
        let mut prog = Program::new("t", 1);
        prog.set_init(l(0), Value::new(1));
        prog.push_proc(vec![Instr::Unset { addr: Addr::Abs(l(0)) }, Instr::Halt]);
        prog.push_proc(vec![
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        let mut m = wo(prog);
        let mut rec = OpRecorder::new(2);
        m.step(p(0), &mut rec).unwrap();
        m.step(p(1), &mut rec).unwrap();
        let ops = rec.finish();
        let acq = &ops.proc_ops(p(1)).unwrap()[0];
        assert_eq!(acq.observed_write, Some(OpId::new(p(0), 0)));
    }

    #[test]
    fn settled_memory_includes_buffers() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(3, 0), store(4, 1), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.memory_values(), vec![Value::ZERO, Value::ZERO]);
        assert_eq!(m.settled_memory_values(), vec![Value::new(3), Value::new(4)]);
    }

    #[test]
    fn sc_model_writes_through() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(9, 0), Instr::Halt]);
        let mut m = WeakMachine::new(
            Arc::new(prog),
            MemoryModel::Sc,
            Fidelity::Conditioned,
            Timing::uniform(),
        )
        .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert!(m.buffers_empty());
        assert_eq!(m.memory_values()[0], Value::new(9));
    }

    #[test]
    fn flush_charges_drain_cycles() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(1, 0), Instr::Fence, Instr::Halt]);
        let mut m = WeakMachine::new(
            Arc::new(prog),
            MemoryModel::Wo,
            Fidelity::Conditioned,
            Timing::default_model(),
        )
        .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap(); // buffered write: 1
        m.step(p(0), &mut sink).unwrap(); // fence: drain 1 entry (2) + local (1)
        assert_eq!(m.cycles()[0], 1 + 2 + 1);
    }

    #[test]
    fn drain_errors() {
        let prog = {
            let mut p_ = Program::new("t", 1);
            p_.push_proc(vec![Instr::Halt]);
            p_
        };
        let mut m = wo(prog);
        assert!(matches!(m.drain_one(p(0), 0), Err(SimError::BadDrain { .. })));
        assert!(matches!(m.drain_one(p(9), 0), Err(SimError::UnknownProcessor(_))));
        assert!(m.drainable_indices(p(9)).is_empty());
    }

    #[test]
    fn fingerprint_tracks_buffers() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(1, 0), Instr::Halt]);
        let m0 = wo(prog);
        let mut m1 = m0.clone();
        let mut sink = NullSink::new();
        m1.step(p(0), &mut sink).unwrap();
        assert_ne!(m0.fingerprint(), m1.fingerprint());
        let mut m2 = m1.clone();
        m2.drain_one(p(0), 0).unwrap();
        assert_ne!(m1.fingerprint(), m2.fingerprint());
    }
}
