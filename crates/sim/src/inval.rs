//! The second weak memory system: **invalidation queues**
//! (reader-side staleness).
//!
//! Where [`StoreBuffers`](crate::StoreBuffers) delay a *write's*
//! visibility, [`InvalQueues`] complete every write into shared memory
//! immediately but let *readers* keep stale cached copies: each write
//! enqueues an invalidation at every other processor, and a processor's
//! data reads are served from its local cache until the invalidation is
//! *applied* (a scheduler [`Drain`](crate::WeakAction::Drain) action, or
//! a flush at a synchronization point). Synchronization operations always
//! act on shared memory directly. [`InvalMachine`] is the one
//! [`Machine`] over this memory system.
//!
//! Flush rules mirror the store-buffer machine's, on the reader side:
//! WO/DRF0 apply all pending invalidations at every synchronization
//! operation; RCsc/DRF1 only at **acquires** — the dual of flushing
//! store buffers at releases. With [`Fidelity::Conditioned`] this
//! machine, too, provides sequential consistency to every data-race-free
//! execution (an acquire that returns a release's value was preceded by
//! the invalidations of every write the release publishes) — i.e. it
//! obeys the paper's Condition 3.4 by a completely different mechanism
//! than the store-buffer machine, which is exactly the generality
//! Theorem 3.5 claims. With [`Fidelity::Raw`] nothing ever flushes
//! implicitly, and even race-free programs can read stale data forever.
//!
//! Simplification (documented for honesty): unlike a real MESI
//! protocol, a write completes without waiting for remote
//! acknowledgements, so two processors can observe two same-location
//! writes in different orders until their queues drain. Programs whose
//! accesses are properly synchronized never observe this (the flush
//! argument above), which is all Condition 3.4 requires.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use wmrd_trace::{AccessKind, Location, OpId, ProcId, SyncRole, Value};

use crate::machine::{MachineState, MemCell};
use crate::{
    BufferedWrite, Fidelity, Machine, MemoryModel, MemorySystem, Program, SimError, Timing,
};

/// A pending invalidation: the named location's cached copy (if any) is
/// stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PendingInval {
    /// The location whose cached copy must be discarded.
    pub loc: Location,
    /// The write that caused the invalidation (for diagnostics).
    pub writer: OpId,
}

/// Per-processor caches and invalidation queues.
#[derive(Debug, Clone)]
pub struct InvalQueues {
    caches: Vec<HashMap<Location, MemCell>>,
    queues: Vec<Vec<PendingInval>>,
}

impl InvalQueues {
    /// The pending invalidations of processor `pi`, oldest first.
    pub(crate) fn queue(&self, pi: usize) -> &[PendingInval] {
        self.queues.get(pi).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Completes a write: shared memory and the writer's cache take the
    /// new cell, and every other processor queues an invalidation. Under
    /// [`MemoryModel::Sc`] nothing is cached, so nothing is queued.
    fn write(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite) {
        st.mem[w.loc.index()] = w.cell();
        if st.model == MemoryModel::Sc {
            return;
        }
        self.caches[pi].insert(w.loc, w.cell());
        for (qi, queue) in self.queues.iter_mut().enumerate() {
            if qi != pi {
                queue.push(PendingInval { loc: w.loc, writer: w.op });
                st.stats.invalidations_queued += 1;
            }
        }
    }
}

impl MemorySystem for InvalQueues {
    fn new(procs: usize) -> Self {
        InvalQueues { caches: vec![HashMap::new(); procs], queues: vec![Vec::new(); procs] }
    }

    fn clear(&mut self) {
        self.caches.iter_mut().for_each(HashMap::clear);
        self.queues.iter_mut().for_each(Vec::clear);
    }

    fn flushes_at(model: MemoryModel, kind: AccessKind, role: SyncRole) -> bool {
        match kind {
            AccessKind::Read => model.inval_flush_on_sync_read(role),
            AccessKind::Write => model.inval_flush_on_sync_write(role),
        }
    }

    /// Under [`MemoryModel::Sc`] reads go to shared memory, as the store
    /// buffer writes through under SC.
    fn load(&mut self, st: &mut MachineState, pi: usize, loc: Location) -> (MemCell, bool) {
        if st.model == MemoryModel::Sc {
            return (st.mem[loc.index()].clone(), false);
        }
        if let Some(cached) = self.caches[pi].get(&loc) {
            st.stats.cache_hits += 1;
            if self.queues[pi].iter().any(|q| q.loc == loc) {
                // Served from a copy that a queued invalidation has
                // already declared stale.
                st.stats.stale_reads += 1;
            }
            return (cached.clone(), true);
        }
        let fresh = st.mem[loc.index()].clone();
        self.caches[pi].insert(loc, fresh.clone());
        (fresh, false)
    }

    /// Writes complete into memory but, except under SC, do not stall
    /// the core for remote acknowledgements.
    fn store(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite) -> bool {
        self.write(st, pi, w);
        st.model != MemoryModel::Sc
    }

    /// Sync reads are strong: always from shared memory.
    fn sync_load(&self, st: &MachineState, _pi: usize, loc: Location) -> MemCell {
        st.mem[loc.index()].clone()
    }

    fn sync_store(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite) {
        self.write(st, pi, w);
    }

    fn flush(&mut self, _mem: &mut [MemCell], pi: usize) -> Option<usize> {
        let n = self.queues[pi].len();
        for entry in self.queues[pi].drain(..) {
            self.caches[pi].remove(&entry.loc);
        }
        Some(n)
    }

    /// Any index is legal — invalidations commute.
    fn drain(&mut self, _mem: &mut [MemCell], pi: usize, index: usize) -> bool {
        if index >= self.queues[pi].len() {
            return false;
        }
        let entry = self.queues[pi].remove(index);
        self.caches[pi].remove(&entry.loc);
        true
    }

    fn drainable(&self, pi: usize) -> Vec<usize> {
        (0..self.queue(pi).len()).collect()
    }

    fn pending_len(&self, pi: usize) -> usize {
        self.queue(pi).len()
    }

    fn hash_into(&self, h: &mut DefaultHasher, behavioral: bool) {
        for (cache, queue) in self.caches.iter().zip(&self.queues) {
            let mut entries: Vec<_> = cache.iter().collect();
            entries.sort_by_key(|(l, _)| **l);
            if behavioral {
                entries.iter().for_each(|(l, c)| (l, c.value).hash(h));
                queue.iter().for_each(|q| q.loc.hash(h));
            } else {
                entries.hash(h);
                queue.hash(h);
            }
        }
    }
}

/// The one machine over per-core caches with invalidation queues.
pub type InvalMachine = Machine<InvalQueues>;

impl InvalMachine {
    /// Creates a machine at the program's initial state.
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

    /// `true` iff no processor has pending invalidations.
    pub fn queues_empty(&self) -> bool {
        self.pending_empty()
    }

    /// The pending invalidations of one processor, oldest first.
    pub fn queue(&self, proc: ProcId) -> &[PendingInval] {
        self.memory_system().queue(proc.index())
    }

    /// The cached copy a processor currently holds for a location, if
    /// any (test/diagnostic helper).
    pub fn cached(&self, proc: ProcId, loc: Location) -> Option<Value> {
        self.memory_system().caches.get(proc.index())?.get(&loc).map(|c| c.value)
    }

    /// Applies one pending invalidation (any index is legal —
    /// invalidations commute); [`drain_one`](Machine::drain_one) by its
    /// hardware name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcessor`] / [`SimError::BadDrain`].
    pub fn apply_one(&mut self, proc: ProcId, index: usize) -> Result<(), SimError> {
        self.drain_one(proc, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Instr, Operand, Reg};
    use wmrd_trace::NullSink;

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn machine(prog: Program, model: MemoryModel, fidelity: Fidelity) -> InvalMachine {
        InvalMachine::new(Arc::new(prog), model, fidelity, Timing::uniform()).unwrap()
    }

    fn store(imm: i64, loc: u32) -> Instr {
        Instr::St { src: Operand::Imm(imm), addr: Addr::Abs(l(loc)) }
    }

    fn load(r: u8, loc: u32) -> Instr {
        Instr::Ld { dst: Reg::new(r), addr: Addr::Abs(l(loc)) }
    }

    #[test]
    fn writes_complete_immediately_and_invalidate_others() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(7, 0), Instr::Halt]);
        prog.push_proc(vec![Instr::Halt]);
        let mut m = machine(prog, MemoryModel::Wo, Fidelity::Conditioned);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.memory_values()[0], Value::new(7), "write completes at once");
        assert_eq!(m.queue(p(1)).len(), 1, "other processor owes an invalidation");
        assert!(m.queue(p(0)).is_empty(), "writer owes nothing");
        assert_eq!(m.cached(p(0), l(0)), Some(Value::new(7)));
    }

    #[test]
    fn stale_read_from_cached_copy() {
        // P1 caches x=0, P0 writes x=1; until P1 applies the
        // invalidation it keeps reading 0.
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(1, 0), Instr::Halt]);
        prog.push_proc(vec![load(0, 0), load(1, 0), Instr::Halt]);
        let mut m = machine(prog, MemoryModel::Wo, Fidelity::Conditioned);
        let mut sink = NullSink::new();
        m.step(p(1), &mut sink).unwrap(); // P1 caches x=0
        m.step(p(0), &mut sink).unwrap(); // P0 writes x=1
        m.step(p(1), &mut sink).unwrap(); // P1 re-reads: stale
        assert_eq!(m.reg(p(1), Reg::new(1)), 0, "stale cached copy");
        // Apply the invalidation; a further read would now be fresh.
        m.apply_one(p(1), 0).unwrap();
        assert_eq!(m.cached(p(1), l(0)), None);
        assert!(m.queues_empty());
    }

    #[test]
    fn uncached_reads_are_fresh() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(9, 0), Instr::Halt]);
        prog.push_proc(vec![load(0, 0), Instr::Halt]);
        let mut m = machine(prog, MemoryModel::Wo, Fidelity::Conditioned);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(1), &mut sink).unwrap();
        assert_eq!(m.reg(p(1), Reg::new(0)), 9, "first read misses to memory");
    }

    #[test]
    fn acquire_flushes_under_every_conditioned_model() {
        for model in MemoryModel::WEAK {
            let mut prog = Program::new("t", 2);
            prog.push_proc(vec![
                load(0, 0), // cache x
                Instr::LdAcq { dst: Reg::new(1), addr: Addr::Abs(l(1)) },
                load(2, 0), // must be fresh after the acquire
                Instr::Halt,
            ]);
            prog.push_proc(vec![store(5, 0), Instr::Halt]);
            let mut m = machine(prog, model, Fidelity::Conditioned);
            let mut sink = NullSink::new();
            m.step(p(0), &mut sink).unwrap(); // cache x=0
            m.step(p(1), &mut sink).unwrap(); // write x=5, invalidate P0
            m.step(p(0), &mut sink).unwrap(); // acquire: flush
            assert!(m.queue(p(0)).is_empty(), "{model}: acquire applies invalidations");
            m.step(p(0), &mut sink).unwrap();
            assert_eq!(m.reg(p(0), Reg::new(2)), 5, "{model}: post-acquire read fresh");
        }
    }

    #[test]
    fn rcsc_release_does_not_flush_but_wo_sync_does() {
        let build = || {
            let mut prog = Program::new("t", 2);
            prog.push_proc(vec![
                load(0, 0), // cache x
                Instr::StSync { src: Operand::Imm(1), addr: Addr::Abs(l(1)) },
                Instr::Halt,
            ]);
            prog.push_proc(vec![store(5, 0), Instr::Halt]);
            prog
        };
        let mut sink = NullSink::new();

        let mut rcsc = machine(build(), MemoryModel::RCsc, Fidelity::Conditioned);
        rcsc.step(p(0), &mut sink).unwrap();
        rcsc.step(p(1), &mut sink).unwrap();
        rcsc.step(p(0), &mut sink).unwrap(); // plain sync write: no flush under RCsc
        assert_eq!(rcsc.queue(p(0)).len(), 1);

        let mut wo = machine(build(), MemoryModel::Wo, Fidelity::Conditioned);
        wo.step(p(0), &mut sink).unwrap();
        wo.step(p(1), &mut sink).unwrap();
        wo.step(p(0), &mut sink).unwrap(); // WO: every sync op flushes
        assert!(wo.queue(p(0)).is_empty());
    }

    #[test]
    fn raw_fidelity_never_flushes_implicitly() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            load(0, 0),
            Instr::LdAcq { dst: Reg::new(1), addr: Addr::Abs(l(1)) },
            load(2, 0),
            Instr::Halt,
        ]);
        prog.push_proc(vec![store(5, 0), Instr::Halt]);
        let mut m = machine(prog, MemoryModel::Wo, Fidelity::Raw);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(1), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap(); // acquire: no flush on raw hardware
        assert_eq!(m.queue(p(0)).len(), 1);
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(2)), 0, "stale read past an acquire");
    }

    #[test]
    fn fence_flushes() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![load(0, 0), Instr::Fence, Instr::Halt]);
        prog.push_proc(vec![store(1, 0), Instr::Halt]);
        let mut m = machine(prog, MemoryModel::RCsc, Fidelity::Conditioned);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(1), &mut sink).unwrap();
        assert_eq!(m.queue(p(0)).len(), 1);
        m.step(p(0), &mut sink).unwrap(); // fence
        assert!(m.queues_empty());
    }

    #[test]
    fn test_set_remains_atomic_and_strong() {
        let mut prog = Program::new("t", 1);
        let ts = Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) };
        prog.push_proc(vec![ts, Instr::Halt]);
        prog.push_proc(vec![ts, Instr::Halt]);
        let mut m = machine(prog, MemoryModel::RCsc, Fidelity::Conditioned);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(1), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 0);
        assert_eq!(m.reg(p(1), Reg::new(0)), 1, "sync ops bypass stale caches");
    }

    #[test]
    fn observed_writer_flows_through_cache() {
        use wmrd_trace::OpRecorder;
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(3, 0), Instr::Halt]);
        prog.push_proc(vec![load(0, 0), load(1, 0), Instr::Halt]);
        let mut m = machine(prog, MemoryModel::Wo, Fidelity::Conditioned);
        let mut rec = OpRecorder::new(2);
        m.step(p(0), &mut rec).unwrap();
        m.step(p(1), &mut rec).unwrap(); // miss: fresh, observes P0's write
        m.step(p(1), &mut rec).unwrap(); // hit: same copy, same writer
        let ops = rec.finish();
        let reads = ops.proc_ops(p(1)).unwrap();
        assert_eq!(reads[0].observed_write, Some(OpId::new(p(0), 0)));
        assert_eq!(reads[1].observed_write, Some(OpId::new(p(0), 0)));
    }

    #[test]
    fn drain_view_and_errors() {
        use crate::DrainView;
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(1, 0), store(2, 1), Instr::Halt]);
        prog.push_proc(vec![Instr::Nop, Instr::Halt]);
        let mut m = machine(prog, MemoryModel::Wo, Fidelity::Conditioned);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.pending_len(p(1)), 2);
        assert_eq!(m.drainable(p(1)), vec![0, 1]);
        assert_eq!(DrainView::num_procs(&m), 2);
        assert!(matches!(m.apply_one(p(1), 5), Err(SimError::BadDrain { .. })));
        assert!(matches!(m.apply_one(p(9), 0), Err(SimError::UnknownProcessor(_))));
        // Out-of-order application is legal for invalidations.
        m.apply_one(p(1), 1).unwrap();
        m.apply_one(p(1), 0).unwrap();
        assert!(m.queues_empty());
    }

    #[test]
    fn fingerprint_tracks_queues_and_caches() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(1, 0), Instr::Halt]);
        prog.push_proc(vec![load(0, 0), Instr::Halt]);
        let m0 = machine(prog, MemoryModel::Wo, Fidelity::Conditioned);
        let mut m1 = m0.clone();
        let mut sink = NullSink::new();
        m1.step(p(1), &mut sink).unwrap(); // caches a copy
        assert_ne!(m0.fingerprint(), m1.fingerprint());
        let mut m2 = m1.clone();
        m2.step(p(0), &mut sink).unwrap(); // enqueues an invalidation
        assert_ne!(m1.fingerprint(), m2.fingerprint());
    }
}
