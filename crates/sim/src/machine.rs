//! The one interpreter: in-order cores over a pluggable memory system.
//!
//! [`Machine`] executes a program as an interleaving of instructions on
//! [`CoreState`]'s interpreter. Everything a memory instruction does to
//! shared memory goes through the machine's [`MemorySystem`], so one
//! `step` serves every hardware style the paper's Theorem 3.5 ranges
//! over:
//!
//! * [`ScMemory`] completes every access against shared memory before
//!   the next step — Lamport's definition realized operationally. This
//!   is [`ScMachine`], the SC reference.
//! * [`StoreBuffers`](crate::StoreBuffers) delay data writes in
//!   per-processor buffers ([`WeakMachine`](crate::WeakMachine)).
//! * [`InvalQueues`](crate::InvalQueues) let readers keep stale cached
//!   copies until queued invalidations apply
//!   ([`InvalMachine`](crate::InvalMachine)).
//!
//! Which interleaving occurs is decided entirely by the caller (one
//! [`step`](Machine::step) or [`drain_one`](Machine::drain_one) call per
//! choice), so on top of this one machine we build seeded random
//! executions, scripted executions that reproduce the paper's figures,
//! and the exhaustive enumerators in `wmrd-verify`.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use wmrd_trace::{AccessKind, Location, OpId, ProcId, SyncRole, TraceSink, Value};

use crate::cpu::{LocalOutcome, MemInstr};
use crate::{
    Addr, BufferedWrite, CoreState, Fidelity, Instr, MemoryModel, Program, Reg, SimError, SimStats,
    Timing,
};

/// One word of simulated shared memory.
///
/// Besides the value, a cell remembers the identity of the write it holds
/// — that is how a read learns its `observed_write`, which in turn is how
/// `so1` pairing (Definition 2.1(3)) is made exact in traces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemCell {
    /// Current value.
    pub value: Value,
    /// Identity of the write that produced the value (`None` = initial).
    pub writer: Option<OpId>,
    /// `true` iff that write was a synchronization write.
    pub writer_sync: bool,
}

impl MemCell {
    /// A cell holding an initial (pre-execution) value.
    pub fn initial(value: Value) -> Self {
        MemCell { value, writer: None, writer_sync: false }
    }

    /// The cell a completed write leaves behind.
    pub(crate) fn written(value: Value, op: OpId, sync: bool) -> Self {
        MemCell { value, writer: Some(op), writer_sync: sync }
    }

    /// The `observed_release` for a synchronization read of this cell:
    /// the writer, if it was a synchronization write.
    pub fn sync_writer(&self) -> Option<OpId> {
        self.writer.filter(|_| self.writer_sync)
    }
}

/// What a [`Machine::step`] (or out-of-order step) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A local (register/branch/nop) instruction executed.
    Local,
    /// One or more data memory operations executed.
    Data,
    /// One or more synchronization memory operations executed.
    Sync,
    /// The processor executed `Halt` (now halted).
    Halt,
}

/// The state every machine shares: program, cores, shared memory, the
/// configured model, cycles and statistics.
///
/// [`Machine`] and [`OooMachine`](crate::OooMachine) both dereference
/// to it, so its accessors are theirs.
#[derive(Debug, Clone)]
pub struct MachineState {
    pub(crate) program: Arc<Program>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) mem: Vec<MemCell>,
    pub(crate) model: MemoryModel,
    pub(crate) fidelity: Fidelity,
    pub(crate) cycles: Vec<u64>,
    pub(crate) timing: Timing,
    pub(crate) steps: u64,
    pub(crate) stats: SimStats,
}

impl MachineState {
    /// Validates `program` and builds its initial state.
    pub(crate) fn new(
        program: Arc<Program>,
        model: MemoryModel,
        fidelity: Fidelity,
        timing: Timing,
    ) -> Result<Self, SimError> {
        program.validate()?;
        let n = program.num_procs();
        let cores = (0..n).map(|i| CoreState::new(ProcId::new(i as u16))).collect();
        let mem = program.initial_memory().into_iter().map(MemCell::initial).collect();
        let stats = SimStats::default();
        Ok(MachineState {
            program,
            cores,
            mem,
            model,
            fidelity,
            cycles: vec![0; n],
            timing,
            steps: 0,
            stats,
        })
    }

    /// Restores the program's initial state without re-validating or
    /// re-cloning the program.
    pub(crate) fn reset(&mut self) {
        for core in &mut self.cores {
            *core = CoreState::new(core.proc);
        }
        self.mem.clear();
        self.mem.extend(self.program.initial_memory().into_iter().map(MemCell::initial));
        self.cycles.iter_mut().for_each(|c| *c = 0);
        self.steps = 0;
        self.stats = SimStats::default();
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The memory model this machine implements ([`MemoryModel::Sc`] on
    /// the SC machine).
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Whether the machine honours Condition 3.4.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The state of one core.
    pub fn core(&self, proc: ProcId) -> Option<&CoreState> {
        self.cores.get(proc.index())
    }

    /// Per-processor accumulated cycles.
    pub fn cycles(&self) -> &[u64] {
        &self.cycles
    }

    /// Number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Deterministic execution statistics accumulated so far (not part of
    /// the architectural state: fingerprints ignore it).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Globally visible memory values (pending writes excluded).
    pub fn memory_values(&self) -> Vec<Value> {
        self.mem.iter().map(|c| c.value).collect()
    }

    /// Globally visible memory cells (values plus writer identities).
    pub fn memory(&self) -> &[MemCell] {
        &self.mem
    }

    /// `true` once every processor has halted (pending entries may
    /// remain).
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.is_halted())
    }

    /// The next instruction a processor would execute (`None` if halted
    /// or past the end of its code).
    pub fn next_instr(&self, proc: ProcId) -> Option<Instr> {
        let core = self.cores.get(proc.index())?;
        if core.is_halted() {
            return None;
        }
        self.program.proc_code(proc)?.get(core.pc()).copied()
    }

    /// Convenience: the value currently in a register of a core (returns
    /// 0 for unknown processors).
    pub fn reg(&self, proc: ProcId, r: Reg) -> i64 {
        self.cores.get(proc.index()).map_or(0, |c| c.reg(r))
    }

    /// The instruction `proc` executes next; running off the end of its
    /// code executes `Halt`.
    pub(crate) fn fetch(&self, proc: ProcId) -> Result<Instr, SimError> {
        let core = self.cores.get(proc.index()).ok_or(SimError::UnknownProcessor(proc))?;
        if core.is_halted() {
            return Err(SimError::Halted(proc));
        }
        let code = self.program.proc_code(proc);
        Ok(code.and_then(|c| c.get(core.pc())).copied().unwrap_or(Instr::Halt))
    }

    /// Resolves `addr` against processor `pi`'s registers.
    pub(crate) fn resolve(&self, pi: usize, addr: Addr) -> Result<Location, SimError> {
        self.cores[pi].resolve_addr(addr, self.program.num_locations())
    }

    /// Charges processor `pi` for a flush stall of `n` entries.
    pub(crate) fn charge_flush(&mut self, pi: usize, n: usize) {
        let stall = self.timing.drain_per_entry * n as u64;
        self.cycles[pi] += stall;
        self.stats.sync_flushes += 1;
        self.stats.flushed_entries += n as u64;
        self.stats.flush_stall_cycles += stall;
    }

    fn hash_into(&self, h: &mut DefaultHasher, behavioral: bool) {
        self.cores.hash(h);
        if behavioral {
            self.mem.iter().for_each(|c| c.value.hash(h));
        } else {
            self.mem.hash(h);
        }
    }
}

/// The memory side of a [`Machine`]: what reads observe, where writes
/// go, and which entries are still pending.
///
/// The machine owns shared memory (in [`MachineState`]) and calls these
/// hooks for every memory instruction; it charges cycles and counts the
/// operation, flush and drain statistics itself. Processors are passed by
/// index.
pub trait MemorySystem: Clone + fmt::Debug {
    /// An empty memory system for `procs` processors.
    fn new(procs: usize) -> Self;
    /// Discards every pending entry.
    fn clear(&mut self);
    /// `true` iff, with Condition 3.4 honoured under `model`, a
    /// synchronization access of `kind` and `role` first flushes the
    /// issuing processor's pending entries.
    fn flushes_at(model: MemoryModel, kind: AccessKind, role: SyncRole) -> bool;
    /// A data read of `loc` by `pi`: the cell it observes, and `true` if
    /// it was served locally (a forward or cache hit) rather than from
    /// shared memory.
    fn load(&mut self, st: &mut MachineState, pi: usize, loc: Location) -> (MemCell, bool);
    /// A data write by `pi`; `true` if the core does not stall for it.
    fn store(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite) -> bool;
    /// The cell a synchronization read of `loc` by `pi` observes.
    fn sync_load(&self, st: &MachineState, pi: usize, loc: Location) -> MemCell;
    /// A synchronization write by `pi`.
    fn sync_store(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite);
    /// Completes every pending entry of `pi`, returning how many; `None`
    /// if this memory system never holds any (nothing is then counted).
    fn flush(&mut self, mem: &mut [MemCell], pi: usize) -> Option<usize>;
    /// Completes pending entry `index` of `pi`; `false` (and no effect)
    /// if it is out of range or may not complete yet.
    fn drain(&mut self, mem: &mut [MemCell], pi: usize, index: usize) -> bool;
    /// Indices of `pi`'s pending entries that may complete now.
    fn drainable(&self, pi: usize) -> Vec<usize>;
    /// Number of pending entries of `pi` (0 for unknown processors).
    fn pending_len(&self, pi: usize) -> usize;
    /// Hashes the pending state; `behavioral` leaves out operation
    /// identities.
    fn hash_into(&self, h: &mut DefaultHasher, behavioral: bool);
}

/// Sequentially consistent memory: nothing is ever pending.
#[derive(Debug, Clone)]
pub struct ScMemory;

impl MemorySystem for ScMemory {
    fn new(_procs: usize) -> Self {
        ScMemory
    }

    fn clear(&mut self) {}

    fn flushes_at(_model: MemoryModel, _kind: AccessKind, _role: SyncRole) -> bool {
        false
    }

    fn load(&mut self, st: &mut MachineState, pi: usize, loc: Location) -> (MemCell, bool) {
        (self.sync_load(st, pi, loc), false)
    }

    fn store(&mut self, st: &mut MachineState, pi: usize, w: BufferedWrite) -> bool {
        self.sync_store(st, pi, w);
        false
    }

    fn sync_load(&self, st: &MachineState, _pi: usize, loc: Location) -> MemCell {
        st.mem[loc.index()].clone()
    }

    fn sync_store(&mut self, st: &mut MachineState, _pi: usize, w: BufferedWrite) {
        st.mem[w.loc.index()] = w.cell();
    }

    fn flush(&mut self, _mem: &mut [MemCell], _pi: usize) -> Option<usize> {
        None
    }

    fn drain(&mut self, _mem: &mut [MemCell], _pi: usize, _index: usize) -> bool {
        false
    }

    fn drainable(&self, _pi: usize) -> Vec<usize> {
        Vec::new()
    }

    fn pending_len(&self, _pi: usize) -> usize {
        0
    }

    fn hash_into(&self, _h: &mut DefaultHasher, _behavioral: bool) {}
}

/// A multiprocessor of in-order cores over memory system `M`.
///
/// Cloning is cheap-ish (the program is shared via [`Arc`]); the
/// exhaustive enumerators clone machines at scheduling branch points.
/// The shared accessors (cycles, memory, registers, …) come from
/// [`MachineState`].
#[derive(Debug, Clone)]
pub struct Machine<M> {
    state: MachineState,
    sys: M,
}

/// The sequentially consistent machine.
pub type ScMachine = Machine<ScMemory>;

impl<M> Deref for Machine<M> {
    type Target = MachineState;

    fn deref(&self) -> &MachineState {
        &self.state
    }
}

impl ScMachine {
    /// Creates a machine at the program's initial state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if the program fails
    /// [`Program::validate`].
    pub fn new(program: Arc<Program>, timing: Timing) -> Result<Self, SimError> {
        Machine::build(program, MemoryModel::Sc, Fidelity::Conditioned, timing)
    }
}

impl<M: MemorySystem> Machine<M> {
    /// Creates a machine over an empty `M` at the program's initial
    /// state.
    pub(crate) fn build(
        program: Arc<Program>,
        model: MemoryModel,
        fidelity: Fidelity,
        timing: Timing,
    ) -> Result<Self, SimError> {
        let state = MachineState::new(program, model, fidelity, timing)?;
        let sys = M::new(state.cores.len());
        Ok(Machine { state, sys })
    }

    /// The memory system.
    pub(crate) fn memory_system(&self) -> &M {
        &self.sys
    }

    /// Restores the machine to the program's initial state without
    /// re-validating or re-cloning the program — the cheap path campaign
    /// engines take between seeds. Pending entries are discarded, not
    /// completed: the caller is abandoning the previous execution.
    pub fn reset(&mut self) {
        self.state.reset();
        self.sys.clear();
    }

    /// Processors that can still make progress.
    pub fn runnable(&self) -> Vec<ProcId> {
        self.state.cores.iter().filter(|c| !c.is_halted()).map(|c| c.proc).collect()
    }

    /// `true` iff no processor has a pending entry.
    pub(crate) fn pending_empty(&self) -> bool {
        (0..self.state.cores.len()).all(|pi| self.sys.pending_len(pi) == 0)
    }

    /// A hash of the architectural state (cores, memory and pending
    /// entries), used by the enumerators to prune converged schedules.
    pub fn fingerprint(&self) -> u64 {
        self.hash(false)
    }

    /// A hash of the *behavioral* state: cores, memory values and pending
    /// entries, ignoring writer identities. Two states with equal
    /// behavioral fingerprints produce identical future values — a failed
    /// `Test&Set` spin iteration returns to the same behavioral state
    /// even though each iteration's write gets a fresh operation id. The
    /// enumerators use this to bound spin-loop unrolling.
    pub fn behavioral_fingerprint(&self) -> u64 {
        self.hash(true)
    }

    fn hash(&self, behavioral: bool) -> u64 {
        let mut h = DefaultHasher::new();
        self.state.hash_into(&mut h, behavioral);
        self.sys.hash_into(&mut h, behavioral);
        h.finish()
    }

    /// Pending entries of `proc` that may legally complete *now*.
    pub fn drainable_indices(&self, proc: ProcId) -> Vec<usize> {
        self.sys.drainable(proc.index())
    }

    /// Completes one pending entry of `proc` in the background. Background
    /// drains model the memory system working in parallel with the
    /// cores, so they charge no cycles.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownProcessor`] for a bad `proc`.
    /// * [`SimError::BadDrain`] if `index` is out of range or may not
    ///   complete yet.
    pub fn drain_one(&mut self, proc: ProcId, index: usize) -> Result<(), SimError> {
        let pi = self.index(proc)?;
        if !self.sys.drain(&mut self.state.mem, pi, index) {
            return Err(SimError::BadDrain { proc, index, len: self.sys.pending_len(pi) });
        }
        self.state.stats.background_drains += 1;
        Ok(())
    }

    /// Completes every pending entry of `proc`, charging the core
    /// `drain_per_entry` cycles per entry (the *stall* at a flush point,
    /// unlike background [`drain_one`](Self::drain_one)). Returns the
    /// number of entries completed; SC memory has none and counts no
    /// flush.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcessor`] for a bad `proc`.
    pub fn flush(&mut self, proc: ProcId) -> Result<usize, SimError> {
        let pi = self.index(proc)?;
        let Some(n) = self.sys.flush(&mut self.state.mem, pi) else { return Ok(0) };
        self.state.charge_flush(pi, n);
        Ok(n)
    }

    fn index(&self, proc: ProcId) -> Result<usize, SimError> {
        let pi = proc.index();
        if pi < self.state.cores.len() {
            Ok(pi)
        } else {
            Err(SimError::UnknownProcessor(proc))
        }
    }

    /// `true` iff a synchronization access of `kind` and `role` flushes
    /// the issuing processor first.
    fn flushes_at(&self, kind: AccessKind, role: SyncRole) -> bool {
        self.state.fidelity == Fidelity::Conditioned && M::flushes_at(self.state.model, kind, role)
    }

    /// Executes one instruction on `proc`, reporting memory operations to
    /// `sink`.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownProcessor`] / [`SimError::Halted`] for bad
    ///   `proc`.
    /// * [`SimError::BadAddress`] / [`SimError::BadLocation`] for wild
    ///   indirect accesses.
    pub fn step<S: TraceSink>(
        &mut self,
        proc: ProcId,
        sink: &mut S,
    ) -> Result<StepEvent, SimError> {
        let instr = self.state.fetch(proc)?;
        let pi = proc.index();
        let st = &mut self.state;
        st.steps += 1;
        match st.cores[pi].exec_local(&instr) {
            LocalOutcome::Done => {
                st.cycles[pi] += st.timing.local_op;
                let halted = matches!(instr, Instr::Halt);
                return Ok(if halted { StepEvent::Halt } else { StepEvent::Local });
            }
            LocalOutcome::Halted => return Err(SimError::Halted(proc)),
            LocalOutcome::NeedsMemory => {}
        }
        let op = MemInstr::decode(&instr).expect("exec_local handles all local instructions");
        let (event, cost) = match op {
            MemInstr::Load { dst, addr, sync: None } => {
                let loc = self.state.resolve(pi, addr)?;
                let (cell, local) = self.sys.load(&mut self.state, pi, loc);
                sink.data_access(proc, loc, AccessKind::Read, cell.value, cell.writer);
                self.state.cores[pi].complete_load(dst, cell.value);
                self.state.stats.data_reads += 1;
                let t = &self.state.timing;
                (StepEvent::Data, if local { t.buffer_hit } else { t.mem_access })
            }
            MemInstr::Store { src, addr, sync: None } => {
                let loc = self.state.resolve(pi, addr)?;
                let value = Value::new(self.state.cores[pi].operand(src));
                let id = sink.data_access(proc, loc, AccessKind::Write, value, None);
                let w = BufferedWrite { loc, value, op: id, sync: false };
                let buffered = self.sys.store(&mut self.state, pi, w);
                self.state.stats.data_writes += 1;
                let t = &self.state.timing;
                (StepEvent::Data, if buffered { t.buffered_write } else { t.mem_access })
            }
            MemInstr::Load { dst, addr, sync: Some(role) } => {
                let loc = self.state.resolve(pi, addr)?;
                if self.flushes_at(AccessKind::Read, role) {
                    self.flush(proc)?;
                }
                let cell = self.sys.sync_load(&self.state, pi, loc);
                sink.sync_access(proc, loc, AccessKind::Read, role, cell.value, cell.sync_writer());
                self.state.cores[pi].complete_load(dst, cell.value);
                self.state.stats.sync_ops += 1;
                (StepEvent::Sync, self.state.timing.mem_access)
            }
            MemInstr::Store { src, addr, sync: Some(role) } => {
                let loc = self.state.resolve(pi, addr)?;
                let value = Value::new(self.state.cores[pi].operand(src));
                let id = sink.sync_access(proc, loc, AccessKind::Write, role, value, None);
                if self.flushes_at(AccessKind::Write, role) {
                    self.flush(proc)?;
                }
                let w = BufferedWrite { loc, value, op: id, sync: true };
                self.sys.sync_store(&mut self.state, pi, w);
                self.state.stats.sync_ops += 1;
                (StepEvent::Sync, self.state.timing.mem_access)
            }
            MemInstr::TestSet { dst, addr } => {
                let loc = self.state.resolve(pi, addr)?;
                if self.flushes_at(AccessKind::Read, SyncRole::Acquire)
                    || self.flushes_at(AccessKind::Write, SyncRole::None)
                {
                    self.flush(proc)?;
                }
                let old = self.sys.sync_load(&self.state, pi, loc);
                let (read, acq) = (AccessKind::Read, SyncRole::Acquire);
                sink.sync_access(proc, loc, read, acq, old.value, old.sync_writer());
                let set = Value::new(1);
                let wid = sink.sync_access(proc, loc, AccessKind::Write, SyncRole::None, set, None);
                let w = BufferedWrite { loc, value: set, op: wid, sync: true };
                self.sys.sync_store(&mut self.state, pi, w);
                self.state.cores[pi].complete_load(dst, old.value);
                self.state.stats.sync_ops += 2;
                (StepEvent::Sync, self.state.timing.mem_access)
            }
            MemInstr::Fence => {
                self.flush(proc)?;
                (StepEvent::Local, self.state.timing.local_op)
            }
        };
        self.state.cycles[pi] += cost;
        self.state.cores[pi].advance_pc();
        Ok(event)
    }
}

impl<M: MemorySystem> crate::DrainView for Machine<M> {
    fn runnable_procs(&self) -> Vec<ProcId> {
        self.runnable()
    }

    fn drainable(&self, proc: ProcId) -> Vec<usize> {
        self.drainable_indices(proc)
    }

    fn pending_len(&self, proc: ProcId) -> usize {
        self.sys.pending_len(proc.index())
    }

    fn num_procs(&self) -> usize {
        self.state.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Operand};
    use wmrd_trace::{Location, NullSink, OpRecorder};

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn machine(prog: Program) -> ScMachine {
        ScMachine::new(Arc::new(prog), Timing::uniform()).unwrap()
    }

    #[test]
    fn store_then_load_same_proc() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            Instr::St { src: Operand::Imm(7), addr: Addr::Abs(l(0)) },
            Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        let mut m = machine(prog);
        let mut sink = NullSink::new();
        assert_eq!(m.step(p(0), &mut sink).unwrap(), StepEvent::Data);
        assert_eq!(m.step(p(0), &mut sink).unwrap(), StepEvent::Data);
        assert_eq!(m.reg(p(0), Reg::new(0)), 7);
        assert_eq!(m.step(p(0), &mut sink).unwrap(), StepEvent::Halt);
        assert!(m.all_halted());
        assert!(m.runnable().is_empty());
        assert_eq!(m.steps(), 3);
    }

    #[test]
    fn observed_write_identity_flows_to_sink() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![
            Instr::St { src: Operand::Imm(3), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        prog.push_proc(vec![Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        let mut m = machine(prog);
        let mut rec = OpRecorder::new(2);
        m.step(p(0), &mut rec).unwrap();
        m.step(p(1), &mut rec).unwrap();
        let ops = rec.finish();
        let read = &ops.proc_ops(p(1)).unwrap()[0];
        assert_eq!(read.observed_write, Some(OpId::new(p(0), 0)));
        assert_eq!(read.value, Value::new(3));
    }

    #[test]
    fn read_of_initial_value_observes_none() {
        let mut prog = Program::new("t", 1);
        prog.set_init(l(0), Value::new(37));
        prog.push_proc(vec![Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        let mut m = machine(prog);
        let mut rec = OpRecorder::new(1);
        m.step(p(0), &mut rec).unwrap();
        let ops = rec.finish();
        let read = &ops.proc_ops(p(0)).unwrap()[0];
        assert_eq!(read.observed_write, None);
        assert_eq!(read.value, Value::new(37));
        assert_eq!(m.reg(p(0), Reg::new(0)), 37);
    }

    #[test]
    fn test_set_is_atomic_and_reports_two_sync_ops() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        prog.push_proc(vec![
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        let mut m = machine(prog);
        let mut rec = OpRecorder::new(2);
        assert_eq!(m.step(p(0), &mut rec).unwrap(), StepEvent::Sync);
        assert_eq!(m.step(p(1), &mut rec).unwrap(), StepEvent::Sync);
        // First T&S sees 0 (success); second sees 1 (failure).
        assert_eq!(m.reg(p(0), Reg::new(0)), 0);
        assert_eq!(m.reg(p(1), Reg::new(0)), 1);
        let ops = rec.finish();
        assert_eq!(ops.proc_ops(p(0)).unwrap().len(), 2, "read + write");
        // P1's acquire read observed P0's test&set write.
        let acq = &ops.proc_ops(p(1)).unwrap()[0];
        assert_eq!(acq.observed_write, Some(OpId::new(p(0), 1)));
    }

    #[test]
    fn unset_release_pairs_with_test_set_acquire() {
        let mut prog = Program::new("t", 1);
        prog.set_init(l(0), Value::new(1)); // lock initially held
        prog.push_proc(vec![Instr::Unset { addr: Addr::Abs(l(0)) }, Instr::Halt]);
        prog.push_proc(vec![
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        let mut m = machine(prog);
        let mut rec = OpRecorder::new(2);
        m.step(p(0), &mut rec).unwrap();
        m.step(p(1), &mut rec).unwrap();
        assert_eq!(m.reg(p(1), Reg::new(0)), 0, "test&set succeeded after unset");
        let ops = rec.finish();
        let acq = &ops.proc_ops(p(1)).unwrap()[0];
        assert_eq!(acq.observed_write, Some(OpId::new(p(0), 0)), "acquire observed the release");
    }

    #[test]
    fn data_write_not_reported_as_sync_writer() {
        // A sync read that observes a *data* write must not report an
        // observed_release (releases are sync writes by definition).
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![
            Instr::St { src: Operand::Imm(0), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        prog.push_proc(vec![Instr::LdAcq { dst: Reg::new(0), addr: Addr::Abs(l(0)) }, Instr::Halt]);
        let mut m = machine(prog);
        let mut rec = OpRecorder::new(2);
        m.step(p(0), &mut rec).unwrap();
        m.step(p(1), &mut rec).unwrap();
        let ops = rec.finish();
        let acq = &ops.proc_ops(p(1)).unwrap()[0];
        assert_eq!(acq.observed_write, None);
    }

    #[test]
    fn indirect_addressing() {
        let mut prog = Program::new("t", 16);
        prog.push_proc(vec![
            Instr::Li { dst: Reg::new(1), imm: 8 },
            Instr::St { src: Operand::Imm(5), addr: Addr::Ind { base: Reg::new(1), offset: 2 } },
            Instr::Halt,
        ]);
        let mut m = machine(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.memory_values()[10], Value::new(5));
    }

    #[test]
    fn wild_indirect_address_errors() {
        let mut prog = Program::new("t", 4);
        prog.push_proc(vec![
            Instr::Li { dst: Reg::new(1), imm: 99 },
            Instr::Ld { dst: Reg::new(0), addr: Addr::Ind { base: Reg::new(1), offset: 0 } },
            Instr::Halt,
        ]);
        let mut m = machine(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert!(matches!(m.step(p(0), &mut sink), Err(SimError::BadAddress { .. })));
    }

    #[test]
    fn step_errors() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![Instr::Halt]);
        let mut m = machine(prog);
        let mut sink = NullSink::new();
        assert!(matches!(m.step(p(5), &mut sink), Err(SimError::UnknownProcessor(_))));
        m.step(p(0), &mut sink).unwrap();
        assert!(matches!(m.step(p(0), &mut sink), Err(SimError::Halted(_))));
    }

    #[test]
    fn running_off_code_end_halts() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![Instr::Nop]);
        let mut m = machine(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.step(p(0), &mut sink).unwrap(), StepEvent::Halt);
        assert!(m.all_halted());
    }

    #[test]
    fn fence_is_noop_on_sc() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![Instr::Fence, Instr::Halt]);
        let mut m = machine(prog);
        let mut sink = NullSink::new();
        assert_eq!(m.step(p(0), &mut sink).unwrap(), StepEvent::Local);
    }

    #[test]
    fn sc_timing_stalls_every_memory_op() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![
            Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) },
            Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Nop,
            Instr::Halt,
        ]);
        let mut m = ScMachine::new(Arc::new(prog), Timing::default_model()).unwrap();
        let mut sink = NullSink::new();
        for _ in 0..4 {
            m.step(p(0), &mut sink).unwrap();
        }
        // 10 + 10 + 1 + 1
        assert_eq!(m.cycles()[0], 22);
    }

    #[test]
    fn fingerprint_distinguishes_states() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![
            Instr::St { src: Operand::Imm(1), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        let m0 = machine(prog);
        let mut m1 = m0.clone();
        assert_eq!(m0.fingerprint(), m1.fingerprint());
        let mut sink = NullSink::new();
        m1.step(p(0), &mut sink).unwrap();
        assert_ne!(m0.fingerprint(), m1.fingerprint());
    }

    #[test]
    fn next_instr_reports_upcoming_instruction() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![Instr::Nop, Instr::Halt]);
        let mut m = machine(prog);
        assert_eq!(m.next_instr(p(0)), Some(Instr::Nop));
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.next_instr(p(0)), Some(Instr::Halt));
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.next_instr(p(0)), None, "halted processors have no next instruction");
    }
}
