//! The out-of-order machine: a speculative pipelined core per processor.
//!
//! [`OooMachine`] is the workspace's third weak-hardware backend and its
//! most realistic one. Where [`WeakMachine`](crate::WeakMachine) models
//! only writer-side reordering (store buffers) and
//! [`InvalMachine`](crate::InvalMachine) only reader-side staleness
//! (invalidation queues), this machine models the place real weak
//! behaviour originates: a speculative out-of-order pipeline. It shares
//! the in-order machine's [`MachineState`], its core interpreter and ALU,
//! and its [`StoreBuffers`]. Each core has
//!
//! * a **reorder buffer** (ROB) holding in-flight memory operations in
//!   program order, retired strictly in order;
//! * **register renaming via an alias table** (RAT): each register
//!   tracks its newest in-flight producer, so younger independent
//!   instructions proceed while older loads are still waiting on memory;
//! * **reservation stations** holding register-only instructions whose
//!   operands are not ready yet; they execute the moment the last
//!   operand arrives on the bypass network;
//! * a **store buffer** fed by retired stores, drained to shared memory
//!   out of order (per-location program order preserved), forwarding to
//!   younger loads of the same core; and
//! * **load-fill slots**: an issued load occupies its ROB slot with no
//!   value until a scheduler-chosen *fill* binds it from memory (or from
//!   an older in-flight store) — so loads complete out of program order,
//!   the reader-side reordering neither other backend can exhibit.
//!
//! All nondeterminism stays in the scheduler, exactly as for the other
//! weak machines: `Step(p)` issues (or, for a stalled pipeline, forces
//! one fill), and `Drain(p, i)` completes one pending entry — a load
//! fill or a store-buffer drain. The machine itself has no randomness,
//! so a fixed program and scheduler seed produce byte-identical traces
//! and statistics at any worker count.
//!
//! With [`Fidelity::Conditioned`] (the default) the machine honours the
//! paper's Condition 3.4: fences and synchronization *writes* drain the
//! ROB and store buffer before executing strongly (retirement
//! atomicity — slightly more conservative than the store-buffer machine,
//! which lets RCsc `Test&Set` writes bypass a full flush), and
//! synchronization *reads* drain according to
//! [`MemoryModel::sync_read_drains`] — so under RCsc/DRF1 an acquire may
//! still overlap older pending data loads, the reordering release
//! consistency permits. Every execution therefore has a sequentially
//! consistent completion per partition. With [`Fidelity::Raw`],
//! synchronization operations enter the speculative window like data
//! operations and nothing drains implicitly (explicit `Fence` still
//! does); that hypothetical hardware violates Condition 3.4 and exists
//! for the same ablation as the raw store-buffer machine.
//!
//! Traces stay exact: every memory operation is reported to the
//! [`TraceSink`] at *retirement*, which is in program order per
//! processor, so operation identities, pairing, and the v2 trace format
//! are unchanged and the whole analysis pipeline (analyze, serve,
//! stream, predict) consumes OoO traces without modification. Values and
//! observed writers are captured at fill time; forwards from a
//! not-yet-retired store are resolved to the store's operation id when
//! the store retires, which in-order retirement guarantees happens
//! before the forwarded load retires.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use wmrd_trace::{AccessKind, Location, OpId, ProcId, SyncRole, TraceSink, Value};

use crate::cpu::{AluOp, LocalOutcome, MemInstr};
use crate::machine::{MachineState, MemCell};
use crate::{
    BufferedWrite, CoreState, Fidelity, Instr, MemoryModel, MemorySystem, Operand, Program, Reg,
    SimError, StepEvent, StoreBuffers, Timing,
};

/// Reorder-buffer capacity per core: the speculation window. A core
/// whose ROB is full stalls until the scheduler fills the load at its
/// head.
const ROB_CAPACITY: usize = 16;

/// Reservation-station capacity per core.
const STATION_CAPACITY: usize = 8;

/// Where a load's value (or a sync read's observed write) came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FillSrc {
    /// Forwarded from an older in-flight store still in the ROB,
    /// identified by its serial; rewritten to [`FillSrc::Resolved`] when
    /// that store retires and receives its operation id.
    Rob { serial: u64, sync: bool },
    /// A resolved writer identity: from the store buffer, from global
    /// memory, or a patched ROB forward.
    Resolved { writer: Option<OpId>, writer_sync: bool },
}

impl FillSrc {
    fn resolved(self) -> (Option<OpId>, bool) {
        match self {
            // In-order retirement resolves every ROB forward before the
            // consuming entry retires.
            FillSrc::Rob { .. } => unreachable!("unresolved ROB forward at retirement"),
            FillSrc::Resolved { writer, writer_sync } => (writer, writer_sync),
        }
    }
}

/// A bound load value: what was read, from where, and whether it was a
/// store forward (for timing and statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Fill {
    value: Value,
    src: FillSrc,
    from_forward: bool,
}

/// Data access or hardware-recognized synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum AccessClass {
    Data,
    Sync(SyncRole),
}

/// One in-flight memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RobOp {
    /// A load. `fill` is `None` until the scheduler (or a pipeline
    /// drain) binds its value; `tag` is its rename tag in the RAT.
    Read { dst: Reg, tag: u64, loc: Location, class: AccessClass, fill: Option<Fill> },
    /// A store. Non-strong stores enter the store buffer at retirement;
    /// strong stores (SC model, conditioned sync writes — only ever
    /// pushed onto an empty ROB) write shared memory at retirement.
    Write { loc: Location, value: Value, class: AccessClass, strong: bool },
    /// A `Test&Set`: the read bound at issue, the write completing at
    /// retirement (strongly when conditioned, else into the store
    /// buffer).
    TestSet { loc: Location, old: Value, observed: FillSrc, strong: bool },
}

/// One reorder-buffer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RobEntry {
    serial: u64,
    op: RobOp,
}

impl RobEntry {
    fn complete(&self) -> bool {
        match self.op {
            RobOp::Read { fill, .. } => fill.is_some(),
            RobOp::Write { .. } | RobOp::TestSet { .. } => true,
        }
    }
}

/// A reservation-station operand: a captured value or a wait on the
/// bypass tag of an in-flight producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Src {
    Val(i64),
    Tag(u64),
}

/// A deferred register-only instruction waiting for operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Station {
    tag: u64,
    dst: Reg,
    kind: AluOp,
    a: Src,
    b: Src,
}

impl Station {
    /// Both operand values, once they have arrived.
    fn operands(&self) -> Option<(i64, i64)> {
        match (self.a, self.b) {
            (Src::Val(a), Src::Val(b)) => Some((a, b)),
            _ => None,
        }
    }

    fn subst(&mut self, tag: u64, value: i64) {
        if self.a == Src::Tag(tag) {
            self.a = Src::Val(value);
        }
        if self.b == Src::Tag(tag) {
            self.b = Src::Val(value);
        }
    }
}

/// Register alias table: each architectural register is `Ready` (its
/// value is in the register file) or `Pending` on the bypass tag of its
/// newest in-flight producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RegStatus {
    Ready,
    Pending(u64),
}

/// A pending pipeline entry the scheduler can complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingRef {
    /// ROB position of an unfilled load.
    Fill(usize),
    /// Store-buffer index.
    Buf(usize),
}

/// A multiprocessor of speculative out-of-order pipelined cores,
/// parameterized by weak memory model and fidelity to Condition 3.4.
#[derive(Debug, Clone)]
///
/// The shared accessors (cycles, memory, registers, …) come from
/// [`MachineState`].
pub struct OooMachine {
    state: MachineState,
    robs: Vec<Vec<RobEntry>>,
    stations: Vec<Vec<Station>>,
    rats: Vec<[RegStatus; crate::NUM_REGS]>,
    bufs: StoreBuffers,
    serials: Vec<u64>,
}

impl Deref for OooMachine {
    type Target = MachineState;

    fn deref(&self) -> &MachineState {
        &self.state
    }
}

impl OooMachine {
    /// Creates a machine at the program's initial state.
    ///
    /// Passing [`MemoryModel::Sc`] disables speculation entirely — every
    /// operation executes strongly at issue and retires immediately —
    /// mirroring the bufferless SC mode of the other weak machines.
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
        let state = MachineState::new(program, model, fidelity, timing)?;
        let n = state.cores.len();
        Ok(OooMachine {
            state,
            robs: vec![Vec::new(); n],
            stations: vec![Vec::new(); n],
            rats: vec![[RegStatus::Ready; crate::NUM_REGS]; n],
            bufs: StoreBuffers::new(n),
            serials: vec![0; n],
        })
    }

    /// Restores the machine to the program's initial state without
    /// re-validating or re-cloning the program. In-flight state is
    /// discarded, not drained — the caller is abandoning the previous
    /// execution.
    pub fn reset(&mut self) {
        self.state.reset();
        self.robs.iter_mut().for_each(Vec::clear);
        self.stations.iter_mut().for_each(Vec::clear);
        self.rats.iter_mut().for_each(|r| r.fill(RegStatus::Ready));
        self.bufs.clear();
        self.serials.iter_mut().for_each(|s| *s = 0);
    }

    /// Memory values as every write *will* land once the pipelines and
    /// store buffers drain: global memory overlaid with the store
    /// buffers, then with in-flight ROB stores (youngest last).
    pub fn settled_memory_values(&self) -> Vec<Value> {
        let mut mem = self.memory_values();
        for (pi, rob) in self.robs.iter().enumerate() {
            self.bufs.overlay(pi, &mut mem);
            for e in rob {
                match e.op {
                    RobOp::Write { loc, value, .. } => mem[loc.index()] = value,
                    RobOp::TestSet { loc, .. } => mem[loc.index()] = Value::new(1),
                    RobOp::Read { .. } => {}
                }
            }
        }
        mem
    }

    /// Processors that can issue an instruction right now: not halted
    /// and not stalled on a pending operand, a full ROB, or full
    /// reservation stations.
    pub fn runnable(&self) -> Vec<ProcId> {
        self.state
            .cores
            .iter()
            .filter(|c| !c.is_halted() && self.can_issue(c.proc))
            .map(|c| c.proc)
            .collect()
    }

    /// `true` iff no ROB entry, reservation station, or buffered write
    /// is pending anywhere.
    pub fn pipelines_empty(&self) -> bool {
        self.robs.iter().all(Vec::is_empty)
            && self.stations.iter().all(Vec::is_empty)
            && (0..self.state.cores.len()).all(|pi| self.bufs.pending_len(pi) == 0)
    }

    /// The retired-but-undrained writes of one processor, oldest first.
    pub fn store_buffer(&self, proc: ProcId) -> &[BufferedWrite] {
        self.bufs.buffer(proc.index())
    }

    /// Number of in-flight ROB entries for one processor.
    pub fn rob_len(&self, proc: ProcId) -> usize {
        self.robs.get(proc.index()).map_or(0, Vec::len)
    }

    /// Number of issued loads still waiting for their fill.
    pub fn pending_fills(&self, proc: ProcId) -> usize {
        self.robs.get(proc.index()).map_or(0, |rob| rob.iter().filter(|e| !e.complete()).count())
    }

    /// A hash of the architectural + microarchitectural state.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.state.cores.hash(&mut h);
        self.state.mem.hash(&mut h);
        self.robs.hash(&mut h);
        self.stations.hash(&mut h);
        self.rats.hash(&mut h);
        self.bufs.hash_into(&mut h, false);
        h.finish()
    }

    /// The pending pipeline entries of `proc`: unfilled loads in ROB
    /// order, then store-buffer entries oldest first.
    fn pending(&self, proc: ProcId) -> Vec<PendingRef> {
        let mut refs = Vec::new();
        if let Some(rob) = self.robs.get(proc.index()) {
            for (i, e) in rob.iter().enumerate() {
                if !e.complete() {
                    refs.push(PendingRef::Fill(i));
                }
            }
        }
        refs.extend((0..self.bufs.pending_len(proc.index())).map(PendingRef::Buf));
        refs
    }

    /// Pending entries of `proc` that may legally complete *now*: every
    /// unfilled load (fills carry no ordering constraint — the
    /// speculative window is what reorders them), and every store-buffer
    /// entry with no older same-location entry (coherence).
    pub fn drainable_indices(&self, proc: ProcId) -> Vec<usize> {
        if proc.index() >= self.state.cores.len() {
            return Vec::new();
        }
        let fills = self.pending_fills(proc);
        let bufs = self.bufs.drainable(proc.index()).into_iter().map(|i| fills + i);
        (0..fills).chain(bufs).collect()
    }

    /// Whether `proc` can issue its next instruction: every operand the
    /// front end needs (branch conditions, address bases, store data)
    /// is rename-table ready, and the pipeline has space.
    fn can_issue(&self, proc: ProcId) -> bool {
        let Some(instr) = self.state.next_instr(proc) else { return true };
        let pi = proc.index();
        let ready = |r: Reg| self.rats[pi][r.index()] == RegStatus::Ready;
        let op_ready = |o: Operand| match o {
            Operand::Reg(r) => ready(r),
            Operand::Imm(_) => true,
        };
        let addr_ready = |a: crate::Addr| match a {
            crate::Addr::Abs(_) => true,
            crate::Addr::Ind { base, .. } => ready(base),
        };
        let rob_space = self.robs[pi].len() < ROB_CAPACITY;
        let station_space = self.stations[pi].len() < STATION_CAPACITY;
        match instr {
            Instr::Li { .. } | Instr::Jmp { .. } | Instr::Nop | Instr::Halt | Instr::Fence => true,
            Instr::Mov { src, .. } => ready(src) || station_space,
            Instr::Add { a, b, .. }
            | Instr::Sub { a, b, .. }
            | Instr::Mul { a, b, .. }
            | Instr::CmpEq { a, b, .. }
            | Instr::CmpLt { a, b, .. } => (ready(a) && op_ready(b)) || station_space,
            Instr::Bz { cond, .. } | Instr::Bnz { cond, .. } => ready(cond),
            Instr::Ld { addr, .. } | Instr::LdAcq { addr, .. } | Instr::LdSync { addr, .. } => {
                addr_ready(addr) && rob_space
            }
            Instr::St { src, addr } | Instr::StRel { src, addr } | Instr::StSync { src, addr } => {
                op_ready(src) && addr_ready(addr) && rob_space
            }
            Instr::TestSet { addr, .. } | Instr::Unset { addr } => addr_ready(addr) && rob_space,
        }
    }

    /// The value `proc` would read from `loc`, forwarding from the
    /// newest older in-flight or buffered store: ROB stores with serial
    /// below `before` (youngest first), then the store buffer (youngest
    /// first), then global memory.
    fn visible_before(&self, proc: ProcId, loc: Location, before: u64) -> (Value, FillSrc, bool) {
        let pi = proc.index();
        for e in self.robs[pi].iter().rev() {
            if e.serial >= before {
                continue;
            }
            match e.op {
                RobOp::Write { loc: l, value, class, strong: false } if l == loc => {
                    let sync = matches!(class, AccessClass::Sync(_));
                    return (value, FillSrc::Rob { serial: e.serial, sync }, true);
                }
                RobOp::TestSet { loc: l, strong: false, .. } if l == loc => {
                    return (Value::new(1), FillSrc::Rob { serial: e.serial, sync: true }, true);
                }
                _ => {}
            }
        }
        let forward = self.bufs.forward(pi, loc);
        let from_forward = forward.is_some();
        let cell = forward.unwrap_or_else(|| self.state.mem[loc.index()].clone());
        let src = FillSrc::Resolved { writer: cell.writer, writer_sync: cell.writer_sync };
        (cell.value, src, from_forward)
    }

    fn strong_write(&mut self, loc: Location, value: Value, op: OpId, sync: bool) {
        self.state.mem[loc.index()] = MemCell::written(value, op, sync);
    }

    /// Delivers a bypass value: wakes reservation stations waiting on
    /// `tag`, executes every station that becomes ready (in allocation
    /// order), and cascades their results.
    fn deliver(&mut self, pi: usize, tag: u64, value: i64) {
        let mut worklist = vec![(tag, value)];
        while let Some((t, v)) = worklist.pop() {
            for st in &mut self.stations[pi] {
                st.subst(t, v);
            }
            let mut i = 0;
            while i < self.stations[pi].len() {
                if let Some((a, b)) = self.stations[pi][i].operands() {
                    let st = self.stations[pi].remove(i);
                    let result = st.kind.apply(a, b);
                    if self.rats[pi][st.dst.index()] == RegStatus::Pending(st.tag) {
                        self.state.cores[pi].set_reg(st.dst, result);
                        self.rats[pi][st.dst.index()] = RegStatus::Ready;
                    }
                    worklist.push((st.tag, result));
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Binds the value of the unfilled load at ROB position `pos`.
    fn fill_load(&mut self, proc: ProcId, pos: usize) {
        let pi = proc.index();
        let entry = self.robs[pi][pos];
        let RobOp::Read { dst, tag, loc, class, fill: None } = entry.op else {
            unreachable!("fill target is not an unfilled load")
        };
        let (value, src, from_forward) = self.visible_before(proc, loc, entry.serial);
        if let RobOp::Read { fill, .. } = &mut self.robs[pi][pos].op {
            *fill = Some(Fill { value, src, from_forward });
        }
        if self.rats[pi][dst.index()] == RegStatus::Pending(tag) {
            self.state.cores[pi].complete_load(dst, value);
            self.rats[pi][dst.index()] = RegStatus::Ready;
        }
        self.deliver(pi, tag, value.get());
        self.state.cycles[pi] +=
            if from_forward { self.state.timing.buffer_hit } else { self.state.timing.mem_access };
        self.state.stats.ooo_load_fills += 1;
        if from_forward {
            self.state.stats.ooo_forwards += 1;
            if matches!(class, AccessClass::Data) {
                self.state.stats.buffer_forwards += 1;
            }
        } else if matches!(class, AccessClass::Data) && self.remote_pending_store(pi, loc) {
            self.state.stats.stale_reads += 1;
        }
        if matches!(class, AccessClass::Data) {
            self.state.stats.data_reads += 1;
        }
    }

    /// `true` iff a processor other than `pi` holds an in-flight or
    /// buffered write to `loc` (the read just performed is already
    /// outdated).
    fn remote_pending_store(&self, pi: usize, loc: Location) -> bool {
        self.bufs.remote_pending(pi, loc)
            || self.robs.iter().enumerate().any(|(i, rob)| {
                i != pi
                    && rob.iter().any(|e| {
                        matches!(e.op, RobOp::Write { loc: l, .. } if l == loc)
                            || matches!(e.op, RobOp::TestSet { loc: l, .. } if l == loc)
                    })
            })
    }

    /// Rewrites every unresolved forward reference to store serial
    /// `serial` of processor `pi` to the resolved operation id.
    fn patch_forwards(&mut self, pi: usize, serial: u64, op: OpId, sync: bool) {
        for e in &mut self.robs[pi] {
            match &mut e.op {
                RobOp::Read { fill: Some(f), .. } if f.src == (FillSrc::Rob { serial, sync }) => {
                    f.src = FillSrc::Resolved { writer: Some(op), writer_sync: sync };
                }
                RobOp::TestSet { observed, .. } if *observed == (FillSrc::Rob { serial, sync }) => {
                    *observed = FillSrc::Resolved { writer: Some(op), writer_sync: sync };
                }
                _ => {}
            }
        }
    }

    /// Retires every complete entry at the head of `proc`'s ROB, in
    /// program order, reporting each operation to the sink. This is the
    /// only place operations are recorded, so the per-processor trace
    /// order is always program order.
    fn retire_ready(&mut self, proc: ProcId, sink: &mut dyn TraceSink) {
        let pi = proc.index();
        while self.robs[pi].first().is_some_and(RobEntry::complete) {
            let entry = self.robs[pi].remove(0);
            self.state.stats.ooo_retired += 1;
            match entry.op {
                RobOp::Read { loc, class, fill, .. } => {
                    let fill = fill.expect("complete load has a fill");
                    let (writer, writer_sync) = fill.src.resolved();
                    match class {
                        AccessClass::Data => {
                            sink.data_access(proc, loc, AccessKind::Read, fill.value, writer);
                        }
                        AccessClass::Sync(role) => {
                            let observed = writer.filter(|_| writer_sync);
                            sink.sync_access(
                                proc,
                                loc,
                                AccessKind::Read,
                                role,
                                fill.value,
                                observed,
                            );
                        }
                    }
                }
                RobOp::Write { loc, value, class, strong } => {
                    let sync = matches!(class, AccessClass::Sync(_));
                    let id = match class {
                        AccessClass::Data => {
                            sink.data_access(proc, loc, AccessKind::Write, value, None)
                        }
                        AccessClass::Sync(role) => {
                            sink.sync_access(proc, loc, AccessKind::Write, role, value, None)
                        }
                    };
                    self.patch_forwards(pi, entry.serial, id, sync);
                    if strong {
                        self.strong_write(loc, value, id, sync);
                    } else {
                        self.bufs.push(pi, BufferedWrite { loc, value, op: id, sync });
                        self.state.stats.buffered_writes += 1;
                    }
                }
                RobOp::TestSet { loc, old, observed, strong } => {
                    let (writer, writer_sync) = observed.resolved();
                    let seen = writer.filter(|_| writer_sync);
                    sink.sync_access(proc, loc, AccessKind::Read, SyncRole::Acquire, old, seen);
                    let set = Value::new(1);
                    let wid =
                        sink.sync_access(proc, loc, AccessKind::Write, SyncRole::None, set, None);
                    self.patch_forwards(pi, entry.serial, wid, true);
                    if strong {
                        self.strong_write(loc, set, wid, true);
                    } else {
                        self.bufs.push(pi, BufferedWrite { loc, value: set, op: wid, sync: true });
                        self.state.stats.buffered_writes += 1;
                    }
                }
            }
        }
    }

    /// Completes one pending pipeline entry of `proc`: a load fill
    /// (binding the load's value from memory or a forwarded store,
    /// possibly out of program order) or a store-buffer drain. Indices
    /// address the concatenation of unfilled loads (ROB order) and
    /// store-buffer entries — see
    /// [`drainable_indices`](Self::drainable_indices).
    ///
    /// Background completions model the memory system working in
    /// parallel with the cores; load fills charge the load's memory
    /// latency, store drains charge nothing.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownProcessor`] for a bad `proc`.
    /// * [`SimError::BadDrain`] if `index` is out of range or draining
    ///   it would reorder same-location buffered writes.
    pub fn complete_one(
        &mut self,
        proc: ProcId,
        index: usize,
        sink: &mut dyn TraceSink,
    ) -> Result<(), SimError> {
        if proc.index() >= self.state.cores.len() {
            return Err(SimError::UnknownProcessor(proc));
        }
        let pending = self.pending(proc);
        let Some(entry) = pending.get(index).copied() else {
            return Err(SimError::BadDrain { proc, index, len: pending.len() });
        };
        match entry {
            PendingRef::Fill(pos) => {
                self.fill_load(proc, pos);
                self.retire_ready(proc, sink);
            }
            PendingRef::Buf(bi) => {
                if !self.bufs.drain(&mut self.state.mem, proc.index(), bi) {
                    return Err(SimError::BadDrain { proc, index, len: pending.len() });
                }
                self.state.stats.background_drains += 1;
            }
        }
        Ok(())
    }

    /// Drains `proc`'s entire pipeline: fills every pending load in ROB
    /// order, retires everything, then drains the store buffer in
    /// program order — the stall at a fence or synchronization point.
    /// Store-buffer entries charge `drain_per_entry` cycles each (load
    /// fills charge their ordinary memory latency).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcessor`] for a bad `proc`.
    pub fn drain_pipeline(
        &mut self,
        proc: ProcId,
        sink: &mut dyn TraceSink,
    ) -> Result<usize, SimError> {
        let pi = proc.index();
        if pi >= self.state.cores.len() {
            return Err(SimError::UnknownProcessor(proc));
        }
        while let Some(pos) = self.robs[pi].iter().position(|e| !e.complete()) {
            self.fill_load(proc, pos);
            self.retire_ready(proc, sink);
        }
        self.retire_ready(proc, sink);
        debug_assert!(self.robs[pi].is_empty(), "drained ROB must be empty");
        debug_assert!(self.stations[pi].is_empty(), "drained stations must be empty");
        let n = self.bufs.flush(&mut self.state.mem, pi).unwrap_or(0);
        self.state.charge_flush(pi, n);
        self.state.stats.ooo_flushes += 1;
        Ok(n)
    }

    /// Pushes a ROB entry for `proc` and returns its serial.
    fn push_rob(&mut self, pi: usize, op: RobOp) -> u64 {
        let serial = self.serials[pi];
        self.serials[pi] += 1;
        self.robs[pi].push(RobEntry { serial, op });
        serial
    }

    fn next_serial(&mut self, pi: usize) -> u64 {
        let serial = self.serials[pi];
        self.serials[pi] += 1;
        serial
    }

    /// Issues one instruction on `proc` (or, if the front end is
    /// stalled on a pending operand or a full pipeline, forces the
    /// oldest pending load fill instead — a stalled pipeline's step is
    /// progress, never an error).
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownProcessor`] for a bad `proc`.
    /// * [`SimError::Halted`] if the processor already halted.
    /// * Address-resolution errors ([`SimError::BadAddress`] /
    ///   [`SimError::BadLocation`]).
    pub fn step<S: TraceSink>(
        &mut self,
        proc: ProcId,
        sink: &mut S,
    ) -> Result<StepEvent, SimError> {
        let instr = self.state.fetch(proc)?;
        let pi = proc.index();
        self.state.steps += 1;
        if !self.can_issue(proc) {
            // Stalled front end: the step becomes pipeline progress.
            let pos = self.robs[pi]
                .iter()
                .position(|e| !e.complete())
                .expect("a stalled pipeline has a pending load");
            self.fill_load(proc, pos);
            self.retire_ready(proc, sink);
            return Ok(StepEvent::Local);
        }
        // Register-only instructions: execute immediately when operands
        // are ready, else rename the destination and wait in a
        // reservation station.
        if let Some((dst, op, a, b)) = AluOp::decode(&instr) {
            self.issue_alu(pi, dst, op, a, b);
            return Ok(StepEvent::Local);
        }
        let Some(mem_instr) = MemInstr::decode(&instr) else {
            let outcome = self.state.cores[pi].exec_local(&instr);
            assert_eq!(outcome, LocalOutcome::Done, "local instruction must complete locally");
            if let Instr::Li { dst, .. } = instr {
                self.rats[pi][dst.index()] = RegStatus::Ready;
            }
            self.state.cycles[pi] += self.state.timing.local_op;
            return Ok(if instr == Instr::Halt { StepEvent::Halt } else { StepEvent::Local });
        };
        let conditioned = self.state.fidelity == Fidelity::Conditioned;
        let strong = self.state.model == MemoryModel::Sc;
        let t = self.state.timing;
        let event = match mem_instr {
            MemInstr::Load { dst, addr, sync } => {
                let loc = self.state.resolve(pi, addr)?;
                // SC binds every load at issue; Condition 3.4 binds sync
                // loads at issue; everything else waits for a fill.
                let bind_now = strong || (conditioned && sync.is_some());
                if let Some(role) = sync {
                    if bind_now && (strong || self.state.model.sync_read_drains(role)) {
                        self.drain_pipeline(proc, sink)?;
                    }
                }
                let class = sync.map_or(AccessClass::Data, AccessClass::Sync);
                let tag = self.serials[pi];
                if bind_now {
                    let (value, src, from_forward) = self.visible_before(proc, loc, u64::MAX);
                    let fill = Some(Fill { value, src, from_forward });
                    self.push_rob(pi, RobOp::Read { dst, tag, loc, class, fill });
                    self.state.cores[pi].complete_load(dst, value);
                    self.rats[pi][dst.index()] = RegStatus::Ready;
                } else {
                    self.push_rob(pi, RobOp::Read { dst, tag, loc, class, fill: None });
                    self.rats[pi][dst.index()] = RegStatus::Pending(tag);
                }
                let cost = match sync {
                    Some(_) => {
                        self.state.stats.sync_ops += 1;
                        t.mem_access
                    }
                    None if strong => {
                        self.state.stats.data_reads += 1;
                        t.mem_access
                    }
                    // A pending data load counts at its fill.
                    None => t.local_op,
                };
                self.state.cycles[pi] += cost;
                if sync.is_some() {
                    StepEvent::Sync
                } else {
                    StepEvent::Data
                }
            }
            MemInstr::Store { src, addr, sync } => {
                let loc = self.state.resolve(pi, addr)?;
                debug_assert!(match src {
                    Operand::Reg(r) => self.rats[pi][r.index()] == RegStatus::Ready,
                    Operand::Imm(_) => true,
                });
                let value = Value::new(self.state.cores[pi].operand(src));
                let (class, strong, cost) = match sync {
                    None => {
                        self.state.stats.data_writes += 1;
                        let cost = if strong { t.mem_access } else { t.buffered_write };
                        (AccessClass::Data, strong, cost)
                    }
                    Some(role) => {
                        if conditioned || strong {
                            // Retirement atomicity: a strong synchronization
                            // write requires an empty pipeline so it is
                            // globally ordered the moment it executes.
                            self.drain_pipeline(proc, sink)?;
                        }
                        self.state.stats.sync_ops += 1;
                        (AccessClass::Sync(role), conditioned || strong, t.mem_access)
                    }
                };
                self.push_rob(pi, RobOp::Write { loc, value, class, strong });
                self.state.cycles[pi] += cost;
                if sync.is_some() {
                    StepEvent::Sync
                } else {
                    StepEvent::Data
                }
            }
            MemInstr::TestSet { dst, addr } => {
                let loc = self.state.resolve(pi, addr)?;
                if conditioned || strong {
                    // The read-modify-write must be atomic against
                    // shared memory: drain so the write lands with the
                    // read.
                    self.drain_pipeline(proc, sink)?;
                }
                let (old, observed, _) = self.visible_before(proc, loc, u64::MAX);
                self.push_rob(
                    pi,
                    RobOp::TestSet { loc, old, observed, strong: conditioned || strong },
                );
                self.state.cores[pi].complete_load(dst, old);
                self.rats[pi][dst.index()] = RegStatus::Ready;
                self.state.cycles[pi] += t.mem_access;
                self.state.stats.sync_ops += 2;
                StepEvent::Sync
            }
            MemInstr::Fence => {
                // An explicit fence drains in both fidelities, exactly
                // like the store-buffer machine.
                self.drain_pipeline(proc, sink)?;
                self.state.cycles[pi] += t.local_op;
                StepEvent::Local
            }
        };
        self.state.cores[pi].advance_pc();
        self.retire_ready(proc, sink);
        Ok(event)
    }

    /// Issues a register-only instruction: direct execution when every
    /// operand is ready, else a reservation-station entry with the
    /// destination renamed in the alias table.
    fn issue_alu(&mut self, pi: usize, dst: Reg, kind: AluOp, a: Operand, b: Operand) {
        let src_of = |rats: &[RegStatus; crate::NUM_REGS], core: &CoreState, o: Operand| match o {
            Operand::Imm(v) => Src::Val(v),
            Operand::Reg(r) => match rats[r.index()] {
                RegStatus::Ready => Src::Val(core.reg(r)),
                RegStatus::Pending(t) => Src::Tag(t),
            },
        };
        let sa = src_of(&self.rats[pi], &self.state.cores[pi], a);
        let sb = src_of(&self.rats[pi], &self.state.cores[pi], b);
        self.state.cycles[pi] += self.state.timing.local_op;
        if let (Src::Val(va), Src::Val(vb)) = (sa, sb) {
            self.state.cores[pi].set_reg(dst, kind.apply(va, vb));
            self.rats[pi][dst.index()] = RegStatus::Ready;
        } else {
            let tag = self.next_serial(pi);
            self.stations[pi].push(Station { tag, dst, kind, a: sa, b: sb });
            self.rats[pi][dst.index()] = RegStatus::Pending(tag);
        }
        self.state.cores[pi].advance_pc();
    }
}

impl crate::DrainView for OooMachine {
    fn runnable_procs(&self) -> Vec<ProcId> {
        self.runnable()
    }

    fn drainable(&self, proc: ProcId) -> Vec<usize> {
        self.drainable_indices(proc)
    }

    fn pending_len(&self, proc: ProcId) -> usize {
        self.pending(proc).len()
    }

    fn num_procs(&self) -> usize {
        self.state.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, DrainView, SimStats, NUM_REGS};
    use wmrd_trace::{NullSink, OpRecorder};

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn wo(prog: Program) -> OooMachine {
        OooMachine::new(Arc::new(prog), MemoryModel::Wo, Fidelity::Conditioned, Timing::uniform())
            .unwrap()
    }

    fn store(imm: i64, loc: u32) -> Instr {
        Instr::St { src: Operand::Imm(imm), addr: Addr::Abs(l(loc)) }
    }

    fn load(r: u8, loc: u32) -> Instr {
        Instr::Ld { dst: Reg::new(r), addr: Addr::Abs(l(loc)) }
    }

    #[test]
    fn loads_fill_out_of_program_order() {
        // Ld A then Ld B: filling B first lets the younger load read
        // memory before the older one — the reordering this backend
        // exists for.
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![load(0, 0), load(1, 1), Instr::Halt]);
        prog.push_proc(vec![store(7, 0), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap(); // issue Ld A
        m.step(p(0), &mut sink).unwrap(); // issue Ld B
        assert_eq!(m.pending_fills(p(0)), 2);
        // Fill the *younger* load first: it reads B=0.
        m.complete_one(p(0), 1, &mut sink).unwrap();
        assert_eq!(m.pending_fills(p(0)), 1);
        // P1's store lands in memory before the older load fills.
        m.step(p(1), &mut sink).unwrap();
        m.complete_one(p(1), 0, &mut sink).unwrap(); // drain the store
        m.complete_one(p(0), 0, &mut sink).unwrap(); // now fill Ld A
        assert_eq!(m.reg(p(0), Reg::new(0)), 7, "older load read memory later");
        assert_eq!(m.reg(p(0), Reg::new(1)), 0, "younger load read memory earlier");
    }

    #[test]
    fn retirement_keeps_trace_in_program_order() {
        // Even when the younger load fills first, the recorded trace
        // lists operations in program order per processor.
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![load(0, 0), load(1, 1), Instr::Halt]);
        let mut m = wo(prog);
        let mut rec = OpRecorder::new(2);
        m.step(p(0), &mut rec).unwrap();
        m.step(p(0), &mut rec).unwrap();
        m.complete_one(p(0), 1, &mut rec).unwrap(); // younger fills first
        m.complete_one(p(0), 0, &mut rec).unwrap();
        let ops = rec.finish();
        let p0 = ops.proc_ops(p(0)).unwrap();
        assert_eq!(p0.len(), 2);
        assert_eq!(p0[0].loc, l(0), "first recorded op is the older load");
        assert_eq!(p0[1].loc, l(1));
    }

    #[test]
    fn store_forwards_to_younger_load() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(5, 0), load(0, 0), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        m.complete_one(p(0), 0, &mut sink).unwrap(); // fill forwards
        assert_eq!(m.reg(p(0), Reg::new(0)), 5, "forwarded from in-flight store");
        assert_eq!(m.stats().ooo_forwards, 1);
        assert_eq!(m.memory_values()[0], Value::ZERO, "store still speculative/buffered");
    }

    #[test]
    fn forwarded_op_identity_resolves_at_retirement() {
        // A load forwarded from a not-yet-retired store must record the
        // store's operation id once both retire.
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(5, 0), load(0, 0), Instr::Halt]);
        let mut m = wo(prog);
        let mut rec = OpRecorder::new(1);
        m.step(p(0), &mut rec).unwrap();
        m.step(p(0), &mut rec).unwrap();
        m.complete_one(p(0), 0, &mut rec).unwrap();
        let ops = rec.finish();
        let p0 = ops.proc_ops(p(0)).unwrap();
        assert_eq!(p0[1].observed_write, Some(p0[0].id), "read observes the forwarded store");
    }

    #[test]
    fn renaming_lets_independent_work_proceed() {
        // r0 <- Ld A (pending); r1 <- Li 3 — the Li must not wait, and
        // the dependent Add waits in a reservation station.
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            load(0, 0),
            Instr::Li { dst: Reg::new(1), imm: 3 },
            Instr::Add { dst: Reg::new(2), a: Reg::new(0), b: Operand::Reg(Reg::new(1)) },
            Instr::Halt,
        ]);
        prog.set_init(l(0), Value::new(4));
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap(); // Ld issues, r0 pending
        m.step(p(0), &mut sink).unwrap(); // Li executes immediately
        assert_eq!(m.reg(p(0), Reg::new(1)), 3);
        m.step(p(0), &mut sink).unwrap(); // Add defers to a station
        assert_eq!(m.reg(p(0), Reg::new(2)), 0, "Add still waiting");
        m.complete_one(p(0), 0, &mut sink).unwrap(); // fill wakes the station
        assert_eq!(m.reg(p(0), Reg::new(0)), 4);
        assert_eq!(m.reg(p(0), Reg::new(2)), 7, "station executed on the bypass value");
    }

    #[test]
    fn waw_hazard_respects_newest_producer() {
        // r0 <- Ld A (pending), then r0 <- Li 9: when the load finally
        // fills it must NOT clobber the younger write.
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![load(0, 0), Instr::Li { dst: Reg::new(0), imm: 9 }, Instr::Halt]);
        prog.set_init(l(0), Value::new(4));
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 9);
        m.complete_one(p(0), 0, &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 9, "stale fill suppressed by the alias table");
    }

    #[test]
    fn branches_stall_until_condition_resolves() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![load(0, 0), Instr::Bnz { cond: Reg::new(0), target: 0 }, Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert!(!m.runnable().contains(&p(0)), "branch waits on the load");
        assert_eq!(m.drainable_indices(p(0)), vec![0]);
        m.complete_one(p(0), 0, &mut sink).unwrap();
        assert!(m.runnable().contains(&p(0)), "condition ready, branch may issue");
        m.step(p(0), &mut sink).unwrap(); // Bnz: r0 == 0, falls through
        m.step(p(0), &mut sink).unwrap(); // Halt
        assert!(m.all_halted());
    }

    #[test]
    fn stalled_step_forces_progress() {
        // Stepping a stalled processor is defined: it fills the oldest
        // pending load instead of issuing.
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![load(0, 0), Instr::Bnz { cond: Reg::new(0), target: 0 }, Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap(); // stalled: forces the fill
        assert_eq!(m.pending_fills(p(0)), 0);
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert!(m.all_halted());
    }

    #[test]
    fn conditioned_sync_write_drains_the_pipeline() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            store(7, 0),
            load(0, 0),
            Instr::Unset { addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert!(m.rob_len(p(0)) > 0);
        m.step(p(0), &mut sink).unwrap(); // Unset drains ROB + buffer
        assert_eq!(m.rob_len(p(0)), 0);
        assert!(m.store_buffer(p(0)).is_empty());
        assert_eq!(m.memory_values()[0], Value::new(7));
        assert_eq!(m.memory_values()[1], Value::ZERO);
        assert_eq!(m.reg(p(0), Reg::new(0)), 7, "drain filled the load by forwarding");
    }

    #[test]
    fn rcsc_acquire_leaves_older_loads_pending() {
        // Under RCsc an acquire read does not drain: an older data load
        // may still fill after it — reordering RC permits.
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            load(0, 0),
            Instr::LdAcq { dst: Reg::new(1), addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        let mut m = OooMachine::new(
            Arc::new(prog),
            MemoryModel::RCsc,
            Fidelity::Conditioned,
            Timing::uniform(),
        )
        .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap(); // acquire executes at issue
        assert_eq!(m.pending_fills(p(0)), 1, "older data load still pending");
        m.complete_one(p(0), 0, &mut sink).unwrap();
        assert_eq!(m.rob_len(p(0)), 0);
    }

    #[test]
    fn wo_sync_read_drains() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            load(0, 0),
            Instr::LdSync { dst: Reg::new(1), addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap(); // WO: sync read drains first
        assert_eq!(m.pending_fills(p(0)), 0);
        assert_eq!(m.rob_len(p(0)), 0);
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
    fn raw_fidelity_breaks_mutual_exclusion() {
        let mut prog = Program::new("t", 1);
        let ts = Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) };
        prog.push_proc(vec![ts, Instr::Halt]);
        prog.push_proc(vec![ts, Instr::Halt]);
        let mut m =
            OooMachine::new(Arc::new(prog), MemoryModel::Wo, Fidelity::Raw, Timing::uniform())
                .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(1), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 0);
        assert_eq!(m.reg(p(1), Reg::new(0)), 0, "both acquired: Condition 3.4 violated");
    }

    #[test]
    fn fence_drains_in_both_fidelities() {
        for fidelity in [Fidelity::Conditioned, Fidelity::Raw] {
            let mut prog = Program::new("t", 1);
            prog.push_proc(vec![store(1, 0), Instr::Fence, Instr::Halt]);
            let mut m =
                OooMachine::new(Arc::new(prog), MemoryModel::Wo, fidelity, Timing::uniform())
                    .unwrap();
            let mut sink = NullSink::new();
            m.step(p(0), &mut sink).unwrap();
            m.step(p(0), &mut sink).unwrap();
            assert!(m.pipelines_empty(), "{fidelity:?}");
            assert_eq!(m.memory_values()[0], Value::new(1), "{fidelity:?}");
        }
    }

    #[test]
    fn sc_model_disables_speculation() {
        let mut prog = Program::new("t", 1);
        prog.push_proc(vec![store(9, 0), load(0, 0), Instr::Halt]);
        let mut m = OooMachine::new(
            Arc::new(prog),
            MemoryModel::Sc,
            Fidelity::Conditioned,
            Timing::uniform(),
        )
        .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        assert!(m.pipelines_empty(), "strong store retires immediately");
        assert_eq!(m.memory_values()[0], Value::new(9));
        m.step(p(0), &mut sink).unwrap();
        assert_eq!(m.reg(p(0), Reg::new(0)), 9);
    }

    #[test]
    fn rob_capacity_stalls_issue() {
        let mut prog = Program::new("t", 2);
        let mut code: Vec<Instr> = (0..ROB_CAPACITY + 2)
            .map(|i| Instr::Ld { dst: Reg::new((i % NUM_REGS) as u8), addr: Addr::Abs(l(0)) })
            .collect();
        code.push(Instr::Halt);
        prog.push_proc(code);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        for _ in 0..ROB_CAPACITY {
            m.step(p(0), &mut sink).unwrap();
        }
        assert_eq!(m.rob_len(p(0)), ROB_CAPACITY);
        assert!(!m.runnable().contains(&p(0)), "full ROB stalls the front end");
        m.complete_one(p(0), 0, &mut sink).unwrap(); // head fill retires it
        assert!(m.runnable().contains(&p(0)));
    }

    #[test]
    fn buffered_stores_drain_out_of_order_with_coherence() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(1, 0), store(9, 1), store(2, 0), Instr::Fence, Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        for _ in 0..3 {
            m.step(p(0), &mut sink).unwrap();
        }
        // Stores are complete: they retire straight into the buffer.
        assert_eq!(m.store_buffer(p(0)).len(), 3);
        assert_eq!(m.drainable_indices(p(0)), vec![0, 1], "same-location order preserved");
        assert!(matches!(m.complete_one(p(0), 2, &mut sink), Err(SimError::BadDrain { .. })));
        m.complete_one(p(0), 1, &mut sink).unwrap();
        assert_eq!(m.memory_values()[1], Value::new(9), "out-of-order drain of loc 1");
        m.complete_one(p(0), 0, &mut sink).unwrap();
        m.complete_one(p(0), 0, &mut sink).unwrap();
        assert_eq!(m.memory_values()[0], Value::new(2));
    }

    #[test]
    fn quiescence_and_runner_contract() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(3, 0), load(0, 1), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap(); // Halt issues even with pending work
        assert!(m.all_halted());
        assert!(!m.pipelines_empty());
        m.drain_pipeline(p(0), &mut sink).unwrap();
        assert!(m.pipelines_empty());
        assert_eq!(m.memory_values()[0], Value::new(3));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(3, 0), load(0, 1), Instr::Halt]);
        let mut m = wo(prog);
        let before = m.fingerprint();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        assert_ne!(m.fingerprint(), before);
        m.reset();
        assert_eq!(m.fingerprint(), before);
        assert_eq!(m.steps(), 0);
        assert_eq!(*m.stats(), SimStats::default());
    }

    #[test]
    fn drain_errors() {
        let prog = {
            let mut p_ = Program::new("t", 1);
            p_.push_proc(vec![Instr::Halt]);
            p_
        };
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        assert!(matches!(m.complete_one(p(0), 0, &mut sink), Err(SimError::BadDrain { .. })));
        assert!(matches!(m.complete_one(p(9), 0, &mut sink), Err(SimError::UnknownProcessor(_))));
        assert!(m.drainable_indices(p(9)).is_empty());
    }

    #[test]
    fn stats_count_pipeline_work() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(3, 0), load(0, 0), Instr::Fence, Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap(); // fence drains: fill + retire + flush
        let s = m.stats();
        assert_eq!(s.data_writes, 1);
        assert_eq!(s.data_reads, 1);
        assert_eq!(s.ooo_load_fills, 1);
        assert_eq!(s.ooo_forwards, 1);
        assert!(s.ooo_retired >= 2, "store and load retired");
        assert_eq!(s.ooo_flushes, 1);
        assert_eq!(s.buffered_writes, 1);
        assert_eq!(s.background_drains + s.flushed_entries, s.buffered_writes);
    }

    #[test]
    fn settled_memory_includes_speculative_stores() {
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
    fn drain_view_exposes_fills_and_buffer_entries() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![store(1, 0), load(0, 1), Instr::Halt]);
        let mut m = wo(prog);
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap(); // store retires straight to the buffer
        m.step(p(0), &mut sink).unwrap(); // load stays pending
        assert_eq!(DrainView::pending_len(&m, p(0)), 2, "one fill + one buffered write");
        assert_eq!(m.drainable_indices(p(0)), vec![0, 1]);
        assert_eq!(DrainView::num_procs(&m), 1);
    }
}
