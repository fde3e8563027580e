//! High-level runners: program in, outcome out.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use wmrd_trace::{ProcId, TraceSink, Value};

use crate::{
    DrainView, Fidelity, InvalMachine, Machine, MachineState, MemoryModel, MemorySystem,
    OooMachine, Program, ScMachine, Scheduler, SimError, SimStats, Timing, WeakAction, WeakMachine,
    WeakScheduler,
};

/// Which weak-hardware implementation style to simulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum HwImpl {
    /// Per-core store buffers; writes drain to memory out of order
    /// ([`WeakMachine`]).
    #[default]
    StoreBuffer,
    /// Per-core caches with invalidation queues; readers see stale
    /// copies until invalidations apply ([`InvalMachine`]).
    InvalQueue,
    /// Speculative out-of-order pipelines: reorder buffers, register
    /// renaming, store-to-load forwarding, and loads completing out of
    /// program order ([`OooMachine`]).
    Ooo,
}

impl HwImpl {
    /// Every implemented hardware style, in the order campaign specs
    /// enumerate them.
    pub const ALL: [HwImpl; 3] = [HwImpl::StoreBuffer, HwImpl::InvalQueue, HwImpl::Ooo];
}

wmrd_trace::impl_to_json!(enum HwImpl);

impl fmt::Display for HwImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HwImpl::StoreBuffer => "store-buffer",
            HwImpl::InvalQueue => "inval-queue",
            HwImpl::Ooo => "ooo",
        })
    }
}

/// Configuration for a run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Abort with [`SimError::StepLimit`] after this many steps (guards
    /// against livelock under unfair schedules).
    pub max_steps: u64,
    /// Abort with [`SimError::CycleLimit`] once the wall clock — the
    /// maximum per-processor cycle count under [`RunConfig::timing`] —
    /// reaches this bound. Defaults to unlimited; campaign engines set
    /// it to bound simulated time per seed.
    pub max_cycles: u64,
    /// Cycle-cost model.
    pub timing: Timing,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { max_steps: 1_000_000, max_cycles: u64::MAX, timing: Timing::default_model() }
    }
}

impl RunConfig {
    /// A config with the uniform (1-cycle) timing model, for tests.
    pub fn uniform() -> Self {
        RunConfig { timing: Timing::uniform(), ..RunConfig::default() }
    }

    /// Sets the step limit.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the cycle (simulated wall-clock) limit.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }
}

/// Uniform budget check, called before each scheduled action by every
/// runner. `steps` actions have completed and `cycles` is the current
/// per-processor clock, so a budget of `n` permits exactly `n` actions
/// (never `n + 1`) and a cycle budget of `c` stops the run the moment
/// the wall clock reaches `c`.
fn check_budgets(steps: u64, cycles: &[u64], config: &RunConfig) -> Result<(), SimError> {
    if steps >= config.max_steps {
        return Err(SimError::StepLimit(config.max_steps));
    }
    if cycles.iter().copied().max().unwrap_or(0) >= config.max_cycles {
        return Err(SimError::CycleLimit(config.max_cycles));
    }
    Ok(())
}

/// Result of running a program to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// `true` if every processor halted (always true on success; kept for
    /// forward compatibility with bounded runs).
    pub halted: bool,
    /// Steps executed (instructions plus, for weak runs, drain actions).
    pub steps: u64,
    /// Per-processor cycle counts under the configured [`Timing`].
    pub cycles: Vec<u64>,
    /// Final shared-memory contents.
    pub final_memory: Vec<Value>,
    /// Deterministic memory-system counters accumulated by the machine
    /// (see [`SimStats`]); fixed program + scheduler seed ⇒ identical
    /// statistics.
    pub stats: SimStats,
}

impl RunOutcome {
    /// Wall-clock cycles of the run: the maximum over processors.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().copied().max().unwrap_or(0)
    }
}

/// Runs `program` to completion on the sequentially consistent machine.
///
/// # Errors
///
/// Propagates machine errors ([`SimError::BadAddress`] etc.) and returns
/// [`SimError::StepLimit`] if the program does not halt within
/// `config.max_steps` steps.
///
/// # Example
///
/// See the crate-level documentation.
pub fn run_sc<S: TraceSink>(
    program: &Program,
    scheduler: &mut dyn Scheduler,
    sink: &mut S,
    config: RunConfig,
) -> Result<RunOutcome, SimError> {
    let mut machine = ScMachine::new(Arc::new(program.clone()), config.timing)?;
    run_sc_on(&mut machine, scheduler, sink, config)
}

/// Drives an already-built [`ScMachine`] to completion (the
/// machine-reuse path: [`run_sc`] is `new` + this).
///
/// # Errors
///
/// Same as [`run_sc`].
pub fn run_sc_on<S: TraceSink>(
    machine: &mut ScMachine,
    scheduler: &mut dyn Scheduler,
    sink: &mut S,
    config: RunConfig,
) -> Result<RunOutcome, SimError> {
    drive(machine, &mut StepsOnly(scheduler), sink, &config)
}

/// A processor scheduler seen as a weak scheduler that never drains —
/// all SC memory needs.
struct StepsOnly<'a>(&'a mut dyn Scheduler);

impl WeakScheduler for StepsOnly<'_> {
    fn next(&mut self, machine: &dyn DrainView) -> Option<WeakAction> {
        self.0.next(&machine.runnable_procs()).map(WeakAction::Step)
    }
}

/// What the one driver loop needs of a machine: the in-order
/// [`Machine`] over any memory system, or the out-of-order pipeline.
///
/// Drain and flush take the sink because on the out-of-order machine
/// completing a pending entry can retire reorder-buffer heads, which is
/// where operations are recorded; the in-order machine ignores it.
pub(crate) trait Exec: DrainView + Deref<Target = MachineState> {
    /// Executes one instruction on `proc`.
    fn exec_step<S: TraceSink>(&mut self, proc: ProcId, sink: &mut S) -> Result<(), SimError>;
    /// Completes one pending entry (buffered write / invalidation /
    /// load fill).
    fn exec_drain<S: TraceSink>(
        &mut self,
        proc: ProcId,
        index: usize,
        sink: &mut S,
    ) -> Result<(), SimError>;
    /// Force-completes every pending entry of `proc`.
    fn exec_flush<S: TraceSink>(&mut self, proc: ProcId, sink: &mut S) -> Result<(), SimError>;
    /// `true` once nothing is pending anywhere.
    fn exec_pending_empty(&self) -> bool;
}

impl<M: MemorySystem> Exec for Machine<M> {
    fn exec_step<S: TraceSink>(&mut self, proc: ProcId, sink: &mut S) -> Result<(), SimError> {
        self.step(proc, sink).map(|_| ())
    }

    fn exec_drain<S: TraceSink>(
        &mut self,
        proc: ProcId,
        index: usize,
        _: &mut S,
    ) -> Result<(), SimError> {
        self.drain_one(proc, index)
    }

    fn exec_flush<S: TraceSink>(&mut self, proc: ProcId, _: &mut S) -> Result<(), SimError> {
        self.flush(proc).map(|_| ())
    }

    fn exec_pending_empty(&self) -> bool {
        self.pending_empty()
    }
}

impl Exec for OooMachine {
    fn exec_step<S: TraceSink>(&mut self, proc: ProcId, sink: &mut S) -> Result<(), SimError> {
        self.step(proc, sink).map(|_| ())
    }

    fn exec_drain<S: TraceSink>(
        &mut self,
        proc: ProcId,
        index: usize,
        sink: &mut S,
    ) -> Result<(), SimError> {
        self.complete_one(proc, index, sink)
    }

    fn exec_flush<S: TraceSink>(&mut self, proc: ProcId, sink: &mut S) -> Result<(), SimError> {
        self.drain_pipeline(proc, sink).map(|_| ())
    }

    fn exec_pending_empty(&self) -> bool {
        self.pipelines_empty()
    }
}

/// The one driver loop: schedules step/drain actions until every
/// processor halted and nothing is pending, force-flushing if the
/// scheduler stops early, with both budgets checked before every action.
pub(crate) fn drive<M: Exec, S: TraceSink>(
    machine: &mut M,
    scheduler: &mut dyn WeakScheduler,
    sink: &mut S,
    config: &RunConfig,
) -> Result<RunOutcome, SimError> {
    let mut steps = 0u64;
    while !(machine.all_halted() && machine.exec_pending_empty()) {
        check_budgets(steps, machine.cycles(), config)?;
        match scheduler.next(&*machine) {
            Some(WeakAction::Step(proc)) => machine.exec_step(proc, sink)?,
            Some(WeakAction::Drain(proc, idx)) => machine.exec_drain(proc, idx, sink)?,
            None => {
                for i in 0..machine.num_procs() {
                    machine.exec_flush(ProcId::new(i as u16), sink)?;
                }
                break;
            }
        }
        steps += 1;
    }
    Ok(RunOutcome {
        halted: machine.all_halted(),
        steps,
        cycles: machine.cycles().to_vec(),
        final_memory: machine.memory_values(),
        stats: *machine.stats(),
    })
}

/// Any weak machine, behind one face: what [`run_weak_hw`] builds and
/// [`CampaignRunner`](crate::CampaignRunner) reuses.
#[derive(Debug, Clone)]
pub(crate) enum WeakBackend {
    StoreBuffer(WeakMachine),
    InvalQueue(InvalMachine),
    Ooo(OooMachine),
}

impl WeakBackend {
    /// Builds (and validates) the machine for one hardware configuration.
    pub(crate) fn new(
        hw: HwImpl,
        program: Arc<Program>,
        model: MemoryModel,
        fidelity: Fidelity,
        timing: Timing,
    ) -> Result<Self, SimError> {
        Ok(match hw {
            HwImpl::StoreBuffer => {
                WeakBackend::StoreBuffer(WeakMachine::new(program, model, fidelity, timing)?)
            }
            HwImpl::InvalQueue => {
                WeakBackend::InvalQueue(InvalMachine::new(program, model, fidelity, timing)?)
            }
            HwImpl::Ooo => WeakBackend::Ooo(OooMachine::new(program, model, fidelity, timing)?),
        })
    }

    /// The shared machine state.
    pub(crate) fn state(&self) -> &MachineState {
        match self {
            WeakBackend::StoreBuffer(m) => m,
            WeakBackend::InvalQueue(m) => m,
            WeakBackend::Ooo(m) => m,
        }
    }

    /// Restores the program's initial state.
    pub(crate) fn reset(&mut self) {
        match self {
            WeakBackend::StoreBuffer(m) => m.reset(),
            WeakBackend::InvalQueue(m) => m.reset(),
            WeakBackend::Ooo(m) => m.reset(),
        }
    }

    /// Drives the machine to quiescence (see [`drive`]).
    pub(crate) fn drive<S: TraceSink>(
        &mut self,
        scheduler: &mut dyn WeakScheduler,
        sink: &mut S,
        config: &RunConfig,
    ) -> Result<RunOutcome, SimError> {
        match self {
            WeakBackend::StoreBuffer(m) => drive(m, scheduler, sink, config),
            WeakBackend::InvalQueue(m) => drive(m, scheduler, sink, config),
            WeakBackend::Ooo(m) => drive(m, scheduler, sink, config),
        }
    }
}

/// Runs `program` to quiescence (all halted, all buffers drained) on the
/// store-buffer machine.
///
/// If the scheduler stops early with writes still buffered, the runner
/// force-flushes every processor so the final memory is settled.
///
/// # Errors
///
/// Propagates machine errors and returns [`SimError::StepLimit`] if the
/// program does not quiesce within `config.max_steps` actions.
pub fn run_weak<S: TraceSink>(
    program: &Program,
    model: MemoryModel,
    fidelity: Fidelity,
    scheduler: &mut dyn WeakScheduler,
    sink: &mut S,
    config: RunConfig,
) -> Result<RunOutcome, SimError> {
    run_weak_hw(HwImpl::StoreBuffer, program, model, fidelity, scheduler, sink, config)
}

/// Runs `program` to quiescence on the weak hardware style `hw`: the
/// scheduler's drain actions drain buffered writes, apply queued
/// invalidations, or complete pending load fills and store-buffer
/// entries.
///
/// If the scheduler stops early with entries still pending, the runner
/// force-flushes every processor so the final memory is settled.
///
/// # Errors
///
/// Propagates machine errors and returns [`SimError::StepLimit`] if the
/// program does not quiesce within `config.max_steps` actions.
pub fn run_weak_hw<S: TraceSink>(
    hw: HwImpl,
    program: &Program,
    model: MemoryModel,
    fidelity: Fidelity,
    scheduler: &mut dyn WeakScheduler,
    sink: &mut S,
    config: RunConfig,
) -> Result<RunOutcome, SimError> {
    let program = Arc::new(program.clone());
    WeakBackend::new(hw, program, model, fidelity, config.timing)?.drive(scheduler, sink, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Instr, RandomWeakSched, Reg, RoundRobin, WeakRoundRobin};
    use wmrd_trace::{Location, NullSink, ProcId, TraceBuilder};

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    /// P0 writes x then releases s; P1 spins acquiring s, then reads x.
    fn handoff_program() -> Program {
        let x = l(0);
        let s = l(1);
        let mut prog = Program::new("handoff", 2);
        prog.set_init(s, Value::new(1)); // "locked" until P0 unsets
        prog.push_proc(vec![
            Instr::St { src: 7.into(), addr: Addr::Abs(x) },
            Instr::Unset { addr: Addr::Abs(s) },
            Instr::Halt,
        ]);
        prog.push_proc(vec![
            // spin: test&set until old value was 0
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(s) },
            Instr::Bnz { cond: Reg::new(0), target: 0 },
            Instr::Ld { dst: Reg::new(1), addr: Addr::Abs(x) },
            Instr::Halt,
        ]);
        prog
    }

    #[test]
    fn sc_run_handoff_reads_released_value() {
        let prog = handoff_program();
        let mut sink = TraceBuilder::new(2);
        let out = run_sc(&prog, &mut RoundRobin::new(), &mut sink, RunConfig::uniform()).unwrap();
        assert!(out.halted);
        assert!(out.steps > 0);
        let trace = sink.finish();
        assert!(trace.validate().is_ok());
        // The handoff is race-free and must deliver 7.
        // Find P1's final register via re-running on a machine:
        let mut m = ScMachine::new(Arc::new(prog), Timing::uniform()).unwrap();
        let mut rr = RoundRobin::new();
        let mut null = NullSink::new();
        while !m.all_halted() {
            let r = m.runnable();
            let pick = rr.next(&r).unwrap();
            m.step(pick, &mut null).unwrap();
        }
        assert_eq!(m.reg(ProcId::new(1), Reg::new(1)), 7);
    }

    #[test]
    fn weak_run_handoff_is_sc_for_drf_program() {
        // The handoff program is data-race-free, so every weak model on
        // every hardware style must deliver the released value
        // (Condition 3.4(1) / SC for DRF).
        for hw in HwImpl::ALL {
            for model in MemoryModel::WEAK {
                for seed in 0..20 {
                    let prog = handoff_program();
                    let mut sink = NullSink::new();
                    let mut sched = RandomWeakSched::new(seed, 0.3);
                    let out = run_weak_hw(
                        hw,
                        &prog,
                        model,
                        Fidelity::Conditioned,
                        &mut sched,
                        &mut sink,
                        RunConfig::uniform(),
                    )
                    .unwrap();
                    assert!(out.halted, "{hw} model {model} seed {seed}");
                    assert_eq!(
                        out.final_memory[0],
                        Value::new(7),
                        "{hw} model {model} seed {seed}: x must be written"
                    );
                }
            }
        }
    }

    #[test]
    fn weak_run_settles_buffers() {
        let mut prog = Program::new("t", 2);
        prog.push_proc(vec![
            Instr::St { src: 3.into(), addr: Addr::Abs(l(0)) },
            Instr::St { src: 4.into(), addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        let mut sink = NullSink::new();
        let out = run_weak(
            &prog,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut WeakRoundRobin::new(),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        assert_eq!(out.final_memory, vec![Value::new(3), Value::new(4)]);
    }

    #[test]
    fn step_limit_fires_on_livelock() {
        let mut prog = Program::new("spin", 1);
        prog.set_init(l(0), Value::new(1));
        prog.push_proc(vec![
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Bnz { cond: Reg::new(0), target: 0 },
            Instr::Halt,
        ]);
        let mut sink = NullSink::new();
        let err = run_sc(
            &prog,
            &mut RoundRobin::new(),
            &mut sink,
            RunConfig::uniform().with_max_steps(100),
        );
        assert!(matches!(err, Err(SimError::StepLimit(100))));
    }

    #[test]
    fn cycle_limit_fires_uniformly() {
        // Uniform timing: every action costs one cycle on the acting
        // processor, so a single-processor straight-line program hits a
        // cycle budget of 3 after exactly 3 instructions.
        let mut prog = Program::new("line", 1);
        prog.push_proc(vec![
            Instr::St { src: 1.into(), addr: Addr::Abs(l(0)) },
            Instr::St { src: 2.into(), addr: Addr::Abs(l(0)) },
            Instr::St { src: 3.into(), addr: Addr::Abs(l(0)) },
            Instr::St { src: 4.into(), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        let config = RunConfig::uniform().with_max_cycles(3);
        let mut sink = NullSink::new();
        let err = run_sc(&prog, &mut RoundRobin::new(), &mut sink, config);
        assert!(matches!(err, Err(SimError::CycleLimit(3))));
        // The same budget trips the weak runners too.
        for hw in HwImpl::ALL {
            let mut sink = NullSink::new();
            let err = run_weak_hw(
                hw,
                &prog,
                MemoryModel::Wo,
                Fidelity::Conditioned,
                &mut WeakRoundRobin::new(),
                &mut sink,
                config,
            );
            assert!(matches!(err, Err(SimError::CycleLimit(3))), "{hw}");
        }
    }

    #[test]
    fn budgets_permit_exactly_n_actions() {
        // A step budget of n must allow n actions, not n-1 or n+1: this
        // program halts in exactly 3 steps, so max_steps=3 succeeds and
        // max_steps=2 fails. Same audit for the cycle budget (uniform
        // timing makes cycles == steps on one processor).
        let mut prog = Program::new("three", 1);
        prog.push_proc(vec![
            Instr::St { src: 1.into(), addr: Addr::Abs(l(0)) },
            Instr::St { src: 2.into(), addr: Addr::Abs(l(0)) },
            Instr::Halt,
        ]);
        let run = |config: RunConfig| {
            let mut sink = NullSink::new();
            run_sc(&prog, &mut RoundRobin::new(), &mut sink, config)
        };
        assert!(run(RunConfig::uniform().with_max_steps(3)).unwrap().halted);
        assert!(matches!(run(RunConfig::uniform().with_max_steps(2)), Err(SimError::StepLimit(2))));
        assert!(run(RunConfig::uniform().with_max_cycles(3)).unwrap().halted);
        assert!(matches!(
            run(RunConfig::uniform().with_max_cycles(2)),
            Err(SimError::CycleLimit(2))
        ));
    }

    #[test]
    fn sc_and_weak_agree_on_sequential_program() {
        let mut prog = Program::new("seq", 4);
        prog.push_proc(vec![
            Instr::St { src: 1.into(), addr: Addr::Abs(l(0)) },
            Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(l(0)) },
            Instr::Add { dst: Reg::new(0), a: Reg::new(0), b: 10.into() },
            Instr::St { src: Reg::new(0).into(), addr: Addr::Abs(l(1)) },
            Instr::Halt,
        ]);
        let mut s1 = NullSink::new();
        let sc = run_sc(&prog, &mut RoundRobin::new(), &mut s1, RunConfig::uniform()).unwrap();
        for model in MemoryModel::ALL {
            let mut s2 = NullSink::new();
            let weak = run_weak(
                &prog,
                model,
                Fidelity::Conditioned,
                &mut WeakRoundRobin::new(),
                &mut s2,
                RunConfig::uniform(),
            )
            .unwrap();
            assert_eq!(weak.final_memory, sc.final_memory, "model {model}");
        }
    }

    #[test]
    fn weak_models_are_faster_than_sc_on_drf_workload() {
        // E10's shape at unit scale: the same data-race-free program costs
        // the most cycles on SC, fewer on WO, fewest on RCsc.
        let x = l(0);
        let mut prog = Program::new("producer", 8);
        let mut code = Vec::new();
        for i in 0..6 {
            code.push(Instr::St { src: (i as i64).into(), addr: Addr::Abs(l(i)) });
        }
        code.push(Instr::Unset { addr: Addr::Abs(l(7)) });
        code.push(Instr::St { src: 9.into(), addr: Addr::Abs(x) });
        code.push(Instr::Halt);
        prog.push_proc(code);

        let cycles_for = |model: MemoryModel| {
            let mut sink = NullSink::new();
            run_weak(
                &prog,
                model,
                Fidelity::Conditioned,
                &mut WeakRoundRobin::new(),
                &mut sink,
                RunConfig::default(),
            )
            .unwrap()
            .total_cycles()
        };
        let sc = cycles_for(MemoryModel::Sc);
        let wo = cycles_for(MemoryModel::Wo);
        let rcsc = cycles_for(MemoryModel::RCsc);
        assert!(wo < sc, "WO ({wo}) should beat SC ({sc})");
        assert!(rcsc <= wo, "RCsc ({rcsc}) should be at least as fast as WO ({wo})");
    }

    #[test]
    fn weak_run_stats_count_memory_system_work() {
        let prog = handoff_program();
        let mut sink = NullSink::new();
        let out = run_weak(
            &prog,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut WeakRoundRobin::new(),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        let s = out.stats;
        assert_eq!(s.data_writes, 1, "St x");
        assert_eq!(s.buffered_writes, 1, "St x goes through the buffer");
        assert_eq!(s.data_reads, 1, "Ld x");
        assert!(s.sync_ops >= 3, "Unset + at least one Test&Set (read+write)");
        assert!(s.sync_flushes >= 1, "WO flushes at the Unset");
        // Everything buffered either drained in the background or flushed.
        assert_eq!(s.background_drains + s.flushed_entries, s.buffered_writes);
    }

    #[test]
    fn stats_are_deterministic_for_fixed_seed() {
        let run = |hw: HwImpl, seed: u64| {
            let prog = handoff_program();
            let mut sink = NullSink::new();
            let mut sched = RandomWeakSched::new(seed, 0.3);
            run_weak_hw(
                hw,
                &prog,
                MemoryModel::RCsc,
                Fidelity::Conditioned,
                &mut sched,
                &mut sink,
                RunConfig::uniform(),
            )
            .unwrap()
            .stats
        };
        for hw in HwImpl::ALL {
            assert_eq!(run(hw, 42), run(hw, 42), "{hw}: same seed, same counters");
        }
    }

    #[test]
    fn ooo_run_counts_pipeline_work() {
        let prog = handoff_program();
        let mut sink = NullSink::new();
        let out = run_weak_hw(
            HwImpl::Ooo,
            &prog,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut WeakRoundRobin::new(),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        let s = out.stats;
        assert!(s.ooo_retired >= 3, "St x, Ld x, and sync ops all retire");
        assert!(s.ooo_flushes >= 1, "WO drains at the Unset");
        assert_eq!(out.final_memory[0], Value::new(7));
        assert_eq!(s.background_drains + s.flushed_entries, s.buffered_writes);
    }

    #[test]
    fn inval_run_counts_invalidations() {
        let prog = handoff_program();
        let mut sink = NullSink::new();
        let out = run_weak_hw(
            HwImpl::InvalQueue,
            &prog,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut WeakRoundRobin::new(),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        // Every completed write queues an invalidation at the one other
        // processor: St x, Unset s, and each Test&Set's lock write.
        assert!(out.stats.invalidations_queued >= 3);
        assert_eq!(out.stats.buffered_writes, 0, "inval machine never buffers");
    }

    #[test]
    fn outcome_total_cycles() {
        let o = RunOutcome {
            halted: true,
            steps: 5,
            cycles: vec![3, 9, 4],
            final_memory: vec![],
            stats: SimStats::default(),
        };
        assert_eq!(o.total_cycles(), 9);
        let empty = RunOutcome {
            halted: true,
            steps: 0,
            cycles: vec![],
            final_memory: vec![],
            stats: SimStats::default(),
        };
        assert_eq!(empty.total_cycles(), 0);
    }
}
