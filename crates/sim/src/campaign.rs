//! Machine reuse for campaign engines.
//!
//! A schedule-space exploration campaign runs the *same* program
//! thousands of times under different seeds. Building a fresh machine
//! per seed costs a program clone, a validation pass, and fresh
//! allocations for cores, memory, and buffers; [`CampaignRunner`]
//! pays those once and then [`reset`](crate::WeakMachine::reset)s the
//! machine between executions — the cheap path.
//!
//! The runner is deliberately weak-machine based: [`MemoryModel::Sc`]
//! on every weak backend leaves nothing pending across a step (writes
//! complete at once, reads see shared memory), so one runner covers the
//! full hardware-model matrix, including the sequentially consistent
//! baseline, with a single scheduler interface.

use std::sync::Arc;

use wmrd_trace::TraceSink;

use crate::run::WeakBackend;
use crate::{
    Fidelity, HwImpl, MemoryModel, Program, RunConfig, RunOutcome, SimError, WeakScheduler,
};

/// Runs one program repeatedly on one hardware configuration, reusing
/// the machine across executions.
///
/// The program is cloned and validated exactly once, at construction;
/// each [`run`](CampaignRunner::run) resets the machine to the initial
/// state instead of rebuilding it.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use wmrd_sim::{
///     Addr, CampaignRunner, Fidelity, HwImpl, Instr, MemoryModel, Program, RandomWeakSched,
///     RunConfig,
/// };
/// use wmrd_trace::{Location, NullSink};
///
/// let mut prog = Program::new("tiny", 1);
/// prog.push_proc(vec![
///     Instr::St { src: 1.into(), addr: Addr::Abs(Location::new(0)) },
///     Instr::Halt,
/// ]);
/// let mut runner = CampaignRunner::new(
///     Arc::new(prog),
///     HwImpl::StoreBuffer,
///     MemoryModel::Wo,
///     Fidelity::Conditioned,
///     RunConfig::uniform(),
/// )
/// .unwrap();
/// for seed in 0..4 {
///     let mut sched = RandomWeakSched::new(seed, 0.3);
///     let out = runner.run(&mut sched, &mut NullSink::new()).unwrap();
///     assert!(out.halted);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    program: Arc<Program>,
    hw: HwImpl,
    config: RunConfig,
    machine: WeakBackend,
}

impl CampaignRunner {
    /// Builds (and validates) the machine for one hardware
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if the program fails
    /// validation.
    pub fn new(
        program: Arc<Program>,
        hw: HwImpl,
        model: MemoryModel,
        fidelity: Fidelity,
        config: RunConfig,
    ) -> Result<Self, SimError> {
        let machine = WeakBackend::new(hw, Arc::clone(&program), model, fidelity, config.timing)?;
        Ok(CampaignRunner { program, hw, config, machine })
    }

    /// The program under exploration.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The hardware implementation style this runner simulates.
    pub fn hw(&self) -> HwImpl {
        self.hw
    }

    /// The memory model this runner simulates.
    pub fn model(&self) -> MemoryModel {
        self.machine.state().model()
    }

    /// The per-execution budget and timing configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Runs one execution: resets the machine to the program's initial
    /// state, then drives it to quiescence under `scheduler`.
    ///
    /// The result is identical to what [`run_weak_hw`](crate::run_weak_hw)
    /// would produce with a freshly built machine and the same
    /// scheduler state — reuse is an optimization, never a semantic
    /// change.
    ///
    /// The reset happens at the *start* of each run, so a runner whose
    /// previous execution was abandoned mid-flight — budget stop, error
    /// return, even a panic the caller caught — is safe to reuse: the
    /// next run starts from the program's initial state regardless of
    /// what the abandoned one left behind.
    ///
    /// # Errors
    ///
    /// Same as [`run_weak_hw`](crate::run_weak_hw): machine errors,
    /// [`SimError::StepLimit`], [`SimError::CycleLimit`].
    pub fn run<S: TraceSink>(
        &mut self,
        scheduler: &mut dyn WeakScheduler,
        sink: &mut S,
    ) -> Result<RunOutcome, SimError> {
        self.machine.reset();
        self.machine.drive(scheduler, sink, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_weak_hw, RandomWeakSched};
    use wmrd_trace::{TraceBuilder, TraceSet};

    fn racy_program() -> Program {
        use crate::{Addr, Instr, Reg};
        use wmrd_trace::Location;
        let x = Location::new(0);
        let mut prog = Program::new("racy", 1);
        prog.push_proc(vec![Instr::St { src: 1.into(), addr: Addr::Abs(x) }, Instr::Halt]);
        prog.push_proc(vec![Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(x) }, Instr::Halt]);
        prog
    }

    fn fresh_run(hw: HwImpl, model: MemoryModel, seed: u64) -> (RunOutcome, TraceSet) {
        let prog = racy_program();
        let mut sched = RandomWeakSched::new(seed, 0.3);
        let mut sink = TraceBuilder::new(2);
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
        (out, sink.finish())
    }

    #[test]
    fn reused_machine_matches_fresh_machine() {
        for hw in HwImpl::ALL {
            for model in [MemoryModel::Sc, MemoryModel::Wo, MemoryModel::RCsc] {
                let mut runner = CampaignRunner::new(
                    Arc::new(racy_program()),
                    hw,
                    model,
                    Fidelity::Conditioned,
                    RunConfig::uniform(),
                )
                .unwrap();
                // Interleave seeds so every reset starts from a
                // different dirty state.
                for seed in [3u64, 7, 3, 11, 7] {
                    let mut sched = RandomWeakSched::new(seed, 0.3);
                    let mut sink = TraceBuilder::new(2);
                    let out = runner.run(&mut sched, &mut sink).unwrap();
                    let (fresh_out, fresh_trace) = fresh_run(hw, model, seed);
                    assert_eq!(out, fresh_out, "{hw} {model} seed {seed}: outcome");
                    assert_eq!(sink.finish(), fresh_trace, "{hw} {model} seed {seed}: trace");
                }
            }
        }
    }

    #[test]
    fn accessors_report_configuration() {
        let runner = CampaignRunner::new(
            Arc::new(racy_program()),
            HwImpl::InvalQueue,
            MemoryModel::RCsc,
            Fidelity::Conditioned,
            RunConfig::uniform().with_max_steps(500),
        )
        .unwrap();
        assert_eq!(runner.hw(), HwImpl::InvalQueue);
        assert_eq!(runner.model(), MemoryModel::RCsc);
        assert_eq!(runner.config().max_steps, 500);
        assert_eq!(runner.program().name(), "racy");
    }

    #[test]
    fn invalid_program_rejected_at_construction() {
        let mut prog = Program::new("bad", 0); // zero locations
        use crate::{Addr, Instr};
        prog.push_proc(vec![
            Instr::St { src: 1.into(), addr: Addr::Abs(wmrd_trace::Location::new(9)) },
            Instr::Halt,
        ]);
        let err = CampaignRunner::new(
            Arc::new(prog),
            HwImpl::StoreBuffer,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            RunConfig::uniform(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn reset_after_an_abandoned_run_matches_fresh() {
        let config = RunConfig::uniform().with_max_steps(3);
        let mut runner = CampaignRunner::new(
            Arc::new(racy_program()),
            HwImpl::StoreBuffer,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            config,
        )
        .unwrap();
        // The first run is abandoned mid-flight by the step budget,
        // leaving cores unhalted and buffers possibly non-empty.
        let mut sched = RandomWeakSched::new(5, 0.3);
        let abandoned = runner.run(&mut sched, &mut wmrd_trace::NullSink::new());
        assert!(matches!(abandoned, Err(SimError::StepLimit(3))));
        // The next run must be indistinguishable from one on a fresh
        // machine: start-of-run reset erases whatever was left behind.
        let mut sched = RandomWeakSched::new(9, 0.3);
        let mut sink = TraceBuilder::new(2);
        let reused = runner.run(&mut sched, &mut sink);
        let prog = racy_program();
        let mut fresh_sched = RandomWeakSched::new(9, 0.3);
        let mut fresh_sink = TraceBuilder::new(2);
        let fresh = run_weak_hw(
            HwImpl::StoreBuffer,
            &prog,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut fresh_sched,
            &mut fresh_sink,
            config,
        );
        match (reused, fresh) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(SimError::StepLimit(a)), Err(SimError::StepLimit(b))) => assert_eq!(a, b),
            (a, b) => panic!("reused {a:?} diverged from fresh {b:?}"),
        }
        assert_eq!(sink.finish(), fresh_sink.finish());
    }

    #[test]
    fn cycle_budget_fires_through_runner() {
        let mut runner = CampaignRunner::new(
            Arc::new(racy_program()),
            HwImpl::StoreBuffer,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            RunConfig::uniform().with_max_cycles(1),
        )
        .unwrap();
        let mut sched = RandomWeakSched::new(0, 0.3);
        let err = runner.run(&mut sched, &mut wmrd_trace::NullSink::new());
        assert!(matches!(err, Err(SimError::CycleLimit(1))));
    }
}
