//! Enumerating and sampling sequentially consistent executions.
//!
//! The enumerator drives a machine directly — no scheduler — doing
//! depth-first search over which processor performs its next *memory*
//! operation (and, on weak memory, which pending entry drains next).
//! Register-only instructions touch no shared state, so they are
//! executed eagerly in a fixed order (a sound partial-order reduction);
//! on [`ScMachine`] the branching factor is the number of processors
//! with a pending memory operation.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use wmrd_sim::{
    run_sc_on, Machine, MemorySystem, Program, RandomWeakSched, RunConfig, ScMachine, Timing,
};
use wmrd_trace::{MultiSink, OpRecorder, OpTrace, ProcId, TraceBuilder, TraceSet, Value};

use crate::VerifyError;

/// One sequentially consistent execution of a program.
#[derive(Debug, Clone)]
pub struct ScExecution {
    /// The exact operation-level trace.
    pub ops: OpTrace,
    /// The event-level trace (what instrumentation would record).
    pub events: TraceSet,
    /// Final shared-memory contents.
    pub final_memory: Vec<Value>,
}

/// Budget for [`enumerate_sc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumConfig {
    /// Stop after gathering this many distinct executions.
    pub max_executions: usize,
    /// Abandon any path longer than this many steps (guards against
    /// unbounded spin loops).
    pub max_steps_per_path: u64,
    /// Prune a path once it revisits the same *behavioral* machine state
    /// (values, not writer identities) more than this many times —
    /// bounding spin-loop unrolling, which otherwise makes the execution
    /// space infinite.
    pub spin_unroll_limit: u8,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig { max_executions: 20_000, max_steps_per_path: 10_000, spin_unroll_limit: 2 }
    }
}

/// The result of an enumeration.
#[derive(Debug, Clone)]
pub struct EnumResult {
    /// Distinct executions found (deduplicated by operation trace).
    pub executions: Vec<ScExecution>,
    /// `true` iff the search space was exhausted within budget — when
    /// `false`, `executions` is a sample, not the full set.
    pub complete: bool,
}

#[derive(Clone)]
struct Node<M> {
    machine: Machine<M>,
    sink: MultiSink<TraceBuilder, OpRecorder>,
    steps: u64,
    /// Behavioral states already visited along this path, with counts
    /// (for spin-unroll pruning).
    visited: HashMap<u64, u8>,
}

impl<M> std::fmt::Debug for Node<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node(steps={})", self.steps)
    }
}

fn ops_fingerprint(ops: &OpTrace) -> u64 {
    let mut h = DefaultHasher::new();
    for op in ops.iter() {
        op.hash(&mut h);
    }
    h.finish()
}

fn recorders(program: &Program) -> MultiSink<TraceBuilder, OpRecorder> {
    MultiSink::new(TraceBuilder::new(program.num_procs()), OpRecorder::new(program.num_procs()))
}

/// Adds the execution a finished sink recorded to `out`, unless an
/// identical operation trace is already there.
fn collect(
    sink: MultiSink<TraceBuilder, OpRecorder>,
    final_memory: Vec<Value>,
    seen: &mut HashSet<u64>,
    out: &mut Vec<ScExecution>,
) {
    let (builder, recorder) = sink.into_inner();
    let ops = recorder.finish();
    if seen.insert(ops_fingerprint(&ops)) {
        out.push(ScExecution { ops, events: builder.finish(), final_memory });
    }
}

/// Runs a node's machine until every runnable processor's next
/// instruction is a memory operation (or it halts).
fn advance_locals<M: MemorySystem>(node: &mut Node<M>) -> Result<(), VerifyError> {
    loop {
        let mut progressed = false;
        for proc in node.machine.runnable() {
            while let Some(instr) = node.machine.next_instr(proc) {
                if instr.touches_memory() {
                    break;
                }
                node.machine.step(proc, &mut node.sink)?;
                node.steps += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Ok(());
        }
    }
}

/// The one depth-first search over a machine's schedules, up to the
/// budget. The choices at each point are "step some processor" and
/// "drain some pending entry" (SC memory has none); register-only
/// instructions execute eagerly in a fixed order (a sound partial-order
/// reduction). Returns the distinct executions and whether the space
/// was exhausted.
pub(crate) fn search<M: MemorySystem>(
    machine: Machine<M>,
    config: &EnumConfig,
) -> Result<(Vec<ScExecution>, bool), VerifyError> {
    let root =
        Node { sink: recorders(machine.program()), machine, steps: 0, visited: HashMap::new() };
    let mut stack = vec![root];
    let mut executions = Vec::new();
    let mut seen = HashSet::new();
    let mut complete = true;

    while let Some(mut node) = stack.pop() {
        if executions.len() >= config.max_executions {
            complete = false;
            break;
        }
        advance_locals(&mut node)?;
        let runnable = node.machine.runnable();
        let mut drains: Vec<(ProcId, usize)> = Vec::new();
        for pi in 0..node.machine.program().num_procs() {
            let proc = ProcId::new(pi as u16);
            drains.extend(node.machine.drainable_indices(proc).into_iter().map(|i| (proc, i)));
        }
        if runnable.is_empty() && drains.is_empty() {
            let final_memory = node.machine.memory_values();
            collect(node.sink, final_memory, &mut seen, &mut executions);
            continue;
        }
        if node.steps >= config.max_steps_per_path {
            complete = false;
            continue;
        }
        let bf = node.machine.behavioral_fingerprint();
        let count = node.visited.entry(bf).or_insert(0);
        *count += 1;
        if *count > config.spin_unroll_limit {
            // A spin loop returned to an already-seen behavioral state;
            // further unrolling yields no new behaviors, only longer
            // traces of the same races.
            complete = false;
            continue;
        }
        for proc in runnable {
            let mut child = node.clone();
            child.machine.step(proc, &mut child.sink)?;
            child.steps += 1;
            stack.push(child);
        }
        for (proc, idx) in drains {
            let mut child = node.clone();
            child.machine.drain_one(proc, idx)?;
            child.steps += 1;
            stack.push(child);
        }
    }
    Ok((executions, complete))
}

/// Exhaustively enumerates the sequentially consistent executions of
/// `program`, up to the budget.
///
/// # Errors
///
/// Returns [`VerifyError::Sim`] if the program is invalid or faults.
/// Hitting the budget is *not* an error — it is reported through
/// [`EnumResult::complete`].
pub fn enumerate_sc(program: &Program, config: &EnumConfig) -> Result<EnumResult, VerifyError> {
    let machine = ScMachine::new(Arc::new(program.clone()), Timing::uniform())?;
    let (executions, complete) = search(machine, config)?;
    Ok(EnumResult { executions, complete })
}

/// Draws one SC execution per seed with a seeded random scheduler,
/// deduplicated by operation trace. Every draw runs through
/// [`run_sc_on`] on one reused machine, so `run_config`'s step and
/// cycle budgets bound each draw exactly as they bound
/// [`run_sc`](wmrd_sim::run_sc).
///
/// # Errors
///
/// Returns [`VerifyError::Sim`] on simulator faults (including the step
/// and cycle limits in `run_config`).
pub fn sample_sc(
    program: &Program,
    seeds: impl IntoIterator<Item = u64>,
    run_config: RunConfig,
) -> Result<Vec<ScExecution>, VerifyError> {
    let mut machine = ScMachine::new(Arc::new(program.clone()), run_config.timing)?;
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for seed in seeds {
        machine.reset();
        let mut sink = recorders(program);
        run_sc_on(&mut machine, &mut RandomWeakSched::new(seed, 0.0), &mut sink, run_config)?;
        collect(sink, machine.memory_values(), &mut seen, &mut out);
    }
    Ok(out)
}

/// Convenience: `ProcId` for index `i` (test helper used across this
/// crate's tests).
#[cfg(test)]
pub(crate) fn pid(i: u16) -> wmrd_trace::ProcId {
    wmrd_trace::ProcId::new(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_sequentially_consistent;
    use wmrd_progs::catalog;
    use wmrd_sim::{run_sc, Addr, Instr, Reg, SimError};
    use wmrd_trace::{Location, NullSink};

    /// The SC samples run through the same driver loop as `run_sc`, so a
    /// cycle budget no execution fits in fails both the same way.
    #[test]
    fn sample_sc_honours_the_cycle_budget() {
        let config = RunConfig::default().with_max_cycles(5);
        for entry in catalog::all() {
            let err = sample_sc(&entry.program, 0..1, config).unwrap_err();
            assert!(matches!(err, VerifyError::Sim(SimError::CycleLimit(5))), "{}", entry.name);
            let run = run_sc(
                &entry.program,
                &mut RandomWeakSched::new(0, 0.0),
                &mut NullSink::new(),
                config,
            );
            assert!(matches!(run, Err(SimError::CycleLimit(5))), "{}", entry.name);
        }
    }

    #[test]
    fn enumerates_fig1a_completely() {
        let fig1a = catalog::fig1a();
        let result = enumerate_sc(&fig1a.program, &EnumConfig::default()).unwrap();
        assert!(result.complete);
        // P0 has one computation (2 writes), P1 one computation (2
        // reads); op-level interleavings of 2+2 ops: C(4,2)=6, but traces
        // dedup by read values, leaving the distinct observable
        // executions.
        assert!((2..=6).contains(&result.executions.len()), "got {}", result.executions.len());
        for exec in &result.executions {
            assert!(is_sequentially_consistent(&exec.ops, &fig1a.program.initial_memory()));
            assert_eq!(exec.final_memory.len(), 3);
            assert!(exec.events.validate().is_ok());
        }
    }

    #[test]
    fn enumeration_covers_both_race_outcomes() {
        // In fig1a, P1 can read (y,x) as (0,0), (1,1), (0,1)... — at
        // least the all-old and all-new outcomes must appear.
        let fig1a = catalog::fig1a();
        let result = enumerate_sc(&fig1a.program, &EnumConfig::default()).unwrap();
        let read_pairs: HashSet<(i64, i64)> = result
            .executions
            .iter()
            .map(|e| {
                let ops = e.ops.proc_ops(pid(1)).unwrap();
                (ops[0].value.get(), ops[1].value.get())
            })
            .collect();
        assert!(read_pairs.contains(&(0, 0)));
        assert!(read_pairs.contains(&(1, 1)));
        // And never the non-SC outcome "new y (flag) but old x" ... which
        // IS possible under SC here since y is written second: reading
        // y=1 implies x=1 already written. Check it:
        assert!(!read_pairs.contains(&(1, 0)), "y=1 implies x=1 under SC");
    }

    #[test]
    fn budget_truncation_is_reported() {
        let fig1a = catalog::fig1a();
        let tight = EnumConfig { max_executions: 1, ..EnumConfig::default() };
        let result = enumerate_sc(&fig1a.program, &tight).unwrap();
        assert!(!result.complete);
        assert_eq!(result.executions.len(), 1);
    }

    #[test]
    fn step_cap_prunes_unbounded_spins() {
        // A program that can spin forever: enumeration must terminate,
        // incomplete.
        let mut prog = Program::new("spin", 2);
        prog.set_init(Location::new(0), Value::new(1));
        prog.push_proc(vec![
            Instr::TestSet { dst: Reg::new(0), addr: Addr::Abs(Location::new(0)) },
            Instr::Bnz { cond: Reg::new(0), target: 0 },
            Instr::Halt,
        ]);
        prog.push_proc(vec![Instr::Unset { addr: Addr::Abs(Location::new(0)) }, Instr::Halt]);
        let cfg =
            EnumConfig { max_executions: 100, max_steps_per_path: 40, ..EnumConfig::default() };
        let result = enumerate_sc(&prog, &cfg).unwrap();
        assert!(!result.complete, "spin paths exceed the cap");
        assert!(!result.executions.is_empty(), "finite paths still collected");
    }

    #[test]
    fn sample_sc_dedups_and_validates() {
        let fig1a = catalog::fig1a();
        let samples = sample_sc(&fig1a.program, 0..20, RunConfig::uniform()).unwrap();
        assert!(!samples.is_empty());
        assert!(samples.len() <= 20);
        for s in &samples {
            assert!(is_sequentially_consistent(&s.ops, &fig1a.program.initial_memory()));
        }
        // Sampled executions are a subset of the enumerated set.
        let full = enumerate_sc(&fig1a.program, &EnumConfig::default()).unwrap();
        let full_prints: HashSet<u64> =
            full.executions.iter().map(|e| ops_fingerprint(&e.ops)).collect();
        for s in &samples {
            assert!(full_prints.contains(&ops_fingerprint(&s.ops)));
        }
    }

    #[test]
    fn deterministic_program_has_one_execution() {
        let mut prog = Program::new("seq", 2);
        prog.push_proc(vec![
            Instr::St { src: 1.into(), addr: Addr::Abs(Location::new(0)) },
            Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(Location::new(0)) },
            Instr::Halt,
        ]);
        let result = enumerate_sc(&prog, &EnumConfig::default()).unwrap();
        assert!(result.complete);
        assert_eq!(result.executions.len(), 1);
        assert_eq!(result.executions[0].final_memory[0], Value::new(1));
    }

    #[test]
    fn enumeration_of_locked_program_is_race_free_everywhere() {
        use wmrd_core::{detect_races, HbGraph, PairingPolicy};
        let entry = catalog::counter_locked(2, 1);
        let result = enumerate_sc(&entry.program, &EnumConfig::default()).unwrap();
        // Spin loops make the raw execution space infinite; the unroll
        // bound truncates it, so `complete` is false by design here.
        assert!(!result.executions.is_empty());
        for exec in &result.executions {
            let trace = exec.ops.to_event_trace();
            let hb = HbGraph::build(&trace, PairingPolicy::ByRole).unwrap();
            assert!(detect_races(&trace, &hb).is_empty());
            // Both increments land.
            assert_eq!(exec.final_memory[1], Value::new(2));
        }
    }
}
