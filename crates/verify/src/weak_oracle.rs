//! Exhaustive enumeration of *weak* executions.
//!
//! [`enumerate_weak`] explores every schedule of the store-buffer
//! machine on a bounded program: at each point the choices are "step
//! some processor" and "drain some buffered write" (any legally
//! drainable entry — this is where weak ordering's write reordering
//! enters the search space). Combined with [`enumerate_sc`]
//! (crate::enumerate_sc), it upgrades the Condition 3.4 checks from
//! sampled to **exhaustive** on small programs: every weak execution is
//! analyzed, race-free ones are proven sequentially consistent by the
//! linearization oracle, and racy ones have their first partitions
//! matched against the complete set of SC races.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use wmrd_sim::{Fidelity, MemoryModel, Program, Timing, WeakMachine};
use wmrd_trace::{MultiSink, OpRecorder, ProcId, TraceBuilder};

use crate::{EnumConfig, ScExecution, VerifyError};

/// The result of a weak-execution enumeration.
#[derive(Debug, Clone)]
pub struct WeakEnumResult {
    /// Distinct executions (by operation trace), with both trace
    /// granularities and final memory — the same shape as SC executions.
    pub executions: Vec<ScExecution>,
    /// `true` iff the schedule space was exhausted within budget.
    pub complete: bool,
}

#[derive(Clone)]
struct Node {
    machine: WeakMachine,
    sink: MultiSink<TraceBuilder, OpRecorder>,
    steps: u64,
    visited: HashMap<u64, u8>,
}

fn ops_fingerprint(ops: &wmrd_trace::OpTrace) -> u64 {
    let mut h = DefaultHasher::new();
    for op in ops.iter() {
        op.hash(&mut h);
    }
    h.finish()
}

/// Exhaustively enumerates the executions of `program` on the
/// store-buffer weak machine under `model`/`fidelity`, up to the budget.
///
/// Register-only instructions are executed eagerly (the same
/// partial-order reduction the SC enumerator uses); the branch points
/// are memory steps and buffer drains.
///
/// # Errors
///
/// Returns [`VerifyError::Sim`] if the program is invalid or faults.
pub fn enumerate_weak(
    program: &Program,
    model: MemoryModel,
    fidelity: Fidelity,
    config: &EnumConfig,
) -> Result<WeakEnumResult, VerifyError> {
    let arc = Arc::new(program.clone());
    let root = Node {
        machine: WeakMachine::new(Arc::clone(&arc), model, fidelity, Timing::uniform())?,
        sink: MultiSink::new(
            TraceBuilder::new(program.num_procs()),
            OpRecorder::new(program.num_procs()),
        ),
        steps: 0,
        visited: HashMap::new(),
    };
    let mut stack = vec![root];
    let mut executions = Vec::new();
    let mut seen = HashSet::new();
    let mut complete = true;

    while let Some(mut node) = stack.pop() {
        if executions.len() >= config.max_executions {
            complete = false;
            break;
        }
        // Eagerly run local instructions of every runnable processor.
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
                break;
            }
        }
        let runnable = node.machine.runnable();
        let mut drains: Vec<(ProcId, usize)> = Vec::new();
        for pi in 0..program.num_procs() {
            let proc = ProcId::new(pi as u16);
            for idx in node.machine.drainable_indices(proc) {
                drains.push((proc, idx));
            }
        }
        if runnable.is_empty() && drains.is_empty() {
            let (builder, recorder) = node.sink.into_inner();
            let ops = recorder.finish();
            if seen.insert(ops_fingerprint(&ops)) {
                executions.push(ScExecution {
                    ops,
                    events: builder.finish(),
                    final_memory: node.machine.memory_values(),
                });
            }
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
    Ok(WeakEnumResult { executions, complete })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorems::sc_race_signatures;
    use crate::{enumerate_sc, is_sequentially_consistent};
    use std::collections::BTreeSet;
    use wmrd_core::{event_race_keys, PairingPolicy, PostMortem, RaceKey};
    use wmrd_progs::catalog;

    fn small_config() -> EnumConfig {
        EnumConfig { max_executions: 50_000, max_steps_per_path: 300, spin_unroll_limit: 1 }
    }

    #[test]
    fn weak_executions_superset_includes_non_sc_behaviors() {
        // fig1a on WO: the enumeration must include an execution where
        // P1 reads y=1 but x=0 — impossible under SC (x is written
        // first), possible when x's write drains after y's.
        let entry = catalog::fig1a();
        let result =
            enumerate_weak(&entry.program, MemoryModel::Wo, Fidelity::Conditioned, &small_config())
                .unwrap();
        assert!(result.complete, "fig1a's weak schedule space is finite");
        let p1 = ProcId::new(1);
        let mut saw_non_sc = false;
        for exec in &result.executions {
            let ops = exec.ops.proc_ops(p1).unwrap();
            let (y, x) = (ops[0].value.get(), ops[1].value.get());
            if (y, x) == (1, 0) {
                saw_non_sc = true;
            }
        }
        assert!(saw_non_sc, "weak ordering must expose the reordered outcome");
    }

    /// The exhaustive Condition 3.4 check on fig1a: every weak execution
    /// either is sequentially consistent, or its first partitions contain
    /// races from the *complete* SC race set.
    #[test]
    fn condition_3_4_exhaustive_on_fig1a() {
        let entry = catalog::fig1a();
        let sc = enumerate_sc(&entry.program, &EnumConfig::default()).unwrap();
        assert!(sc.complete);
        let sc_sigs: BTreeSet<RaceKey> =
            sc_race_signatures(&sc.executions, PairingPolicy::ByRole).unwrap();

        let weak =
            enumerate_weak(&entry.program, MemoryModel::Wo, Fidelity::Conditioned, &small_config())
                .unwrap();
        assert!(weak.complete);
        assert!(weak.executions.len() >= sc.executions.len());
        for exec in &weak.executions {
            let report = PostMortem::new(&exec.events).analyze().unwrap();
            if report.is_race_free() {
                assert!(
                    is_sequentially_consistent(&exec.ops, &entry.program.initial_memory()),
                    "race-free weak execution must be SC"
                );
            } else {
                for part in report.first_partitions() {
                    let races: Vec<_> =
                        part.races.iter().map(|&i| report.races[i].clone()).collect();
                    let sigs = event_race_keys(&races, &exec.events);
                    assert!(
                        sigs.iter().any(|s| sc_sigs.contains(s)),
                        "first partition without an SC race"
                    );
                }
            }
        }
    }

    /// Exhaustive SC-for-DRF on the producer/consumer (no spin in the
    /// producer; the consumer's flag spin is bounded by the unroll
    /// limit): every complete weak execution under every weak model is
    /// race-free and sequentially consistent.
    #[test]
    fn drf_program_is_sc_on_every_enumerated_weak_execution() {
        let entry = catalog::producer_consumer();
        for model in [MemoryModel::Wo, MemoryModel::RCsc] {
            let result =
                enumerate_weak(&entry.program, model, Fidelity::Conditioned, &small_config())
                    .unwrap();
            assert!(!result.executions.is_empty(), "{model}");
            for exec in &result.executions {
                let report = PostMortem::new(&exec.events).analyze().unwrap();
                assert!(report.is_race_free(), "{model}: DRF program raced");
                assert!(
                    is_sequentially_consistent(&exec.ops, &entry.program.initial_memory()),
                    "{model}: weak execution of DRF program not SC"
                );
            }
        }
    }

    /// On the *raw* machine the same exhaustive sweep finds executions
    /// that are race-free yet not SC — exhaustively demonstrating that
    /// Condition 3.4 is a real hardware obligation.
    #[test]
    fn raw_machine_exhaustively_violates() {
        let entry = catalog::ping_pong();
        let result =
            enumerate_weak(&entry.program, MemoryModel::Wo, Fidelity::Raw, &small_config())
                .unwrap();
        let mut violations = 0;
        for exec in &result.executions {
            let report = PostMortem::new(&exec.events).analyze().unwrap();
            if report.is_race_free()
                && !is_sequentially_consistent(&exec.ops, &entry.program.initial_memory())
            {
                violations += 1;
            }
        }
        assert!(violations > 0, "raw hardware must exhibit violations in the full space");
    }

    #[test]
    fn budget_is_respected() {
        let entry = catalog::fig1a();
        let tight = EnumConfig { max_executions: 2, ..EnumConfig::default() };
        let result =
            enumerate_weak(&entry.program, MemoryModel::Wo, Fidelity::Conditioned, &tight).unwrap();
        assert!(!result.complete);
        assert!(result.executions.len() <= 2);
    }
}
