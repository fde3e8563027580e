//! Exhaustive enumeration of *weak* executions.
//!
//! [`enumerate_weak`] explores every schedule of a buffer machine
//! (store buffers or invalidation queues) on a bounded program: at each
//! point the choices are "step some processor" and "drain some pending
//! entry" (any legally drainable buffered write or queued invalidation
//! — this is where weak ordering's reordering enters the search
//! space). Combined with [`enumerate_sc`](crate::enumerate_sc), it
//! upgrades the Condition 3.4 checks from sampled to **exhaustive** on
//! small programs: every weak execution is analyzed, race-free ones are
//! proven sequentially consistent by the linearization oracle, and racy
//! ones have their first partitions matched against the complete set of
//! SC races.

use std::sync::Arc;

use wmrd_sim::{Fidelity, HwImpl, InvalMachine, MemoryModel, Program, Timing, WeakMachine};

use crate::oracle::search;
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

/// Exhaustively enumerates the executions of `program` on the weak
/// machine `hw` under `model`/`fidelity`, up to the budget.
///
/// This is the SC enumerator's search over a [`WeakMachine`] or an
/// [`InvalMachine`]: register-only instructions are executed eagerly,
/// and the branch points are memory steps and drains of pending
/// entries.
///
/// # Errors
///
/// Returns [`VerifyError::Sim`] if the program is invalid or faults,
/// and [`VerifyError::NotEnumerable`] for [`HwImpl::Ooo`], whose
/// pipeline has no drain-choice interface to search over.
pub fn enumerate_weak(
    program: &Program,
    hw: HwImpl,
    model: MemoryModel,
    fidelity: Fidelity,
    config: &EnumConfig,
) -> Result<WeakEnumResult, VerifyError> {
    let program = Arc::new(program.clone());
    let (executions, complete) = match hw {
        HwImpl::StoreBuffer => {
            search(WeakMachine::new(program, model, fidelity, Timing::uniform())?, config)?
        }
        HwImpl::InvalQueue => {
            search(InvalMachine::new(program, model, fidelity, Timing::uniform())?, config)?
        }
        HwImpl::Ooo => return Err(VerifyError::NotEnumerable(hw)),
    };
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
    use wmrd_trace::ProcId;

    fn small_config() -> EnumConfig {
        EnumConfig { max_executions: 50_000, max_steps_per_path: 300, spin_unroll_limit: 1 }
    }

    fn store_buffer(
        program: &Program,
        model: MemoryModel,
        fidelity: Fidelity,
        config: &EnumConfig,
    ) -> Result<WeakEnumResult, VerifyError> {
        enumerate_weak(program, HwImpl::StoreBuffer, model, fidelity, config)
    }

    #[test]
    fn weak_executions_superset_includes_non_sc_behaviors() {
        // fig1a on WO: the enumeration must include an execution where
        // P1 reads y=1 but x=0 — impossible under SC (x is written
        // first), possible when x's write drains after y's.
        let entry = catalog::fig1a();
        let result =
            store_buffer(&entry.program, MemoryModel::Wo, Fidelity::Conditioned, &small_config())
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
            store_buffer(&entry.program, MemoryModel::Wo, Fidelity::Conditioned, &small_config())
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
                store_buffer(&entry.program, model, Fidelity::Conditioned, &small_config())
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
            store_buffer(&entry.program, MemoryModel::Wo, Fidelity::Raw, &small_config()).unwrap();
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
            store_buffer(&entry.program, MemoryModel::Wo, Fidelity::Conditioned, &tight).unwrap();
        assert!(!result.complete);
        assert!(result.executions.len() <= 2);
    }

    /// The invalidation-queue machine enumerates too: with spin loops
    /// cut after one revisit the search terminates on the small
    /// programs, every race-free execution is SC and every first
    /// partition holds a race of the complete SC race set.
    #[test]
    fn inval_queue_enumeration_terminates_and_obeys_condition_3_4() {
        let cases = [
            (catalog::fig1a(), 3),
            (catalog::producer_consumer(), 2),
            (catalog::producer_consumer_racy(), 2),
        ];
        for (entry, expected) in cases {
            let sc = enumerate_sc(&entry.program, &EnumConfig::default()).unwrap();
            let sc_sigs = sc_race_signatures(&sc.executions, PairingPolicy::ByRole).unwrap();
            let weak = enumerate_weak(
                &entry.program,
                HwImpl::InvalQueue,
                MemoryModel::Wo,
                Fidelity::Conditioned,
                &small_config(),
            )
            .unwrap();
            assert_eq!(weak.executions.len(), expected, "{}", entry.name);
            for exec in &weak.executions {
                let report = PostMortem::new(&exec.events).analyze().unwrap();
                if report.is_race_free() {
                    assert!(
                        is_sequentially_consistent(&exec.ops, &entry.program.initial_memory()),
                        "{}: race-free inval-queue execution must be SC",
                        entry.name
                    );
                }
                for part in report.first_partitions() {
                    let races: Vec<_> =
                        part.races.iter().map(|&i| report.races[i].clone()).collect();
                    let sigs = event_race_keys(&races, &exec.events);
                    assert!(sigs.iter().any(|s| sc_sigs.contains(s)), "{}", entry.name);
                }
            }
        }
    }

    #[test]
    fn ooo_is_refused_with_a_typed_error() {
        let entry = catalog::fig1a();
        let err = enumerate_weak(
            &entry.program,
            HwImpl::Ooo,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &small_config(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::NotEnumerable(HwImpl::Ooo)), "{err}");
    }
}
