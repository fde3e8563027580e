//! Schedulers: who steps next, and when store buffers drain.
//!
//! Simulated executions are driven step by step; the scheduler owns all
//! nondeterminism. Deterministic schedulers ([`RoundRobin`],
//! [`FixedScript`], [`WeakScript`]) make figures and tests reproducible;
//! seeded random schedulers explore the execution space; the exhaustive
//! enumerator in `wmrd-verify` bypasses schedulers entirely and drives
//! machines directly.

use wmrd_trace::{ProcId, SplitMix64};

/// The scheduler-facing view of a weak machine: which processors can
/// step, and which pending entries (buffered writes for the store-buffer
/// machine, queued invalidations for the invalidation-queue machine) can
/// be drained. Both weak hardware implementations expose this view, so
/// one scheduler drives either.
pub trait DrainView {
    /// Processors that can still execute an instruction.
    fn runnable_procs(&self) -> Vec<ProcId>;
    /// Indices of `proc`'s pending entries that may legally drain now.
    fn drainable(&self, proc: ProcId) -> Vec<usize>;
    /// Number of pending entries for `proc`.
    fn pending_len(&self, proc: ProcId) -> usize;
    /// Number of processors in the machine.
    fn num_procs(&self) -> usize;
}

/// Chooses which processor steps next on an [`ScMachine`](crate::ScMachine).
pub trait Scheduler {
    /// Picks one of `runnable` (never empty). Returning `None` stops the
    /// run early.
    fn next(&mut self, runnable: &[ProcId]) -> Option<ProcId>;
}

/// Fair round-robin over runnable processors.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    last: Option<ProcId>,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at processor 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn next(&mut self, runnable: &[ProcId]) -> Option<ProcId> {
        let pick = match self.last {
            None => *runnable.first()?,
            Some(last) => *runnable.iter().find(|p| **p > last).or_else(|| runnable.first())?,
        };
        self.last = Some(pick);
        Some(pick)
    }
}

/// Uniformly random scheduling from a seed.
#[derive(Debug, Clone)]
pub struct RandomSched {
    rng: SplitMix64,
}

impl RandomSched {
    /// Creates a seeded random scheduler.
    pub fn new(seed: u64) -> Self {
        RandomSched { rng: SplitMix64::new(seed) }
    }
}

impl Scheduler for RandomSched {
    fn next(&mut self, runnable: &[ProcId]) -> Option<ProcId> {
        if runnable.is_empty() {
            return None;
        }
        Some(runnable[self.rng.range(0..runnable.len())])
    }
}

/// Replays a fixed processor script, then falls back to round-robin.
///
/// Script entries naming processors that are no longer runnable are
/// skipped. This is how the paper's figure executions are pinned down
/// exactly.
#[derive(Debug, Clone)]
pub struct FixedScript {
    script: Vec<ProcId>,
    pos: usize,
    fallback: RoundRobin,
}

impl FixedScript {
    /// Creates a scripted scheduler.
    pub fn new(script: Vec<ProcId>) -> Self {
        FixedScript { script, pos: 0, fallback: RoundRobin::new() }
    }

    /// Convenience constructor from raw processor indices.
    pub fn from_indices(indices: &[u16]) -> Self {
        FixedScript::new(indices.iter().map(|&i| ProcId::new(i)).collect())
    }
}

impl Scheduler for FixedScript {
    fn next(&mut self, runnable: &[ProcId]) -> Option<ProcId> {
        while self.pos < self.script.len() {
            let pick = self.script[self.pos];
            self.pos += 1;
            if runnable.contains(&pick) {
                return Some(pick);
            }
        }
        self.fallback.next(runnable)
    }
}

/// One scheduling decision on a weak machine (any [`DrainView`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakAction {
    /// Execute the next instruction of a processor.
    Step(ProcId),
    /// Complete one pending entry in the background: drain a buffered
    /// write, apply an invalidation, or fill a load. The index addresses
    /// the processor's pending entries; it must be drainable (see
    /// [`DrainView::drainable`]).
    Drain(ProcId, usize),
}

/// Chooses the next action on a weak machine (any [`DrainView`]).
pub trait WeakScheduler {
    /// Picks an action, or `None` when the machine is fully quiescent
    /// (all processors halted *and* all pending entries drained — the
    /// runner force-flushes if a scheduler gives up earlier).
    fn next(&mut self, machine: &dyn DrainView) -> Option<WeakAction>;
}

/// Fair weak scheduler: round-robin steps, with a background drain of one
/// buffered write every `drain_interval` decisions (the memory system
/// makes progress even while cores spin — without this, a core spinning
/// on a data flag would never observe another core's buffered write).
/// A processor whose buffer exceeds `capacity` drains before stepping
/// again; leftovers drain after all processors halt.
#[derive(Debug, Clone)]
pub struct WeakRoundRobin {
    rr: RoundRobin,
    capacity: usize,
    drain_interval: u32,
    decisions: u32,
}

impl WeakRoundRobin {
    /// Creates the scheduler with the given buffer capacity (entries
    /// beyond it drain before the owner may step again).
    pub fn with_capacity(capacity: usize) -> Self {
        WeakRoundRobin { rr: RoundRobin::new(), capacity, drain_interval: 4, decisions: 0 }
    }

    /// Default capacity of 8 entries.
    pub fn new() -> Self {
        WeakRoundRobin::with_capacity(8)
    }

    fn oldest_drain(machine: &dyn DrainView) -> Option<WeakAction> {
        for i in 0..machine.num_procs() {
            let proc = ProcId::new(i as u16);
            if let Some(&idx) = machine.drainable(proc).first() {
                return Some(WeakAction::Drain(proc, idx));
            }
        }
        None
    }
}

impl Default for WeakRoundRobin {
    fn default() -> Self {
        WeakRoundRobin::new()
    }
}

impl WeakScheduler for WeakRoundRobin {
    fn next(&mut self, machine: &dyn DrainView) -> Option<WeakAction> {
        self.decisions += 1;
        // Periodic background drain keeps pending entries flowing while
        // cores run.
        if self.decisions.is_multiple_of(self.drain_interval) {
            if let Some(drain) = Self::oldest_drain(machine) {
                return Some(drain);
            }
        }
        let runnable = machine.runnable_procs();
        if let Some(pick) = self.rr.next(&runnable) {
            if machine.pending_len(pick) >= self.capacity {
                let idx = *machine
                    .drainable(pick)
                    .first()
                    .expect("non-empty pending queue has a drainable entry");
                return Some(WeakAction::Drain(pick, idx));
            }
            return Some(WeakAction::Step(pick));
        }
        // Everyone halted: drain leftovers in order.
        Self::oldest_drain(machine)
    }
}

/// Seeded random weak scheduler.
///
/// Each decision: with probability `drain_prob` (and a non-empty buffer
/// somewhere) drain a random drainable entry — possibly out of program
/// order, which is what produces weak-ordering reorderings like Figure
/// 2b's stale read; otherwise step a random runnable processor.
#[derive(Debug, Clone)]
pub struct RandomWeakSched {
    rng: SplitMix64,
    drain_prob: f64,
}

impl RandomWeakSched {
    /// Creates a seeded scheduler with the given drain probability
    /// (clamped to `[0, 1]`).
    pub fn new(seed: u64, drain_prob: f64) -> Self {
        RandomWeakSched { rng: SplitMix64::new(seed), drain_prob: drain_prob.clamp(0.0, 1.0) }
    }
}

impl WeakScheduler for RandomWeakSched {
    fn next(&mut self, machine: &dyn DrainView) -> Option<WeakAction> {
        let runnable = machine.runnable_procs();
        let mut drains: Vec<(ProcId, usize)> = Vec::new();
        for i in 0..machine.num_procs() {
            let proc = ProcId::new(i as u16);
            for idx in machine.drainable(proc) {
                drains.push((proc, idx));
            }
        }
        let want_drain =
            !drains.is_empty() && (runnable.is_empty() || self.rng.chance(self.drain_prob));
        if want_drain {
            let (proc, idx) = drains[self.rng.range(0..drains.len())];
            return Some(WeakAction::Drain(proc, idx));
        }
        if runnable.is_empty() {
            return None;
        }
        Some(WeakAction::Step(runnable[self.rng.range(0..runnable.len())]))
    }
}

/// Replays a fixed list of weak actions, then falls back to
/// [`WeakRoundRobin`].
///
/// Invalid scripted actions (halted processor, bad drain index) are
/// skipped rather than surfaced, so scripts can be written against the
/// intended execution without accounting for every fallback path.
#[derive(Debug, Clone)]
pub struct WeakScript {
    actions: Vec<WeakAction>,
    pos: usize,
    fallback: WeakRoundRobin,
}

impl WeakScript {
    /// Creates a scripted weak scheduler.
    pub fn new(actions: Vec<WeakAction>) -> Self {
        WeakScript { actions, pos: 0, fallback: WeakRoundRobin::new() }
    }
}

impl WeakScheduler for WeakScript {
    fn next(&mut self, machine: &dyn DrainView) -> Option<WeakAction> {
        while self.pos < self.actions.len() {
            let action = self.actions[self.pos];
            self.pos += 1;
            let valid = match action {
                WeakAction::Step(p) => machine.runnable_procs().contains(&p),
                WeakAction::Drain(p, idx) => machine.drainable(p).contains(&idx),
            };
            if valid {
                return Some(action);
            }
        }
        self.fallback.next(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fidelity, Instr, MemoryModel, Program, Timing, WeakMachine};
    use std::sync::Arc;
    use wmrd_trace::NullSink;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut rr = RoundRobin::new();
        let procs = vec![p(0), p(1), p(2)];
        let picks: Vec<_> = (0..6).map(|_| rr.next(&procs).unwrap()).collect();
        assert_eq!(picks, vec![p(0), p(1), p(2), p(0), p(1), p(2)]);
    }

    #[test]
    fn round_robin_skips_halted() {
        let mut rr = RoundRobin::new();
        assert_eq!(rr.next(&[p(0), p(1)]).unwrap(), p(0));
        // p0 halts; only p1 remains.
        assert_eq!(rr.next(&[p(1)]).unwrap(), p(1));
        assert_eq!(rr.next(&[p(1)]).unwrap(), p(1));
        assert!(rr.next(&[]).is_none());
    }

    #[test]
    fn random_sched_is_deterministic_per_seed() {
        let procs = vec![p(0), p(1), p(2)];
        let run = |seed| {
            let mut s = RandomSched::new(seed);
            (0..20).map(|_| s.next(&procs).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ (overwhelmingly likely)");
        assert!(RandomSched::new(1).next(&[]).is_none());
    }

    #[test]
    fn fixed_script_replays_then_falls_back() {
        let mut s = FixedScript::from_indices(&[1, 1, 0]);
        let procs = vec![p(0), p(1)];
        assert_eq!(s.next(&procs).unwrap(), p(1));
        assert_eq!(s.next(&procs).unwrap(), p(1));
        assert_eq!(s.next(&procs).unwrap(), p(0));
        // Script exhausted: round-robin takes over (fresh, from P0).
        assert_eq!(s.next(&procs).unwrap(), p(0));
        assert_eq!(s.next(&procs).unwrap(), p(1));
    }

    #[test]
    fn fixed_script_skips_unrunnable_entries() {
        let mut s = FixedScript::from_indices(&[3, 0]);
        let procs = vec![p(0)];
        assert_eq!(s.next(&procs).unwrap(), p(0), "entry for halted P3 skipped");
    }

    fn weak_machine_with_buffered_writes() -> WeakMachine {
        let mut prog = Program::new("t", 4);
        prog.push_proc(vec![
            Instr::St { src: 1.into(), addr: wmrd_trace::Location::new(0).into() },
            Instr::St { src: 2.into(), addr: wmrd_trace::Location::new(1).into() },
            Instr::Halt,
        ]);
        let mut m = WeakMachine::new(
            Arc::new(prog),
            MemoryModel::Wo,
            Fidelity::Conditioned,
            Timing::uniform(),
        )
        .unwrap();
        let mut sink = NullSink::new();
        m.step(p(0), &mut sink).unwrap();
        m.step(p(0), &mut sink).unwrap();
        m
    }

    #[test]
    fn weak_round_robin_drains_after_halt() {
        let mut m = weak_machine_with_buffered_writes();
        let mut sink = NullSink::new();
        let mut sched = WeakRoundRobin::new();
        // One runnable step remains (Halt), then drains, then None.
        let mut actions = Vec::new();
        while let Some(a) = sched.next(&m) {
            actions.push(a);
            match a {
                WeakAction::Step(pr) => {
                    m.step(pr, &mut sink).unwrap();
                }
                WeakAction::Drain(pr, idx) => {
                    m.drain_one(pr, idx).unwrap();
                }
            }
        }
        assert!(m.all_halted());
        assert!(m.buffers_empty());
        assert_eq!(
            actions,
            vec![WeakAction::Step(p(0)), WeakAction::Drain(p(0), 0), WeakAction::Drain(p(0), 0)]
        );
    }

    #[test]
    fn weak_round_robin_respects_capacity() {
        let mut prog = Program::new("t", 4);
        prog.push_proc(vec![
            Instr::St { src: 1.into(), addr: wmrd_trace::Location::new(0).into() },
            Instr::St { src: 2.into(), addr: wmrd_trace::Location::new(1).into() },
            Instr::Halt,
        ]);
        let mut m = WeakMachine::new(
            Arc::new(prog),
            MemoryModel::Wo,
            Fidelity::Conditioned,
            Timing::uniform(),
        )
        .unwrap();
        let mut sink = NullSink::new();
        let mut sched = WeakRoundRobin::with_capacity(1);
        // First decision: step (buffer empty).
        assert_eq!(sched.next(&m).unwrap(), WeakAction::Step(p(0)));
        m.step(p(0), &mut sink).unwrap();
        // Buffer now at capacity: must drain before stepping again.
        assert_eq!(sched.next(&m).unwrap(), WeakAction::Drain(p(0), 0));
    }

    #[test]
    fn random_weak_sched_deterministic_per_seed() {
        let run = |seed| {
            let mut m = weak_machine_with_buffered_writes();
            let mut sink = NullSink::new();
            let mut sched = RandomWeakSched::new(seed, 0.5);
            let mut actions = Vec::new();
            while let Some(a) = sched.next(&m) {
                actions.push(a);
                match a {
                    WeakAction::Step(pr) => {
                        m.step(pr, &mut sink).unwrap();
                    }
                    WeakAction::Drain(pr, idx) => {
                        m.drain_one(pr, idx).unwrap();
                    }
                }
            }
            (actions, m.memory_values())
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn weak_script_replays_out_of_order_drain() {
        let mut m = weak_machine_with_buffered_writes();
        let mut sink = NullSink::new();
        // Drain entry 1 (the *later* write, to a different location) first.
        let mut sched = WeakScript::new(vec![WeakAction::Drain(p(0), 1)]);
        let a = sched.next(&m).unwrap();
        assert_eq!(a, WeakAction::Drain(p(0), 1));
        m.drain_one(p(0), 1).unwrap();
        assert_eq!(m.memory_values()[1], wmrd_trace::Value::new(2));
        assert_eq!(m.memory_values()[0], wmrd_trace::Value::ZERO, "older write still pending");
        // Script exhausted: fallback finishes the run.
        while let Some(a) = sched.next(&m) {
            match a {
                WeakAction::Step(pr) => {
                    m.step(pr, &mut sink).unwrap();
                }
                WeakAction::Drain(pr, idx) => {
                    m.drain_one(pr, idx).unwrap();
                }
            }
        }
        assert!(m.buffers_empty());
    }

    #[test]
    fn weak_script_skips_invalid_actions() {
        let m = weak_machine_with_buffered_writes();
        let mut sched = WeakScript::new(vec![
            WeakAction::Step(p(9)),      // no such processor
            WeakAction::Drain(p(0), 99), // no such entry
            WeakAction::Drain(p(0), 0),  // valid
        ]);
        assert_eq!(sched.next(&m).unwrap(), WeakAction::Drain(p(0), 0));
    }
}
