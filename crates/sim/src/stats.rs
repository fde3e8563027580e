//! Deterministic per-run execution statistics.
//!
//! Every machine — the in-order [`Machine`](crate::Machine) over any memory
//! system, and the [`OooMachine`](crate::OooMachine) — keeps a [`SimStats`]
//! in its [`MachineState`](crate::MachineState). The counters are
//! plain integers incremented on the machine's hot paths — they cost an add
//! each, are always on, and depend only on the executed schedule, so a fixed
//! program + scheduler seed always yields byte-identical statistics. The
//! runners in [`run`](crate::run_sc) copy the final counters into
//! [`RunOutcome::stats`](crate::RunOutcome), and
//! [`record_into`](SimStats::record_into) bridges them to the observability
//! layer in `wmrd-trace` under `sim.*` counter keys.

use wmrd_trace::Metrics;

/// Counters describing what the memory system did during a run.
///
/// Fields that do not apply to a machine stay zero (e.g. the SC machine
/// never buffers, so `buffered_writes` is 0 there). All counters are
/// deterministic for a fixed program and schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Data (non-synchronization) read operations executed.
    pub data_reads: u64,
    /// Data write operations executed.
    pub data_writes: u64,
    /// Synchronization accesses reported to the trace sink (`Test&Set`
    /// counts its read and its write separately).
    pub sync_ops: u64,
    /// Data reads served from the issuing core's own store buffer
    /// (store-to-load forwarding; store-buffer machine only).
    pub buffer_forwards: u64,
    /// Data reads served from the local cache (invalidation-queue machine
    /// only; includes stale hits).
    pub cache_hits: u64,
    /// Data reads that observed a stale value: on the store-buffer machine
    /// a read from global memory while another processor still buffers a
    /// write to the same location; on the invalidation-queue machine a
    /// cache hit on a location with a pending invalidation queued.
    pub stale_reads: u64,
    /// Data writes deferred into a store buffer rather than completed
    /// against shared memory.
    pub buffered_writes: u64,
    /// Background drain actions ([`drain_one`](crate::Machine::drain_one)):
    /// single buffered writes made visible or single invalidations
    /// applied, without stalling the core.
    pub background_drains: u64,
    /// Full flushes of a store buffer or invalidation queue — the stalls at
    /// synchronization points demanded by the memory model, plus the
    /// runner's final settle-flush when a scheduler stops early.
    pub sync_flushes: u64,
    /// Entries drained (or invalidations applied) across all flushes.
    pub flushed_entries: u64,
    /// Cycles charged to cores for flush stalls
    /// (`drain_per_entry × flushed_entries` under the configured
    /// [`Timing`](crate::Timing)).
    pub flush_stall_cycles: u64,
    /// Invalidation-queue entries enqueued at remote processors by
    /// completing writes (invalidation-queue machine only).
    pub invalidations_queued: u64,
    /// Reorder-buffer entries retired in program order
    /// ([`OooMachine`](crate::OooMachine) only).
    pub ooo_retired: u64,
    /// Full pipeline drains — ROB plus store buffer — at fences and
    /// synchronization points (out-of-order machine only).
    pub ooo_flushes: u64,
    /// Load fills forwarded from an older in-flight or buffered store of
    /// the same core instead of shared memory (out-of-order machine
    /// only; counts sync reads too, unlike `buffer_forwards`).
    pub ooo_forwards: u64,
    /// Load-fill completions: issued loads bound to a value, in any
    /// order the speculation window permits (out-of-order machine only).
    pub ooo_load_fills: u64,
}

impl SimStats {
    /// Adds every counter of `other` into `self` (useful when aggregating
    /// several runs into one report).
    pub fn merge(&mut self, other: &SimStats) {
        self.data_reads += other.data_reads;
        self.data_writes += other.data_writes;
        self.sync_ops += other.sync_ops;
        self.buffer_forwards += other.buffer_forwards;
        self.cache_hits += other.cache_hits;
        self.stale_reads += other.stale_reads;
        self.buffered_writes += other.buffered_writes;
        self.background_drains += other.background_drains;
        self.sync_flushes += other.sync_flushes;
        self.flushed_entries += other.flushed_entries;
        self.flush_stall_cycles += other.flush_stall_cycles;
        self.invalidations_queued += other.invalidations_queued;
        self.ooo_retired += other.ooo_retired;
        self.ooo_flushes += other.ooo_flushes;
        self.ooo_forwards += other.ooo_forwards;
        self.ooo_load_fills += other.ooo_load_fills;
    }

    /// Records every counter into `metrics`: the machine-agnostic
    /// counters under the `sim.` namespace (e.g. `sim.data_reads`,
    /// `sim.sync_flushes`) and the pipeline counters under `ooo.*`.
    /// No-op when `metrics` is disabled.
    pub fn record_into(&self, metrics: &Metrics) {
        metrics.add("sim.data_reads", self.data_reads);
        metrics.add("sim.data_writes", self.data_writes);
        metrics.add("sim.sync_ops", self.sync_ops);
        metrics.add("sim.buffer_forwards", self.buffer_forwards);
        metrics.add("sim.cache_hits", self.cache_hits);
        metrics.add("sim.stale_reads", self.stale_reads);
        metrics.add("sim.buffered_writes", self.buffered_writes);
        metrics.add("sim.background_drains", self.background_drains);
        metrics.add("sim.sync_flushes", self.sync_flushes);
        metrics.add("sim.flushed_entries", self.flushed_entries);
        metrics.add("sim.flush_stall_cycles", self.flush_stall_cycles);
        metrics.add("sim.invalidations_queued", self.invalidations_queued);
        metrics.add(wmrd_trace::metric_keys::OOO_RETIRED, self.ooo_retired);
        metrics.add(wmrd_trace::metric_keys::OOO_FLUSHES, self.ooo_flushes);
        metrics.add(wmrd_trace::metric_keys::OOO_FORWARDS, self.ooo_forwards);
        metrics.add(wmrd_trace::metric_keys::OOO_LOAD_FILLS, self.ooo_load_fills);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SimStats { data_reads: 1, sync_flushes: 2, ..SimStats::default() };
        let b = SimStats { data_reads: 10, flushed_entries: 3, ..SimStats::default() };
        a.merge(&b);
        assert_eq!(a.data_reads, 11);
        assert_eq!(a.sync_flushes, 2);
        assert_eq!(a.flushed_entries, 3);
    }

    #[test]
    fn record_into_uses_sim_namespace() {
        let stats = SimStats { data_reads: 4, stale_reads: 1, ..SimStats::default() };
        let m = Metrics::enabled();
        stats.record_into(&m);
        assert_eq!(m.counter("sim.data_reads"), Some(4));
        assert_eq!(m.counter("sim.stale_reads"), Some(1));
        assert_eq!(m.counter("sim.invalidations_queued"), Some(0));
    }

    #[test]
    fn record_into_includes_ooo_namespace() {
        let stats = SimStats { ooo_retired: 6, ooo_forwards: 2, ..SimStats::default() };
        let m = Metrics::enabled();
        stats.record_into(&m);
        assert_eq!(m.counter("ooo.retired"), Some(6));
        assert_eq!(m.counter("ooo.forwards"), Some(2));
        assert_eq!(m.counter("ooo.flushes"), Some(0));
        assert_eq!(m.counter("ooo.load_fills"), Some(0));
    }

    #[test]
    fn record_into_disabled_is_noop() {
        let stats = SimStats { data_reads: 4, ..SimStats::default() };
        let m = Metrics::disabled();
        stats.record_into(&m);
        assert_eq!(m.counter("sim.data_reads"), None);
    }
}
