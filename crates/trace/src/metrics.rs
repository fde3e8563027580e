//! Cross-cutting observability: cheap counters, gauges and phase timers
//! behind a [`Metrics`] handle, reported as a [`RunMetrics`] snapshot.
//!
//! Every layer of the workspace records into the same three namespaces:
//!
//! * **counters** — monotonically accumulated `u64`s (events seen, pairs
//!   generated, buffers drained). Deterministic for a fixed program,
//!   schedule and seed.
//! * **gauges** — last-written or high-water `u64`s (sizes of graphs,
//!   shard utilization). Also deterministic.
//! * **phases** — wall-clock nanoseconds per named analysis phase.
//!   *Not* deterministic; kept in a separate namespace so the
//!   deterministic part of a report can be compared byte-for-byte.
//!
//! A handle is either *enabled* (it owns shared state and records) or
//! *disabled* (every recording call is a branch-and-return no-op). The
//! disabled handle is `Default`, so instrumented APIs cost nothing for
//! callers that never ask for metrics.
//!
//! Key naming convention: `layer.metric` with `.` separators, e.g.
//! `sim.store_buffer_drains`, `analysis.candidate_pairs`,
//! `parallel.shards`. The full vocabulary is documented in
//! `OBSERVABILITY.md` at the repository root.
//!
//! # Example
//!
//! ```
//! use wmrd_trace::Metrics;
//!
//! let m = Metrics::enabled();
//! m.add("sim.steps", 41);
//! m.incr("sim.steps");
//! m.max_gauge("analysis.events", 7);
//! m.max_gauge("analysis.events", 3); // high-water: stays 7
//! let phase_result = m.time("analysis.total", || 2 + 2);
//! assert_eq!(phase_result, 4);
//!
//! let report = m.report();
//! assert_eq!(report.counter("sim.steps"), Some(42));
//! assert_eq!(report.gauge("analysis.events"), Some(7));
//! assert!(report.phase_ns("analysis.total").is_some());
//!
//! // Disabled handles record nothing and cost (almost) nothing.
//! let off = Metrics::disabled();
//! off.add("sim.steps", 1_000_000);
//! assert!(off.report().is_empty());
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::ToJson;

/// The shared recording state behind an enabled [`Metrics`] handle.
///
/// A single mutex over three `BTreeMap`s is deliberately boring: metrics
/// are recorded at phase granularity (dozens to hundreds of updates per
/// run), never per simulated memory operation, so contention is not a
/// concern — determinism and stable ordering are.
#[derive(Debug, Default)]
struct MetricsInner {
    context: BTreeMap<String, String>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    phases_ns: BTreeMap<String, u64>,
}

/// A cheap, cloneable handle for recording run observability data.
///
/// Clones share the same underlying state (an enabled handle is an
/// `Arc`), so a handle can be given to the simulator, the analysis and
/// the CLI simultaneously and [`Metrics::report`] sees everything.
///
/// The default handle is **disabled**: every recording method returns
/// immediately without locking or allocating. The full contract is
/// documented at the top of this type's source module, `metrics.rs`.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<MetricsInner>>>,
}

impl Metrics {
    /// Creates an enabled handle that records into fresh state.
    pub fn enabled() -> Self {
        Metrics { inner: Some(Arc::new(Mutex::new(MetricsInner::default()))) }
    }

    /// Creates a disabled handle: all recording calls are no-ops and
    /// [`Metrics::report`] returns an empty [`RunMetrics`].
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// `true` iff this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.lock().expect("metrics lock");
            *m.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Adds 1 to the counter `name`.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.lock().expect("metrics lock");
            m.gauges.insert(name.to_string(), value);
        }
    }

    /// Raises the gauge `name` to `value` if `value` is larger
    /// (high-water mark).
    pub fn max_gauge(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.lock().expect("metrics lock");
            let g = m.gauges.entry(name.to_string()).or_insert(0);
            *g = (*g).max(value);
        }
    }

    /// Lowers the gauge `name` to `value` if `value` is smaller
    /// (low-water mark; the gauge is created at `value` if absent).
    pub fn min_gauge(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.lock().expect("metrics lock");
            m.gauges.entry(name.to_string()).and_modify(|g| *g = (*g).min(value)).or_insert(value);
        }
    }

    /// Runs `f`, accumulating its wall-clock duration into the phase
    /// timer `phase` (nanoseconds, saturating).
    ///
    /// When the handle is disabled no clock is read — the call compiles
    /// down to invoking `f`.
    pub fn time<T>(&self, phase: &str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else { return f() };
        let start = Instant::now();
        let value = f();
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut m = inner.lock().expect("metrics lock");
        let slot = m.phases_ns.entry(phase.to_string()).or_insert(0);
        *slot = slot.saturating_add(elapsed);
        value
    }

    /// Current value of a counter (`None` when absent or disabled).
    pub fn counter(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        inner.lock().expect("metrics lock").counters.get(name).copied()
    }

    /// Current value of a gauge (`None` when absent or disabled).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        inner.lock().expect("metrics lock").gauges.get(name).copied()
    }

    /// Attaches a free-form context label (program name, model, seed…)
    /// that ends up in the report's `context` map. Last write wins.
    pub fn context(&self, key: &str, value: impl ToString) {
        if let Some(inner) = &self.inner {
            let mut m = inner.lock().expect("metrics lock");
            m.context.insert(key.to_string(), value.to_string());
        }
    }

    /// Snapshots everything recorded so far into a [`RunMetrics`].
    pub fn report(&self) -> RunMetrics {
        match &self.inner {
            None => RunMetrics::default(),
            Some(inner) => {
                let m = inner.lock().expect("metrics lock");
                RunMetrics {
                    schema_version: RunMetrics::SCHEMA_VERSION,
                    context: m.context.clone(),
                    counters: m.counters.clone(),
                    gauges: m.gauges.clone(),
                    phases_ns: m.phases_ns.clone(),
                }
            }
        }
    }
}

/// A schema-stable snapshot of one run's metrics, written as JSON.
///
/// The JSON field order is deterministic (`BTreeMap`s), so two reports
/// holding the same data serialize byte-identically — the property the
/// determinism tests in `tests/metrics.rs` assert for sim-side counters.
///
/// Schema (documented field-by-field in `OBSERVABILITY.md`):
///
/// ```json
/// {
///   "schema_version": 1,
///   "context":   { "program": "fig1a", "model": "WO", "seed": "3" },
///   "counters":  { "sim.steps": 42 },
///   "gauges":    { "analysis.events": 7 },
///   "phases_ns": { "analysis.total": 12345 }
/// }
/// ```
///
/// # Example
///
/// ```
/// use wmrd_trace::{Metrics, RunMetrics};
///
/// let m = Metrics::enabled();
/// m.add("sim.steps", 3);
/// let mut report = m.report();
/// report.context.insert("program".into(), "fig1a".into());
///
/// let json = report.to_json();
/// assert!(json.starts_with("{\n  \"schema_version\": 1,"));
/// assert!(json.contains("\"sim.steps\": 3"));
/// assert!(json.contains("\"program\": \"fig1a\""));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMetrics {
    /// Version of this schema; bumped on any breaking field change.
    pub schema_version: u32,
    /// Free-form run identification (program, model, fidelity, seed…).
    pub context: BTreeMap<String, String>,
    /// Monotonic counters; deterministic for a fixed program + seed.
    pub counters: BTreeMap<String, u64>,
    /// Last-written / high-water values; deterministic.
    pub gauges: BTreeMap<String, u64>,
    /// Wall-clock nanoseconds per phase; **not** deterministic.
    pub phases_ns: BTreeMap<String, u64>,
}

impl Default for RunMetrics {
    fn default() -> Self {
        RunMetrics {
            schema_version: RunMetrics::SCHEMA_VERSION,
            context: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            phases_ns: BTreeMap::new(),
        }
    }
}

impl RunMetrics {
    /// The current schema version.
    pub const SCHEMA_VERSION: u32 = 1;

    /// `true` iff nothing was recorded (context excluded).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.phases_ns.is_empty()
    }

    /// Looks up a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Looks up a gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Looks up a phase timer (nanoseconds).
    pub fn phase_ns(&self, name: &str) -> Option<u64> {
        self.phases_ns.get(name).copied()
    }

    /// The deterministic part of the report: everything except
    /// `phases_ns`. Two runs of the same program + seed must produce
    /// byte-identical JSON for this view.
    pub fn deterministic_view(&self) -> RunMetrics {
        RunMetrics { phases_ns: BTreeMap::new(), ..self.clone() }
    }

    /// Merges another report into this one: counters add, gauges take
    /// the maximum, phase timers add, context entries from `other` win.
    pub fn merge(&mut self, other: &RunMetrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, v) in &other.phases_ns {
            let p = self.phases_ns.entry(k.clone()).or_insert(0);
            *p = p.saturating_add(*v);
        }
        for (k, v) in &other.context {
            self.context.insert(k.clone(), v.clone());
        }
    }

    /// Renders as pretty JSON with deterministic key order.
    pub fn to_json(&self) -> String {
        self.json().pretty()
    }

    /// A human-readable multi-line summary (the CLI's `--stats` view).
    pub fn to_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.context.is_empty() {
            let ctx: Vec<String> = self.context.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "run: {}", ctx.join(" "));
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {v:>12}");
            }
        }
        if !self.phases_ns.is_empty() {
            let _ = writeln!(out, "phases:");
            for (k, v) in &self.phases_ns {
                let _ = writeln!(out, "  {k:<40} {:>10.3} ms", *v as f64 / 1e6);
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Well-known metric key names.
///
/// Most layers build their keys inline (the convention is
/// `layer.metric`; see `OBSERVABILITY.md`), but keys that cross crate
/// boundaries — recorded in one crate, asserted on or merged in another
/// — are named here once so producers and consumers cannot drift.
///
/// The `explore.*` namespace is the campaign engine's vocabulary: one
/// `RunMetrics` summarizes a whole campaign (thousands of executions),
/// so its counters aggregate across seeds and its report merges cleanly
/// with single-run reports.
pub mod keys {
    /// Counter: executions the campaign completed (one per point that
    /// quiesced or hit its budget).
    pub const EXPLORE_EXECUTIONS: &str = "explore.executions";
    /// Counter: executions that ended at a step or cycle budget instead
    /// of quiescing.
    pub const EXPLORE_BUDGET_HITS: &str = "explore.budget_hits";
    /// Counter: executions whose fast path flagged at least one race.
    pub const EXPLORE_RACY_EXECUTIONS: &str = "explore.racy_executions";
    /// Counter: full post-mortem analyses performed (the slow path).
    pub const EXPLORE_POSTMORTEMS: &str = "explore.postmortems";
    /// Counter: total simulator steps across every execution.
    pub const EXPLORE_TOTAL_STEPS: &str = "explore.total_steps";
    /// Counter: deduplicated race identities in the campaign report.
    pub const EXPLORE_UNIQUE_RACES: &str = "explore.unique_races";
    /// Counter: race observations before deduplication (hit counts
    /// summed over identities).
    pub const EXPLORE_RACE_HITS: &str = "explore.race_hits";
    /// Gauge: campaign points in the spec (seeds × models × hardware ×
    /// drain policies).
    pub const EXPLORE_POINTS: &str = "explore.points";
    /// Gauge: worker threads the campaign ran with.
    pub const EXPLORE_JOBS: &str = "explore.jobs";
    /// Gauge: distinct first-partition counts observed across racy
    /// executions (1 ⇒ the partition structure is schedule-stable).
    pub const EXPLORE_PARTITION_PROFILES: &str = "explore.partition_profiles";
    /// Phase: wall-clock time of the whole campaign.
    pub const EXPLORE_CAMPAIGN: &str = "explore.campaign";
    /// Counter: executions that failed (worker panic or per-point
    /// error) and were contained rather than aborting the campaign.
    pub const EXPLORE_FAILURES: &str = "explore.failures";
    /// Counter: fault points carried by the campaign's injection plan.
    pub const FAULTS_INJECTED: &str = "faults.injected";
    /// Counter: worker panics the plan asked for.
    pub const FAULTS_WORKER_PANICS: &str = "faults.worker_panics";
    /// Counter: injected failures actually caught and contained.
    pub const FAULTS_CONTAINED: &str = "faults.contained";
    /// Gauge: events recovered by a salvage decode.
    pub const SALVAGE_EVENTS_RECOVERED: &str = "salvage.events_recovered";
    /// Gauge: events the file promised but salvage could not recover.
    pub const SALVAGE_EVENTS_LOST: &str = "salvage.events_lost";
    /// Gauge: input bytes that did not contribute to the salvaged trace.
    pub const SALVAGE_BYTES_DROPPED: &str = "salvage.bytes_dropped";
    /// Gauge: 1 if the salvage decode was complete (nothing lost),
    /// else 0.
    pub const SALVAGE_COMPLETE: &str = "salvage.complete";
    /// Counter: `SUBMIT` requests the daemon accepted for analysis.
    pub const SERVE_SUBMITTED: &str = "serve.submitted";
    /// Counter: submissions that added a new trace to the catalog.
    pub const SERVE_INGESTED: &str = "serve.ingested";
    /// Counter: submissions whose digest was already cataloged.
    pub const SERVE_DEDUPED: &str = "serve.deduped";
    /// Counter: submissions rejected with a typed error (bad frame,
    /// undecodable trace, failed analysis).
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Counter: submissions refused with `BUSY` by queue backpressure.
    pub const SERVE_BUSY: &str = "serve.busy";
    /// Counter: `QUERY` requests answered.
    pub const SERVE_QUERIES: &str = "serve.queries";
    /// Gauge: analysis jobs waiting in the bounded queue.
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Gauge: the queue's configured capacity (the backpressure bound).
    pub const SERVE_QUEUE_CAP: &str = "serve.queue_cap";
    /// Gauge: analysis worker threads the daemon runs.
    pub const SERVE_WORKERS: &str = "serve.workers";
    /// Gauge: p50 end-to-end analysis latency, in nanoseconds, over
    /// the recent-latency window.
    pub const SERVE_ANALYSIS_P50_NS: &str = "serve.analysis_p50_ns";
    /// Gauge: p99 end-to-end analysis latency, in nanoseconds, over
    /// the recent-latency window.
    pub const SERVE_ANALYSIS_P99_NS: &str = "serve.analysis_p99_ns";
    /// Counter: `PREDICT` requests that completed a predictive
    /// re-analysis of a retained trace.
    pub const SERVE_PREDICTIONS: &str = "serve.predictions";
    /// Counter: streaming sessions opened (`STREAM` accepted).
    pub const STREAM_SESSIONS: &str = "stream.sessions";
    /// Counter: streaming sessions refused with `BUSY` because every
    /// session slot was taken.
    pub const STREAM_SESSIONS_REJECTED: &str = "stream.sessions_rejected";
    /// Counter: operations ingested through `FEED` chunks.
    pub const STREAM_EVENTS: &str = "stream.events";
    /// Counter: race identities first reported mid-stream (before the
    /// session's `CLOSE`).
    pub const STREAM_RACES: &str = "stream.races";
    /// Counter: locations promoted from the exclusive epoch fast path
    /// to the shared vector-clock table, summed over sessions.
    pub const STREAM_EPOCHS_PROMOTED: &str = "stream.epochs_promoted";
    /// Counter: sessions whose streamed race-key set disagreed with the
    /// post-mortem analysis at `CLOSE` (any non-zero value is a bug —
    /// the cross-check exists to catch detector drift).
    pub const STREAM_CROSSCHECK_FAILURES: &str = "stream.crosscheck_failures";
    /// Gauge: streaming sessions currently open.
    pub const STREAM_OPEN: &str = "stream.open";
    /// Gauge: the configured session-slot cap (`max_streams`).
    pub const STREAM_CAP: &str = "stream.cap";
    /// Gauge: p50 per-`FEED` ingest-to-detection latency, in
    /// nanoseconds, over the recent window.
    pub const STREAM_FEED_P50_NS: &str = "stream.feed_p50_ns";
    /// Gauge: p99 per-`FEED` ingest-to-detection latency, in
    /// nanoseconds, over the recent window.
    pub const STREAM_FEED_P99_NS: &str = "stream.feed_p99_ns";
    /// Gauge: distinct traces in the catalog (content-addressed by
    /// [`crate::TraceDigest`]).
    pub const CATALOG_TRACES: &str = "catalog.traces";
    /// Gauge: distinct race identities (`RaceKey`s) in the catalog.
    pub const CATALOG_RACES: &str = "catalog.races";
    /// Gauge: raw race observations before deduplication (hit counts
    /// summed over identities).
    pub const CATALOG_OBSERVATIONS: &str = "catalog.observations";
    /// Gauge: bytes in the catalog's journal file.
    pub const CATALOG_JOURNAL_BYTES: &str = "catalog.journal_bytes";
    /// Counter: committed records recovered by journal salvage on open.
    pub const CATALOG_SALVAGED_RECORDS: &str = "catalog.salvaged_records";
    /// Counter: damaged tail bytes dropped by journal salvage on open.
    pub const CATALOG_DROPPED_BYTES: &str = "catalog.dropped_bytes";
    /// Counter: journal compactions performed.
    pub const CATALOG_COMPACTIONS: &str = "catalog.compactions";
    /// Counter: programs the static analyzer processed.
    pub const LINT_PROGRAMS: &str = "lint.programs";
    /// Counter: may-race instruction pairs across analyzed programs.
    pub const LINT_MAY_PAIRS: &str = "lint.may_pairs";
    /// Counter: distinct may-race identities (`RaceKey`s) across
    /// analyzed programs.
    pub const LINT_MAY_KEYS: &str = "lint.may_keys";
    /// Counter: analyzed programs with an empty may-race set.
    pub const LINT_RACE_FREE: &str = "lint.race_free";
    /// Counter: qualified lock locations recognized across analyzed
    /// programs.
    pub const LINT_LOCKS: &str = "lint.locks";
    /// Counter: explore campaigns skipped because the program was
    /// statically race-free (`--prune-static`).
    pub const LINT_PRUNED_CAMPAIGNS: &str = "lint.pruned_campaigns";
    /// Counter: dynamic race identities NOT covered by the static
    /// may-race set — a soundness violation; must stay zero.
    pub const LINT_CROSSCHECK_VIOLATIONS: &str = "lint.crosscheck_violations";
    /// Phase: wall-clock time spent in static analysis.
    pub const LINT_ANALYSIS: &str = "lint.analysis";
    /// Counter: critical cycles enumerated by delay-set analysis.
    pub const LINT_CYCLES_FOUND: &str = "lint.cycles.found";
    /// Counter: may-race identities classified `sc-also` (visible under
    /// sequential consistency; fences cannot remove them).
    pub const LINT_CYCLES_SC_ALSO: &str = "lint.cycles.sc_also";
    /// Counter: may-race identities classified `weak-only` (a static
    /// witness orders or excludes the pair on conforming hardware).
    pub const LINT_CYCLES_WEAK_ONLY: &str = "lint.cycles.weak_only";
    /// Counter: delay-set entries (program-order edges of enumerated
    /// cycles).
    pub const LINT_CYCLES_DELAYS: &str = "lint.cycles.delays";
    /// Counter: programs whose cycle enumeration hit the cap.
    pub const LINT_CYCLES_CAPPED: &str = "lint.cycles.capped";
    /// Phase: wall-clock time spent in cycle/classification analysis.
    pub const LINT_CYCLES_ANALYSIS: &str = "lint.cycles.analysis";
    /// Counter: fences inserted by static repair.
    pub const LINT_REPAIR_FENCES: &str = "lint.repair.fences";
    /// Counter: locations strengthened into synchronization accesses by
    /// static repair.
    pub const LINT_REPAIR_STRENGTHENED: &str = "lint.repair.strengthened";
    /// Counter: data instructions rewritten (`ld → ld.acq`,
    /// `st → st.rel`) by static repair.
    pub const LINT_REPAIR_REWRITES: &str = "lint.repair.rewrites";
    /// Counter: repairs that changed nothing (already race-free input).
    pub const LINT_REPAIR_NOOP: &str = "lint.repair.noop";
    /// Phase: wall-clock time spent synthesizing repairs.
    pub const LINT_REPAIR_SYNTHESIS: &str = "lint.repair.synthesis";
    /// Counter: traces the predictive analyzer processed.
    pub const PREDICT_TRACES: &str = "predict.traces";
    /// Counter: predicted race identities (`RaceKey`s) across analyzed
    /// traces (observed ∪ predicted-only).
    pub const PREDICT_KEYS: &str = "predict.keys";
    /// Counter: predicted identities also reported by the hb1 analysis
    /// of the same trace.
    pub const PREDICT_OBSERVED_KEYS: &str = "predict.observed_keys";
    /// Counter: identities predicted but NOT observed in the analyzed
    /// trace — the yield the weakened order added over hb1.
    pub const PREDICT_ONLY_KEYS: &str = "predict.only_keys";
    /// Counter: critical sections recovered from sync skeletons.
    pub const PREDICT_SECTIONS: &str = "predict.sections";
    /// Counter: `so1` edges the weakened order dropped.
    pub const PREDICT_DROPPED_EDGES: &str = "predict.dropped_edges";
    /// Counter: analyzed traces with an empty predicted set.
    pub const PREDICT_RACE_FREE: &str = "predict.race_free";
    /// Counter: predicted identities NOT reached by any seed of an
    /// oracle campaign (`explore --predict`) — a soundness violation;
    /// must stay zero.
    pub const PREDICT_CROSSCHECK_VIOLATIONS: &str = "predict.crosscheck_violations";
    /// Phase: wall-clock time spent in predictive analysis.
    pub const PREDICT_ANALYSIS: &str = "predict.analysis";
    /// Counter: reorder-buffer entries retired in program order by the
    /// out-of-order machine.
    pub const OOO_RETIRED: &str = "ooo.retired";
    /// Counter: full pipeline drains (ROB + store buffer) at fences and
    /// synchronization points on the out-of-order machine.
    pub const OOO_FLUSHES: &str = "ooo.flushes";
    /// Counter: load fills served by store-to-load forwarding from the
    /// issuing core's own in-flight or buffered stores.
    pub const OOO_FORWARDS: &str = "ooo.forwards";
    /// Counter: load-fill completions — issued loads bound to a value,
    /// in any order the speculation window permits.
    pub const OOO_LOAD_FILLS: &str = "ooo.load_fills";
    /// Counter: capture runs performed (one per seed).
    pub const CAPTURE_RUNS: &str = "capture.runs";
    /// Counter: data operations logged across capture runs.
    pub const CAPTURE_DATA_OPS: &str = "capture.data_ops";
    /// Counter: synchronization operations logged across capture runs.
    pub const CAPTURE_SYNC_OPS: &str = "capture.sync_ops";
    /// Counter: workload threads registered as processors.
    pub const CAPTURE_THREADS: &str = "capture.threads";
    /// Counter: schedule nudges (yields/spins) injected by the seeded
    /// plans.
    pub const CAPTURE_NUDGES: &str = "capture.nudges";
    /// Counter: operations dropped by the per-thread log bound — any
    /// non-zero value means the trace is a prefix of the run.
    pub const CAPTURE_DROPPED_OPS: &str = "capture.dropped_ops";
    /// Counter: workload threads that panicked mid-run (their
    /// committed prefix is still captured).
    pub const CAPTURE_PANICS: &str = "capture.panics";
    /// Counter: sync reads whose observed release write was not in any
    /// committed log; they replay without an observed-release edge.
    pub const CAPTURE_UNRESOLVED_OBSERVED: &str = "capture.unresolved_observed";
    /// Counter: distinct data-race identities (`RaceKey`s) detected
    /// across a capture batch's runs.
    pub const CAPTURE_UNIQUE_RACES: &str = "capture.unique_races";
    /// Counter: captured traces submitted to a live daemon (`--sink`).
    pub const CAPTURE_SUBMITTED: &str = "capture.submitted";
    /// Phase: wall-clock time spent running and analyzing captured
    /// workloads.
    pub const CAPTURE_TOTAL: &str = "capture.total";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_vocabulary_is_namespaced() {
        for key in [
            keys::EXPLORE_EXECUTIONS,
            keys::EXPLORE_BUDGET_HITS,
            keys::EXPLORE_RACY_EXECUTIONS,
            keys::EXPLORE_POSTMORTEMS,
            keys::EXPLORE_TOTAL_STEPS,
            keys::EXPLORE_UNIQUE_RACES,
            keys::EXPLORE_RACE_HITS,
            keys::EXPLORE_POINTS,
            keys::EXPLORE_JOBS,
            keys::EXPLORE_PARTITION_PROFILES,
            keys::EXPLORE_CAMPAIGN,
            keys::EXPLORE_FAILURES,
        ] {
            assert!(key.starts_with("explore."), "{key}");
            assert!(key.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
        }
        for key in [keys::FAULTS_INJECTED, keys::FAULTS_WORKER_PANICS, keys::FAULTS_CONTAINED] {
            assert!(key.starts_with("faults."), "{key}");
        }
        for key in [
            keys::SALVAGE_EVENTS_RECOVERED,
            keys::SALVAGE_EVENTS_LOST,
            keys::SALVAGE_BYTES_DROPPED,
            keys::SALVAGE_COMPLETE,
        ] {
            assert!(key.starts_with("salvage."), "{key}");
        }
        for key in [
            keys::SERVE_SUBMITTED,
            keys::SERVE_INGESTED,
            keys::SERVE_DEDUPED,
            keys::SERVE_REJECTED,
            keys::SERVE_BUSY,
            keys::SERVE_QUERIES,
            keys::SERVE_QUEUE_DEPTH,
            keys::SERVE_QUEUE_CAP,
            keys::SERVE_WORKERS,
            keys::SERVE_ANALYSIS_P50_NS,
            keys::SERVE_ANALYSIS_P99_NS,
            keys::SERVE_PREDICTIONS,
        ] {
            assert!(key.starts_with("serve."), "{key}");
            assert!(key
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_' || c.is_ascii_digit()));
        }
        for key in [
            keys::STREAM_SESSIONS,
            keys::STREAM_SESSIONS_REJECTED,
            keys::STREAM_EVENTS,
            keys::STREAM_RACES,
            keys::STREAM_EPOCHS_PROMOTED,
            keys::STREAM_CROSSCHECK_FAILURES,
            keys::STREAM_OPEN,
            keys::STREAM_CAP,
            keys::STREAM_FEED_P50_NS,
            keys::STREAM_FEED_P99_NS,
        ] {
            assert!(key.starts_with("stream."), "{key}");
            assert!(key
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_' || c.is_ascii_digit()));
        }
        for key in [
            keys::CATALOG_TRACES,
            keys::CATALOG_RACES,
            keys::CATALOG_OBSERVATIONS,
            keys::CATALOG_JOURNAL_BYTES,
            keys::CATALOG_SALVAGED_RECORDS,
            keys::CATALOG_DROPPED_BYTES,
            keys::CATALOG_COMPACTIONS,
        ] {
            assert!(key.starts_with("catalog."), "{key}");
        }
        for key in [
            keys::LINT_PROGRAMS,
            keys::LINT_MAY_PAIRS,
            keys::LINT_MAY_KEYS,
            keys::LINT_RACE_FREE,
            keys::LINT_LOCKS,
            keys::LINT_PRUNED_CAMPAIGNS,
            keys::LINT_CROSSCHECK_VIOLATIONS,
            keys::LINT_ANALYSIS,
            keys::LINT_CYCLES_FOUND,
            keys::LINT_CYCLES_SC_ALSO,
            keys::LINT_CYCLES_WEAK_ONLY,
            keys::LINT_CYCLES_DELAYS,
            keys::LINT_CYCLES_CAPPED,
            keys::LINT_CYCLES_ANALYSIS,
            keys::LINT_REPAIR_FENCES,
            keys::LINT_REPAIR_STRENGTHENED,
            keys::LINT_REPAIR_REWRITES,
            keys::LINT_REPAIR_NOOP,
            keys::LINT_REPAIR_SYNTHESIS,
        ] {
            assert!(key.starts_with("lint."), "{key}");
            assert!(key.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
        }
        for key in [
            keys::PREDICT_TRACES,
            keys::PREDICT_KEYS,
            keys::PREDICT_OBSERVED_KEYS,
            keys::PREDICT_ONLY_KEYS,
            keys::PREDICT_SECTIONS,
            keys::PREDICT_DROPPED_EDGES,
            keys::PREDICT_RACE_FREE,
            keys::PREDICT_CROSSCHECK_VIOLATIONS,
            keys::PREDICT_ANALYSIS,
        ] {
            assert!(key.starts_with("predict."), "{key}");
            assert!(key.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
        }
        for key in [keys::OOO_RETIRED, keys::OOO_FLUSHES, keys::OOO_FORWARDS, keys::OOO_LOAD_FILLS]
        {
            assert!(key.starts_with("ooo."), "{key}");
            assert!(key.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
        }
        for key in [
            keys::CAPTURE_RUNS,
            keys::CAPTURE_DATA_OPS,
            keys::CAPTURE_SYNC_OPS,
            keys::CAPTURE_THREADS,
            keys::CAPTURE_NUDGES,
            keys::CAPTURE_DROPPED_OPS,
            keys::CAPTURE_PANICS,
            keys::CAPTURE_UNRESOLVED_OBSERVED,
            keys::CAPTURE_UNIQUE_RACES,
            keys::CAPTURE_SUBMITTED,
            keys::CAPTURE_TOTAL,
        ] {
            assert!(key.starts_with("capture."), "{key}");
            assert!(key.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.add("a", 5);
        m.set_gauge("g", 1);
        m.max_gauge("h", 2);
        assert_eq!(m.time("p", || 3), 3);
        assert_eq!(m.counter("a"), None);
        assert_eq!(m.gauge("g"), None);
        assert!(m.report().is_empty());
        assert!(Metrics::default().report().is_empty());
    }

    #[test]
    fn counters_gauges_phases() {
        let m = Metrics::enabled();
        assert!(m.is_enabled());
        m.add("c", 2);
        m.incr("c");
        m.set_gauge("g", 9);
        m.set_gauge("g", 4);
        m.max_gauge("hw", 3);
        m.max_gauge("hw", 1);
        m.min_gauge("lw", 3);
        m.min_gauge("lw", 5);
        let out = m.time("phase", || "x");
        assert_eq!(out, "x");
        let r = m.report();
        assert_eq!(r.counter("c"), Some(3));
        assert_eq!(r.gauge("g"), Some(4));
        assert_eq!(r.gauge("hw"), Some(3));
        assert_eq!(r.gauge("lw"), Some(3));
        assert!(r.phase_ns("phase").is_some());
        assert_eq!(r.counter("missing"), None);
        assert_eq!(r.phase_ns("missing"), None);
    }

    #[test]
    fn context_labels() {
        let m = Metrics::enabled();
        m.context("program", "fig1a");
        m.context("seed", 7);
        m.context("seed", 9); // last write wins
        let r = m.report();
        assert_eq!(r.context.get("program").map(String::as_str), Some("fig1a"));
        assert_eq!(r.context.get("seed").map(String::as_str), Some("9"));
        Metrics::disabled().context("ignored", 1);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m.incr("shared");
        m2.incr("shared");
        assert_eq!(m.counter("shared"), Some(2));
        assert_eq!(m2.report().counter("shared"), Some(2));
    }

    #[test]
    fn report_json_roundtrip_and_stability() {
        let m = Metrics::enabled();
        m.add("z.last", 1);
        m.add("a.first", 2);
        m.set_gauge("g", 3);
        let mut r = m.report();
        r.context.insert("program".into(), "t".into());
        let json = r.to_json();
        assert_eq!(
            json,
            "{\n  \"schema_version\": 1,\n  \"context\": {\n    \"program\": \"t\"\n  },\n  \
             \"counters\": {\n    \"a.first\": 2,\n    \"z.last\": 1\n  },\n  \"gauges\": {\n    \
             \"g\": 3\n  },\n  \"phases_ns\": {}\n}"
        );
        // BTreeMap ordering: keys render sorted, so equal content is
        // byte-equal JSON.
        assert_eq!(json, r.clone().to_json());
    }

    #[test]
    fn deterministic_view_strips_timers() {
        let m = Metrics::enabled();
        m.incr("c");
        m.time("p", || ());
        let r = m.report();
        assert!(!r.phases_ns.is_empty());
        let d = r.deterministic_view();
        assert!(d.phases_ns.is_empty());
        assert_eq!(d.counter("c"), Some(1));
    }

    #[test]
    fn merge_semantics() {
        let mut a = RunMetrics::default();
        a.counters.insert("c".into(), 1);
        a.gauges.insert("g".into(), 5);
        a.phases_ns.insert("p".into(), 10);
        let mut b = RunMetrics::default();
        b.counters.insert("c".into(), 2);
        b.gauges.insert("g".into(), 3);
        b.phases_ns.insert("p".into(), 7);
        b.context.insert("k".into(), "v".into());
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(5), "gauges take the max");
        assert_eq!(a.phase_ns("p"), Some(17));
        assert_eq!(a.context.get("k").map(String::as_str), Some("v"));
    }

    #[test]
    fn summary_mentions_everything() {
        let m = Metrics::enabled();
        m.add("sim.steps", 7);
        m.set_gauge("analysis.events", 3);
        m.time("analysis.total", || ());
        let mut r = m.report();
        r.context.insert("program".into(), "fig1a".into());
        let s = r.to_summary();
        assert!(s.contains("sim.steps"), "{s}");
        assert!(s.contains("analysis.events"), "{s}");
        assert!(s.contains("analysis.total"), "{s}");
        assert!(s.contains("program=fig1a"), "{s}");
        assert!(RunMetrics::default().to_summary().contains("no metrics"));
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Metrics>();
        assert_send_sync::<RunMetrics>();
    }
}
