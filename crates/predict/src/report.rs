//! Predicted-race enumeration and the deterministic report type.

use std::collections::BTreeSet;

use wmrd_core::{detect_races_in, extend_event_race_keys, PairingPolicy, RaceKey, SideKey};
use wmrd_trace::{metric_keys, Metrics, TraceSet};

use crate::order::{PredictGraph, PredictOrder};

/// Counters describing one predictive analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Events in the analyzed trace.
    pub events: usize,
    /// Critical sections recovered from the sync skeleton.
    pub sections: usize,
    /// `so1` edges admitted into the predictive order.
    pub kept_edges: usize,
    /// `so1` edges the weakening removed.
    pub dropped_edges: usize,
    /// Σ |conflict locations| over the cross-processor event pairs with
    /// a data participant — the post-mortem's `candidate_pairs`.
    pub candidate_pairs: u64,
    /// Candidates unordered by the predictive order (predicted data
    /// races, at event granularity).
    pub predicted_pairs: u64,
}

/// A deterministic predictive race report for one trace.
///
/// `keys` is the predicted set; `observed` the subset already flagged
/// by the hb1 analysis of the same trace. Because the predictive order
/// is a subset of hb1, `observed ⊆ keys` always holds (`observed` is
/// computed by filtering the predicted races); `predicted_only` names
/// the yield the weakening added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictReport {
    /// Name of the analyzed program or trace.
    pub program: String,
    /// The predictive order used.
    pub order: PredictOrder,
    /// The `so1` pairing policy used.
    pub pairing: PairingPolicy,
    /// Analysis counters.
    pub stats: PredictStats,
    /// Every predicted data-race identity (observed ∪ predicted-only).
    pub keys: BTreeSet<RaceKey>,
    /// The identities hb1 already reports on this trace.
    pub observed: BTreeSet<RaceKey>,
}

wmrd_trace::impl_to_json!(PredictStats {
    events,
    sections,
    kept_edges,
    dropped_edges,
    candidate_pairs,
    predicted_pairs
});

// The `predict --format json` document.
wmrd_trace::impl_to_json!(PredictReport { program, order, pairing, stats, keys, observed });

impl PredictReport {
    /// `true` iff nothing was predicted — no schedule of the recorded
    /// sync skeleton races.
    pub fn is_race_free(&self) -> bool {
        self.keys.is_empty()
    }

    /// `true` iff `key` is in the predicted set.
    pub fn covers(&self, key: &RaceKey) -> bool {
        self.keys.contains(key)
    }

    /// The identities predicted but not observed in this trace — the
    /// detection power the weakened order added over hb1.
    pub fn predicted_only(&self) -> impl Iterator<Item = &RaceKey> {
        self.keys.difference(&self.observed)
    }

    /// Records `predict.*` metrics for this report.
    pub fn record_into(&self, metrics: &Metrics) {
        metrics.incr(metric_keys::PREDICT_TRACES);
        metrics.add(metric_keys::PREDICT_KEYS, self.keys.len() as u64);
        metrics.add(metric_keys::PREDICT_OBSERVED_KEYS, self.observed.len() as u64);
        metrics.add(metric_keys::PREDICT_ONLY_KEYS, self.predicted_only().count() as u64);
        metrics.add(metric_keys::PREDICT_SECTIONS, self.stats.sections as u64);
        metrics.add(metric_keys::PREDICT_DROPPED_EDGES, self.stats.dropped_edges as u64);
        if self.is_race_free() {
            metrics.incr(metric_keys::PREDICT_RACE_FREE);
        }
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "predictive race report for '{}' (order {}, pairing {})",
            self.program, self.order, self.pairing
        );
        let _ = writeln!(
            out,
            "  events: {}, critical sections: {}, so1 edges: {} kept / {} dropped",
            self.stats.events, self.stats.sections, self.stats.kept_edges, self.stats.dropped_edges
        );
        let _ = writeln!(
            out,
            "  candidates: {}, predicted pairs: {}",
            self.stats.candidate_pairs, self.stats.predicted_pairs
        );
        let _ = writeln!(out, "  predicted keys: {}", self.keys.len());
        for key in &self.keys {
            let mark = if self.observed.contains(key) { "observed" } else { "predicted-only" };
            let _ = writeln!(
                out,
                "    {}: {} x {} [{}]",
                key.loc,
                side_str(&key.a),
                side_str(&key.b),
                mark
            );
        }
        let verdict =
            if self.is_race_free() { "predictively race-free" } else { "RACES PREDICTED" };
        let _ = writeln!(out, "  verdict: {verdict}");
        out
    }
}

fn side_str(side: &SideKey) -> String {
    let class = if side.sync { "sync" } else { "data" };
    format!("{} {} {}", side.proc, side.kind, class)
}

/// Runs the full predictive analysis of one trace: one conflict sweep
/// under the predictive order, whose races hb1 then splits into
/// observed and predicted-only.
///
/// # Errors
///
/// Propagates pairing failures from [`PredictGraph::build`].
pub fn predict(
    trace: &TraceSet,
    program: &str,
    policy: PairingPolicy,
    order: PredictOrder,
) -> Result<PredictReport, wmrd_core::AnalysisError> {
    let graph = PredictGraph::build(trace, policy, order)?;
    let (races, detect) = detect_races_in(trace, graph.predictive());
    let stats = PredictStats {
        events: graph.num_events(),
        sections: graph.sections().len(),
        kept_edges: graph.kept_edges().len(),
        dropped_edges: graph.dropped_edges().len(),
        candidate_pairs: detect.candidate_pairs,
        predicted_pairs: detect.races,
    };
    // Every predictive edge lies inside hb1, so the hb1 races are
    // exactly the predicted ones hb1 leaves unordered.
    let mut keys = BTreeSet::new();
    let mut observed = BTreeSet::new();
    let mut race_keys = Vec::new();
    for race in &races {
        race_keys.clear();
        extend_event_race_keys(&mut race_keys, race, trace);
        keys.extend(race_keys.iter().copied());
        if graph.hb1().concurrent(race.a, race.b) {
            observed.extend(race_keys.iter().copied());
        }
    }
    Ok(PredictReport {
        program: program.to_string(),
        order,
        pairing: policy,
        stats,
        keys,
        observed,
    })
}

/// [`predict`], timed under the `predict.analysis` phase with
/// `predict.*` counters recorded into `metrics`.
///
/// # Errors
///
/// Same as [`predict`].
pub fn predict_with_metrics(
    trace: &TraceSet,
    program: &str,
    policy: PairingPolicy,
    order: PredictOrder,
    metrics: &Metrics,
) -> Result<PredictReport, wmrd_core::AnalysisError> {
    let report =
        metrics.time(metric_keys::PREDICT_ANALYSIS, || predict(trace, program, policy, order))?;
    report.record_into(metrics);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::{AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    /// Two same-lock critical sections with non-conflicting bodies, each
    /// also touching a shared location OUTSIDE any section ordering:
    /// P0 {acq; write x; rel}; P1 {acq; write y; rel}; then P1 reads x
    /// inside its section. The only ordering of P0's write x before
    /// P1's read x runs through the dropped edge — a predicted race.
    fn predictable_trace() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        let s = l(9);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let rel = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(1), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.finish()
    }

    #[test]
    fn shb_predicts_exactly_the_observed_races() {
        let t = predictable_trace();
        let r = predict(&t, "t", PairingPolicy::ByRole, PredictOrder::Shb).unwrap();
        assert_eq!(r.keys, r.observed, "SHB is the hb1 baseline");
        assert_eq!(r.predicted_only().count(), 0);
        assert_eq!(r.stats.dropped_edges, 0);
    }

    #[test]
    fn wcp_predicts_nothing_for_truly_disjoint_sections() {
        // Disjoint bodies that never touch a common location: dropping
        // the edge exposes no conflicting pair.
        let t = predictable_trace();
        let r = predict(&t, "t", PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(r.stats.dropped_edges, 1);
        assert!(r.is_race_free(), "{}", r.render());
    }

    /// The motivating case: a conflicting access pair whose only hb1
    /// ordering runs through two non-conflicting critical sections.
    #[test]
    fn wcp_predicts_a_race_hb1_misses() {
        let mut b = TraceBuilder::new(2);
        let s = l(9);
        // P0: write x OUTSIDE the section, then {acq; write a; rel}.
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(5), AccessKind::Write, Value::new(1), None);
        let rel = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        // P1: {acq; write b; rel}, then read x.
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.data_access(p(1), l(6), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(1), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        let t = b.finish();

        let shb = predict(&t, "t", PairingPolicy::ByRole, PredictOrder::Shb).unwrap();
        assert!(shb.is_race_free(), "hb1 sees the accidental ordering:\n{}", shb.render());

        let wcp = predict(&t, "t", PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(wcp.stats.dropped_edges, 1);
        assert_eq!(wcp.keys.len(), 1, "{}", wcp.render());
        assert_eq!(wcp.predicted_only().count(), 1);
        let key = wcp.keys.iter().next().unwrap();
        assert_eq!(key.loc, l(0));
        assert!(wcp.covers(key));
        assert!(!wcp.is_race_free());
    }

    #[test]
    fn report_renders_provenance_marks() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(3), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(3), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let r = predict(&t, "demo", PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        let text = r.render();
        assert!(text.contains("predictive race report for 'demo'"), "{text}");
        assert!(text.contains("[observed]"), "{text}");
        assert!(text.contains("RACES PREDICTED"), "{text}");
        assert_eq!(r.observed, r.keys);
    }

    #[test]
    fn json_shape() {
        use wmrd_trace::ToJson;
        let t = predictable_trace();
        let r = predict(&t, "t", PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(
            r.json().render(),
            r#"{"program":"t","order":"wcp","pairing":"ByRole","stats":{"events":6,"sections":2,"kept_edges":0,"dropped_edges":1,"candidate_pairs":0,"predicted_pairs":0},"keys":[],"observed":[]}"#
        );
    }

    #[test]
    fn metrics_recording() {
        let metrics = Metrics::enabled();
        let t = predictable_trace();
        predict_with_metrics(&t, "t", PairingPolicy::ByRole, PredictOrder::Wcp, &metrics).unwrap();
        assert_eq!(metrics.counter(metric_keys::PREDICT_TRACES), Some(1));
        assert_eq!(metrics.counter(metric_keys::PREDICT_RACE_FREE), Some(1));
        assert_eq!(metrics.counter(metric_keys::PREDICT_DROPPED_EDGES), Some(1));
    }

    #[test]
    fn analysis_is_deterministic() {
        let t = predictable_trace();
        let a = predict(&t, "t", PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        let b = predict(&t, "t", PairingPolicy::ByRole, PredictOrder::Wcp).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }
}
