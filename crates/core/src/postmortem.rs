//! The one-call post-mortem driver (Section 4's pipeline).

use wmrd_trace::{Metrics, TraceSet};

use crate::{
    detect_races_in, estimate_scp, partition_races, AnalysisError, AugmentedGraph, HbGraph,
    PairingPolicy, RaceReport,
};

/// Post-mortem analysis builder.
///
/// # Example
///
/// ```
/// use wmrd_core::{PairingPolicy, PostMortem};
/// use wmrd_trace::{AccessKind, Location, ProcId, TraceBuilder, TraceSink, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TraceBuilder::new(2);
/// b.data_access(ProcId::new(0), Location::new(0), AccessKind::Write, Value::new(1), None);
/// b.data_access(ProcId::new(1), Location::new(0), AccessKind::Read, Value::ZERO, None);
/// let trace = b.finish();
///
/// let report = PostMortem::new(&trace)
///     .pairing(PairingPolicy::ByRole)
///     .analyze()?;
/// assert_eq!(report.reported_races().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PostMortem<'t> {
    trace: &'t TraceSet,
    /// How `so1` pairing is derived (default: by acquire/release role).
    pairing: PairingPolicy,
    metrics: Metrics,
}

impl<'t> PostMortem<'t> {
    /// Creates an analysis over `trace`.
    pub fn new(trace: &'t TraceSet) -> Self {
        PostMortem { trace, pairing: PairingPolicy::default(), metrics: Metrics::disabled() }
    }

    /// Sets the pairing policy.
    pub fn pairing(mut self, pairing: PairingPolicy) -> Self {
        self.pairing = pairing;
        self
    }

    /// Attaches a metrics handle: each pipeline phase is timed
    /// (`analysis.hb_build` … `analysis.scp` in `phases_ns`) and the
    /// pipeline's sizes are recorded as `analysis.*` gauges. A disabled
    /// handle (the default) records nothing.
    ///
    /// ```
    /// use wmrd_core::PostMortem;
    /// use wmrd_trace::{AccessKind, Location, Metrics, ProcId, TraceBuilder, TraceSink, Value};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = TraceBuilder::new(2);
    /// b.data_access(ProcId::new(0), Location::new(0), AccessKind::Write, Value::new(1), None);
    /// b.data_access(ProcId::new(1), Location::new(0), AccessKind::Read, Value::ZERO, None);
    /// let trace = b.finish();
    ///
    /// let metrics = Metrics::enabled();
    /// PostMortem::new(&trace).metrics(&metrics).analyze()?;
    /// assert_eq!(metrics.report().gauge("analysis.races"), Some(1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn metrics(mut self, metrics: &Metrics) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Runs the full pipeline: hb1 graph → races → augmented graph →
    /// partitions → SCP estimate.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] for invalid traces or unresolvable
    /// pairings.
    pub fn analyze(self) -> Result<RaceReport, AnalysisError> {
        let m = &self.metrics;
        let hb = m.time("analysis.hb_build", || HbGraph::build(self.trace, self.pairing))?;
        let (races, detect) = m.time("analysis.detect", || detect_races_in(self.trace, &hb));
        let aug = m.time("analysis.augment", || AugmentedGraph::build(&hb, &races));
        let partitions = m.time("analysis.partition", || partition_races(&aug, &races));
        let scp = m.time("analysis.scp", || estimate_scp(self.trace, &aug, &races));
        if m.is_enabled() {
            m.set_gauge("analysis.events", hb.num_events() as u64);
            m.set_gauge("analysis.po_edges", hb.num_po_edges() as u64);
            m.set_gauge("analysis.so1_edges", hb.so1().len() as u64);
            m.set_gauge("analysis.hb1_edges", (hb.num_po_edges() + hb.so1().len()) as u64);
            m.set_gauge("analysis.candidate_pairs", detect.candidate_pairs);
            m.set_gauge("analysis.races", detect.races);
            m.set_gauge("analysis.data_races", detect.races);
            m.set_gauge("analysis.sync_races", detect.sync_races);
            m.set_gauge("analysis.scc_count", aug.num_components() as u64);
            m.set_gauge("analysis.partitions", partitions.len() as u64);
            m.set_gauge("analysis.first_partitions", partitions.first_indices().len() as u64);
        }
        Ok(RaceReport {
            meta: self.trace.meta.clone(),
            pairing: self.pairing,
            num_events: hb.num_events(),
            num_so1_edges: hb.so1().len(),
            races,
            partitions,
            scp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::{
        AccessKind, EventId, Location, MemOp, MultiSink, OpClass, OpId, OpRecorder, OpTrace,
        ProcId, SyncRole, TraceBuilder, TraceSink, Value,
    };

    use crate::{detect_races, AffectsOracle, DataRace, RaceKind};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    #[test]
    fn pipeline_end_to_end() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let report = PostMortem::new(&t).analyze().unwrap();
        assert_eq!(report.num_events, 2);
        assert_eq!(report.num_so1_edges, 0);
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.partitions.len(), 1);
        assert!(report.scp.covers_everything());
    }

    #[test]
    fn pairing_policy_changes_results() {
        // A Test&Set write observed by another Test&Set read orders the
        // surrounding data accesses only under AllSync pairing.
        let mut b = TraceBuilder::new(2);
        let (x, s) = (l(0), l(9));
        b.data_access(p(0), x, AccessKind::Write, Value::new(1), None);
        let w = b.sync_access(p(0), s, AccessKind::Write, SyncRole::None, Value::new(1), None);
        b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::new(1), Some(w));
        b.data_access(p(1), x, AccessKind::Read, Value::new(1), None);
        let t = b.finish();
        let by_role = PostMortem::new(&t).pairing(PairingPolicy::ByRole).analyze().unwrap();
        assert!(!by_role.is_race_free(), "no release role, no edge, race remains");
        let all_sync = PostMortem::new(&t).pairing(PairingPolicy::AllSync).analyze().unwrap();
        assert!(all_sync.is_race_free(), "DRF0-style pairing orders the accesses");
    }

    #[test]
    fn corrupt_trace_is_rejected() {
        let mut b = TraceBuilder::new(1);
        b.sync_access(
            p(0),
            l(9),
            AccessKind::Read,
            SyncRole::Acquire,
            Value::ZERO,
            Some(OpId::new(p(0), 42)),
        );
        let t = b.finish();
        assert!(matches!(
            PostMortem::new(&t).analyze(),
            Err(AnalysisError::DanglingRelease { .. })
        ));
    }

    #[test]
    fn metered_analysis_records_phases_and_sizes() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let metrics = Metrics::enabled();
        let report = PostMortem::new(&t).metrics(&metrics).analyze().unwrap();
        let snap = metrics.report();
        assert_eq!(snap.gauge("analysis.events"), Some(report.num_events as u64));
        assert_eq!(snap.gauge("analysis.so1_edges"), Some(0));
        assert_eq!(snap.gauge("analysis.races"), Some(1));
        assert_eq!(snap.gauge("analysis.data_races"), Some(1));
        assert_eq!(snap.gauge("analysis.candidate_pairs"), Some(1));
        assert_eq!(snap.gauge("analysis.sync_races"), Some(0));
        assert_eq!(snap.gauge("analysis.partitions"), Some(1));
        assert_eq!(snap.gauge("analysis.first_partitions"), Some(1));
        assert!(snap.gauge("analysis.scc_count").unwrap() >= 1);
        for phase in [
            "analysis.hb_build",
            "analysis.detect",
            "analysis.augment",
            "analysis.partition",
            "analysis.scp",
        ] {
            assert!(snap.phase_ns(phase).is_some(), "missing phase {phase}");
        }
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let off = Metrics::disabled();
        PostMortem::new(&t).metrics(&off).analyze().unwrap();
        assert!(off.report().is_empty());
    }

    #[test]
    fn metered_and_unmetered_reports_agree() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Write, Value::new(2), None);
        let t = b.finish();
        let plain = PostMortem::new(&t).analyze().unwrap();
        let metered = PostMortem::new(&t).metrics(&Metrics::enabled()).analyze().unwrap();
        assert_eq!(plain, metered);
    }

    #[test]
    fn options_builder() {
        let mut b = TraceBuilder::new(1);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let t = b.finish();
        let report = PostMortem::new(&t).pairing(PairingPolicy::AllSync).analyze().unwrap();
        assert_eq!(report.pairing, PairingPolicy::AllSync);
    }

    /// hb1 and the races of an operation trace, unfolded: event `(p, i)`
    /// is operation `(p, i)`.
    fn unfolded(ops: &OpTrace) -> (TraceSet, HbGraph, Vec<DataRace>) {
        let trace = ops.to_event_trace();
        let hb = HbGraph::build(&trace, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&trace, &hb);
        (trace, hb, races)
    }

    fn e(proc: u16, index: u32) -> EventId {
        EventId::new(p(proc), index)
    }

    /// Figure 1a traced per operation: P0 writes x then y, P1 reads y
    /// then x. Folded, each processor is one computation event and the
    /// execution has one race; unfolded, it has both operation races.
    #[test]
    fn unfolded_fig1a_has_two_operation_races() {
        let mut sink = MultiSink::new(TraceBuilder::new(2), OpRecorder::new(2));
        sink.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        sink.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        sink.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        sink.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let (events, ops) = sink.into_inner();
        let folded = PostMortem::new(&events.finish()).analyze().unwrap();
        assert_eq!(folded.races.len(), 1);
        let (trace, _, races) = unfolded(&ops.finish());
        assert_eq!(trace.num_events(), 4);
        let pairs: Vec<_> = races.iter().map(|r| (r.a, r.b, r.kind)).collect();
        assert_eq!(
            pairs,
            [(e(0, 0), e(1, 1), RaceKind::DataData), (e(0, 1), e(1, 0), RaceKind::DataData)]
        );
    }

    #[test]
    fn unfolded_pairing_orders_operations() {
        let mut r = OpRecorder::new(2);
        r.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let rel =
            r.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        r.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        r.data_access(p(1), l(0), AccessKind::Read, Value::new(1), None);
        let (_, hb, races) = unfolded(&r.finish());
        assert_eq!(hb.so1().len(), 1);
        assert!(races.is_empty());
        assert!(hb.ordered(e(0, 0), e(1, 1)));
        assert!(!hb.ordered(e(1, 1), e(0, 0)));
    }

    #[test]
    fn unfolded_sync_read_of_a_data_write_pairs_with_nothing() {
        let mut r = OpRecorder::new(2);
        let w = r.data_access(p(0), l(9), AccessKind::Write, Value::new(1), None);
        r.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::new(1), Some(w));
        let (_, hb, races) = unfolded(&r.finish());
        assert!(hb.so1().is_empty());
        // And they race: a data-sync conflict, unordered.
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::DataSync);
    }

    #[test]
    fn unfolded_unaffected_races_are_the_first_ones() {
        let mut r = OpRecorder::new(2);
        // Race 1 on x, then (no pairing) race 2 on y.
        r.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        r.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        r.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        r.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let (_, hb, races) = unfolded(&r.finish());
        assert_eq!(races.len(), 2);
        let aug = AugmentedGraph::build(&hb, &races);
        let oracle = AffectsOracle::new(&aug, &races);
        let unaffected = oracle.unaffected_data_races();
        assert_eq!(unaffected.len(), 1, "the x race is the only first race");
        assert!(races[unaffected[0]].locations.contains(l(0)));
        assert!(oracle.affects_race(unaffected[0], 1 - unaffected[0]));
    }

    #[test]
    fn unfolded_race_affects_its_po_successors() {
        let mut r = OpRecorder::new(2);
        r.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        r.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        r.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let (_, hb, races) = unfolded(&r.finish());
        assert_eq!(races.len(), 1);
        let aug = AugmentedGraph::build(&hb, &races);
        let oracle = AffectsOracle::new(&aug, &races);
        assert!(oracle.affects_event(0, e(0, 0)), "involves");
        assert!(oracle.affects_event(0, e(0, 1)), "po successor");
        assert!(!oracle.affects_event(0, e(9, 0)), "unknown operation unaffected");
    }

    #[test]
    fn unfolded_dangling_observed_write_is_error() {
        let mut ops = OpTrace::new(1);
        ops.push(
            p(0),
            MemOp {
                id: OpId::new(p(0), 0),
                loc: l(9),
                kind: AccessKind::Read,
                class: OpClass::Sync(SyncRole::Acquire),
                value: Value::ZERO,
                observed_write: Some(OpId::new(p(0), 77)),
            },
        )
        .unwrap();
        assert!(matches!(
            PostMortem::new(&ops.to_event_trace()).analyze(),
            Err(AnalysisError::DanglingRelease { .. })
        ));
    }
}
