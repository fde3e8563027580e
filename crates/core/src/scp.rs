//! Estimating the sequentially consistent prefix (Definitions 3.1–3.2,
//! Condition 3.4).
//!
//! On hardware obeying Condition 3.4, every execution has an SCP — a
//! prefix-closed set of events that also occurs in some sequentially
//! consistent execution — extending at least through the first data
//! races. The exact SCP is existential (it names an SC execution), but a
//! sound boundary is computable from the trace alone: an event can lie
//! *outside* every guaranteed SCP only if it is strictly G′-after some
//! data race (only race-affected suffixes may deviate from sequential
//! consistency). [`estimate_scp`] marks those events *tainted* and
//! reports the per-processor frontier — the "End of SCP" annotation of
//! the paper's Figures 2b and 3.

use std::fmt;

use wmrd_trace::{EventId, ProcId, TraceSet};

use crate::{AugmentedGraph, DataRace};

/// The estimated sequentially consistent prefix of one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScpEstimate {
    /// Per processor: the index of the first event *outside* the SCP
    /// (== the processor's event count when every event is inside).
    boundaries: Vec<u32>,
    /// Per processor: total event count (for display and ratio math).
    event_counts: Vec<u32>,
}

impl ScpEstimate {
    /// `true` iff `event` lies within the estimated SCP.
    ///
    /// Events of unknown processors are reported as outside.
    pub fn contains(&self, event: EventId) -> bool {
        self.boundaries.get(event.proc.index()).is_some_and(|&b| event.index < b)
    }

    /// The per-processor boundary: index of the first event outside the
    /// SCP for `proc`.
    pub fn boundary(&self, proc: ProcId) -> Option<u32> {
        self.boundaries.get(proc.index()).copied()
    }

    /// `true` iff the whole execution is inside the SCP — which, under
    /// Condition 3.4(1), certifies it was sequentially consistent.
    pub fn covers_everything(&self) -> bool {
        self.boundaries.iter().zip(&self.event_counts).all(|(b, n)| b == n)
    }

    /// Number of events inside the SCP, across all processors.
    pub fn events_inside(&self) -> u64 {
        self.boundaries.iter().map(|&b| u64::from(b)).sum()
    }

    /// Total number of events in the execution.
    pub fn events_total(&self) -> u64 {
        self.event_counts.iter().map(|&n| u64::from(n)).sum()
    }
}

wmrd_trace::impl_to_json!(ScpEstimate { boundaries, event_counts });

impl fmt::Display for ScpEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.covers_everything() {
            return write!(f, "SCP covers the entire execution (sequentially consistent)");
        }
        write!(f, "SCP boundaries:")?;
        for (i, (b, n)) in self.boundaries.iter().zip(&self.event_counts).enumerate() {
            write!(f, " P{i}:{b}/{n}")?;
        }
        Ok(())
    }
}

/// Computes the SCP estimate of an execution.
///
/// An event is *tainted* (outside the estimate) iff some data-race
/// endpoint strictly G′-reaches it from outside its own partition —
/// i.e. it lies in a component strictly after a race-containing
/// component. Race endpoints themselves are kept inside (Theorem 4.2
/// guarantees each first partition intersects the SCP; endpoints of
/// non-first partitions are tainted because another race's component
/// precedes theirs). Taint is suffix-closed per processor (po edges are
/// in G′), so the estimate is prefix-closed as Definition 3.1 requires.
pub fn estimate_scp(trace: &TraceSet, aug: &AugmentedGraph<'_>, races: &[DataRace]) -> ScpEstimate {
    // The components holding a data-race endpoint, each with one such
    // endpoint: a component's events are mutually reachable, so one
    // answers for all.
    let mut race_comps: Vec<(u32, EventId)> = aug
        .data_race_indices()
        .iter()
        .filter_map(|&i| Some((aug.component_of(races[i].a)?, races[i].a)))
        .collect();
    race_comps.sort_unstable_by_key(|&(comp, _)| comp);
    race_comps.dedup_by_key(|&mut (comp, _)| comp);

    let mut boundaries = Vec::with_capacity(trace.num_procs());
    let mut event_counts = Vec::with_capacity(trace.num_procs());
    for proc_trace in trace.processors() {
        let events = proc_trace.events();
        let mut boundary = events.len() as u32;
        for (idx, event) in events.iter().enumerate() {
            let comp = aug.component_of(event.id).expect("trace events are graph nodes");
            let tainted = race_comps.iter().any(|&(rc, rep)| rc != comp && aug.path(rep, event.id));
            if tainted {
                boundary = idx as u32;
                break;
            }
        }
        boundaries.push(boundary);
        event_counts.push(events.len() as u32);
    }
    ScpEstimate { boundaries, event_counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_races, HbGraph, PairingPolicy};
    use wmrd_trace::{
        AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSet, TraceSink, Value,
    };

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    fn e(proc: u16, index: u32) -> EventId {
        EventId::new(p(proc), index)
    }

    fn scp_of(trace: &TraceSet) -> ScpEstimate {
        let hb = HbGraph::build(trace, PairingPolicy::ByRole).unwrap();
        let races = detect_races(trace, &hb);
        let aug = AugmentedGraph::build(&hb, &races);
        estimate_scp(trace, &aug, &races)
    }

    #[test]
    fn race_free_execution_is_fully_covered() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(1), None);
        let scp = scp_of(&b.finish());
        assert!(scp.covers_everything());
        assert!(scp.contains(e(0, 0)));
        assert!(scp.contains(e(1, 0)));
        assert_eq!(scp.events_inside(), scp.events_total());
        assert!(scp.to_string().contains("sequentially consistent"));
    }

    #[test]
    fn first_race_endpoints_stay_inside() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let scp = scp_of(&b.finish());
        assert!(scp.covers_everything(), "a lone race's endpoints are in the SCP");
    }

    #[test]
    fn events_after_a_race_are_outside() {
        let mut b = TraceBuilder::new(2);
        // Race on x; then (split by unpaired sync events) more work.
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.sync_access(p(0), l(8), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(2), AccessKind::Write, Value::new(1), None);
        let t = b.finish();
        let scp = scp_of(&t);
        assert!(!scp.covers_everything());
        // The race endpoints (event 0 of each processor) are inside.
        assert!(scp.contains(e(0, 0)));
        assert!(scp.contains(e(1, 0)));
        // Everything po-after them is outside the guaranteed prefix.
        assert_eq!(scp.boundary(p(0)), Some(1));
        assert_eq!(scp.boundary(p(1)), Some(1));
        assert!(!scp.contains(e(0, 1)));
        assert!(!scp.contains(e(1, 2)));
        let s = scp.to_string();
        assert!(s.contains("P0:1/3"), "{s}");
    }

    #[test]
    fn unrelated_processor_is_fully_covered() {
        let mut b = TraceBuilder::new(3);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        // P2 never interacts with the race.
        b.data_access(p(2), l(5), AccessKind::Write, Value::new(1), None);
        let scp = scp_of(&b.finish());
        assert_eq!(scp.boundary(p(2)), Some(1));
        assert!(scp.contains(e(2, 0)));
    }

    #[test]
    fn non_first_partition_events_are_outside() {
        // Two-phase trace: phase-2 race events must be outside the SCP.
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.sync_access(p(0), l(8), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let scp = scp_of(&b.finish());
        assert!(scp.contains(e(0, 0)) && scp.contains(e(1, 0)));
        assert!(!scp.contains(e(0, 2)) && !scp.contains(e(1, 2)));
    }

    #[test]
    fn unknown_processor_is_outside() {
        let mut b = TraceBuilder::new(1);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        let scp = scp_of(&b.finish());
        assert!(!scp.contains(e(9, 0)));
        assert_eq!(scp.boundary(p(9)), None);
    }
}
