//! Execution-independent race identities.
//!
//! The canonical types now live in `wmrd-core` ([`wmrd_core::RaceKey`] /
//! [`wmrd_core::SideKey`]), where the campaign engine shares them for
//! cross-execution deduplication; this module keeps the verifier's
//! historical names and set-valued helpers as thin wrappers. See the
//! core module for the identity's rationale (Section 2.1 of the paper:
//! an operation is "the location it accesses and the part of the
//! program in which it is specified").

use std::collections::HashSet;

use wmrd_core::ops::OpRace;
use wmrd_core::DataRace;
use wmrd_trace::{OpTrace, TraceSet};

pub use wmrd_core::{RaceKey as RaceSignature, SideKey as SideSignature};

/// Signatures of the *data* races of an operation-level race list.
pub fn op_race_signatures(races: &[OpRace], trace: &OpTrace) -> HashSet<RaceSignature> {
    wmrd_core::op_race_keys(races, trace).into_iter().collect()
}

/// Signatures of the *data* races of an event-level race list. An event
/// race on several locations yields one signature per conflict location.
pub fn event_race_signatures(races: &[DataRace], trace: &TraceSet) -> HashSet<RaceSignature> {
    wmrd_core::event_race_keys(races, trace).into_iter().collect()
}

/// A single event-level race's signatures (helper for per-partition
/// checks).
pub fn one_event_race_signatures(race: &DataRace, trace: &TraceSet) -> HashSet<RaceSignature> {
    event_race_signatures(std::slice::from_ref(race), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_core::{detect_races, ops::OpAnalysis, HbGraph, PairingPolicy};
    use wmrd_trace::{AccessKind, Location, OpRecorder, ProcId, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    #[test]
    fn signature_is_normalized() {
        let s1 = SideSignature { proc: p(1), kind: AccessKind::Read, sync: false };
        let s0 = SideSignature { proc: p(0), kind: AccessKind::Write, sync: false };
        let sig_a = RaceSignature::new(l(0), s1, s0);
        let sig_b = RaceSignature::new(l(0), s0, s1);
        assert_eq!(sig_a, sig_b);
        assert_eq!(sig_a.a.proc, p(0));
    }

    #[test]
    fn op_and_event_signatures_agree_on_a_simple_race() {
        // Same execution traced at both granularities.
        let mut events = TraceBuilder::new(2);
        let mut ops = OpRecorder::new(2);
        // Feed both sinks identically.
        let feed = |b: &mut dyn TraceSink| {
            b.data_access(p(0), l(3), AccessKind::Write, Value::new(1), None);
            b.data_access(p(1), l(3), AccessKind::Read, Value::ZERO, None);
        };
        feed(&mut events);
        feed(&mut ops);
        let event_trace = events.finish();
        let op_trace = ops.finish();

        let hb = HbGraph::build(&event_trace, PairingPolicy::ByRole).unwrap();
        let event_races = detect_races(&event_trace, &hb);
        let esigs = event_race_signatures(&event_races, &event_trace);

        let analysis = OpAnalysis::analyze(&op_trace, PairingPolicy::ByRole).unwrap();
        let osigs = op_race_signatures(analysis.races(), &op_trace);

        assert_eq!(esigs, osigs);
        assert_eq!(esigs.len(), 1);
        let sig = esigs.iter().next().unwrap();
        assert_eq!(sig.loc, l(3));
        assert_eq!(sig.a.kind, AccessKind::Write);
        assert_eq!(sig.b.kind, AccessKind::Read);
    }

    #[test]
    fn multi_location_event_race_yields_multiple_signatures() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        assert_eq!(races.len(), 1, "one event pair");
        let sigs = event_race_signatures(&races, &t);
        assert_eq!(sigs.len(), 2, "two conflict locations");
    }

    #[test]
    fn sync_sync_races_are_skipped() {
        // The sync-sync pair is no race; the data read races both writes.
        use wmrd_trace::SyncRole;
        let mut b = TraceBuilder::new(3);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::new(1), None);
        b.data_access(p(2), l(9), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        assert_eq!(races.len(), 2);
        let sigs = event_race_signatures(&races, &t);
        assert_eq!(sigs.len(), 2);
        assert!(sigs.iter().all(|s| !(s.a.sync && s.b.sync)), "{sigs:?}");
    }

    #[test]
    fn one_race_helper() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        assert_eq!(one_event_race_signatures(&races[0], &t).len(), 1);
    }
}
