//! Tests of race signatures as the theorem checks compare them.
//!
//! The verifier names a race by [`wmrd_core::RaceKey`] (its "race
//! signature") and compares sets of them across executions in
//! [`crate::theorems`]. These tests pin the properties that comparison
//! relies on, through the same `wmrd_core` calls.

#[cfg(test)]
mod tests {
    use wmrd_core::{detect_races, event_race_keys, HbGraph, PairingPolicy, RaceKey, SideKey};
    use wmrd_trace::{AccessKind, Location, ProcId, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    #[test]
    fn signature_is_normalized() {
        let s1 = SideKey { proc: p(1), kind: AccessKind::Read, sync: false };
        let s0 = SideKey { proc: p(0), kind: AccessKind::Write, sync: false };
        let sig_a = RaceKey::new(l(0), s1, s0);
        let sig_b = RaceKey::new(l(0), s0, s1);
        assert_eq!(sig_a, sig_b);
        assert_eq!(sig_a.a.proc, p(0));
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
        let sigs = event_race_keys(&races, &t);
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
        let sigs = event_race_keys(&races, &t);
        assert_eq!(sigs.len(), 2);
        assert!(sigs.iter().all(|s| !(s.a.sync && s.b.sync)), "{sigs:?}");
    }
}
