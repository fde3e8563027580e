//! Execution-independent race identities.
//!
//! Comparing races *across executions* — the verifier checking
//! Theorem 4.2 against an SC oracle, or a campaign engine deduplicating
//! thousands of seeds' findings — needs a name for a race that does not
//! depend on dynamic operation ids, which differ between interleavings.
//! Section 2.1 of the paper identifies an operation by "the location it
//! accesses and the part of the program in which it is specified"; a
//! [`RaceKey`] approximates that source-location pair with the issuing
//! processor, the conflict location, the access kind and the data/sync
//! classification of both sides — coarse enough to be stable across
//! interleavings of the same program, fine enough to distinguish the
//! races of every workload in this repository.
//!
//! Keys are totally ordered and serializable, so campaign reports keyed
//! by them are deterministic and can be emitted as JSON.

use std::collections::BTreeSet;

use wmrd_trace::{AccessKind, Event, Location, ProcId, TraceSet};

use crate::DataRace;

/// One side of a race identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SideKey {
    /// Issuing processor.
    pub proc: ProcId,
    /// Read or write (for event-level races: whether the event *writes*
    /// the conflict location).
    pub kind: AccessKind,
    /// `true` iff the side is a synchronization operation/event.
    pub sync: bool,
}

/// An execution-independent race identity: a conflict location plus the
/// normalized pair of sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaceKey {
    /// The conflict location.
    pub loc: Location,
    /// The lexicographically smaller side.
    pub a: SideKey,
    /// The other side.
    pub b: SideKey,
}

wmrd_trace::impl_to_json!(SideKey { proc, kind, sync });

wmrd_trace::impl_to_json!(RaceKey { loc, a, b });

impl RaceKey {
    /// Builds a normalized key from two sides (argument order is
    /// irrelevant).
    pub fn new(loc: Location, x: SideKey, y: SideKey) -> Self {
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        RaceKey { loc, a, b }
    }
}

/// Keys of the *data* races of an event-level race list. An event race
/// on several locations yields one key per conflict location.
pub fn event_race_keys(races: &[DataRace], trace: &TraceSet) -> BTreeSet<RaceKey> {
    let mut out = BTreeSet::new();
    for race in races {
        extend_event_race_keys(&mut out, race, trace);
    }
    out
}

/// Extends `out` with one event-level race's keys, one per conflict
/// location and conflicting access-kind pair.
pub fn extend_event_race_keys(out: &mut impl Extend<RaceKey>, race: &DataRace, trace: &TraceSet) {
    let (Some(ea), Some(eb)) = (trace.event(race.a), trace.event(race.b)) else {
        return;
    };
    let kinds = |event: &Event, loc: Location| {
        [(AccessKind::Read, event.reads_loc(loc)), (AccessKind::Write, event.writes_loc(loc))]
            .into_iter()
            .filter_map(|(kind, present)| present.then_some(kind))
    };
    for loc in &race.locations {
        // An event may both read and write the location; it then
        // stands for one lower-level race per access-kind combination
        // (Section 4.1: a higher-level race "may represent many
        // lower-level data races").
        for ka in kinds(ea, loc) {
            for kb in kinds(eb, loc) {
                if ka == AccessKind::Read && kb == AccessKind::Read {
                    continue; // read-read pairs do not conflict
                }
                out.extend([RaceKey::new(
                    loc,
                    SideKey { proc: race.a.proc, kind: ka, sync: ea.is_sync() },
                    SideKey { proc: race.b.proc, kind: kb, sync: eb.is_sync() },
                )]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_races, HbGraph, PairingPolicy};
    use wmrd_trace::{OpRecorder, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    #[test]
    fn key_is_normalized() {
        let s1 = SideKey { proc: p(1), kind: AccessKind::Read, sync: false };
        let s0 = SideKey { proc: p(0), kind: AccessKind::Write, sync: false };
        let key_a = RaceKey::new(l(0), s1, s0);
        let key_b = RaceKey::new(l(0), s0, s1);
        assert_eq!(key_a, key_b);
        assert_eq!(key_a.a.proc, p(0));
    }

    /// The dedup contract a campaign engine relies on: the same
    /// source-location pair observed under two different schedules must
    /// produce the same key.
    #[test]
    fn same_pair_under_different_schedules_same_key() {
        // Schedule 1: writer first. Schedule 2: reader first. The
        // dynamic event ids and observed values differ; the key must not.
        let mut b1 = TraceBuilder::new(2);
        b1.data_access(p(0), l(3), AccessKind::Write, Value::new(1), None);
        b1.data_access(p(1), l(3), AccessKind::Read, Value::new(1), None);
        let t1 = b1.finish();

        let mut b2 = TraceBuilder::new(2);
        b2.data_access(p(1), l(3), AccessKind::Read, Value::ZERO, None);
        b2.data_access(p(0), l(3), AccessKind::Write, Value::new(1), None);
        let t2 = b2.finish();

        let keys = |t: &TraceSet| {
            let hb = HbGraph::build(t, PairingPolicy::ByRole).unwrap();
            event_race_keys(&detect_races(t, &hb), t)
        };
        let k1 = keys(&t1);
        let k2 = keys(&t2);
        assert_eq!(k1.len(), 1);
        assert_eq!(k1, k2, "schedule must not influence identity");
    }

    /// The converse: distinct source-location pairs must not merge.
    #[test]
    fn distinct_pairs_do_not_merge() {
        // Two races on different locations...
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let keys = event_race_keys(&detect_races(&t, &hb), &t);
        assert_eq!(keys.len(), 2, "different locations stay distinct");

        // ...and two races on the same location with different access
        // kinds (write-read vs write-write).
        let mut b = TraceBuilder::new(3);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(2), l(0), AccessKind::Write, Value::new(2), None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let keys = event_race_keys(&detect_races(&t, &hb), &t);
        assert!(keys.len() >= 3, "kind/processor differences stay distinct: {keys:?}");
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

        let keys = |t: &TraceSet| {
            let hb = HbGraph::build(t, PairingPolicy::ByRole).unwrap();
            event_race_keys(&detect_races(t, &hb), t)
        };
        let esigs = keys(&event_trace);
        let osigs = keys(&op_trace.to_event_trace());

        assert_eq!(esigs, osigs);
        assert_eq!(esigs.len(), 1);
        let sig = esigs.iter().next().unwrap();
        assert_eq!(sig.loc, l(3));
        assert_eq!(sig.a.kind, AccessKind::Write);
        assert_eq!(sig.b.kind, AccessKind::Read);
    }

    #[test]
    fn multi_location_event_race_yields_multiple_keys() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        assert_eq!(races.len(), 1, "one event pair");
        assert_eq!(event_race_keys(&races, &t).len(), 2, "two conflict locations");
    }

    #[test]
    fn sync_sync_races_are_skipped() {
        // Two unpaired sync writes and a data read of one location: the
        // sync-sync pair is no race, so every key has a data side.
        use wmrd_trace::SyncRole;
        let mut b = TraceBuilder::new(3);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::new(1), None);
        b.data_access(p(2), l(9), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        assert_eq!(races.len(), 2, "{races:?}");
        let keys = event_race_keys(&races, &t);
        assert_eq!(keys.len(), 2);
        assert!(keys.iter().all(|k| !(k.a.sync && k.b.sync)), "{keys:?}");
    }

    #[test]
    fn one_race_helper() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let t = b.finish();
        let hb = HbGraph::build(&t, PairingPolicy::ByRole).unwrap();
        let races = detect_races(&t, &hb);
        let mut keys = BTreeSet::new();
        extend_event_race_keys(&mut keys, &races[0], &t);
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn keys_are_totally_ordered_and_stable() {
        // BTreeSet iteration order (= campaign report order) is the
        // lexicographic key order, independent of insertion order.
        let w = |i| SideKey { proc: p(i), kind: AccessKind::Write, sync: false };
        let r = |i| SideKey { proc: p(i), kind: AccessKind::Read, sync: false };
        let k1 = RaceKey::new(l(0), w(0), r(1));
        let k2 = RaceKey::new(l(1), w(0), r(1));
        let k3 = RaceKey::new(l(0), w(1), r(0));
        let fwd: BTreeSet<_> = [k1, k2, k3].into_iter().collect();
        let rev: BTreeSet<_> = [k3, k2, k1].into_iter().collect();
        assert!(fwd.iter().eq(rev.iter()));
        assert!(k1 < k2, "location is the major sort key");
    }
}
