//! Persistent, content-addressed catalog of race-analysis results.
//!
//! Every `wmrd analyze`/`explore` run today is ephemeral: races are
//! detected, reported, and forgotten. This crate gives the analysis a
//! memory. A [`Catalog`] accumulates the results of many executions —
//! the cross-execution bookkeeping that predictive detectors (Mathur
//! et al., *What Happens-After the First Race?*; Roemer & Bond's
//! SmartTrack) motivate for amortizing detection work — keyed two
//! ways:
//!
//! * **Traces** are content-addressed by [`wmrd_trace::TraceDigest`]:
//!   resubmitting the same execution (even re-encoded) deduplicates to
//!   a no-op.
//! * **Races** are deduplicated by [`wmrd_core::RaceKey`], the
//!   execution-independent identity introduced for campaign reports.
//!   Each identity's entry aggregates only commutatively (hit counts,
//!   digest sets), so the race table is independent of ingest order.
//!
//! Durability comes from an append-only journal ([`journal`]) with the
//! v2 trace format's integrity discipline: CRC-32 framing per record,
//! bounded decode, and salvage-on-open — a torn tail (a daemon killed
//! mid-append) is truncated back to the longest valid record prefix,
//! so every *acknowledged* ingest survives a crash.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

pub mod journal;
mod store;

pub use journal::{JournalRecord, JournalSalvage, Provenance, RaceObservation};
pub use store::{
    format_key, parse_key_spec, Catalog, CatalogStats, IngestOutcome, Query, RaceEntry,
    TraceSummary,
};

/// Errors produced by the catalog.
#[derive(Debug)]
#[non_exhaustive]
pub enum CatalogError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// The journal header is unusable — not this format, or damaged
    /// beyond the salvage contract.
    Corrupt {
        /// Byte offset of the problem.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// A record could not be encoded.
    Record(String),
    /// A query spec was malformed or referenced unknown state.
    Query(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog io error: {e}"),
            CatalogError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            CatalogError::Record(m) => write!(f, "bad journal record: {m}"),
            CatalogError::Query(m) => write!(f, "bad query: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

impl From<wmrd_trace::DecodeError> for CatalogError {
    fn from(e: wmrd_trace::DecodeError) -> Self {
        CatalogError::Corrupt { offset: e.offset, reason: e.reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_core::{RaceKey, SideKey};
    use wmrd_trace::{AccessKind, Location, ProcId};

    fn key(addr: u32, a: u16, b: u16) -> RaceKey {
        RaceKey::new(
            Location::new(addr),
            SideKey { proc: ProcId::new(a), kind: AccessKind::Write, sync: false },
            SideKey { proc: ProcId::new(b), kind: AccessKind::Read, sync: false },
        )
    }

    fn record(digest: u64, keys: &[RaceKey]) -> JournalRecord {
        JournalRecord {
            digest: format!("{digest:016x}"),
            program: Some("fig1a".into()),
            model: Some("wo".into()),
            seed: Some(digest),
            events: 8,
            races: keys
                .iter()
                .map(|&key| RaceObservation {
                    key,
                    first_partition: true,
                    provenance: Provenance::OBSERVED,
                })
                .collect(),
            amend: false,
        }
    }

    fn amendment(digest: u64, keys: &[RaceKey]) -> JournalRecord {
        JournalRecord {
            races: keys
                .iter()
                .map(|&key| RaceObservation {
                    key,
                    first_partition: false,
                    provenance: Provenance::PREDICTED,
                })
                .collect(),
            amend: true,
            ..record(digest, &[])
        }
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wmrd-catalog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ingest_deduplicates_by_digest_and_key() {
        let mut cat = Catalog::in_memory();
        let k = key(2, 0, 1);
        let first = cat.ingest(&record(1, &[k])).unwrap();
        assert!(!first.duplicate);
        assert_eq!(first.new_races, 1);
        let dup = cat.ingest(&record(1, &[k])).unwrap();
        assert!(dup.duplicate);
        let second = cat.ingest(&record(2, &[k, key(3, 0, 1)])).unwrap();
        assert!(!second.duplicate);
        assert_eq!(second.new_races, 1, "only m[3] is new");
        assert_eq!(cat.trace_count(), 2);
        assert_eq!(cat.race_count(), 2);
        assert_eq!(cat.stats().observations, 3);
    }

    #[test]
    fn race_table_is_ingest_order_independent() {
        let records: Vec<_> =
            (0..6).map(|i| record(i, &[key(i as u32 % 3, 0, 1), key(9, 1, 2)])).collect();
        let mut forward = Catalog::in_memory();
        for r in &records {
            forward.ingest(r).unwrap();
        }
        let mut backward = Catalog::in_memory();
        for r in records.iter().rev() {
            backward.ingest(r).unwrap();
        }
        for q in
            [Query::Races, Query::Traces, Query::Key(key(9, 1, 2)), Query::Program("fig1a".into())]
        {
            assert_eq!(forward.query(&q).unwrap(), backward.query(&q).unwrap(), "{q:?}");
        }
    }

    #[test]
    fn journal_backed_catalog_survives_reopen() {
        let dir = tmpdir("reopen");
        let path = dir.join("catalog.journal");
        {
            let mut cat = Catalog::open(&path).unwrap();
            cat.ingest(&record(1, &[key(2, 0, 1)])).unwrap();
            cat.ingest(&record(2, &[key(2, 0, 1), key(5, 0, 1)])).unwrap();
        }
        let cat = Catalog::open(&path).unwrap();
        assert_eq!(cat.trace_count(), 2);
        assert_eq!(cat.race_count(), 2);
        assert!(cat.salvage().unwrap().complete);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_salvages_committed_records_and_heals_the_file() {
        let dir = tmpdir("torn");
        let path = dir.join("catalog.journal");
        {
            let mut cat = Catalog::open(&path).unwrap();
            for i in 0..4 {
                cat.ingest(&record(i, &[key(i as u32, 0, 1)])).unwrap();
            }
        }
        // Tear the file mid-record, as a kill -9 during append would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
        {
            let cat = Catalog::open(&path).unwrap();
            let salvage = cat.salvage().unwrap();
            assert!(!salvage.complete);
            assert_eq!(cat.trace_count(), 3, "the three committed records survive");
            assert_eq!(salvage.records, 3);
        }
        // The damaged tail was truncated away, so the *next* open is
        // clean and appends extend the valid prefix.
        let mut cat = Catalog::open(&path).unwrap();
        assert!(cat.salvage().unwrap().complete);
        cat.ingest(&record(9, &[key(9, 0, 1)])).unwrap();
        drop(cat);
        let cat = Catalog::open(&path).unwrap();
        assert!(cat.salvage().unwrap().complete);
        assert_eq!(cat.trace_count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_to_adopt_a_foreign_file() {
        let dir = tmpdir("foreign");
        let path = dir.join("notes.txt");
        std::fs::write(&path, b"this is not a journal, do not clobber it").unwrap();
        assert!(matches!(Catalog::open(&path), Err(CatalogError::Corrupt { .. })));
        assert_eq!(std::fs::read(&path).unwrap(), b"this is not a journal, do not clobber it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_is_reopenable() {
        let dir = tmpdir("compact");
        let path = dir.join("catalog.journal");
        let before;
        {
            let mut cat = Catalog::open(&path).unwrap();
            for i in 0..5 {
                cat.ingest(&record(i, &[key(i as u32, 0, 1)])).unwrap();
            }
            before = cat.query(&Query::Races).unwrap();
            cat.compact().unwrap();
            assert_eq!(cat.stats().compactions, 1);
            assert_eq!(cat.query(&Query::Races).unwrap(), before);
            // The append handle still works after the rename.
            cat.ingest(&record(50, &[key(50, 0, 1)])).unwrap();
        }
        let cat = Catalog::open(&path).unwrap();
        assert_eq!(cat.trace_count(), 6);
        assert!(cat.salvage().unwrap().complete);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn amendments_union_predictions_into_a_cataloged_trace() {
        let mut cat = Catalog::in_memory();
        let observed = key(2, 0, 1);
        let predicted = key(7, 0, 1);
        cat.ingest(&record(1, &[observed])).unwrap();

        // An amendment for an unknown digest has no base record.
        assert!(matches!(cat.ingest(&amendment(99, &[predicted])), Err(CatalogError::Record(_))));

        // The prediction covers the observed key plus one new key.
        let out = cat.ingest(&amendment(1, &[observed, predicted])).unwrap();
        assert!(!out.duplicate);
        assert_eq!(out.new_races, 1, "only the predicted-only key is new");
        assert_eq!(cat.trace_count(), 1, "an amendment is not a new trace");
        assert_eq!(cat.race_count(), 2);

        let races = cat.query(&Query::Races).unwrap();
        assert!(races.contains("provenance=observed+predicted"), "{races}");
        assert!(races.contains("provenance=predicted"), "{races}");
        // Predicted-only evidence never inflates witnessed hit counts.
        let entry = cat.query(&Query::Key(predicted)).unwrap();
        assert!(entry.contains("hits=0"), "{entry}");

        // Re-amending with the same knowledge is a duplicate and adds
        // nothing — the journal-growth bound for repeated re-analyses.
        let again = cat.ingest(&amendment(1, &[observed, predicted])).unwrap();
        assert!(again.duplicate);
        assert_eq!(cat.query(&Query::Races).unwrap(), races);
    }

    #[test]
    fn amendments_survive_reopen_and_compaction() {
        let dir = tmpdir("amend");
        let path = dir.join("catalog.journal");
        let k_obs = key(2, 0, 1);
        let k_pred = key(7, 0, 1);
        let before;
        {
            let mut cat = Catalog::open(&path).unwrap();
            cat.ingest(&record(1, &[k_obs])).unwrap();
            cat.ingest(&amendment(1, &[k_obs, k_pred])).unwrap();
            before = cat.query(&Query::Races).unwrap();
        }
        {
            // Replay folds the amendment back in.
            let mut cat = Catalog::open(&path).unwrap();
            assert!(cat.salvage().unwrap().complete);
            assert_eq!(cat.query(&Query::Races).unwrap(), before);
            // Compaction collapses base + amendment into one record…
            cat.compact().unwrap();
            assert_eq!(cat.query(&Query::Races).unwrap(), before);
        }
        // …which still replays to the same table.
        let cat = Catalog::open(&path).unwrap();
        assert_eq!(cat.query(&Query::Races).unwrap(), before);
        assert_eq!(cat.stats().observations, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_queries_mirror_the_text_renderings() {
        let mut cat = Catalog::in_memory();
        cat.ingest(&record(1, &[key(2, 0, 1)])).unwrap();
        cat.ingest(&amendment(1, &[key(7, 0, 1)])).unwrap();

        // Pinned byte for byte: `json:` replies are a wire format.
        let race_2 = r#"{"key":"2:P0W:P1R","hits":1,"first":1,"traces":1,"programs":["fig1a"],"models":["wo"],"provenance":"observed"}"#;
        let race_7 = r#"{"key":"7:P0W:P1R","hits":0,"first":0,"traces":1,"programs":["fig1a"],"models":["wo"],"provenance":"predicted"}"#;
        assert_eq!(
            cat.query_json(&Query::Races).unwrap(),
            format!(r#"{{"races":[{race_2},{race_7}],"observations":2}}"#)
        );
        assert_eq!(
            cat.query_json(&Query::Traces).unwrap(),
            r#"{"traces":[{"digest":"0000000000000001","program":"fig1a","model":"wo","seed":1,"events":8,"races":[{"key":"2:P0W:P1R","first_partition":true,"provenance":"observed"},{"key":"7:P0W:P1R","first_partition":false,"provenance":"predicted"}]}]}"#
        );
        assert_eq!(
            cat.query_json(&Query::Key(key(2, 0, 1))).unwrap(),
            format!(r#"{{"races":[{race_2}],"traces":["0000000000000001"]}}"#)
        );
        let miss = cat.query_json(&Query::Key(key(9, 0, 1))).unwrap();
        assert_eq!(miss, "{\"races\":[],\"traces\":[]}");

        assert_eq!(
            cat.query_json(&Query::Since(format!("{:016x}", 1))).unwrap(),
            r#"{"since":"0000000000000001","traces":[],"new_keys":[]}"#
        );
        assert!(matches!(
            cat.query_json(&Query::Since("ffffffffffffffff".into())),
            Err(CatalogError::Query(_))
        ));
        assert_eq!(
            cat.query_json(&Query::Program("fig1a".into())).unwrap(),
            cat.query_json(&Query::Model("wo".into())).unwrap(),
            "both filters keep every entry here"
        );
    }

    #[test]
    fn parse_spec_routes_json_prefixed_queries() {
        assert_eq!(Query::parse_spec("races").unwrap(), (Query::Races, false));
        assert_eq!(Query::parse_spec("json:races").unwrap(), (Query::Races, true));
        assert_eq!(
            Query::parse_spec(" json:program=fig1a ").unwrap(),
            (Query::Program("fig1a".into()), true)
        );
        assert!(Query::parse_spec("json:bogus").is_err());
    }

    #[test]
    fn since_query_reports_new_traces_and_new_identities() {
        let mut cat = Catalog::in_memory();
        cat.ingest(&record(1, &[key(2, 0, 1)])).unwrap();
        let mark = format!("{:016x}", 1);
        cat.ingest(&record(2, &[key(2, 0, 1)])).unwrap();
        cat.ingest(&record(3, &[key(7, 0, 1)])).unwrap();
        let out = cat.query(&Query::parse(&format!("since={mark}")).unwrap()).unwrap();
        assert!(out.starts_with("2 traces since"), "{out}");
        assert!(out.contains("1 new race identities"), "{out}");
        assert!(out.contains(&format_key(&key(7, 0, 1))), "{out}");
        assert!(matches!(
            cat.query(&Query::Since("ffffffffffffffff".into())),
            Err(CatalogError::Query(_))
        ));
    }

    #[test]
    fn key_spec_round_trips() {
        for k in [key(2, 0, 1), key(0, 3, 3)] {
            assert_eq!(parse_key_spec(&format_key(&k)).unwrap(), k);
        }
        let sync = RaceKey::new(
            Location::new(4),
            SideKey { proc: ProcId::new(1), kind: AccessKind::Write, sync: true },
            SideKey { proc: ProcId::new(0), kind: AccessKind::Read, sync: false },
        );
        assert_eq!(parse_key_spec(&format_key(&sync)).unwrap(), sync);
        for bad in ["", "x:P0W:P1R", "2:P0W", "2:P0W:P1R:P2R", "2:0W:P1R", "2:P0X:P1R"] {
            assert!(parse_key_spec(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn query_parse_covers_the_protocol_surface() {
        assert_eq!(Query::parse("races").unwrap(), Query::Races);
        assert_eq!(Query::parse(" traces ").unwrap(), Query::Traces);
        assert_eq!(Query::parse("program=fig1a").unwrap(), Query::Program("fig1a".into()));
        assert_eq!(Query::parse("model=wo").unwrap(), Query::Model("wo".into()));
        assert!(matches!(Query::parse("key=2:P0W:P1R").unwrap(), Query::Key(_)));
        assert!(Query::parse("since=0123456789abcdef").is_ok());
        for bad in ["", "bogus", "since=zz", "what=ever", "key=2"] {
            assert!(Query::parse(bad).is_err(), "{bad:?}");
        }
    }
}
