//! The in-memory catalog state and its durable journal binding.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use wmrd_core::{event_race_keys, extend_event_race_keys, RaceKey, RaceReport, SideKey};
use wmrd_trace::{
    metric_keys, AccessKind, Json, Location, Metrics, ProcId, ToJson, TraceDigest, TraceSet,
};

use crate::journal::{self, JournalRecord, JournalSalvage, Provenance, RaceObservation};
use crate::CatalogError;

/// Everything the catalog remembers about one ingested trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The trace's content identity (digest token).
    pub digest: String,
    /// Program name from the trace metadata.
    pub program: Option<String>,
    /// Memory model label from the trace metadata.
    pub model: Option<String>,
    /// Scheduler seed from the trace metadata.
    pub seed: Option<u64>,
    /// Events in the trace, summed over processors.
    pub events: u64,
    /// The trace's race observations, in `RaceKey` order.
    pub races: Vec<RaceObservation>,
}

/// The accumulated evidence for one race identity across every
/// ingested trace.
///
/// Every field is a *commutative* aggregate (sums and sets), so the
/// entry — and therefore any rendering of the race table — is
/// independent of the order traces arrived in. That invariant is what
/// makes concurrent ingestion deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceEntry {
    /// Traces that exhibited this race.
    pub hits: u64,
    /// Of those, how many placed it in a first partition
    /// (Theorem 4.1-supported).
    pub first_partition_hits: u64,
    /// Programs it was seen in.
    pub programs: BTreeSet<String>,
    /// Memory models it was seen under.
    pub models: BTreeSet<String>,
    /// Digests of the traces that exhibited it.
    pub traces: BTreeSet<String>,
    /// Union of the sources that established this identity: observed
    /// in an executed trace, predicted from one, or both. A bitwise-or
    /// fold, so it shares the order-independence of every other field.
    pub provenance: Provenance,
}

/// What one [`Catalog::ingest`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The submitted trace's digest token.
    pub digest: String,
    /// `true` if the digest was already cataloged (nothing written).
    pub duplicate: bool,
    /// Race identities this trace introduced to the catalog.
    pub new_races: u64,
    /// Race identities the trace carried in total.
    pub races: u64,
}

/// Point-in-time catalog counters (the `catalog.*` vocabulary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Distinct traces (content-addressed).
    pub traces: u64,
    /// Distinct race identities.
    pub races: u64,
    /// Raw race observations before deduplication.
    pub observations: u64,
    /// Bytes the journal currently occupies (0 for in-memory).
    pub journal_bytes: u64,
    /// Committed records recovered by salvage when the journal was
    /// opened.
    pub salvaged_records: u64,
    /// Damaged tail bytes dropped by salvage when the journal was
    /// opened.
    pub dropped_bytes: u64,
    /// Compactions performed over this catalog's lifetime in memory.
    pub compactions: u64,
}

/// A parsed `QUERY` selector.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// The full deduplicated race table.
    Races,
    /// Every trace summary, by digest.
    Traces,
    /// One race identity's accumulated evidence.
    Key(RaceKey),
    /// Races observed in a program.
    Program(String),
    /// Races observed under a memory model.
    Model(String),
    /// Traces and race identities ingested after a known digest.
    Since(String),
}

impl Query {
    /// Parses the protocol's query syntax:
    /// `races`, `traces`, `key=<spec>`, `program=<name>`,
    /// `model=<name>`, `since=<digest>`.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Query`] describing the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, CatalogError> {
        let spec = spec.trim();
        match spec {
            "races" => return Ok(Query::Races),
            "traces" => return Ok(Query::Traces),
            _ => {}
        }
        Self::parse_inner(spec)
    }

    /// Parses a query spec that may carry a `json:` rendering prefix.
    /// Returns the query and `true` when JSON output was requested —
    /// the routing the daemon's `QUERY` verb uses to pick between
    /// [`Catalog::query`] and [`Catalog::query_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Query`] describing the malformed spec.
    pub fn parse_spec(spec: &str) -> Result<(Self, bool), CatalogError> {
        let spec = spec.trim();
        match spec.strip_prefix("json:") {
            Some(rest) => Ok((Query::parse(rest)?, true)),
            None => Ok((Query::parse(spec)?, false)),
        }
    }

    fn parse_inner(spec: &str) -> Result<Self, CatalogError> {
        let Some((what, value)) = spec.split_once('=') else {
            return Err(CatalogError::Query(format!(
                "unknown query `{spec}` (want races|traces|key=|program=|model=|since=)"
            )));
        };
        match what {
            "key" => Ok(Query::Key(parse_key_spec(value)?)),
            "program" => Ok(Query::Program(value.to_string())),
            "model" => Ok(Query::Model(value.to_string())),
            "since" => {
                TraceDigest::from_str(value).map_err(|e| CatalogError::Query(e.to_string()))?;
                Ok(Query::Since(value.to_string()))
            }
            other => Err(CatalogError::Query(format!("unknown query selector `{other}=`"))),
        }
    }
}

/// Renders a race identity in the compact spec syntax that
/// [`parse_key_spec`] accepts: `<addr>:P<a><R|W>[s]:P<b><R|W>[s]`.
pub fn format_key(key: &RaceKey) -> String {
    let side = |s: &SideKey| {
        format!(
            "{}{}{}",
            s.proc,
            if s.kind == AccessKind::Write { "W" } else { "R" },
            if s.sync { "s" } else { "" }
        )
    };
    format!("{}:{}:{}", key.loc.addr(), side(&key.a), side(&key.b))
}

/// Parses the compact race-identity spec produced by [`format_key`].
///
/// # Errors
///
/// Returns [`CatalogError::Query`] describing the malformed spec.
pub fn parse_key_spec(spec: &str) -> Result<RaceKey, CatalogError> {
    let bad = |what: &str| {
        CatalogError::Query(format!(
            "bad key spec `{spec}` ({what}; want <addr>:P<proc><R|W>[s]:P<proc><R|W>[s])"
        ))
    };
    let mut parts = spec.split(':');
    let addr: u32 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("address must be an integer"))?;
    let mut side = || -> Result<SideKey, CatalogError> {
        let s = parts.next().ok_or_else(|| bad("missing a side"))?;
        let rest = s.strip_prefix(['P', 'p']).ok_or_else(|| bad("side must start with P"))?;
        let (rest, sync) = match rest.strip_suffix(['s', 'S']) {
            Some(r) => (r, true),
            None => (rest, false),
        };
        let (num, kind) = if let Some(n) = rest.strip_suffix(['W', 'w']) {
            (n, AccessKind::Write)
        } else if let Some(n) = rest.strip_suffix(['R', 'r']) {
            (n, AccessKind::Read)
        } else {
            return Err(bad("side must end with R or W (then optional s)"));
        };
        let proc: u16 = num.parse().map_err(|_| bad("processor must be an integer"))?;
        Ok(SideKey { proc: ProcId::new(proc), kind, sync })
    };
    let a = side()?;
    let b = side()?;
    if parts.next().is_some() {
        return Err(bad("too many `:` segments"));
    }
    Ok(RaceKey::new(Location::new(addr), a, b))
}

/// The catalog: content-addressed trace summaries plus the
/// deduplicated race table, optionally bound to an append-only
/// journal.
///
/// The journal is the commit point: [`Catalog::ingest`] appends and
/// syncs the record *before* updating in-memory state, so a record is
/// either durable or unreported — a crashed daemon never acknowledges
/// knowledge it cannot recover.
#[derive(Debug)]
pub struct Catalog {
    traces: BTreeMap<String, TraceSummary>,
    /// Digest tokens in ingest order (serves `since=` queries).
    order: Vec<String>,
    races: BTreeMap<RaceKey, RaceEntry>,
    observations: u64,
    journal: Option<File>,
    path: Option<PathBuf>,
    journal_bytes: u64,
    salvage: Option<JournalSalvage>,
    compactions: u64,
}

impl Catalog {
    /// Creates an empty catalog with no durable journal.
    pub fn in_memory() -> Self {
        Catalog {
            traces: BTreeMap::new(),
            order: Vec::new(),
            races: BTreeMap::new(),
            observations: 0,
            journal: None,
            path: None,
            journal_bytes: 0,
            salvage: None,
            compactions: 0,
        }
    }

    /// Opens (or creates) a journal-backed catalog at `path`.
    ///
    /// An existing journal is decoded with salvage semantics: the
    /// longest valid record prefix is loaded, and a damaged tail —
    /// the signature of a daemon killed mid-append — is *truncated
    /// away* so subsequent appends extend the valid prefix instead of
    /// burying good records behind garbage. [`Catalog::salvage`]
    /// reports what happened.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Io`] for filesystem failures and
    /// [`CatalogError::Corrupt`] if an existing journal's header is
    /// unusable (a non-journal file — refuse to overwrite it).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CatalogError> {
        let path = path.as_ref();
        let mut catalog = Catalog::in_memory();
        let fresh = !path.exists();
        if fresh {
            let mut file = File::create(path)?;
            file.write_all(&journal::encode_header())?;
            file.sync_data()?;
        } else {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let (records, salvage) = journal::decode(&bytes)?;
            for record in &records {
                catalog.apply(record);
            }
            if !salvage.complete {
                // Drop the damaged tail on disk too, so the append
                // handle below starts at the end of the valid prefix.
                let keep = salvage.bytes_used as u64;
                OpenOptions::new().write(true).open(path)?.set_len(keep)?;
            }
            catalog.salvage = Some(salvage);
        }
        let file = OpenOptions::new().append(true).open(path)?;
        catalog.journal_bytes = file.metadata()?.len();
        catalog.journal = Some(file);
        catalog.path = Some(path.to_path_buf());
        Ok(catalog)
    }

    /// Builds the journal record for one analyzed trace: its digest,
    /// its metadata, and its race identities with first-partition
    /// membership (the Theorem 4.1 split the report already computed).
    pub fn record_for(trace: &TraceSet, report: &RaceReport) -> JournalRecord {
        let keys = event_race_keys(&report.races, trace);
        let mut first = BTreeSet::new();
        for part in report.partitions.first_partitions() {
            for &ri in &part.races {
                extend_event_race_keys(&mut first, &report.races[ri], trace);
            }
        }
        JournalRecord {
            digest: trace.digest().to_string(),
            program: trace.meta.program.clone(),
            model: trace.meta.model.clone(),
            seed: trace.meta.seed,
            events: trace.processors().iter().map(|p| p.events().len() as u64).sum(),
            races: keys
                .into_iter()
                .map(|key| RaceObservation {
                    key,
                    first_partition: first.contains(&key),
                    provenance: Provenance::OBSERVED,
                })
                .collect(),
            amend: false,
        }
    }

    /// Ingests one record: journals it (when durable), then folds it
    /// into the race table. A digest the catalog already holds is a
    /// duplicate — deduplicated for free by content addressing, with
    /// nothing journaled — unless the record is an *amendment*
    /// (`record.amend`), which unions a re-analysis of a cataloged
    /// trace into its summary. An amendment that adds neither a new
    /// key nor a new provenance bit is itself reported as a duplicate
    /// without journaling, so repeated re-analyses leave the journal
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Io`] if the journal append fails (the
    /// in-memory state is left unchanged — unjournaled knowledge is
    /// never reported), and [`CatalogError::Record`] for an amendment
    /// naming a digest the catalog does not hold: an amendment without
    /// a base record would be unreplayable evidence.
    pub fn ingest(&mut self, record: &JournalRecord) -> Result<IngestOutcome, CatalogError> {
        let known = self.traces.contains_key(&record.digest);
        if known && !record.amend {
            return Ok(IngestOutcome {
                digest: record.digest.clone(),
                duplicate: true,
                new_races: 0,
                races: record.races.len() as u64,
            });
        }
        if !known && record.amend {
            return Err(CatalogError::Record(format!(
                "amendment for unknown digest `{}` (ingest the trace first)",
                record.digest
            )));
        }
        if record.amend && !self.amendment_adds_knowledge(record) {
            return Ok(IngestOutcome {
                digest: record.digest.clone(),
                duplicate: true,
                new_races: 0,
                races: record.races.len() as u64,
            });
        }
        if let Some(file) = self.journal.as_mut() {
            let mut frame = Vec::new();
            journal::encode_record(&mut frame, record)?;
            file.write_all(&frame)?;
            file.sync_data()?;
            self.journal_bytes += frame.len() as u64;
        }
        let new_races = self.apply(record);
        Ok(IngestOutcome {
            digest: record.digest.clone(),
            duplicate: false,
            new_races,
            races: record.races.len() as u64,
        })
    }

    /// `true` if `record` (an amendment for a known digest) would add
    /// a new race key or a new provenance bit to the trace's summary —
    /// the test that keeps no-op re-analyses out of the journal.
    fn amendment_adds_knowledge(&self, record: &JournalRecord) -> bool {
        let Some(summary) = self.traces.get(&record.digest) else {
            return false;
        };
        record.races.iter().any(|obs| {
            match summary.races.binary_search_by(|o| o.key.cmp(&obs.key)) {
                Ok(i) => {
                    let have = summary.races[i].provenance;
                    (have | obs.provenance) != have
                }
                Err(_) => true,
            }
        })
    }

    /// Folds a record into the in-memory state; returns how many race
    /// identities it introduced.
    fn apply(&mut self, record: &JournalRecord) -> u64 {
        if record.amend {
            return self.apply_amend(record);
        }
        let mut new_races = 0;
        for obs in &record.races {
            let entry = self.races.entry(obs.key).or_insert_with(|| {
                new_races += 1;
                RaceEntry::default()
            });
            // Hit counts report *witnessed* evidence only; predicted
            // observations contribute their provenance bit and the
            // set-valued aggregates but never inflate hits.
            if obs.provenance.observed() {
                entry.hits += 1;
                if obs.first_partition {
                    entry.first_partition_hits += 1;
                }
            }
            entry.provenance |= obs.provenance;
            if let Some(p) = &record.program {
                entry.programs.insert(p.clone());
            }
            if let Some(m) = &record.model {
                entry.models.insert(m.clone());
            }
            entry.traces.insert(record.digest.clone());
            self.observations += 1;
        }
        self.order.push(record.digest.clone());
        self.traces.insert(
            record.digest.clone(),
            TraceSummary {
                digest: record.digest.clone(),
                program: record.program.clone(),
                model: record.model.clone(),
                seed: record.seed,
                events: record.events,
                races: record.races.clone(),
            },
        );
        new_races
    }

    /// Folds an amendment into the race table and the base trace's
    /// summary; returns how many race identities it introduced. Every
    /// step is a union or a sorted insert, so amendments commute with
    /// each other exactly like base records do. A stray amendment whose
    /// base record is missing (possible only when replaying a journal
    /// whose base frame was lost) is ignored.
    fn apply_amend(&mut self, record: &JournalRecord) -> u64 {
        // Merge into the base summary first, noting per key whether the
        // *observed* bit is new. The race table must end up exactly as
        // if the compacted (merged) record had been applied fresh —
        // that is what makes compaction a pure rewrite — so hit counts
        // follow the merged observation, and the set aggregates use the
        // base trace's program/model, not the amendment's.
        let mut merged: Vec<(RaceObservation, bool)> = Vec::with_capacity(record.races.len());
        let mut added_observations = 0u64;
        let (program, model) = {
            let Some(summary) = self.traces.get_mut(&record.digest) else {
                return 0;
            };
            for obs in &record.races {
                match summary.races.binary_search_by(|o| o.key.cmp(&obs.key)) {
                    Ok(i) => {
                        let had_observed = summary.races[i].provenance.observed();
                        summary.races[i].provenance |= obs.provenance;
                        let gained = !had_observed && summary.races[i].provenance.observed();
                        merged.push((summary.races[i], gained));
                    }
                    Err(i) => {
                        summary.races.insert(i, *obs);
                        added_observations += 1;
                        merged.push((*obs, obs.provenance.observed()));
                    }
                }
            }
            (summary.program.clone(), summary.model.clone())
        };
        self.observations += added_observations;
        let mut new_races = 0;
        for (obs, observed_gain) in merged {
            let entry = self.races.entry(obs.key).or_insert_with(|| {
                new_races += 1;
                RaceEntry::default()
            });
            if observed_gain {
                entry.hits += 1;
                if obs.first_partition {
                    entry.first_partition_hits += 1;
                }
            }
            entry.provenance |= obs.provenance;
            if let Some(p) = &program {
                entry.programs.insert(p.clone());
            }
            if let Some(m) = &model {
                entry.models.insert(m.clone());
            }
            entry.traces.insert(record.digest.clone());
        }
        new_races
    }

    /// Rewrites the journal to exactly the live record set and syncs
    /// it into place atomically (write-new + rename). A no-op for
    /// in-memory catalogs.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Io`] if the rewrite fails; the old
    /// journal remains intact in that case.
    pub fn compact(&mut self) -> Result<(), CatalogError> {
        let Some(path) = self.path.clone() else { return Ok(()) };
        let records: Vec<JournalRecord> = self.order.iter().map(|d| self.record_of(d)).collect();
        let bytes = journal::encode(&records)?;
        let tmp = path.with_extension("journal.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        self.journal = Some(OpenOptions::new().append(true).open(&path)?);
        self.journal_bytes = bytes.len() as u64;
        self.compactions += 1;
        Ok(())
    }

    /// Reconstructs the journal record for a cataloged digest. The
    /// summary already carries any amendments folded in, so compaction
    /// collapses a base record plus its amendments into one record
    /// while preserving every provenance bit.
    fn record_of(&self, digest: &str) -> JournalRecord {
        let t = &self.traces[digest];
        JournalRecord {
            digest: t.digest.clone(),
            program: t.program.clone(),
            model: t.model.clone(),
            seed: t.seed,
            events: t.events,
            races: t.races.clone(),
            amend: false,
        }
    }

    /// `true` if `digest` (token form) is already cataloged.
    pub fn contains(&self, digest: &str) -> bool {
        self.traces.contains_key(digest)
    }

    /// Distinct traces ingested.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Distinct race identities accumulated.
    pub fn race_count(&self) -> usize {
        self.races.len()
    }

    /// What journal salvage found when this catalog was opened, if it
    /// was opened from existing bytes.
    pub fn salvage(&self) -> Option<&JournalSalvage> {
        self.salvage.as_ref()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CatalogStats {
        let (salvaged, dropped) = match &self.salvage {
            Some(s) => (s.records as u64, (s.bytes_total - s.bytes_used) as u64),
            None => (0, 0),
        };
        CatalogStats {
            traces: self.traces.len() as u64,
            races: self.races.len() as u64,
            observations: self.observations,
            journal_bytes: self.journal_bytes,
            salvaged_records: salvaged,
            dropped_bytes: dropped,
            compactions: self.compactions,
        }
    }

    /// Records the `catalog.*` gauges and counters (see
    /// `OBSERVABILITY.md`) on `metrics`.
    pub fn record_into(&self, metrics: &Metrics) {
        let stats = self.stats();
        metrics.set_gauge(metric_keys::CATALOG_TRACES, stats.traces);
        metrics.set_gauge(metric_keys::CATALOG_RACES, stats.races);
        metrics.set_gauge(metric_keys::CATALOG_OBSERVATIONS, stats.observations);
        metrics.set_gauge(metric_keys::CATALOG_JOURNAL_BYTES, stats.journal_bytes);
        metrics.add(metric_keys::CATALOG_SALVAGED_RECORDS, stats.salvaged_records);
        metrics.add(metric_keys::CATALOG_DROPPED_BYTES, stats.dropped_bytes);
        metrics.add(metric_keys::CATALOG_COMPACTIONS, stats.compactions);
    }

    /// Answers a query with a deterministic text rendering.
    ///
    /// For every selector except `since=`, the output depends only on
    /// the catalog's *contents* — every aggregate is commutative and
    /// every listing is sorted — so concurrent ingestion of the same
    /// trace set yields byte-identical answers regardless of arrival
    /// order. `since=` is the deliberate exception: it asks about
    /// ingest order.
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Query`] for a `since=` digest the
    /// catalog does not hold.
    pub fn query(&self, query: &Query) -> Result<String, CatalogError> {
        let mut out = String::new();
        match query {
            Query::Races => {
                let _ = writeln!(
                    out,
                    "{} race identities, {} observations",
                    self.races.len(),
                    self.observations
                );
                for (key, entry) in &self.races {
                    self.render_race(&mut out, key, entry);
                }
            }
            Query::Traces => {
                let _ = writeln!(out, "{} traces", self.traces.len());
                for t in self.traces.values() {
                    render_trace(&mut out, t);
                }
            }
            Query::Key(key) => match self.races.get(key) {
                Some(entry) => {
                    let _ = writeln!(out, "1 race identities");
                    self.render_race(&mut out, key, entry);
                    for digest in &entry.traces {
                        let _ = writeln!(out, "  trace {digest}");
                    }
                }
                None => {
                    let _ = writeln!(out, "0 race identities");
                }
            },
            Query::Program(p) => self.render_filtered(&mut out, |e| e.programs.contains(p)),
            Query::Model(m) => self.render_filtered(&mut out, |e| e.models.contains(m)),
            Query::Since(digest) => {
                let (newer, new_keys) = self.since(digest)?;
                let _ = writeln!(out, "{} traces since {digest}", newer.len());
                for d in newer {
                    render_trace(&mut out, &self.traces[d]);
                }
                let _ = writeln!(out, "{} new race identities", new_keys.len());
                for key in new_keys {
                    let _ = writeln!(out, "  {}", format_key(key));
                }
            }
        }
        Ok(out)
    }

    /// The digests ingested after `digest`, and the race identities they
    /// introduced (keys no earlier trace carried).
    fn since(&self, digest: &str) -> Result<(&[String], BTreeSet<&RaceKey>), CatalogError> {
        let Some(pos) = self.order.iter().position(|d| d == digest) else {
            return Err(CatalogError::Query(format!("unknown digest `{digest}`")));
        };
        let keys = |digests: &[String]| -> BTreeSet<&RaceKey> {
            digests.iter().flat_map(|d| self.traces[d].races.iter().map(|o| &o.key)).collect()
        };
        let seen_before = keys(&self.order[..=pos]);
        let newer = &self.order[pos + 1..];
        let new_keys = keys(newer).into_iter().filter(|k| !seen_before.contains(k)).collect();
        Ok((newer, new_keys))
    }

    fn render_filtered(&self, out: &mut String, keep: impl Fn(&RaceEntry) -> bool) {
        let hits: Vec<_> = self.races.iter().filter(|(_, e)| keep(e)).collect();
        let _ = writeln!(out, "{} race identities", hits.len());
        for (key, entry) in hits {
            self.render_race(out, key, entry);
        }
    }

    fn render_race(&self, out: &mut String, key: &RaceKey, entry: &RaceEntry) {
        let join = |set: &BTreeSet<String>| {
            if set.is_empty() {
                "-".to_string()
            } else {
                set.iter().cloned().collect::<Vec<_>>().join(",")
            }
        };
        let _ = writeln!(
            out,
            "{}  hits={} first={} traces={} programs={} models={} provenance={}",
            format_key(key),
            entry.hits,
            entry.first_partition_hits,
            entry.traces.len(),
            join(&entry.programs),
            join(&entry.models),
            entry.provenance,
        );
    }

    /// Answers a query as a single line of JSON.
    ///
    /// The shape is fixed by this crate alone: object keys appear in the
    /// order written here, lists carry the same sort as the text
    /// rendering, and the output is byte-stable under ingest reordering
    /// for every selector except `since=` (the same determinism contract
    /// as [`Catalog::query`]).
    ///
    /// # Errors
    ///
    /// Returns [`CatalogError::Query`] for a `since=` digest the
    /// catalog does not hold.
    pub fn query_json(&self, query: &Query) -> Result<String, CatalogError> {
        let races = |keep: &dyn Fn(&RaceEntry) -> bool| {
            let rows = self.races.iter().filter(|(_, e)| keep(e));
            Json::Array(rows.map(|(key, entry)| json_race(key, entry)).collect())
        };
        let json = match query {
            Query::Races => Json::object([
                ("races", races(&|_| true)),
                ("observations", self.observations.json()),
            ]),
            Query::Traces => Json::object([(
                "traces",
                Json::Array(self.traces.values().map(json_trace).collect()),
            )]),
            Query::Key(key) => {
                let entry = self.races.get(key);
                Json::object([
                    ("races", Json::Array(entry.map(|e| json_race(key, e)).into_iter().collect())),
                    ("traces", entry.map_or(Json::Array(Vec::new()), |e| e.traces.json())),
                ])
            }
            Query::Program(p) => Json::object([("races", races(&|e| e.programs.contains(p)))]),
            Query::Model(m) => Json::object([("races", races(&|e| e.models.contains(m)))]),
            Query::Since(digest) => {
                let (newer, new_keys) = self.since(digest)?;
                Json::object([
                    ("since", digest.json()),
                    (
                        "traces",
                        Json::Array(newer.iter().map(|d| json_trace(&self.traces[d])).collect()),
                    ),
                    (
                        "new_keys",
                        Json::Array(new_keys.into_iter().map(|k| format_key(k).json()).collect()),
                    ),
                ])
            }
        };
        Ok(json.render())
    }
}

/// One race-table entry as a JSON object.
fn json_race(key: &RaceKey, entry: &RaceEntry) -> Json {
    Json::object([
        ("key", format_key(key).json()),
        ("hits", entry.hits.json()),
        ("first", entry.first_partition_hits.json()),
        ("traces", entry.traces.len().json()),
        ("programs", entry.programs.json()),
        ("models", entry.models.json()),
        ("provenance", entry.provenance.to_string().json()),
    ])
}

/// One trace summary as a JSON object.
fn json_trace(t: &TraceSummary) -> Json {
    let races = t.races.iter().map(|o| {
        Json::object([
            ("key", format_key(&o.key).json()),
            ("first_partition", o.first_partition.json()),
            ("provenance", o.provenance.to_string().json()),
        ])
    });
    Json::object([
        ("digest", t.digest.json()),
        ("program", t.program.json()),
        ("model", t.model.json()),
        ("seed", t.seed.json()),
        ("events", t.events.json()),
        ("races", Json::Array(races.collect())),
    ])
}

fn render_trace(out: &mut String, t: &TraceSummary) {
    let _ = writeln!(
        out,
        "{} program={} model={} seed={} events={} races={}",
        t.digest,
        t.program.as_deref().unwrap_or("-"),
        t.model.as_deref().unwrap_or("-"),
        t.seed.map_or_else(|| "-".to_string(), |s| s.to_string()),
        t.events,
        t.races.len(),
    );
}
