//! The analysis result presented to the programmer.

use std::fmt;

use wmrd_trace::TraceMeta;

use crate::{DataRace, PairingPolicy, PartitionSet, RacePartition, ScpEstimate};

/// Everything the post-mortem analysis derives from one trace.
///
/// Per the paper's Section 4.2, only the races in **first partitions**
/// should be reported: each first partition is guaranteed to contain at
/// least one race that also occurs in a sequentially consistent execution
/// (Theorem 4.2). Races in non-first partitions may be artifacts of
/// earlier races (or, on weak hardware, races that cannot occur under
/// sequential consistency at all — Figure 2's confusion) and are exposed
/// separately for tooling, not for the programmer's first look.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Provenance of the analyzed trace.
    pub meta: TraceMeta,
    /// Pairing policy used for `so1`.
    pub pairing: PairingPolicy,
    /// Number of events analyzed.
    pub num_events: usize,
    /// Number of `so1` edges found.
    pub num_so1_edges: usize,
    /// Every data race detected, sorted.
    pub races: Vec<DataRace>,
    /// The race partitions with their ordering.
    pub partitions: PartitionSet,
    /// The estimated sequentially consistent prefix.
    pub scp: ScpEstimate,
}

impl RaceReport {
    /// `true` iff the execution exhibited no data races — in which case
    /// Condition 3.4(1) certifies it was sequentially consistent.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// All data races: every race, since only data races are reported.
    pub fn data_races(&self) -> impl Iterator<Item = &DataRace> {
        self.races.iter()
    }

    /// The first partitions — what should be reported to the programmer.
    pub fn first_partitions(&self) -> impl Iterator<Item = &RacePartition> {
        self.partitions.first_partitions()
    }

    /// The data races inside first partitions: the *reportable* set, at
    /// least one race per partition of which occurs in a sequentially
    /// consistent execution.
    pub fn reported_races(&self) -> Vec<&DataRace> {
        self.partitions
            .first_partitions()
            .flat_map(|p| p.races.iter().map(|&i| &self.races[i]))
            .collect()
    }

    /// The data races withheld as potential artifacts (non-first
    /// partitions).
    pub fn withheld_races(&self) -> Vec<&DataRace> {
        self.partitions
            .non_first_partitions()
            .flat_map(|p| p.races.iter().map(|&i| &self.races[i]))
            .collect()
    }

    /// The verdict string a debugger front-end would show.
    pub fn verdict(&self) -> String {
        if self.is_race_free() {
            "no data races: execution was sequentially consistent".to_string()
        } else {
            format!(
                "{} data race(s) in {} partition(s); reporting {} first partition(s) \
                 with {} race(s)",
                self.data_races().count(),
                self.partitions.len(),
                self.partitions.first_indices().len(),
                self.reported_races().len()
            )
        }
    }
}

// The `analyze --format json` document.
wmrd_trace::impl_to_json!(RaceReport {
    meta,
    pairing,
    num_events,
    num_so1_edges,
    races,
    partitions,
    scp
});

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== race report ===")?;
        if let Some(program) = &self.meta.program {
            writeln!(f, "program: {program}")?;
        }
        if let Some(model) = &self.meta.model {
            writeln!(f, "model:   {model}")?;
        }
        writeln!(
            f,
            "events:  {}   so1 edges: {}   pairing: {}",
            self.num_events, self.num_so1_edges, self.pairing
        )?;
        writeln!(f, "verdict: {}", self.verdict())?;
        if !self.is_race_free() {
            for (i, part) in self.partitions.partitions().iter().enumerate() {
                let tag = if self.partitions.is_first(i) { "FIRST" } else { "withheld" };
                writeln!(f, "partition {i} ({tag}):")?;
                for &ri in &part.races {
                    writeln!(f, "  {}", self.races[ri])?;
                }
            }
            writeln!(f, "{}", self.scp)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::PostMortem;
    use wmrd_trace::{AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    #[test]
    fn race_free_report() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Write, Value::new(1), None);
        let report = PostMortem::new(&b.finish()).analyze().unwrap();
        assert!(report.is_race_free());
        assert!(report.reported_races().is_empty());
        assert!(report.withheld_races().is_empty());
        assert!(report.verdict().contains("sequentially consistent"));
        assert!(report.to_string().contains("verdict"));
    }

    #[test]
    fn racy_report_contents() {
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        b.sync_access(p(0), l(8), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(1), AccessKind::Read, Value::ZERO, None);
        let report = PostMortem::new(&b.finish()).analyze().unwrap();
        assert!(!report.is_race_free());
        assert_eq!(report.data_races().count(), 2);
        assert_eq!(report.reported_races().len(), 1);
        assert_eq!(report.withheld_races().len(), 1);
        let text = report.to_string();
        assert!(text.contains("FIRST"));
        assert!(text.contains("withheld"));
        assert!(text.contains("SCP"));
    }

    #[test]
    fn json_shape() {
        use wmrd_trace::ToJson;
        let mut b = TraceBuilder::new(2);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.data_access(p(1), l(0), AccessKind::Read, Value::ZERO, None);
        let report = PostMortem::new(&b.finish()).analyze().unwrap();
        assert_eq!(
            report.json().render(),
            r#"{"meta":{"program":null,"model":null,"seed":null},"pairing":"ByRole","num_events":2,"num_so1_edges":0,"races":[{"a":{"proc":0,"index":0},"b":{"proc":1,"index":0},"locations":{"words":[1]},"kind":"DataData"}],"partitions":{"partitions":[{"component":0,"races":[0],"events":[{"proc":0,"index":0},{"proc":1,"index":0}]}],"order":[[]],"first":[0]},"scp":{"boundaries":[1,1],"event_counts":[1,1]}}"#
        );
    }

    #[test]
    fn sync_sync_only_race_is_still_race_free_verdict() {
        let mut b = TraceBuilder::new(2);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(1), l(9), AccessKind::Write, SyncRole::Release, Value::new(1), None);
        let metrics = wmrd_trace::Metrics::enabled();
        let report = PostMortem::new(&b.finish()).metrics(&metrics).analyze().unwrap();
        assert!(report.races.is_empty(), "the sync-sync pair is not a *data* race");
        assert!(report.is_race_free());
        assert_eq!(metrics.report().gauge("analysis.sync_races"), Some(1), "but it is counted");
    }
}
