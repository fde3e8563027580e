//! Dynamic data-race detection for weak memory systems.
//!
//! This crate implements the analysis of *Detecting Data Races on Weak
//! Memory Systems* (Adve, Hill, Miller & Netzer, ISCA 1991): a
//! post-mortem technique that, given the trace of an execution on a weak
//! system obeying the paper's Condition 3.4, either
//!
//! 1. reports **no data races**, certifying that the execution was
//!    sequentially consistent (Theorem 4.1 + Condition 3.4(1)), or
//! 2. reports the **first partitions** of data races — groups, each
//!    guaranteed to contain at least one race that also occurs in a
//!    sequentially consistent execution of the program (Theorem 4.2) —
//!    so the programmer can keep reasoning in terms of sequential
//!    consistency even though the hardware is weak.
//!
//! The pipeline (Section 4 of the paper):
//!
//! * [`HbGraph`] — the happens-before-1 relation `(po ∪ so1)+` over
//!   events, with release/acquire pairing derived from the trace
//!   ([`PairingPolicy`]).
//! * [`detect_races`] — data races: conflicting, hb1-unordered event
//!   pairs with a data participant (Definition 2.4 lifted to events),
//!   found per event in the window of each other processor's chain
//!   that hb1 leaves unordered with it; [`detect_races_in`] is the
//!   same sweep under any order over the events, with its counts.
//! * [`AugmentedGraph`] — the graph G′: hb1 edges plus a doubly-directed
//!   edge per data race, capturing the *affects* relation
//!   (Definition 3.3).
//! * [`partition_races`] — races grouped by strongly connected component
//!   of G′, partially ordered by path existence (`P`, Definition 4.1);
//!   the minimal elements are the **first partitions**.
//! * [`estimate_scp`] — the per-processor boundary of the sequentially
//!   consistent prefix implied by Condition 3.4.
//! * [`PostMortem`] — one-call driver producing a [`RaceReport`].
//!
//! The same pipeline analyzes an operation-level trace at the
//! granularity the paper's definitions are stated at: its unfolded
//! event trace ([`OpTrace::to_event_trace`](wmrd_trace::OpTrace::to_event_trace))
//! has one event per operation, so event races are operation races.
//! An [`OnTheFly`] vector-clock detector (the paper's Section 5
//! comparison point and "future work") and its exact epoch-compressed
//! streaming sibling ([`StreamDetector`], the engine behind the serving
//! daemon's `STREAM` verb) round out the crate.
//!
//! # Example
//!
//! ```
//! use wmrd_core::PostMortem;
//! use wmrd_trace::{AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSink, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // P0 writes x with no synchronization; P1 reads x concurrently.
//! let mut b = TraceBuilder::new(2);
//! let x = Location::new(0);
//! b.data_access(ProcId::new(0), x, AccessKind::Write, Value::new(1), None);
//! b.data_access(ProcId::new(1), x, AccessKind::Read, Value::new(0), None);
//! let trace = b.finish();
//!
//! let report = PostMortem::new(&trace).analyze()?;
//! assert!(!report.is_race_free());
//! assert_eq!(report.first_partitions().count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod affects;
mod augmented;
mod error;
mod graph;
mod hb;
mod identity;
mod onthefly;
mod pairing;
mod partition;
mod postmortem;
mod race;
pub mod render;
mod report;
mod salvage;
mod scp;
mod stream_detect;
mod vc;

pub use affects::AffectsOracle;
pub use augmented::AugmentedGraph;
pub use error::AnalysisError;
pub use hb::HbGraph;
pub use identity::{event_race_keys, extend_event_race_keys, RaceKey, SideKey};
pub use onthefly::{OnTheFly, OnTheFlyConfig, OnTheFlyRace};
pub use pairing::{so1_edges, PairingPolicy, So1Edge};
pub use partition::{partition_races, PartitionSet, RacePartition};
pub use postmortem::PostMortem;
pub use race::{detect_races, detect_races_in, DataRace, DetectStats, RaceKind};
pub use report::RaceReport;
pub use salvage::SalvageAnalysis;
pub use scp::{estimate_scp, ScpEstimate};
pub use stream_detect::StreamDetector;
pub use vc::VectorClock;
