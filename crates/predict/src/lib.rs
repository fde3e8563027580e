//! Sound predictive race detection from a single trace.
//!
//! The dynamic pipeline in this workspace (the paper's hb1/so1
//! analysis) reports the races of the *one* schedule that actually ran;
//! `wmrd explore` recovers the rest by brute-force re-execution across
//! seeds, multiplying cost linearly with schedule count. The predictive
//! literature — WCP ("Dynamic Race Prediction in Linear Time") and SHB
//! ("What Happens-After the First Race?") — shows that many of those
//! unobserved races are derivable from a single trace: build a partial
//! order *weaker* than happens-before but still sound, and every
//! conflicting pair it leaves unordered races in *some* schedule of the
//! same program.
//!
//! This crate implements two such orders over the recorded trace
//! (see [`PredictOrder`]):
//!
//! * **SHB-style** — `(po ∪ so1)+`, the hb1 baseline: predicted races
//!   are exactly the observed ones.
//! * **WCP-style** — release → acquire edges are admitted only between
//!   critical sections (recovered from the sync skeleton by
//!   [`critical_sections`]) whose bodies contain conflicting accesses.
//!   Non-conflicting same-lock sections commute, so the order between
//!   them is a scheduling accident; dropping the edge exposes the races
//!   of the schedules where they ran the other way around. Bare
//!   releases with no enclosing section — flag handoffs like the
//!   paper's Figure 1b — keep their edges unconditionally.
//!
//! Predicted races are keyed by the same execution-independent
//! [`RaceKey`](wmrd_core::RaceKey) identities the dynamic, streaming
//! and static engines emit, so the `explore` campaign engine can serve
//! as a ground-truth oracle: every predicted key must be reachable by
//! some seed (the soundness gate in `tests/predict.rs`), and
//! predicted ∪ observed must dominate single-seed hb1 yield
//! (EXPERIMENTS.md E15). The analysis is deterministic — same trace,
//! same report, byte for byte. Both orders are `wmrd_core`'s
//! [`HbGraph`](wmrd_core::HbGraph): the hb1 graph, plus under WCP one
//! more over the kept edges when the weakening dropped any. One
//! race sweep ([`detect_races_in`](wmrd_core::detect_races_in)) over
//! the predictive order ([`PredictGraph::predictive`]) finds the
//! predicted races, and hb1 filters them down to the observed ones —
//! no second sweep.
//!
//! # Example
//!
//! ```
//! use wmrd_core::PairingPolicy;
//! use wmrd_predict::{predict, PredictOrder};
//! use wmrd_trace::{AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSink, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // P0 writes x, then takes a lock touching only `a`; P1 takes the
//! // same lock touching only `b`, then reads x. hb1 orders the two
//! // x-accesses through the lock; WCP sees the sections commute.
//! let mut b = TraceBuilder::new(2);
//! let (x, s) = (Location::new(0), Location::new(9));
//! let p = ProcId::new;
//! b.data_access(p(0), x, AccessKind::Write, Value::new(1), None);
//! b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
//! b.data_access(p(0), Location::new(5), AccessKind::Write, Value::new(1), None);
//! let rel = b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
//! b.sync_access(p(1), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
//! b.data_access(p(1), Location::new(6), AccessKind::Write, Value::new(1), None);
//! b.sync_access(p(1), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
//! b.data_access(p(1), x, AccessKind::Read, Value::new(1), None);
//! let trace = b.finish();
//!
//! let report = predict(&trace, "demo", PairingPolicy::ByRole, PredictOrder::Wcp)?;
//! assert!(!report.is_race_free());
//! assert_eq!(report.predicted_only().count(), 1, "a race hb1 misses");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod order;
mod report;
mod sections;

pub use order::{PredictGraph, PredictOrder};
pub use report::{predict, predict_with_metrics, PredictReport, PredictStats};
pub use sections::{critical_sections, CriticalSection};
