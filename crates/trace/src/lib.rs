//! Event and trace model for dynamic data-race detection on weak memory
//! systems.
//!
//! This crate defines the vocabulary shared by the whole `wmrd` workspace:
//! identifiers for processors, memory locations and operations
//! ([`ProcId`], [`Location`], [`OpId`]), the operation-level record type
//! ([`MemOp`]) that mirrors Section 2.1 of Adve, Hill, Miller & Netzer
//! (ISCA 1991), the event-level view of Section 4.1 ([`Event`],
//! [`SyncEvent`], [`ComputationEvent`]) in which consecutively executed data
//! operations are folded into a single computation event carrying READ and
//! WRITE bit-vectors ([`LocSet`]), and the on-disk trace format
//! ([`TraceSet`]) produced by the instrumentation facility and consumed by
//! the post-mortem analysis in `wmrd-core`.
//!
//! The paper assumes that instrumentation records three streams (Section
//! 4.1):
//!
//! 1. the execution order of events issued by the same processor,
//! 2. the relative execution order of synchronization events involving the
//!    same location, and
//! 3. the READ and WRITE sets for each computation event.
//!
//! [`TraceSet`] holds exactly those three streams. The [`TraceSink`] trait
//! is the instrumentation hook implemented by [`TraceBuilder`] (and by the
//! on-the-fly detector in `wmrd-core`); the simulator in `wmrd-sim` drives
//! a sink while it executes a program.
//!
//! # Example
//!
//! Build a two-processor trace by hand and encode it:
//!
//! ```
//! use wmrd_trace::{
//!     AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSink, Value,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TraceBuilder::new(2);
//! let p0 = ProcId::new(0);
//! let p1 = ProcId::new(1);
//! let s = Location::new(9);
//!
//! // P0 writes data then releases s; P1 acquires s and reads the data.
//! b.data_access(p0, Location::new(0), AccessKind::Write, Value::new(1), None);
//! let rel = b.sync_access(p0, s, AccessKind::Write, SyncRole::Release, Value::new(0), None);
//! b.sync_access(p1, s, AccessKind::Read, SyncRole::Acquire, Value::new(0), Some(rel));
//! b.data_access(p1, Location::new(0), AccessKind::Read, Value::new(1), None);
//!
//! let trace = b.finish();
//! assert_eq!(trace.processor(p0).ok_or("missing p0")?.events().len(), 2);
//! let bytes = trace.to_binary();
//! let back = wmrd_trace::TraceSet::from_binary(&bytes)?;
//! assert_eq!(trace, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod crc32;
mod cursor;
mod digest;
mod error;
mod event;
mod ids;
mod json;
mod metrics;
mod op;
mod oplog;
mod rng;
mod sink;
mod stream;
mod traceset;

pub use bitset::LocSet;
pub use crc32::crc32;
pub use cursor::{
    put_access_kind, put_crc, put_flag, put_frame, put_opt_str, put_opt_u64, ByteReader,
};
pub use digest::{ParseDigestError, TraceDigest};
pub use error::{DecodeError, TraceError};
pub use event::{ComputationEvent, Event, EventId, EventKind, SyncEvent};
pub use ids::{Location, OpId, ProcId, Value};
pub use json::{Json, ToJson};
pub use metrics::{keys as metric_keys, Metrics, RunMetrics};
pub use op::{AccessKind, MemOp, OpClass, SyncRole};
pub use oplog::OpTrace;
pub use rng::{splitmix64, RangeInt, SplitMix64};
pub use sink::{MultiSink, NullSink, OpCounters, OpRecorder, TraceBuilder, TraceSink};
pub use stream::{
    read_stream, salvage_stream, StreamDecoder, StreamRecord, StreamSalvage, StreamWriter,
};
pub use traceset::{
    ProcessorTrace, Salvage, SyncOrderEntry, TraceMeta, TraceSet, BINARY_FORMAT_VERSION,
};
