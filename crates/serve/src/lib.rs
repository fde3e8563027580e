//! `wmrd-serve`: a concurrent race-analysis daemon over the persistent
//! catalog.
//!
//! The paper's detector is per-execution: one trace in, one race
//! report out. Campaign-scale use — many executions of many programs
//! across many memory models, produced by `wmrd explore` workers or ad
//! hoc `wmrd submit` calls — wants the dual: a long-lived service that
//! accepts traces concurrently, analyzes them on a bounded worker
//! pool, and folds every finding into one deduplicated, durable
//! [`wmrd_catalog::Catalog`] keyed by the same race identities
//! (`wmrd_core::identity::RaceKey`) the report renderer uses.
//!
//! The pieces:
//!
//! * [`Endpoint`] — one `<addr|unix:path>` syntax over TCP and
//!   unix-domain transports;
//! * [`Request`]/[`Reply`] — the length-prefixed line protocol, with
//!   `BUSY` as a first-class backpressure reply and typed `ERR` codes;
//! * a bounded job queue — the explicit capacity bound between
//!   acceptance and analysis;
//! * [`Server`] — accept loop, per-connection handlers, worker pool,
//!   graceful drain on `SHUTDOWN`/SIGTERM;
//! * [`Client`] — the synchronous client used by `wmrd submit`,
//!   `wmrd query`, `wmrd stream`, and the `--sink` of `wmrd capture`
//!   and `wmrd explore`.
//!
//! Everything is std-only: no async runtime, no socket crates. The
//! daemon's concurrency is plain threads over the same scoped-thread
//! discipline as the explore engine.
//!
//! Unlike the analysis crates this one does not `forbid(unsafe_code)`:
//! SIGTERM handling needs a single raw `signal(2)` declaration (see
//! `server::sigterm`), which is the only unsafe block and is confined
//! to an async-signal-safe atomic store.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod client;
mod endpoint;
pub mod protocol;
mod queue;
mod server;
mod stats;

pub use client::Client;
pub use endpoint::Endpoint;
pub use protocol::{ErrorCode, Reply, Request, StreamMeta};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};

use std::fmt;
use std::io;

use wmrd_catalog::CatalogError;

/// Errors from the serve layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket or filesystem operation failed.
    Io(io::Error),
    /// The `<addr|unix:path>` spec was unusable.
    Endpoint(String),
    /// The peer violated (or rejected us under) the wire protocol.
    Protocol(String),
    /// The catalog refused an operation.
    Catalog(CatalogError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Endpoint(m) => write!(f, "bad endpoint: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Catalog(e) => write!(f, "catalog error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Catalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CatalogError> for ServeError {
    fn from(e: CatalogError) -> Self {
        ServeError::Catalog(e)
    }
}
