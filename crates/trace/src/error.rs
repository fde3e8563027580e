//! Error type for trace construction and binary decoding.

use std::fmt;

use crate::{EventId, OpId, ProcId};

/// A binary decode failure pinned to a byte offset.
///
/// Every decoder in this crate reads through a position-tracking
/// cursor, so a framing problem, checksum mismatch, or truncation is
/// reported as *where* in the input it was detected — which is also the
/// boundary the salvage decoder recovers up to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset (into the full encoded input) where decoding failed.
    pub offset: usize,
    /// What went wrong there.
    pub reason: String,
}

impl DecodeError {
    /// Creates a decode error at `offset`.
    pub fn new(offset: usize, reason: impl Into<String>) -> Self {
        DecodeError { offset, reason: reason.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Errors produced while building, validating, encoding or decoding
/// traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// A processor id was out of range for the trace.
    UnknownProcessor(ProcId),
    /// An event id referenced an event that does not exist.
    UnknownEvent(EventId),
    /// An operation id referenced an operation that does not exist.
    UnknownOp(OpId),
    /// The trace violated a structural invariant (message explains which).
    Malformed(String),
    /// Binary decoding failed at a known byte offset.
    Decode(DecodeError),
    /// An I/O error while reading or writing a trace file.
    Io(std::io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownProcessor(p) => write!(f, "unknown processor {p}"),
            TraceError::UnknownEvent(e) => write!(f, "unknown event {e}"),
            TraceError::UnknownOp(o) => write!(f, "unknown operation {o}"),
            TraceError::Malformed(m) => write!(f, "malformed trace: {m}"),
            TraceError::Decode(e) => write!(f, "trace binary decode error {e}"),
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> Self {
        TraceError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_variants() {
        assert!(TraceError::UnknownProcessor(ProcId::new(7)).to_string().contains("P7"));
        assert!(TraceError::Malformed("oops".into()).to_string().contains("oops"));
    }

    #[test]
    fn error_sources() {
        let io = TraceError::from(std::io::Error::other("x"));
        assert!(io.source().is_some());
        let m = TraceError::Malformed("m".into());
        assert!(m.source().is_none());
    }

    #[test]
    fn decode_errors_carry_their_offset() {
        let e = DecodeError::new(42, "checksum mismatch");
        assert_eq!(e.offset, 42);
        let wrapped = TraceError::from(e.clone());
        let msg = wrapped.to_string();
        assert!(msg.contains("byte 42") && msg.contains("checksum mismatch"), "{msg}");
        assert!(matches!(wrapped, TraceError::Decode(inner) if inner == e));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
