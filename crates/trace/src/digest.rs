//! Stable content identity for traces.
//!
//! A [`TraceDigest`] names a trace by *what it records*, not by the
//! bytes that happened to carry it. The digest is computed over the
//! canonical binary encoding ([`TraceSet::to_binary`]) of the decoded
//! trace, so the same `TraceSet` digests identically however it was
//! produced — built in memory, decoded from a file, or reassembled from
//! a `WMRS` stream — because the encoding is a pure function of the
//! trace, and the digest is a pure function of the encoding. This is
//! what lets the catalog content-address analysis results: two
//! submissions of the same execution deduplicate even if one client
//! re-encoded the file.
//!
//! The digest is CRC-32 (the same [`crc32`] the framed formats use for
//! integrity) plus the canonical encoding's length. CRC-32 is not
//! collision-resistant against adversaries; it is an *identity* for
//! trusted tooling — exactly the guarantee the checksummed trace
//! formats already rely on — and carrying the length alongside makes
//! accidental collisions between differently-sized traces impossible.

use std::fmt;
use std::str::FromStr;

use crate::crc32::crc32;
use crate::TraceSet;

/// The content identity of a trace: CRC-32 over the canonical v2
/// binary encoding, paired with that encoding's length in bytes.
///
/// Renders as 16 lowercase hex digits (`crc` then `len`), and parses
/// back via [`FromStr`], so digests travel through protocols and CLI
/// flags as opaque tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceDigest {
    crc: u32,
    len: u32,
}

impl TraceDigest {
    /// Digests a trace by canonically re-encoding it.
    pub fn of(trace: &TraceSet) -> Self {
        Self::of_canonical_bytes(&trace.to_binary())
    }

    /// Digests bytes that are already the canonical v2 encoding.
    ///
    /// Callers that just produced `trace.to_binary()` can digest the
    /// buffer they hold instead of paying for a second encoding. The
    /// bytes must be the *canonical* encoding: digesting arbitrary
    /// bytes (a damaged file, a `WMRS` stream) names those bytes, not
    /// the trace.
    pub fn of_canonical_bytes(encoded: &[u8]) -> Self {
        TraceDigest { crc: crc32(encoded), len: encoded.len() as u32 }
    }

    /// The CRC-32 half of the identity.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// The canonical encoding's length in bytes (mod 2³²).
    pub fn encoded_len(&self) -> u32 {
        self.len
    }
}

impl TraceSet {
    /// The trace's content identity ([`TraceDigest`]).
    pub fn digest(&self) -> TraceDigest {
        TraceDigest::of(self)
    }
}

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}{:08x}", self.crc, self.len)
    }
}

/// The error returned when a digest token fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDigestError {
    token: String,
}

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trace digest `{}` (want 16 hex digits)", self.token)
    }
}

impl std::error::Error for ParseDigestError {}

impl FromStr for TraceDigest {
    type Err = ParseDigestError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDigestError { token: s.to_string() };
        if s.len() != 16 || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(err());
        }
        let crc = u32::from_str_radix(&s[..8], 16).map_err(|_| err())?;
        let len = u32::from_str_radix(&s[8..], 16).map_err(|_| err())?;
        Ok(TraceDigest { crc, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, Location, ProcId, SyncRole, TraceBuilder, TraceSink, Value};

    fn sample_trace() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        let s = Location::new(9);
        b.data_access(p0, Location::new(0), AccessKind::Write, Value::new(1), None);
        let rel = b.sync_access(p0, s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p1, s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        b.data_access(p1, Location::new(0), AccessKind::Read, Value::new(1), None);
        let mut t = b.finish();
        t.meta.program = Some("sample".into());
        t.meta.model = Some("wo".into());
        t.meta.seed = Some(7);
        t
    }

    #[test]
    fn binary_round_trip_keeps_the_digest() {
        let trace = sample_trace();
        let back = TraceSet::from_binary(&trace.to_binary()).unwrap();
        assert_eq!(back.digest(), trace.digest(), "a round-trip must not move the identity");
    }

    #[test]
    fn digest_matches_canonical_bytes_shortcut() {
        let trace = sample_trace();
        let bytes = trace.to_binary();
        assert_eq!(TraceDigest::of_canonical_bytes(&bytes), trace.digest());
        assert_eq!(bytes.len() as u32, trace.digest().encoded_len());
    }

    #[test]
    fn distinct_traces_get_distinct_digests() {
        let a = sample_trace();
        let mut b = TraceBuilder::new(2);
        b.data_access(ProcId::new(1), Location::new(3), AccessKind::Read, Value::ZERO, None);
        let b = b.finish();
        assert_ne!(a.digest(), b.digest());
        // Metadata is part of the identity: the same events recorded
        // from a different seed are a different execution.
        let mut c = sample_trace();
        c.meta.seed = Some(8);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn display_and_parse_round_trip() {
        let d = sample_trace().digest();
        let token = d.to_string();
        assert_eq!(token.len(), 16);
        assert!(token.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(token.parse::<TraceDigest>().unwrap(), d);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in ["", "12345", "zzzzzzzzzzzzzzzz", "0123456789abcdef0", "0123456789abcde "] {
            assert!(bad.parse::<TraceDigest>().is_err(), "{bad:?}");
        }
        let e = "nope".parse::<TraceDigest>().unwrap_err();
        assert!(e.to_string().contains("nope"));
    }
}
