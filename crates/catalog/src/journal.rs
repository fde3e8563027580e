//! The catalog's append-only checksummed journal.
//!
//! The journal carries the same durability philosophy as the v2 trace
//! format one layer up: every record is independently framed and
//! CRC-32-checked, lengths are bounded before allocation, and a
//! damaged file *salvages* — decoding stops at the first bad frame and
//! keeps the longest valid record prefix, exactly like
//! `TraceSet::salvage_binary` keeps the longest checksummed event
//! prefix. A daemon killed mid-append therefore loses at most the
//! record it was writing; every record whose append completed is
//! recovered on reopen.
//!
//! ## Layout
//!
//! ```text
//! "WMRC"  magic (4 bytes)
//! u16     format version (big-endian, currently 2)
//! u32     CRC-32 over the 6 bytes above
//! ---- then zero or more records ----
//! 0xCA    record marker (1 byte)
//! u32     payload length (big-endian, capped at MAX_RECORD_BYTES)
//! [u8]    payload: one JournalRecord (below)
//! u32     CRC-32 over marker + length + payload
//! ```
//!
//! A record payload is fixed binary fields, big-endian. A string is a
//! `u32` byte length then UTF-8 bytes; an optional string uses length
//! `u32::MAX` for absent (the v2 trace header's convention).
//!
//! ```text
//! str     digest
//! optstr  program
//! optstr  model
//! u8, u64 seed flag (0 or 1), then the seed when the flag is 1
//! u64     events
//! u8      amend flag (0 or 1)
//! u32     race count, then per race (14 bytes):
//!   u32     key location
//!   u16, u8, u8   side a: processor, kind (0 read, 1 write), sync flag
//!   u16, u8, u8   side b
//!   u8      first-partition flag
//!   u8      provenance bits (1 observed, 2 predicted)
//! ```
//!
//! Every count and length is checked against the bytes left in the
//! payload before anything is allocated from it, and a payload with
//! bytes left over after its last race is damage. Version-1 journals
//! (JSON payloads) are refused as an unsupported version.
//!
//! Frames and fields are written and read by the trace crate's codec
//! (`wmrd_trace::put_frame`, `ByteReader::frame` and the paired field
//! helpers), the same layer behind the v2 trace and `WMRS` formats.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

use wmrd_core::{RaceKey, SideKey};
use wmrd_trace::{
    put_access_kind, put_crc, put_flag, put_frame, put_opt_str, put_opt_u64, ByteReader,
    DecodeError, Location, ProcId,
};

use crate::CatalogError;

/// Journal file magic.
pub const JOURNAL_MAGIC: [u8; 4] = *b"WMRC";
/// Journal format version.
pub const JOURNAL_VERSION: u16 = 2;
/// Record marker byte.
const RECORD_MARKER: u8 = 0xCA;
/// Upper bound on a record payload, checked before allocating.
pub const MAX_RECORD_BYTES: usize = 1 << 24;
/// Bytes in the file header (magic + version + CRC).
pub const HEADER_BYTES: usize = 10;
/// Bytes one race occupies in a record payload.
const RACE_BYTES: usize = 14;

/// How a race identity entered the catalog: witnessed in an executed
/// trace, derived by the predictive engine, or both.
///
/// A bitflag rather than an enum because the two sources *accumulate*:
/// a key first predicted and later observed (or vice versa) carries
/// both bits, and `|` is the commutative fold the catalog's
/// order-independence invariant requires. Journaled as the underlying
/// `u8`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Provenance(u8);

impl Provenance {
    /// Witnessed by the post-mortem/streaming analysis of an executed
    /// trace.
    pub const OBSERVED: Provenance = Provenance(1);
    /// Derived from a recorded trace by the predictive engine
    /// (`wmrd-predict`) without being witnessed in that execution.
    pub const PREDICTED: Provenance = Provenance(1 << 1);

    /// `true` if the observed bit is set.
    pub const fn observed(self) -> bool {
        self.0 & Provenance::OBSERVED.0 != 0
    }

    /// `true` if the predicted bit is set.
    pub const fn predicted(self) -> bool {
        self.0 & Provenance::PREDICTED.0 != 0
    }

    /// `true` if no source bit is set (only possible for
    /// hand-constructed values; the catalog never stores one).
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Provenance {
    type Output = Provenance;
    fn bitor(self, rhs: Provenance) -> Provenance {
        Provenance(self.0 | rhs.0)
    }
}

impl BitOrAssign for Provenance {
    fn bitor_assign(&mut self, rhs: Provenance) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.observed(), self.predicted()) {
            (true, true) => f.write_str("observed+predicted"),
            (true, false) => f.write_str("observed"),
            (false, true) => f.write_str("predicted"),
            (false, false) => f.write_str("-"),
        }
    }
}

/// One race observed in one analyzed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceObservation {
    /// The execution-independent identity.
    pub key: RaceKey,
    /// `true` if the race sits in a first partition of its execution
    /// (Theorem 4.1: the races the evidence fully supports).
    pub first_partition: bool,
    /// How this identity was established for this trace.
    pub provenance: Provenance,
}

/// One committed unit of catalog knowledge: the analysis of one trace.
///
/// Records are content-addressed by `digest` (the token form of
/// `wmrd_trace::TraceDigest`); the catalog never journals the same
/// digest twice.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The trace's content identity (16-hex-digit digest token).
    pub digest: String,
    /// Program name, when the trace metadata carried one.
    pub program: Option<String>,
    /// Memory model label, when the trace metadata carried one.
    pub model: Option<String>,
    /// Scheduler seed, when the trace metadata carried one.
    pub seed: Option<u64>,
    /// Events in the trace, summed over processors.
    pub events: u64,
    /// The trace's deduplicated race identities, in `RaceKey` order.
    pub races: Vec<RaceObservation>,
    /// `false` for a trace's first record (the normal case). `true`
    /// marks an *amendment*: a later re-analysis of an already
    /// cataloged digest (e.g. the daemon's `PREDICT` verb) whose
    /// observations are unioned into the existing summary instead of
    /// being rejected as a duplicate.
    pub amend: bool,
}

/// What journal decoding recovered, mirroring the shape of the trace
/// layer's `Salvage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSalvage {
    /// Records recovered (the longest valid prefix).
    pub records: usize,
    /// Bytes of the file the recovered prefix occupies (header
    /// included).
    pub bytes_used: usize,
    /// Total bytes presented for decoding.
    pub bytes_total: usize,
    /// `true` iff every byte decoded cleanly.
    pub complete: bool,
    /// Why decoding stopped, when it stopped early.
    pub failure: Option<String>,
}

/// Encodes the journal file header.
pub fn encode_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES);
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
    put_crc(&mut out, 0);
    out
}

/// Appends one framed record to `out`.
///
/// # Errors
///
/// Returns [`CatalogError::Record`] if the record exceeds
/// [`MAX_RECORD_BYTES`]; `out` is then left as it was.
pub fn encode_record(out: &mut Vec<u8>, record: &JournalRecord) -> Result<(), CatalogError> {
    let start = out.len();
    out.push(RECORD_MARKER);
    let len = put_frame(out, start, |payload| put_payload(payload, record));
    if len > MAX_RECORD_BYTES {
        out.truncate(start);
        return Err(CatalogError::Record(format!(
            "record payload of {len} bytes exceeds the {MAX_RECORD_BYTES}-byte bound"
        )));
    }
    Ok(())
}

/// Encodes a whole journal (header plus `records`) into one buffer.
///
/// # Errors
///
/// Returns [`CatalogError::Record`] if any record fails to encode.
pub fn encode(records: &[JournalRecord]) -> Result<Vec<u8>, CatalogError> {
    let mut out = encode_header();
    for record in records {
        encode_record(&mut out, record)?;
    }
    Ok(out)
}

/// Decodes a journal, salvaging through tail damage.
///
/// Returns the longest valid record prefix plus a [`JournalSalvage`]
/// describing how far decoding reached. Damage *after* the header is
/// never an error — that is the salvage contract — but a file too
/// short or too corrupt to even carry its header is unusable.
///
/// # Errors
///
/// Returns [`CatalogError::Corrupt`] when the header is missing,
/// carries the wrong magic or version, or fails its CRC.
pub fn decode(data: &[u8]) -> Result<(Vec<JournalRecord>, JournalSalvage), CatalogError> {
    if data.len() < HEADER_BYTES {
        return Err(CatalogError::Corrupt {
            offset: data.len(),
            reason: format!("journal header truncated at {} of {HEADER_BYTES} bytes", data.len()),
        });
    }
    let mut r = ByteReader::new(data);
    let magic = r.take(JOURNAL_MAGIC.len(), "journal magic")?;
    if magic != JOURNAL_MAGIC {
        return Err(CatalogError::Corrupt {
            offset: 0,
            reason: format!("bad journal magic {magic:02x?}"),
        });
    }
    let version = r.u16("journal version")?;
    if version != JOURNAL_VERSION {
        return Err(CatalogError::Corrupt {
            offset: 4,
            reason: format!("unsupported journal version {version}"),
        });
    }
    r.check_crc(0, "journal header")?;

    let mut records = Vec::new();
    let mut failure = None;
    while !r.is_empty() {
        // Read from a copy, so a failed record leaves `r` at its start.
        let mut rec = r.clone();
        match decode_record(&mut rec) {
            Ok(record) => {
                records.push(record);
                r = rec;
            }
            Err(e) => {
                failure = Some(format!("offset {}: {}", e.offset, e.reason));
                break;
            }
        }
    }
    let salvage = JournalSalvage {
        records: records.len(),
        bytes_used: r.offset(),
        bytes_total: data.len(),
        complete: failure.is_none(),
        failure,
    };
    Ok((records, salvage))
}

/// Decodes one framed record from the front of `r`. Any failure is a
/// salvage stop.
fn decode_record(r: &mut ByteReader<'_>) -> Result<JournalRecord, DecodeError> {
    let start = r.offset();
    r.marker(RECORD_MARKER, "record marker")?;
    let payload = r.frame(start, MAX_RECORD_BYTES as u32, "record")?;
    decode_payload(payload)
}

fn put_side(out: &mut Vec<u8>, side: &SideKey) {
    out.extend_from_slice(&side.proc.raw().to_be_bytes());
    put_access_kind(out, side.kind);
    put_flag(out, side.sync);
}

/// Appends the binary record payload (layout in the module docs).
fn put_payload(out: &mut Vec<u8>, record: &JournalRecord) {
    out.reserve(64 + record.races.len() * RACE_BYTES);
    put_opt_str(out, Some(&record.digest));
    put_opt_str(out, record.program.as_deref());
    put_opt_str(out, record.model.as_deref());
    put_opt_u64(out, record.seed);
    out.extend_from_slice(&record.events.to_be_bytes());
    put_flag(out, record.amend);
    out.extend_from_slice(&(record.races.len() as u32).to_be_bytes());
    for obs in &record.races {
        out.extend_from_slice(&obs.key.loc.addr().to_be_bytes());
        put_side(out, &obs.key.a);
        put_side(out, &obs.key.b);
        put_flag(out, obs.first_partition);
        out.push(obs.provenance.0);
    }
}

fn get_side(r: &mut ByteReader<'_>) -> Result<SideKey, DecodeError> {
    let proc = ProcId::new(r.u16("race side processor")?);
    let kind = r.access_kind("race side kind")?;
    Ok(SideKey { proc, kind, sync: r.flag("race side sync flag")? })
}

/// Decodes a binary record payload, refusing anything that is not
/// exactly one well-formed record.
fn decode_payload(mut r: ByteReader<'_>) -> Result<JournalRecord, DecodeError> {
    let digest = r.opt_str("digest")?.ok_or_else(|| r.err("record has no digest"))?;
    let program = r.opt_str("program")?;
    let model = r.opt_str("model")?;
    let seed = r.opt_u64("seed")?;
    let events = r.u64("event count")?;
    let amend = r.flag("amend flag")?;
    let count = r.u32("race count")? as usize;
    if count > r.remaining() / RACE_BYTES {
        return Err(r.err(format!("race count {count} exceeds the payload")));
    }
    let mut races = Vec::with_capacity(count);
    for _ in 0..count {
        let loc = Location::new(r.u32("race location")?);
        let a = get_side(&mut r)?;
        let b = get_side(&mut r)?;
        let first_partition = r.flag("first-partition flag")?;
        let at = r.offset();
        let bits = r.u8("provenance")?;
        if bits & !(Provenance::OBSERVED.0 | Provenance::PREDICTED.0) != 0 {
            return Err(DecodeError::new(at, format!("bad provenance bits {bits:#04x}")));
        }
        races.push(RaceObservation {
            key: RaceKey::new(loc, a, b),
            first_partition,
            provenance: Provenance(bits),
        });
    }
    if !r.is_empty() {
        return Err(r.err(format!("{} trailing bytes after the last race", r.remaining())));
    }
    Ok(JournalRecord { digest, program, model, seed, events, races, amend })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_core::SideKey;
    use wmrd_trace::{AccessKind, Location, ProcId};

    fn record(n: u64) -> JournalRecord {
        let a = SideKey { proc: ProcId::new(0), kind: AccessKind::Write, sync: false };
        let b = SideKey { proc: ProcId::new(1), kind: AccessKind::Read, sync: false };
        JournalRecord {
            digest: format!("{n:016x}"),
            program: Some("fig1a".into()),
            model: Some("wo".into()),
            seed: Some(n),
            events: 10 + n,
            races: vec![RaceObservation {
                key: RaceKey::new(Location::new(n as u32), a, b),
                first_partition: true,
                provenance: Provenance::OBSERVED,
            }],
            amend: false,
        }
    }

    #[test]
    fn provenance_bits_accumulate_and_render() {
        let mut p = Provenance::OBSERVED;
        assert!(p.observed() && !p.predicted());
        assert_eq!(p.to_string(), "observed");
        p |= Provenance::PREDICTED;
        assert!(p.observed() && p.predicted());
        assert_eq!(p.to_string(), "observed+predicted");
        assert_eq!(Provenance::PREDICTED.to_string(), "predicted");
        assert_eq!(Provenance::default().to_string(), "-");
        assert!(Provenance::default().is_empty());
        assert_eq!(Provenance::OBSERVED | Provenance::PREDICTED, p);
    }

    /// Frames `payload` as one record with a valid CRC, after a good
    /// header, so only the payload decoder can object to it.
    fn journal_with_payload(payload: &[u8]) -> Vec<u8> {
        let mut out = encode_header();
        out.push(RECORD_MARKER);
        put_frame(&mut out, HEADER_BYTES, |p| p.extend_from_slice(payload));
        out
    }

    fn encode_payload(record: &JournalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        put_payload(&mut out, record);
        out
    }

    #[test]
    fn records_round_trip_every_field() {
        let mut r = record(7);
        r.program = None;
        r.seed = None;
        r.amend = true;
        r.races[0].provenance = Provenance::OBSERVED | Provenance::PREDICTED;
        r.races[0].key.b.sync = true;
        let (back, salvage) = decode(&encode(&[r.clone(), record(8)]).unwrap()).unwrap();
        assert!(salvage.complete);
        assert_eq!(back, [r, record(8)]);
    }

    #[test]
    fn an_overclaimed_race_count_is_a_salvage_stop() {
        let mut r = record(1);
        r.races.clear();
        let mut payload = encode_payload(&r);
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
        let (back, salvage) = decode(&journal_with_payload(&payload)).unwrap();
        assert!(back.is_empty());
        assert_eq!(salvage.bytes_used, HEADER_BYTES);
        let failure = salvage.failure.unwrap();
        assert!(failure.starts_with("offset "), "{failure}");
        assert!(failure.contains("race count 4294967295 exceeds the payload"), "{failure}");
    }

    #[test]
    fn a_flag_byte_other_than_zero_or_one_is_a_salvage_stop_at_its_offset() {
        let mut r = record(3);
        r.seed = None;
        let mut payload = encode_payload(&r);
        // The digest (16 hex digits), "fig1a" and "wo" as length-prefixed
        // strings, then the seed flag.
        let at = (4 + 16) + (4 + 5) + (4 + 2);
        assert_eq!(payload[at], 0);
        payload[at] = 2;
        let (back, salvage) = decode(&journal_with_payload(&payload)).unwrap();
        assert!(back.is_empty());
        let flag_offset = HEADER_BYTES + 5 + at;
        assert_eq!(salvage.failure.unwrap(), format!("offset {flag_offset}: bad seed flag 2"));
    }

    #[test]
    fn trailing_payload_bytes_are_a_salvage_stop() {
        let mut payload = encode_payload(&record(2));
        payload.push(0);
        let (back, salvage) = decode(&journal_with_payload(&payload)).unwrap();
        assert!(back.is_empty());
        assert!(!salvage.complete);
        assert!(salvage.failure.unwrap().contains("1 trailing bytes"));
    }

    #[test]
    fn version_one_journals_are_refused() {
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&1u16.to_be_bytes());
        put_crc(&mut bytes, 0);
        match decode(&bytes) {
            Err(CatalogError::Corrupt { offset: 4, reason }) => {
                assert!(reason.contains("unsupported journal version 1"), "{reason}");
            }
            other => panic!("expected a version refusal, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_records() {
        let records: Vec<_> = (0..5).map(record).collect();
        let bytes = encode(&records).unwrap();
        let (back, salvage) = decode(&bytes).unwrap();
        assert_eq!(back, records);
        assert!(salvage.complete);
        assert_eq!(salvage.records, 5);
        assert_eq!(salvage.bytes_used, bytes.len());
    }

    #[test]
    fn empty_journal_is_a_valid_header() {
        let (records, salvage) = decode(&encode_header()).unwrap();
        assert!(records.is_empty());
        assert!(salvage.complete);
    }

    #[test]
    fn truncation_salvages_the_committed_prefix() {
        let records: Vec<_> = (0..4).map(record).collect();
        let bytes = encode(&records).unwrap();
        // Cut mid-way through the last record: the first three frames
        // are committed and must all survive.
        let cut = bytes.len() - 7;
        let (back, salvage) = decode(&bytes[..cut]).unwrap();
        assert_eq!(back, records[..3]);
        assert!(!salvage.complete);
        assert!(salvage.failure.unwrap().contains("input ends inside record payload"));
    }

    #[test]
    fn bit_flip_salvages_the_prefix_before_the_damage() {
        let records: Vec<_> = (0..3).map(record).collect();
        let mut bytes = encode(&records).unwrap();
        let r0_end = encode(&records[..1]).unwrap().len();
        bytes[r0_end + 9] ^= 0x40; // inside record 1's frame
        let (back, salvage) = decode(&bytes).unwrap();
        assert_eq!(back, records[..1], "only the record before the flip survives");
        assert!(!salvage.complete);
        assert_eq!(salvage.bytes_used, r0_end);
    }

    #[test]
    fn header_damage_is_fatal_not_salvageable() {
        assert!(matches!(decode(b"WMR"), Err(CatalogError::Corrupt { .. })));
        let mut bytes = encode_header();
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(CatalogError::Corrupt { .. })));
        let mut bytes = encode_header();
        bytes[6] ^= 1;
        assert!(matches!(decode(&bytes), Err(CatalogError::Corrupt { .. })));
        let mut bytes = encode_header();
        bytes[5] = 9; // version 9 — a future format, refuse to guess
        bytes.truncate(6);
        put_crc(&mut bytes, 0);
        assert!(matches!(decode(&bytes), Err(CatalogError::Corrupt { .. })));
    }

    #[test]
    fn oversized_length_is_a_salvage_stop() {
        let mut bytes = encode(&[record(0)]).unwrap();
        let good = bytes.clone();
        bytes.push(RECORD_MARKER);
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let (back, salvage) = decode(&bytes).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(salvage.bytes_used, good.len());
        let failure = salvage.failure.unwrap();
        assert_eq!(failure, format!("offset {}: oversized record length 4294967295", good.len()));
    }
}
