//! Streaming trace files: write records during execution, reconstruct
//! the [`TraceSet`] post-mortem.
//!
//! The paper's post-mortem approach "generate[s] trace files ... during
//! execution" and analyzes them afterwards. The in-memory
//! [`TraceBuilder`](crate::TraceBuilder) is convenient for tests; a real
//! deployment streams records to a file as they happen so memory stays
//! bounded. [`StreamWriter`] is a [`TraceSink`](crate::TraceSink) that
//! does exactly that: each operation becomes one framed binary record on
//! the underlying writer, and [`read_stream`] folds a record stream back
//! into a [`TraceSet`] (computation-event folding happens at read time,
//! so the stream format is operation-granular and lossless).
//!
//! # Stream format
//!
//! The writer opens the stream with a `"WMRS"` magic and a `u16`
//! version (currently 2) and appends a CRC-32 to every record, so a
//! torn tail or a flipped bit is caught at the damaged record — and
//! [`salvage_stream`] can recover everything before it. Version 2 is
//! the only version read: a stream without the header (such as a
//! headerless version-1 stream, whose first byte is the `0xA5` record
//! magic) is refused at offset 0. [`StreamDecoder`] is the one parser;
//! [`read_stream`] and [`salvage_stream`] feed it from a reader.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]

use std::fmt;
use std::io::{Read, Write};

use crate::cursor::{
    put_access_kind, put_crc, put_opt_op_id, put_sync_role, ByteReader, OP_ID_BYTES,
};
use crate::error::DecodeError;
use crate::{
    AccessKind, Location, OpCounters, OpId, ProcId, SyncRole, TraceBuilder, TraceError, TraceSet,
    TraceSink, Value,
};

const RECORD_MAGIC: u8 = 0xA5;
/// Bytes of a record up to and including its observed-write flag:
/// magic, tag, `u16` processor, `u32` location, access kind, sync
/// role, `i64` value, flag.
const RECORD_HEAD_BYTES: usize = 19;

const TAG_DATA: u8 = 0;
const TAG_SYNC: u8 = 1;

/// Magic opening a versioned (v2+) stream file.
const STREAM_MAGIC: &[u8; 4] = b"WMRS";
/// Stream format version emitted by [`StreamWriter`].
pub const STREAM_FORMAT_VERSION: u16 = 2;

/// A [`TraceSink`] that streams one framed binary record per operation
/// to an [`std::io::Write`].
///
/// I/O errors are deferred: writing continues to count operations (so
/// operation identities stay correct) and the first error is reported by
/// [`finish`](StreamWriter::finish) — a sink callback cannot fail.
///
/// # Flush-on-drop guarantee
///
/// Every record is handed to the underlying writer as soon as its sink
/// callback returns — the `StreamWriter` buffers nothing itself — and
/// dropping the writer without calling [`finish`](StreamWriter::finish)
/// performs a best-effort flush of the underlying writer. A workload
/// that panics mid-capture therefore leaves a stream holding every
/// record committed before the panic; the torn tail (at most one
/// partial record, if the process died inside a `write`) is exactly
/// what [`salvage_stream`] recovers from. Only `finish` can *report*
/// flush or deferred write errors — the drop path swallows them, so
/// the clean shutdown path should always prefer `finish`.
///
/// # Example
///
/// ```
/// use wmrd_trace::{AccessKind, Location, ProcId, StreamWriter, TraceSink, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut buf = Vec::new();
/// let mut w = StreamWriter::new(&mut buf, 2);
/// w.data_access(ProcId::new(0), Location::new(3), AccessKind::Write, Value::new(1), None);
/// w.finish()?;
/// let trace = wmrd_trace::read_stream(&buf[..])?;
/// assert_eq!(trace.num_events(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    /// `None` only after [`finish`](StreamWriter::finish) has taken the
    /// writer out (the `Drop` impl then has nothing left to flush).
    writer: Option<W>,
    counters: OpCounters,
    records: u64,
    deferred_error: Option<std::io::Error>,
}

impl<W: Write> StreamWriter<W> {
    /// Creates a streaming writer for `num_procs` processors and emits
    /// the stream header (any I/O error is deferred to
    /// [`finish`](StreamWriter::finish), like record writes).
    pub fn new(writer: W, num_procs: usize) -> Self {
        let mut w = StreamWriter {
            writer: Some(writer),
            counters: OpCounters::with_procs(num_procs),
            records: 0,
            deferred_error: None,
        };
        let mut hdr = Vec::with_capacity(6);
        hdr.extend_from_slice(STREAM_MAGIC);
        hdr.extend_from_slice(&STREAM_FORMAT_VERSION.to_be_bytes());
        w.write_bytes(&hdr);
        w
    }

    /// Number of records emitted.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        if self.deferred_error.is_some() {
            return;
        }
        let Some(writer) = self.writer.as_mut() else { return };
        if let Err(e) = writer.write_all(bytes) {
            self.deferred_error = Some(e);
        }
    }

    /// Flushes and returns the underlying writer, surfacing any deferred
    /// I/O error.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if any write or the final flush failed.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if let Some(e) = self.deferred_error.take() {
            return Err(TraceError::Io(e));
        }
        let mut writer = self
            .writer
            .take()
            .unwrap_or_else(|| unreachable!("writer present until finish takes it"));
        writer.flush()?;
        Ok(writer)
    }

    /// Emits `rec` unless an earlier write failed; counts it either way.
    fn record(&mut self, rec: StreamRecord) {
        if self.deferred_error.is_none() {
            let mut buf = Vec::with_capacity(RECORD_HEAD_BYTES + OP_ID_BYTES + 4);
            rec.put(&mut buf);
            self.write_bytes(&buf);
        }
        self.records += 1;
    }
}

impl<W: Write> Drop for StreamWriter<W> {
    /// Best-effort flush of the underlying writer when the stream is
    /// dropped without [`finish`](StreamWriter::finish) — the
    /// flush-on-drop half of the salvage contract. Errors are
    /// swallowed here (a `Drop` cannot report them); `finish` is the
    /// path that surfaces them.
    fn drop(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

impl<W: Write> TraceSink for StreamWriter<W> {
    fn data_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        value: Value,
        observed: Option<OpId>,
    ) -> OpId {
        let role = SyncRole::None;
        self.record(StreamRecord { sync: false, proc, loc, kind, role, value, observed });
        self.counters.assign(proc)
    }

    fn sync_access(
        &mut self,
        proc: ProcId,
        loc: Location,
        kind: AccessKind,
        role: SyncRole,
        value: Value,
        observed: Option<OpId>,
    ) -> OpId {
        self.record(StreamRecord { sync: true, proc, loc, kind, role, value, observed });
        self.counters.assign(proc)
    }
}

/// One decoded stream record, before grouping into events.
///
/// This is the operation-granular unit of the `WMRS` stream format: a
/// single data or synchronization operation as the writer's
/// [`TraceSink`] callbacks saw it. Records deliberately do **not**
/// carry an [`OpId`]: operation identity is positional (the sink
/// contract), so any consumer that replays records in stream order
/// through its own counters — [`StreamRecord::apply`] onto a
/// [`TraceBuilder`], an on-the-fly detector, anything implementing
/// [`TraceSink`] — reassigns exactly the ids the producer assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRecord {
    /// `true` for a synchronization operation, `false` for data.
    pub sync: bool,
    /// Issuing processor.
    pub proc: ProcId,
    /// Location accessed.
    pub loc: Location,
    /// Read or write.
    pub kind: AccessKind,
    /// Acquire/release/plain role (always [`SyncRole::None`] for data
    /// operations).
    pub role: SyncRole,
    /// Value read or written.
    pub value: Value,
    /// For reads: the write whose value was returned, if recorded (for
    /// sync reads this is the `observed_release` that drives `so1`
    /// pairing).
    pub observed: Option<OpId>,
}

impl StreamRecord {
    /// Replays this record into a sink, returning the id the sink
    /// assigned. Feeding a whole stream's records in order reproduces
    /// the original execution's callbacks exactly.
    pub fn apply<S: TraceSink + ?Sized>(&self, sink: &mut S) -> OpId {
        if self.sync {
            sink.sync_access(self.proc, self.loc, self.kind, self.role, self.value, self.observed)
        } else {
            sink.data_access(self.proc, self.loc, self.kind, self.value, self.observed)
        }
    }

    /// Appends this record in the stream layout, CRC-32 included.
    fn put(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.push(RECORD_MAGIC);
        buf.push(if self.sync { TAG_SYNC } else { TAG_DATA });
        buf.extend_from_slice(&self.proc.raw().to_be_bytes());
        buf.extend_from_slice(&self.loc.addr().to_be_bytes());
        put_access_kind(buf, self.kind);
        put_sync_role(buf, self.role);
        buf.extend_from_slice(&self.value.get().to_be_bytes());
        put_opt_op_id(buf, self.observed);
        put_crc(buf, start);
    }

    /// Reads one record from the front of `r`, advancing `r` past it
    /// only when the whole record is there: `Ok(None)` means it is not
    /// complete yet. The fields up to the observed-write flag are
    /// checked as soon as they have arrived, the checksum once the
    /// record is whole.
    fn get(r: &mut ByteReader<'_>) -> Result<Option<StreamRecord>, DecodeError> {
        if r.remaining() < RECORD_HEAD_BYTES {
            return Ok(None);
        }
        let mut p = r.clone();
        let start = p.offset();
        // A reader over exactly the head lets the compiler drop the
        // length checks of the fixed-offset reads below.
        let mut h = ByteReader::with_base(p.take(RECORD_HEAD_BYTES, "record")?, start);
        h.marker(RECORD_MAGIC, "record magic")?;
        let tag = h.u8("record tag")?;
        if tag != TAG_DATA && tag != TAG_SYNC {
            return Err(DecodeError::new(start, format!("bad record tag {tag}")));
        }
        let proc = ProcId::new(h.u16("record processor")?);
        let loc = Location::new(h.u32("record location")?);
        let kind = h.access_kind("record kind")?;
        let role = h.sync_role("sync role")?;
        let value = Value::new(h.i64("record value")?);
        let has_observed = h.flag("observed flag")?;
        if p.remaining() < usize::from(has_observed) * OP_ID_BYTES + 4 {
            return Ok(None);
        }
        let observed = if has_observed { Some(p.op_id()?) } else { None };
        p.check_crc(start, "record")?;
        *r = p;
        Ok(Some(StreamRecord { sync: tag == TAG_SYNC, proc, loc, kind, role, value, observed }))
    }
}

/// What [`salvage_stream`] recovered from a (possibly damaged) record
/// stream.
#[derive(Debug, Clone)]
pub struct StreamSalvage {
    /// The trace folded from the recovered record prefix.
    pub trace: TraceSet,
    /// Records recovered.
    pub records: u64,
    /// Bytes of the stream that contributed to the recovered trace.
    pub bytes_used: usize,
    /// `true` iff the whole stream decoded (nothing was lost).
    pub complete: bool,
    /// Where and why decoding stopped, when it did.
    pub failure: Option<DecodeError>,
}

impl fmt::Display for StreamSalvage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.complete {
            write!(f, "stream salvage: complete ({} records)", self.records)
        } else {
            write!(f, "stream salvage: {} records ({} bytes)", self.records, self.bytes_used)?;
            if let Some(e) = &self.failure {
                write!(f, "; stopped {e}")?;
            }
            Ok(())
        }
    }
}

/// Bytes [`salvage_stream`] reads from its reader per
/// [`StreamDecoder::push`].
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Reads a stream produced by [`StreamWriter`] and folds it into a
/// [`TraceSet`] (consecutive data operations per processor become
/// computation events, exactly as live [`TraceBuilder`] instrumentation
/// would have produced).
///
/// # Errors
///
/// Returns [`TraceError::Io`] on read failures and
/// [`TraceError::Decode`] on a missing header, framing or checksum
/// errors.
pub fn read_stream<R: Read>(reader: R) -> Result<TraceSet, TraceError> {
    let salvage = salvage_stream(reader)?;
    match salvage.failure {
        Some(e) => Err(e.into()),
        None => Ok(salvage.trace),
    }
}

/// Best-effort read of a (possibly damaged) record stream: recovers
/// every record before the first header, framing or checksum failure
/// and folds the prefix into a trace.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on read failures (damage boundaries are
/// reported in the result, not as errors).
pub fn salvage_stream<R: Read>(mut reader: R) -> Result<StreamSalvage, TraceError> {
    let mut decoder = StreamDecoder::new();
    let mut builder = TraceBuilder::new(0);
    let mut chunk = vec![0u8; READ_CHUNK_BYTES];
    let mut records = Vec::new();
    let failure = loop {
        let n = match reader.read(&mut chunk) {
            Ok(0) => break decoder.finish_inner().err(),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let pushed = decoder.push_inner(chunk.get(..n).unwrap_or_default(), &mut records);
        for rec in records.drain(..) {
            rec.apply(&mut builder);
        }
        if let Err(e) = pushed {
            break Some(e);
        }
    };
    Ok(StreamSalvage {
        trace: builder.finish(),
        records: decoder.records(),
        bytes_used: decoder.bytes_decoded(),
        complete: failure.is_none(),
        failure,
    })
}

/// An incremental, push-based decoder for the record stream format —
/// the one `WMRS` parser: [`read_stream`], [`salvage_stream`] and the
/// daemon's `FEED` all run through it.
///
/// `StreamDecoder` accepts bytes as they arrive (a network chunk, a
/// partial file) and yields every record that is complete so far,
/// buffering the rest. A chunk boundary may fall anywhere — mid-header,
/// mid-record, even mid-CRC — without changing the decoded record
/// sequence: pushing the same bytes in any chunking yields the same
/// records (property-tested in `tests/props.rs`). One push costs time
/// linear in its length, however many records it holds.
///
/// Errors (a missing `"WMRS"` header, unsupported version, bad magic,
/// failed checksum) are **terminal**: once `push` has returned an error
/// the decoder refuses further input, because the record boundary is
/// lost. Call [`finish`](StreamDecoder::finish) after the last chunk to
/// verify the stream ended at a record boundary.
///
/// # Example
///
/// ```
/// use wmrd_trace::{AccessKind, Location, ProcId, StreamDecoder, StreamWriter, TraceSink, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut buf = Vec::new();
/// let mut w = StreamWriter::new(&mut buf, 1);
/// w.data_access(ProcId::new(0), Location::new(3), AccessKind::Write, Value::new(1), None);
/// w.finish()?;
///
/// let mut dec = StreamDecoder::new();
/// let mut records = Vec::new();
/// for chunk in buf.chunks(5) {
///     dec.push(chunk, &mut records)?; // boundaries may split records
/// }
/// dec.finish()?;
/// assert_eq!(records.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Bytes of the (possibly partial) header or record currently being
    /// decoded.
    buf: Vec<u8>,
    /// Absolute stream offset of `buf[0]`.
    offset: usize,
    /// `true` once the `"WMRS"` header has been read.
    header_seen: bool,
    records: u64,
    poisoned: bool,
}

impl StreamDecoder {
    /// Creates a decoder positioned at the start of a stream.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes buffered awaiting the rest of a record (0 at a record
    /// boundary).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Total bytes consumed into complete records (header included).
    pub fn bytes_decoded(&self) -> usize {
        self.offset
    }

    /// Pushes a chunk, appending every newly completed record to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] (with the absolute stream offset)
    /// on a missing or unsupported header, framing or checksum damage;
    /// the decoder is then poisoned and rejects further pushes.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<StreamRecord>) -> Result<(), TraceError> {
        Ok(self.push_inner(bytes, out)?)
    }

    fn push_inner(&mut self, bytes: &[u8], out: &mut Vec<StreamRecord>) -> Result<(), DecodeError> {
        if self.poisoned {
            return Err(DecodeError::new(self.offset, "decoder already failed"));
        }
        self.buf.extend_from_slice(bytes);
        // Parse from a cursor and drain once, so a push is linear in
        // its length however many records it holds.
        let mut used = 0;
        let result = self.decode(&mut used, out);
        self.buf.drain(..used);
        self.offset += used;
        self.poisoned = result.is_err();
        result
    }

    /// Decodes the header (if still due) and every complete record in
    /// `buf`, advancing `used` past each one.
    fn decode(&mut self, used: &mut usize, out: &mut Vec<StreamRecord>) -> Result<(), DecodeError> {
        let mut r = ByteReader::with_base(&self.buf, self.offset);
        if !self.header_seen {
            if !parse_header(&mut r)? {
                return Ok(());
            }
            *used = r.offset() - self.offset;
            self.header_seen = true;
        }
        while let Some(rec) = StreamRecord::get(&mut r)? {
            *used = r.offset() - self.offset;
            self.records += 1;
            out.push(rec);
        }
        Ok(())
    }

    /// Declares end-of-stream: succeeds iff the stream ended exactly at
    /// a record boundary (a partially buffered header or record is
    /// truncation). An empty stream is a valid, empty one.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] for a truncated final record or a
    /// previously poisoned decoder.
    pub fn finish(&self) -> Result<(), TraceError> {
        Ok(self.finish_inner()?)
    }

    fn finish_inner(&self) -> Result<(), DecodeError> {
        if self.poisoned {
            return Err(DecodeError::new(self.offset, "decoder already failed"));
        }
        if !self.buf.is_empty() {
            let what = if self.header_seen { "a record" } else { "the stream header" };
            return Err(DecodeError::new(
                self.offset + self.buf.len(),
                format!("stream ends inside {what} ({} buffered bytes)", self.buf.len()),
            ));
        }
        Ok(())
    }

    /// Returns the decoder to its initial state for a new stream.
    pub fn reset(&mut self) {
        *self = StreamDecoder::default();
    }
}

/// Reads the stream header from the front of `r` (always stream
/// offset 0), advancing `r` past it. `Ok(false)` means the header is not
/// complete yet; a prefix that already differs from `"WMRS"` — a
/// headerless stream, or not a stream at all — is refused at once.
fn parse_header(r: &mut ByteReader<'_>) -> Result<bool, DecodeError> {
    let mut h = r.clone();
    let seen = h.take(h.remaining().min(STREAM_MAGIC.len()), "stream magic")?;
    if !STREAM_MAGIC.starts_with(seen) {
        return Err(DecodeError::new(0, "bad stream magic (not a WMRS stream)"));
    }
    if h.remaining() < 2 {
        return Ok(false);
    }
    let version = h.u16("stream version")?;
    if version != STREAM_FORMAT_VERSION {
        return Err(DecodeError::new(4, format!("unsupported stream version {version}")));
    }
    *r = h;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Location;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    /// Feeds the same callbacks to a StreamWriter and a TraceBuilder; the
    /// stream must reconstruct to exactly the builder's TraceSet.
    #[test]
    fn stream_reconstructs_builder_output() {
        let mut buf = Vec::new();
        let mut stream = StreamWriter::new(&mut buf, 2);
        let mut direct = TraceBuilder::new(2);
        let feed = |s: &mut dyn TraceSink| {
            s.data_access(p(0), l(0), AccessKind::Write, Value::new(7), None);
            s.data_access(p(0), l(1), AccessKind::Read, Value::ZERO, None);
            let rel =
                s.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
            s.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
            s.data_access(p(1), l(0), AccessKind::Read, Value::new(7), None);
        };
        feed(&mut stream);
        feed(&mut direct);
        stream.finish().unwrap();
        let from_stream = read_stream(&buf[..]).unwrap();
        assert_eq!(from_stream, direct.finish());
    }

    #[test]
    fn writer_counts_and_assigns_ids() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, 1);
        let a = w.data_access(p(0), l(0), AccessKind::Write, Value::ZERO, None);
        let b = w.data_access(p(0), l(0), AccessKind::Read, Value::ZERO, None);
        assert_eq!(a, OpId::new(p(0), 0));
        assert_eq!(b, OpId::new(p(0), 1));
        assert_eq!(w.records(), 2);
        w.finish().unwrap();
        assert_eq!(&buf[..4], STREAM_MAGIC, "v2 streams open with the magic");
    }

    #[test]
    fn empty_stream_reads_as_empty_trace() {
        let trace = read_stream(&[][..]).unwrap();
        assert_eq!(trace.num_events(), 0);
        assert_eq!(trace.num_procs(), 0);
        // A header-only stream is also a valid empty trace.
        let mut buf = Vec::new();
        StreamWriter::new(&mut buf, 2).finish().unwrap();
        assert_eq!(buf.len(), 6);
        assert_eq!(read_stream(&buf[..]).unwrap().num_events(), 0);
    }

    #[test]
    fn truncated_and_corrupt_streams_error() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, 1);
        w.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        w.sync_access(p(0), l(1), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        w.finish().unwrap();
        // The stream is a 6-byte header plus two 23-byte records
        // (19-byte body + 4-byte CRC; no observed-write field). Cutting
        // at a record boundary yields a clean, shorter stream; any other
        // cut must error — never panic.
        assert_eq!(buf.len(), 6 + 2 * 23);
        for len in 1..buf.len() {
            let result = read_stream(&buf[..len]);
            if len >= 6 && (len - 6) % 23 == 0 {
                let events = (len - 6) / 23; // each record here becomes one event
                assert_eq!(result.unwrap().num_events(), events, "boundary cut at {len}");
            } else {
                assert!(result.is_err(), "truncation at {len} must error");
            }
        }
        let mut corrupt = buf.clone();
        corrupt[6] = 0x00; // break the first record's magic
        assert!(read_stream(&corrupt[..]).is_err());
        let mut bad_tag = buf.clone();
        bad_tag[7] = 9;
        assert!(read_stream(&bad_tag[..]).is_err());
    }

    #[test]
    fn every_bit_flip_is_caught_by_record_checksums() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, 1);
        w.data_access(p(0), l(5), AccessKind::Write, Value::new(3), None);
        w.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        w.finish().unwrap();
        for byte in 6..buf.len() {
            for bit in 0..8 {
                let mut hurt = buf.clone();
                hurt[byte] ^= 1 << bit;
                assert!(
                    read_stream(&hurt[..]).is_err(),
                    "flip at {byte}.{bit} slipped past the checksum"
                );
            }
        }
    }

    /// A record's access-kind and observed-write flag bytes holding
    /// anything but 0 or 1 are refused at their own offsets, under a
    /// valid checksum.
    #[test]
    fn flag_bytes_other_than_zero_or_one_are_refused_at_their_offset() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, 1);
        w.data_access(p(0), l(0), AccessKind::Read, Value::ZERO, None);
        w.finish().unwrap();
        let crc_at = buf.len() - 4;
        for (at, what) in [(6 + 8, "record kind"), (6 + 18, "observed flag")] {
            let mut hurt = buf.clone();
            assert_eq!(hurt[at], 0, "{what} must start as 0");
            hurt[at] = 2;
            let crc = crate::crc32::crc32(&hurt[6..crc_at]);
            hurt[crc_at..].copy_from_slice(&crc.to_be_bytes());
            match read_stream(&hurt[..]) {
                Err(TraceError::Decode(e)) => {
                    assert_eq!((e.offset, e.reason), (at, format!("bad {what} 2")));
                }
                other => panic!("{what} 2 was not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn salvage_recovers_the_prefix_before_damage() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, 2);
        for i in 0..10u32 {
            w.data_access(p((i % 2) as u16), l(i), AccessKind::Write, Value::new(i as i64), None);
        }
        w.finish().unwrap();
        // Flip a byte inside the 7th record.
        let seventh = 6 + 6 * 23 + 4;
        let mut hurt = buf.clone();
        hurt[seventh] ^= 0x20;
        let s = salvage_stream(&hurt[..]).unwrap();
        assert!(!s.complete);
        assert_eq!(s.records, 6, "records before the damage survive");
        assert_eq!(s.bytes_used, 6 + 6 * 23);
        let failure = s.failure.unwrap();
        assert_eq!(failure.offset, 6 + 6 * 23, "failure pinned to the damaged record");
        assert_eq!(s.trace.num_events(), 2, "per-proc data runs fold into computation events");
        // An intact stream salvages completely.
        let s = salvage_stream(&buf[..]).unwrap();
        assert!(s.complete);
        assert_eq!(s.records, 10);
        assert!(s.to_string().contains("complete"), "{s}");
    }

    #[test]
    fn grows_processor_count_on_demand() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, 1);
        w.data_access(p(3), l(0), AccessKind::Write, Value::ZERO, None);
        w.finish().unwrap();
        let trace = read_stream(&buf[..]).unwrap();
        assert_eq!(trace.num_procs(), 4);
        assert_eq!(trace.processor(p(3)).unwrap().len(), 1);
    }

    #[test]
    fn io_errors_are_deferred_to_finish() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = StreamWriter::new(FailingWriter, 1);
        // Callbacks do not panic and keep assigning correct ids.
        let a = w.data_access(p(0), l(0), AccessKind::Write, Value::ZERO, None);
        let b = w.data_access(p(0), l(1), AccessKind::Write, Value::ZERO, None);
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
        assert!(matches!(w.finish(), Err(TraceError::Io(_))));
    }

    /// A small v2 stream exercising both record kinds and the observed
    /// field, for decoder tests.
    fn sample_stream() -> (Vec<u8>, usize) {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, 2);
        w.data_access(p(0), l(0), AccessKind::Write, Value::new(7), None);
        let rel =
            w.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        w.sync_access(p(1), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, Some(rel));
        w.data_access(p(1), l(0), AccessKind::Read, Value::new(7), None);
        w.finish().unwrap();
        (buf, 4)
    }

    #[test]
    fn decoder_matches_one_shot_reader_under_any_chunking() {
        let (buf, n) = sample_stream();
        let direct = read_stream(&buf[..]).unwrap();
        // Every chunk size from 1 byte (worst case: each record arrives
        // split across many pushes) up to the whole stream at once.
        for chunk in 1..=buf.len() {
            let mut dec = StreamDecoder::new();
            let mut records = Vec::new();
            for piece in buf.chunks(chunk) {
                dec.push(piece, &mut records).unwrap();
            }
            dec.finish().unwrap();
            assert_eq!(records.len(), n);
            assert_eq!(dec.records(), n as u64);
            assert_eq!(dec.buffered(), 0);
            assert_eq!(dec.bytes_decoded(), buf.len());
            // Replaying the records through a builder reconstructs the
            // same TraceSet the one-shot reader produced.
            let mut b = TraceBuilder::new(1);
            for r in &records {
                r.apply(&mut b);
            }
            assert_eq!(b.finish(), direct);
        }
    }

    #[test]
    fn decoder_rejects_damage_at_matching_offsets() {
        let (buf, _) = sample_stream();
        // Flip a byte inside the first record body: CRC failure at the
        // record's start offset, same as read_stream reports.
        let mut bad = buf.clone();
        bad[10] ^= 0x40;
        let one_shot = read_stream(&bad[..]).unwrap_err();
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        let incremental = dec.push(&bad, &mut out).unwrap_err();
        assert_eq!(format!("{one_shot}"), format!("{incremental}"));
        // Poisoned: further pushes are refused.
        assert!(dec.push(&buf, &mut out).is_err());

        // A bogus header version is rejected before any records decode.
        let mut vbad = buf.clone();
        vbad[5] = 9;
        let mut dec = StreamDecoder::new();
        let err = dec.push(&vbad, &mut out).unwrap_err();
        assert!(format!("{err}").contains("unsupported stream version"));
    }

    #[test]
    fn decoder_finish_flags_truncation() {
        let (buf, _) = sample_stream();
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&buf[..buf.len() - 3], &mut out).unwrap();
        assert!(dec.finish().is_err(), "mid-record EOF must not pass finish()");
        // Supplying the missing tail completes the record after all.
        dec.push(&buf[buf.len() - 3..], &mut out).unwrap();
        dec.finish().unwrap();
        // reset() starts a fresh stream, re-sniffing the header.
        dec.reset();
        let mut out2 = Vec::new();
        dec.push(&buf, &mut out2).unwrap();
        dec.finish().unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn decoder_empty_stream_is_ok() {
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&[], &mut out).unwrap();
        dec.finish().unwrap();
        // A bare v2 header with no records is also a valid stream.
        let mut hdr = Vec::new();
        StreamWriter::new(&mut hdr, 1).finish().unwrap();
        dec.reset();
        dec.push(&hdr, &mut out).unwrap();
        dec.finish().unwrap();
        assert!(out.is_empty());
    }
}
