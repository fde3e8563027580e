//! The post-mortem trace file format.
//!
//! A [`TraceSet`] bundles the three streams the paper's instrumentation
//! produces (Section 4.1): per-processor event orders, the relative order
//! of synchronization events per location, and READ/WRITE sets per
//! computation event. Its file format is the compact checksummed binary
//! encoding below; it is the only trace file format.
//!
//! # Binary format
//!
//! The writer emits **version 2**: every section (header, each event
//! record, the sync-order section) carries a CRC-32 checksum, so
//! corruption is detected before the decoder acts on the bytes and the
//! [salvage decoder](TraceSet::salvage_binary) can recover the longest
//! intact event prefix from a damaged file. Version 2 is the only
//! version read: any other version, including the unchecksummed
//! version 1 of earlier releases, is refused as "unsupported version"
//! at offset 4. Decoding never panics and never allocates
//! proportionally to attacker-controlled length fields; failures are
//! [`DecodeError`]s carrying the byte offset where the problem was
//! detected.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use crate::crc32::crc32;
use crate::cursor::{put_opt_str, ByteReader};
use crate::error::DecodeError;
use crate::{
    AccessKind, ComputationEvent, Event, EventId, EventKind, LocSet, Location, OpId, ProcId,
    SyncEvent, SyncRole, TraceError, Value,
};

/// Metadata describing how a trace was produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Name of the traced program, if known.
    pub program: Option<String>,
    /// Name of the memory model the execution ran under (e.g. `"SC"`,
    /// `"WO"`, `"RCsc"`).
    pub model: Option<String>,
    /// Scheduler seed, for reproducibility.
    pub seed: Option<u64>,
}

/// The per-processor stream: the execution order of a processor's events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorTrace {
    /// The processor whose events these are.
    pub proc: ProcId,
    events: Vec<Event>,
}

impl ProcessorTrace {
    /// Creates an empty trace for `proc`.
    pub fn new(proc: ProcId) -> Self {
        ProcessorTrace { proc, events: Vec::new() }
    }

    /// The events in execution (program) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Appends an event, assigning it the next index for this processor.
    ///
    /// Returns the id assigned to the event.
    pub fn push(&mut self, kind: EventKind) -> EventId {
        let id = EventId::new(self.proc, self.events.len() as u32);
        self.events.push(Event { id, kind });
        id
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the processor traced no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One entry in the global synchronization-order stream.
///
/// Entries are sorted by `global_seq`; restricting to one location yields
/// the paper's "relative execution order of synchronization operations to
/// the same location".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncOrderEntry {
    /// Global issue stamp (monotone across all processors' sync ops).
    pub global_seq: u64,
    /// The sync event.
    pub event: EventId,
    /// Location the sync op accessed.
    pub loc: Location,
    /// Read or write.
    pub kind: AccessKind,
}

/// A complete post-mortem trace of one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// Provenance metadata.
    pub meta: TraceMeta,
    procs: Vec<ProcessorTrace>,
    sync_order: Vec<SyncOrderEntry>,
}

/// Binary format version emitted by [`TraceSet::to_binary`].
pub const BINARY_FORMAT_VERSION: u16 = 2;

/// Marker byte opening every v2 event record.
const EVENT_MARKER: u8 = 0xE7;
/// Marker byte opening the v2 sync-order section.
const SYNC_MARKER: u8 = 0x5C;
/// Cap on a single v2 event-record payload. An event is a tag plus two
/// location sets plus fixed fields; anything near this size is
/// corruption, and the cap keeps a corrupt length field from dragging
/// the cursor megabytes off course.
const MAX_EVENT_BYTES: u32 = 1 << 20;
/// Cap on the v2 header and sync-order section payloads.
const MAX_SECTION_BYTES: u32 = 1 << 26;

/// What the salvage decoder recovered from a (possibly damaged) v2
/// binary trace.
///
/// Mirrors the paper's sequentially-consistent-prefix idea at the file
/// level: rather than rejecting a damaged trace outright, recover the
/// longest checksummed event prefix and report, per processor, how far
/// it reaches — the *salvage boundary* — so analysis can still run on
/// everything before the damage.
#[derive(Debug, Clone)]
pub struct Salvage {
    /// The recovered (validated) trace.
    pub trace: TraceSet,
    /// Events recovered per processor.
    pub recovered: Vec<u32>,
    /// Events the file header promised per processor, when the header
    /// itself survived.
    pub expected: Option<Vec<u32>>,
    /// Bytes of the input that contributed to the recovered trace.
    pub bytes_used: usize,
    /// Total bytes of input presented.
    pub bytes_total: usize,
    /// `true` iff the whole file decoded strictly (nothing was lost).
    pub complete: bool,
    /// Where and why decoding stopped, when it did.
    pub failure: Option<DecodeError>,
}

impl Salvage {
    /// Total events recovered.
    pub fn events_recovered(&self) -> usize {
        self.recovered.iter().map(|&c| c as usize).sum()
    }

    /// Total events the header promised, if known.
    pub fn events_expected(&self) -> Option<usize> {
        self.expected.as_ref().map(|e| e.iter().map(|&c| c as usize).sum())
    }

    /// Events lost to damage (0 when the expectation is unknown).
    pub fn events_lost(&self) -> usize {
        self.events_expected().map_or(0, |e| e.saturating_sub(self.events_recovered()))
    }

    /// Bytes of input that did not contribute to the recovered trace.
    pub fn bytes_dropped(&self) -> usize {
        self.bytes_total.saturating_sub(self.bytes_used)
    }
}

impl fmt::Display for Salvage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.complete {
            return write!(
                f,
                "salvage: complete ({} events, {} bytes)",
                self.events_recovered(),
                self.bytes_total
            );
        }
        write!(f, "salvage boundaries:")?;
        for (i, &got) in self.recovered.iter().enumerate() {
            write!(f, " P{i}:{got}")?;
            if let Some(expected) = &self.expected {
                write!(f, "/{}", expected[i])?;
            }
        }
        write!(f, " — used {} of {} bytes", self.bytes_used, self.bytes_total)?;
        if let Some(e) = &self.failure {
            write!(f, "; stopped {e}")?;
        }
        Ok(())
    }
}

/// The decoded v2 header section.
struct HeaderV2 {
    meta: TraceMeta,
    counts: Vec<u32>,
    sync_count: u32,
}

impl TraceSet {
    /// Creates an empty trace for `num_procs` processors.
    pub fn new(num_procs: usize) -> Self {
        TraceSet {
            meta: TraceMeta::default(),
            procs: (0..num_procs).map(|i| ProcessorTrace::new(ProcId::new(i as u16))).collect(),
            sync_order: Vec::new(),
        }
    }

    /// Builds a trace from already-constructed parts.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] if the parts violate the
    /// structural invariants checked by [`validate`](Self::validate).
    pub fn from_parts(
        meta: TraceMeta,
        procs: Vec<ProcessorTrace>,
        sync_order: Vec<SyncOrderEntry>,
    ) -> Result<Self, TraceError> {
        let t = TraceSet { meta, procs, sync_order };
        t.validate()?;
        Ok(t)
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// All per-processor traces, in processor order.
    pub fn processors(&self) -> &[ProcessorTrace] {
        &self.procs
    }

    /// The trace of one processor.
    pub fn processor(&self, proc: ProcId) -> Option<&ProcessorTrace> {
        self.procs.get(proc.index())
    }

    /// Mutable access to one processor's trace (used by sinks).
    pub(crate) fn processor_mut(&mut self, proc: ProcId) -> Option<&mut ProcessorTrace> {
        self.procs.get_mut(proc.index())
    }

    /// Grows the trace to include `proc` (used by sinks, which accept
    /// any processor id on demand).
    pub(crate) fn ensure_processor(&mut self, proc: ProcId) {
        while self.procs.len() <= proc.index() {
            self.procs.push(ProcessorTrace::new(ProcId::new(self.procs.len() as u16)));
        }
    }

    /// Looks up an event by id.
    pub fn event(&self, id: EventId) -> Option<&Event> {
        self.procs.get(id.proc.index())?.events.get(id.index as usize)
    }

    /// Total number of events across all processors.
    pub fn num_events(&self) -> usize {
        self.procs.iter().map(|p| p.len()).sum()
    }

    /// Iterates over every event of every processor.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.procs.iter().flat_map(|p| p.events.iter())
    }

    /// The global synchronization-order stream, sorted by `global_seq`.
    pub fn sync_order(&self) -> &[SyncOrderEntry] {
        &self.sync_order
    }

    /// Appends to the synchronization-order stream (used by sinks).
    pub(crate) fn push_sync_order(&mut self, entry: SyncOrderEntry) {
        self.sync_order.push(entry);
    }

    /// The synchronization order restricted to one location.
    pub fn sync_order_for(&self, loc: Location) -> Vec<SyncOrderEntry> {
        self.sync_order.iter().copied().filter(|e| e.loc == loc).collect()
    }

    /// Checks structural invariants:
    ///
    /// * processor traces are densely numbered and each event's id matches
    ///   its position,
    /// * sync-order entries reference existing sync events with matching
    ///   location and access kind, and are strictly increasing in
    ///   `global_seq`,
    /// * every sync event appears exactly once in the sync order.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first violation found.
    pub fn validate(&self) -> Result<(), TraceError> {
        for (i, p) in self.procs.iter().enumerate() {
            if p.proc.index() != i {
                return Err(TraceError::Malformed(format!(
                    "processor trace {i} labeled {}",
                    p.proc
                )));
            }
            for (j, e) in p.events.iter().enumerate() {
                if e.id != EventId::new(p.proc, j as u32) {
                    return Err(TraceError::Malformed(format!(
                        "event at {}, position {j} has id {}",
                        p.proc, e.id
                    )));
                }
            }
        }
        // One seen-flag per event, at the event's dense position:
        // `offsets[p]` events precede processor `p`'s first.
        let mut offsets = Vec::with_capacity(self.procs.len());
        let mut total = 0;
        for p in &self.procs {
            offsets.push(total);
            total += p.len();
        }
        let mut seen = vec![false; total];
        let mut last_seq = None;
        for entry in &self.sync_order {
            if let Some(last) = last_seq {
                if entry.global_seq <= last {
                    return Err(TraceError::Malformed(format!(
                        "sync order not strictly increasing at seq {}",
                        entry.global_seq
                    )));
                }
            }
            last_seq = Some(entry.global_seq);
            let ev = self.event(entry.event).ok_or(TraceError::UnknownEvent(entry.event))?;
            let s = ev.as_sync().ok_or_else(|| {
                TraceError::Malformed(format!("sync order references non-sync {}", entry.event))
            })?;
            if s.loc != entry.loc || s.kind != entry.kind {
                return Err(TraceError::Malformed(format!(
                    "sync order entry for {} disagrees with event payload",
                    entry.event
                )));
            }
            let slot = &mut seen[offsets[entry.event.proc.index()] + entry.event.index as usize];
            if std::mem::replace(slot, true) {
                return Err(TraceError::Malformed(format!(
                    "sync event {} appears twice in sync order",
                    entry.event
                )));
            }
        }
        match self.events().zip(seen).find(|(e, seen)| e.is_sync() && !seen) {
            Some((e, _)) => {
                Err(TraceError::Malformed(format!("sync event {} missing from sync order", e.id)))
            }
            None => Ok(()),
        }
    }

    /// Encodes to the compact binary format (version 2, checksummed).
    ///
    /// Layout after the `"WMRD"` magic and `u16` version:
    ///
    /// * a header section (`u32` length, payload, CRC-32 over length +
    ///   payload) carrying the metadata, per-processor event counts and
    ///   the sync-order count;
    /// * one framed record per event (marker byte, `u16` processor,
    ///   `u32` payload length, payload, CRC-32 over the whole record),
    ///   emitted round-robin across processors so a truncation cuts all
    ///   processors at a similar depth;
    /// * the sync-order section (marker byte, `u32` length, payload,
    ///   CRC-32 over the whole section).
    pub fn to_binary(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"WMRD");
        buf.extend_from_slice(&BINARY_FORMAT_VERSION.to_be_bytes());

        let mut hdr = Vec::new();
        put_opt_str(&mut hdr, self.meta.program.as_deref());
        put_opt_str(&mut hdr, self.meta.model.as_deref());
        match self.meta.seed {
            Some(s) => {
                hdr.push(1);
                hdr.extend_from_slice(&s.to_be_bytes());
            }
            None => hdr.push(0),
        }
        hdr.extend_from_slice(&(self.procs.len() as u16).to_be_bytes());
        for p in &self.procs {
            hdr.extend_from_slice(&(p.events.len() as u32).to_be_bytes());
        }
        hdr.extend_from_slice(&(self.sync_order.len() as u32).to_be_bytes());
        let start = buf.len();
        buf.extend_from_slice(&(hdr.len() as u32).to_be_bytes());
        buf.extend_from_slice(&hdr);
        let crc = crc32(&buf[start..]);
        buf.extend_from_slice(&crc.to_be_bytes());

        let deepest = self.procs.iter().map(|p| p.events.len()).max().unwrap_or(0);
        for depth in 0..deepest {
            for p in &self.procs {
                if let Some(e) = p.events.get(depth) {
                    let mut payload = Vec::new();
                    put_event_kind(&mut payload, &e.kind);
                    let start = buf.len();
                    buf.push(EVENT_MARKER);
                    buf.extend_from_slice(&p.proc.raw().to_be_bytes());
                    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                    buf.extend_from_slice(&payload);
                    let crc = crc32(&buf[start..]);
                    buf.extend_from_slice(&crc.to_be_bytes());
                }
            }
        }

        let mut sync = Vec::new();
        sync.extend_from_slice(&(self.sync_order.len() as u32).to_be_bytes());
        for s in &self.sync_order {
            put_sync_entry(&mut sync, s);
        }
        let start = buf.len();
        buf.push(SYNC_MARKER);
        buf.extend_from_slice(&(sync.len() as u32).to_be_bytes());
        buf.extend_from_slice(&sync);
        let crc = crc32(&buf[start..]);
        buf.extend_from_slice(&crc.to_be_bytes());

        buf
    }

    /// Decodes the compact binary format and validates.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] with the failing byte offset on
    /// any framing, bound, or checksum problem, or a validation error.
    /// Never panics on corrupt input.
    pub fn from_binary(data: &[u8]) -> Result<Self, TraceError> {
        decode_v2(data, DecodeMode::Strict).map(|s| s.trace)
    }

    /// Best-effort decode of a (possibly damaged) binary trace: recovers
    /// the longest checksummed event prefix and reports how far it
    /// reaches per processor.
    ///
    /// The file decodes as far as its checksums allow; the sync-order
    /// stream is rebuilt from the recovered sync events when the sync
    /// section itself was lost.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Decode`] when nothing recoverable precedes
    /// the damage (bad magic, unsupported version), or a validation
    /// error if the recovered prefix is structurally inconsistent.
    /// Never panics on corrupt input.
    pub fn salvage_binary(data: &[u8]) -> Result<Salvage, TraceError> {
        decode_v2(data, DecodeMode::Salvage)
    }
}

/// Checks the magic and that the format version is the one this
/// decoder reads: version 1 files (no checksums) are refused like any
/// other unknown version.
fn check_magic_and_version(data: &[u8]) -> Result<(), TraceError> {
    let mut r = ByteReader::new(data);
    let magic = r.take(4, "magic")?;
    if magic != b"WMRD" {
        return Err(DecodeError::new(0, "bad magic (not a wmrd trace)").into());
    }
    let version = r.u16("format version")?;
    if version != BINARY_FORMAT_VERSION {
        return Err(DecodeError::new(4, format!("unsupported version {version}")).into());
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum DecodeMode {
    /// Any defect is an error.
    Strict,
    /// Recover the longest intact prefix; defects become the boundary.
    Salvage,
}

/// Decodes the checksummed version-2 layout, strictly or best-effort.
fn decode_v2(data: &[u8], mode: DecodeMode) -> Result<Salvage, TraceError> {
    check_magic_and_version(data)?;
    let bytes_total = data.len();
    let mut r = ByteReader::with_base(&data[6..], 6);

    let header = match read_header_section(&mut r) {
        Ok(h) => h,
        Err(e) => {
            if mode == DecodeMode::Strict {
                return Err(e.into());
            }
            // Without the header there is no record map to recover by.
            return Ok(Salvage {
                trace: TraceSet::new(0),
                recovered: Vec::new(),
                expected: None,
                bytes_used: 6,
                bytes_total,
                complete: false,
                failure: Some(e),
            });
        }
    };

    let num_procs = header.counts.len();
    let total_events: u64 = header.counts.iter().map(|&c| c as u64).sum();
    let mut procs: Vec<ProcessorTrace> =
        (0..num_procs).map(|i| ProcessorTrace::new(ProcId::new(i as u16))).collect();
    let mut failure: Option<DecodeError> = None;
    let mut good_end = r.offset();
    for _ in 0..total_events {
        match read_event_record(&mut r, num_procs) {
            Ok((start, proc, kind)) => {
                let pt = &mut procs[proc.index()];
                if pt.len() as u32 >= header.counts[proc.index()] {
                    failure = Some(DecodeError::new(
                        start,
                        format!("more events for {proc} than the header declared"),
                    ));
                    break;
                }
                pt.push(kind);
                good_end = r.offset();
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }

    let sync_order = if failure.is_none() {
        match read_sync_section(&mut r, header.sync_count) {
            Ok(sync_order) => {
                good_end = r.offset();
                if !r.is_empty() {
                    failure = Some(r.err(format!("{} trailing bytes", r.remaining())));
                }
                Some(sync_order)
            }
            Err(e) => {
                failure = Some(e);
                None
            }
        }
    } else {
        None
    };

    if let Some(e) = &failure {
        if mode == DecodeMode::Strict {
            return Err(e.clone().into());
        }
    }
    // When the sync section was lost (or events were cut short, leaving
    // it unreachable), rebuild the sync order from the sync events that
    // survived: each carries its own global_seq, location and kind, so
    // the reconstruction is lossless over the recovered prefix.
    let sync_order = sync_order.unwrap_or_else(|| rebuild_sync_order(&procs));

    let recovered: Vec<u32> = procs.iter().map(|p| p.len() as u32).collect();
    let complete = failure.is_none();
    let trace = TraceSet::from_parts(header.meta, procs, sync_order)?;
    Ok(Salvage {
        trace,
        recovered,
        expected: Some(header.counts),
        bytes_used: if complete { bytes_total } else { good_end },
        bytes_total,
        complete,
        failure,
    })
}

/// Reads and checksum-verifies the v2 header section.
fn read_header_section(r: &mut ByteReader<'_>) -> Result<HeaderV2, DecodeError> {
    let start = r.offset();
    let hlen = r.u32("header length")?;
    if hlen > MAX_SECTION_BYTES {
        return Err(DecodeError::new(start, format!("oversized header length {hlen}")));
    }
    let payload_base = r.offset();
    let payload = r.take(hlen as usize, "header payload")?;
    let covered = r.slice_from(start);
    let stored = r.u32("header checksum")?;
    if crc32(covered) != stored {
        return Err(DecodeError::new(start, "header checksum mismatch"));
    }
    let mut h = ByteReader::with_base(payload, payload_base);
    let program = h.opt_str("program")?;
    let model = h.opt_str("model")?;
    let seed = if h.u8("seed flag")? == 1 { Some(h.u64("seed")?) } else { None };
    let num_procs = h.u16("processor count")? as usize;
    let mut counts = Vec::with_capacity(num_procs);
    for _ in 0..num_procs {
        counts.push(h.u32("event count")?);
    }
    let sync_count = h.u32("sync-order count")?;
    if !h.is_empty() {
        return Err(h.err(format!("{} trailing header bytes", h.remaining())));
    }
    Ok(HeaderV2 { meta: TraceMeta { program, model, seed }, counts, sync_count })
}

/// Reads and checksum-verifies one v2 event record. Returns the record's
/// start offset alongside the decoded event.
fn read_event_record(
    r: &mut ByteReader<'_>,
    num_procs: usize,
) -> Result<(usize, ProcId, EventKind), DecodeError> {
    let start = r.offset();
    let marker = r.u8("event record marker")?;
    if marker != EVENT_MARKER {
        return Err(DecodeError::new(start, format!("bad event record marker {marker:#04x}")));
    }
    let proc_raw = r.u16("event record processor")?;
    let len = r.u32("event record length")?;
    if len > MAX_EVENT_BYTES {
        return Err(DecodeError::new(start, format!("oversized event record length {len}")));
    }
    let payload_base = r.offset();
    let payload = r.take(len as usize, "event record payload")?;
    let covered = r.slice_from(start);
    let stored = r.u32("event record checksum")?;
    if crc32(covered) != stored {
        return Err(DecodeError::new(start, "event record checksum mismatch"));
    }
    if proc_raw as usize >= num_procs {
        return Err(DecodeError::new(
            start,
            format!("event record for processor {proc_raw} outside the header's {num_procs}"),
        ));
    }
    let mut p = ByteReader::with_base(payload, payload_base);
    let kind = get_event_kind(&mut p)?;
    if !p.is_empty() {
        return Err(p.err(format!("{} trailing bytes in event record", p.remaining())));
    }
    Ok((start, ProcId::new(proc_raw), kind))
}

/// Reads and checksum-verifies the v2 sync-order section.
fn read_sync_section(
    r: &mut ByteReader<'_>,
    declared: u32,
) -> Result<Vec<SyncOrderEntry>, DecodeError> {
    let start = r.offset();
    let marker = r.u8("sync section marker")?;
    if marker != SYNC_MARKER {
        return Err(DecodeError::new(start, format!("bad sync section marker {marker:#04x}")));
    }
    let len = r.u32("sync section length")?;
    if len > MAX_SECTION_BYTES {
        return Err(DecodeError::new(start, format!("oversized sync section length {len}")));
    }
    let payload_base = r.offset();
    let payload = r.take(len as usize, "sync section payload")?;
    let covered = r.slice_from(start);
    let stored = r.u32("sync section checksum")?;
    if crc32(covered) != stored {
        return Err(DecodeError::new(start, "sync section checksum mismatch"));
    }
    let mut s = ByteReader::with_base(payload, payload_base);
    let n = s.u32("sync-order count")?;
    if n != declared {
        return Err(s.err(format!("sync-order count {n} disagrees with header ({declared})")));
    }
    if n as usize > s.remaining() / 19 {
        return Err(s.err(format!("sync order count {n} exceeds section payload")));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(get_sync_entry(&mut s)?);
    }
    if !s.is_empty() {
        return Err(s.err(format!("{} trailing bytes in sync section", s.remaining())));
    }
    Ok(out)
}

/// Rebuilds the sync-order stream from recovered sync events (each
/// carries its global sequence stamp, location and kind).
fn rebuild_sync_order(procs: &[ProcessorTrace]) -> Vec<SyncOrderEntry> {
    let mut entries: Vec<SyncOrderEntry> = procs
        .iter()
        .flat_map(|p| p.events().iter())
        .filter_map(|e| {
            e.as_sync().map(|s| SyncOrderEntry {
                global_seq: s.global_seq,
                event: e.id,
                loc: s.loc,
                kind: s.kind,
            })
        })
        .collect();
    entries.sort_by_key(|e| e.global_seq);
    entries
}

fn put_event_kind(buf: &mut Vec<u8>, kind: &EventKind) {
    match kind {
        EventKind::Sync(s) => {
            buf.push(0);
            put_op_id(buf, s.op);
            buf.extend_from_slice(&s.loc.addr().to_be_bytes());
            buf.push(matches!(s.kind, AccessKind::Write) as u8);
            buf.push(match s.role {
                SyncRole::Release => 0,
                SyncRole::Acquire => 1,
                SyncRole::None => 2,
            });
            buf.extend_from_slice(&s.value.get().to_be_bytes());
            buf.extend_from_slice(&s.global_seq.to_be_bytes());
            match s.observed_release {
                Some(op) => {
                    buf.push(1);
                    put_op_id(buf, op);
                }
                None => buf.push(0),
            }
        }
        EventKind::Computation(c) => {
            buf.push(1);
            put_locset(buf, &c.reads);
            put_locset(buf, &c.writes);
            put_op_id(buf, c.first_op);
            buf.extend_from_slice(&c.op_count.to_be_bytes());
        }
    }
}

fn put_sync_entry(buf: &mut Vec<u8>, s: &SyncOrderEntry) {
    buf.extend_from_slice(&s.global_seq.to_be_bytes());
    buf.extend_from_slice(&s.event.proc.raw().to_be_bytes());
    buf.extend_from_slice(&s.event.index.to_be_bytes());
    buf.extend_from_slice(&s.loc.addr().to_be_bytes());
    buf.push(matches!(s.kind, AccessKind::Write) as u8);
}

fn put_op_id(buf: &mut Vec<u8>, op: OpId) {
    buf.extend_from_slice(&op.proc.raw().to_be_bytes());
    buf.extend_from_slice(&op.seq.to_be_bytes());
}

fn put_locset(buf: &mut Vec<u8>, set: &LocSet) {
    buf.extend_from_slice(&(set.len() as u32).to_be_bytes());
    for loc in set {
        buf.extend_from_slice(&loc.addr().to_be_bytes());
    }
}

fn get_event_kind(r: &mut ByteReader<'_>) -> Result<EventKind, DecodeError> {
    let tag = r.u8("event tag")?;
    match tag {
        0 => {
            let op = get_op_id(r)?;
            let loc = Location::new(r.u32("sync location")?);
            let kind = if r.u8("sync kind")? == 1 { AccessKind::Write } else { AccessKind::Read };
            let role = match r.u8("sync role")? {
                0 => SyncRole::Release,
                1 => SyncRole::Acquire,
                2 => SyncRole::None,
                role => return Err(r.err(format!("bad sync role {role}"))),
            };
            let value = Value::new(r.i64("sync value")?);
            let global_seq = r.u64("sync global seq")?;
            let observed_release =
                if r.u8("observed-release flag")? == 1 { Some(get_op_id(r)?) } else { None };
            Ok(EventKind::Sync(SyncEvent {
                op,
                loc,
                kind,
                role,
                value,
                global_seq,
                observed_release,
            }))
        }
        1 => {
            let reads = get_locset(r)?;
            let writes = get_locset(r)?;
            let first_op = get_op_id(r)?;
            let op_count = r.u32("op count")?;
            Ok(EventKind::Computation(ComputationEvent { reads, writes, first_op, op_count }))
        }
        t => Err(r.err(format!("bad event tag {t}"))),
    }
}

fn get_sync_entry(r: &mut ByteReader<'_>) -> Result<SyncOrderEntry, DecodeError> {
    let global_seq = r.u64("sync-order seq")?;
    let proc = ProcId::new(r.u16("sync-order processor")?);
    let index = r.u32("sync-order event index")?;
    let loc = Location::new(r.u32("sync-order location")?);
    let kind = if r.u8("sync-order kind")? == 1 { AccessKind::Write } else { AccessKind::Read };
    Ok(SyncOrderEntry { global_seq, event: EventId::new(proc, index), loc, kind })
}

fn get_op_id(r: &mut ByteReader<'_>) -> Result<OpId, DecodeError> {
    let proc = ProcId::new(r.u16("op processor")?);
    let seq = r.u32("op seq")?;
    Ok(OpId::new(proc, seq))
}

/// Largest location address accepted by the binary decoder. The bitset
/// representation allocates proportionally to the largest address, so
/// unbounded addresses would let corrupt (or hostile) inputs force huge
/// allocations.
const MAX_DECODED_LOCATION: u32 = 1 << 28;

fn get_locset(r: &mut ByteReader<'_>) -> Result<LocSet, DecodeError> {
    let n = r.u32("location-set count")? as usize;
    if n > r.remaining() / 4 {
        return Err(r.err(format!("location-set count {n} exceeds remaining input")));
    }
    let mut set = LocSet::new();
    for _ in 0..n {
        let addr = r.u32("location")?;
        if addr >= MAX_DECODED_LOCATION {
            return Err(r.err(format!("location {addr} out of decodable range")));
        }
        set.insert(Location::new(addr));
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceBuilder, TraceSink};

    fn sample() -> TraceSet {
        let mut b = TraceBuilder::new(2);
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        b.data_access(p0, Location::new(0), AccessKind::Write, Value::new(7), None);
        b.data_access(p0, Location::new(1), AccessKind::Write, Value::new(8), None);
        let rel = b.sync_access(
            p0,
            Location::new(9),
            AccessKind::Write,
            SyncRole::Release,
            Value::ZERO,
            None,
        );
        b.sync_access(
            p1,
            Location::new(9),
            AccessKind::Read,
            SyncRole::Acquire,
            Value::ZERO,
            Some(rel),
        );
        b.data_access(p1, Location::new(0), AccessKind::Read, Value::new(7), None);
        let mut t = b.finish();
        t.meta =
            TraceMeta { program: Some("sample".into()), model: Some("SC".into()), seed: Some(42) };
        t
    }

    #[test]
    fn structure_of_sample() {
        let t = sample();
        assert_eq!(t.num_procs(), 2);
        assert_eq!(t.num_events(), 4); // comp, rel | acq, comp
        assert_eq!(t.sync_order().len(), 2);
        assert!(t.validate().is_ok());
        let p0 = t.processor(ProcId::new(0)).unwrap();
        assert!(p0.events()[0].is_computation());
        assert!(p0.events()[1].is_sync());
        assert_eq!(
            p0.events()[0].as_computation().unwrap().writes.len(),
            2,
            "both data writes folded into one computation event"
        );
    }

    #[test]
    fn event_lookup() {
        let t = sample();
        let id = EventId::new(ProcId::new(1), 0);
        assert!(t.event(id).unwrap().is_sync());
        assert!(t.event(EventId::new(ProcId::new(1), 99)).is_none());
        assert!(t.event(EventId::new(ProcId::new(9), 0)).is_none());
        assert!(t.processor(ProcId::new(9)).is_none());
    }

    #[test]
    fn sync_order_for_location() {
        let t = sample();
        let for_s = t.sync_order_for(Location::new(9));
        assert_eq!(for_s.len(), 2);
        assert!(for_s[0].global_seq < for_s[1].global_seq);
        assert!(t.sync_order_for(Location::new(0)).is_empty());
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let b = t.to_binary();
        assert_eq!(u16::from_be_bytes([b[4], b[5]]), BINARY_FORMAT_VERSION);
        assert_eq!(TraceSet::from_binary(&b).unwrap(), t);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(TraceSet::from_binary(b"nope").is_err());
        assert!(TraceSet::from_binary(b"WMRD").is_err());
        let mut good = sample().to_binary();
        good.push(0); // trailing byte
        assert!(TraceSet::from_binary(&good).is_err());
        let truncated = &sample().to_binary()[..20];
        assert!(TraceSet::from_binary(truncated).is_err());
    }

    #[test]
    fn binary_rejects_unknown_version() {
        let mut b = sample().to_binary();
        b[5] = 99;
        let err = TraceSet::from_binary(&b).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        assert!(TraceSet::salvage_binary(&b).is_err());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let b = sample().to_binary();
        for byte in 0..b.len() {
            let mut hurt = b.clone();
            hurt[byte] ^= 0x10;
            // Every flip must be rejected by the strict decoder (a flip
            // cannot silently yield a different trace). Errors carry an
            // offset inside the input.
            match TraceSet::from_binary(&hurt) {
                Ok(t) => assert_eq!(t, sample(), "flip at {byte} silently changed the trace"),
                Err(TraceError::Decode(e)) => assert!(e.offset <= hurt.len()),
                Err(_) => {}
            }
        }
    }

    #[test]
    fn salvage_of_intact_input_is_complete() {
        let t = sample();
        let s = TraceSet::salvage_binary(&t.to_binary()).unwrap();
        assert!(s.complete);
        assert!(s.failure.is_none());
        assert_eq!(s.trace, t);
        assert_eq!(s.events_recovered(), t.num_events());
        assert_eq!(s.events_lost(), 0);
        assert_eq!(s.bytes_dropped(), 0);
        assert!(s.to_string().contains("complete"), "{s}");
    }

    #[test]
    fn salvage_recovers_prefix_from_truncation() {
        let t = sample();
        let b = t.to_binary();
        let mut seen_partial = false;
        for len in 6..b.len() {
            let s = match TraceSet::salvage_binary(&b[..len]) {
                Ok(s) => s,
                Err(e) => panic!("salvage at {len} errored: {e}"),
            };
            assert!(!s.complete, "cut at {len} cannot be complete");
            assert!(s.failure.is_some());
            assert!(s.trace.validate().is_ok());
            assert!(s.events_recovered() <= t.num_events());
            if let Some(expected) = s.events_expected() {
                assert_eq!(expected, t.num_events());
            } else {
                assert_eq!(s.events_recovered(), 0, "no header, nothing to recover by");
            }
            assert!(s.bytes_used <= len);
            if s.events_recovered() > 0 {
                seen_partial = true;
                // Recovered events are a prefix of the original, per
                // processor.
                for (p, orig) in s.trace.processors().iter().zip(t.processors()) {
                    assert_eq!(p.events(), &orig.events()[..p.len()]);
                }
            }
        }
        assert!(seen_partial, "some cut must recover a nonempty prefix");
    }

    #[test]
    fn salvage_stops_at_a_flipped_event_record() {
        let t = sample();
        let b = t.to_binary();
        // Find the first event record (marker byte after the header
        // section) and flip a byte inside it.
        let hlen = u32::from_be_bytes([b[6], b[7], b[8], b[9]]) as usize;
        let first_record = 6 + 4 + hlen + 4;
        assert_eq!(b[first_record], EVENT_MARKER);
        let mut hurt = b.clone();
        hurt[first_record + 8] ^= 0x01;
        let s = TraceSet::salvage_binary(&hurt).unwrap();
        assert!(!s.complete);
        assert_eq!(s.events_recovered(), 0, "damage in the first record recovers nothing");
        assert!(s.to_string().contains("boundaries"), "{s}");
        let failure = s.failure.unwrap();
        assert_eq!(failure.offset, first_record, "failure pinned to the record start");
    }

    #[test]
    fn salvage_rebuilds_sync_order_when_section_is_lost() {
        let t = sample();
        let b = t.to_binary();
        // Cut just before the sync section: all events survive, the
        // sync order is rebuilt losslessly from the sync events.
        let sync_start = b.iter().rposition(|&x| x == SYNC_MARKER).unwrap();
        let s = TraceSet::salvage_binary(&b[..sync_start]).unwrap();
        assert!(!s.complete);
        assert_eq!(s.events_recovered(), t.num_events());
        assert_eq!(s.trace.sync_order(), t.sync_order());
        assert_eq!(s.trace, t);
    }

    #[test]
    fn salvage_survives_header_loss() {
        let t = sample();
        let b = t.to_binary();
        let mut hurt = b.clone();
        hurt[8] ^= 0x40; // inside the header length/payload
        let s = TraceSet::salvage_binary(&hurt).unwrap();
        assert!(!s.complete);
        assert_eq!(s.events_recovered(), 0);
        assert_eq!(s.expected, None, "header gone: no expectation to report");
        assert!(s.trace.validate().is_ok());
    }

    #[test]
    fn validate_rejects_nonmonotone_sync_order() {
        let mut t = sample();
        t.sync_order.swap(0, 1);
        assert!(matches!(t.validate(), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn validate_rejects_missing_sync_entry() {
        let mut t = sample();
        t.sync_order.pop();
        assert!(matches!(t.validate(), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn validate_rejects_dangling_event_reference() {
        let mut t = sample();
        t.sync_order[0].event = EventId::new(ProcId::new(0), 99);
        assert!(t.validate().is_err());
    }

    /// The first violation wins, in sync-order order: an entry that
    /// repeats an earlier one is reported before the sync event that
    /// its repetition left out.
    #[test]
    fn validate_reports_duplicate_before_missing() {
        let mut t = sample();
        let first = t.sync_order[0];
        t.sync_order[1] = SyncOrderEntry { global_seq: t.sync_order[1].global_seq, ..first };
        assert_eq!(
            t.validate().unwrap_err().to_string(),
            "malformed trace: sync event P0.e1 appears twice in sync order"
        );
        t.sync_order.pop();
        assert_eq!(
            t.validate().unwrap_err().to_string(),
            "malformed trace: sync event P1.e0 missing from sync order"
        );
    }

    /// An unknown event is reported at its entry, ahead of a later
    /// duplicate and of the sync events left out; unknown processors
    /// and indices past a processor's end are both unknown.
    #[test]
    fn validate_reports_unknown_event_at_its_entry() {
        for unknown in [EventId::new(ProcId::new(0), 99), EventId::new(ProcId::new(7), 0)] {
            let mut t = sample();
            let first = t.sync_order[0];
            t.sync_order[0].event = unknown;
            let seq = t.sync_order[1].global_seq;
            t.sync_order[1] = SyncOrderEntry { global_seq: seq, ..first };
            t.sync_order.push(SyncOrderEntry { global_seq: seq + 1, ..first });
            assert!(matches!(t.validate(), Err(TraceError::UnknownEvent(e)) if e == unknown));
            t.sync_order[0] = first;
            assert_eq!(
                t.validate().unwrap_err().to_string(),
                "malformed trace: sync event P0.e1 appears twice in sync order"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("wmrd-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bin");
        std::fs::write(&path, t.to_binary()).unwrap();
        assert_eq!(TraceSet::from_binary(&std::fs::read(&path).unwrap()).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_parts_validates() {
        let t = sample();
        let res = TraceSet::from_parts(
            t.meta.clone(),
            t.procs.clone(),
            vec![], // drops mandatory sync-order entries
        );
        assert!(res.is_err());
    }
}
