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

use crate::cursor::{
    put_access_kind, put_frame, put_op_id, put_opt_op_id, put_opt_str, put_opt_u64, put_sync_role,
    ByteReader,
};
use crate::error::DecodeError;
use crate::{
    AccessKind, ComputationEvent, Event, EventId, EventKind, LocSet, Location, ProcId, SyncEvent,
    TraceError, Value,
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
///
/// Every `TraceSet` is valid by construction, so consumers such as the
/// hb1 graph do not validate it again: [`from_parts`](Self::from_parts)
/// checks [`validate`](Self::validate)'s invariants (the v2 decoder
/// goes through it), [`TraceBuilder::finish`](crate::TraceBuilder::finish)
/// builds a valid trace (the stream reader goes through it), and
/// [`new`](Self::new) and `Default` are empty.
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
/// Bytes one sync-order entry occupies: `u64` seq, `u16` processor,
/// `u32` event index, `u32` location, access kind.
const SYNC_ENTRY_BYTES: usize = 19;

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

        let start = buf.len();
        put_frame(&mut buf, start, |hdr| {
            put_opt_str(hdr, self.meta.program.as_deref());
            put_opt_str(hdr, self.meta.model.as_deref());
            put_opt_u64(hdr, self.meta.seed);
            hdr.extend_from_slice(&(self.procs.len() as u16).to_be_bytes());
            for p in &self.procs {
                hdr.extend_from_slice(&(p.events.len() as u32).to_be_bytes());
            }
            hdr.extend_from_slice(&(self.sync_order.len() as u32).to_be_bytes());
        });

        let deepest = self.procs.iter().map(|p| p.events.len()).max().unwrap_or(0);
        for depth in 0..deepest {
            for p in &self.procs {
                if let Some(e) = p.events.get(depth) {
                    let start = buf.len();
                    buf.push(EVENT_MARKER);
                    buf.extend_from_slice(&p.proc.raw().to_be_bytes());
                    put_frame(&mut buf, start, |payload| put_event_kind(payload, &e.kind));
                }
            }
        }

        let start = buf.len();
        buf.push(SYNC_MARKER);
        put_frame(&mut buf, start, |sync| {
            sync.extend_from_slice(&(self.sync_order.len() as u32).to_be_bytes());
            for s in &self.sync_order {
                put_sync_entry(sync, s);
            }
        });
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

/// Reads the magic and checks that the format version is the one this
/// decoder reads: version 1 files (no checksums) are refused like any
/// other unknown version.
fn check_magic_and_version(r: &mut ByteReader<'_>) -> Result<(), DecodeError> {
    if r.take(4, "magic")? != b"WMRD" {
        return Err(DecodeError::new(0, "bad magic (not a wmrd trace)"));
    }
    let version = r.u16("format version")?;
    if version != BINARY_FORMAT_VERSION {
        return Err(DecodeError::new(4, format!("unsupported version {version}")));
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
    let mut r = ByteReader::new(data);
    check_magic_and_version(&mut r)?;
    let bytes_total = data.len();

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
    let mut h = r.frame(r.offset(), MAX_SECTION_BYTES, "header")?;
    let program = h.opt_str("program")?;
    let model = h.opt_str("model")?;
    let seed = h.opt_u64("seed")?;
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
    r.marker(EVENT_MARKER, "event record marker")?;
    let proc_raw = r.u16("event record processor")?;
    let mut p = r.frame(start, MAX_EVENT_BYTES, "event record")?;
    if proc_raw as usize >= num_procs {
        return Err(DecodeError::new(
            start,
            format!("event record for processor {proc_raw} outside the header's {num_procs}"),
        ));
    }
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
    r.marker(SYNC_MARKER, "sync section marker")?;
    let mut s = r.frame(start, MAX_SECTION_BYTES, "sync section")?;
    let n = s.u32("sync-order count")?;
    if n != declared {
        return Err(s.err(format!("sync-order count {n} disagrees with header ({declared})")));
    }
    if n as usize > s.remaining() / SYNC_ENTRY_BYTES {
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
            put_access_kind(buf, s.kind);
            put_sync_role(buf, s.role);
            buf.extend_from_slice(&s.value.get().to_be_bytes());
            buf.extend_from_slice(&s.global_seq.to_be_bytes());
            put_opt_op_id(buf, s.observed_release);
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
    put_access_kind(buf, s.kind);
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
            let op = r.op_id()?;
            let loc = Location::new(r.u32("sync location")?);
            let kind = r.access_kind("sync kind")?;
            let role = r.sync_role("sync role")?;
            let value = Value::new(r.i64("sync value")?);
            let global_seq = r.u64("sync global seq")?;
            let observed_release = r.opt_op_id("observed-release")?;
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
            let first_op = r.op_id()?;
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
    let kind = r.access_kind("sync-order kind")?;
    Ok(SyncOrderEntry { global_seq, event: EventId::new(proc, index), loc, kind })
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
    use crate::{SyncRole, TraceBuilder, TraceSink};

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
        assert_eq!(ByteReader::new(&b[4..]).u16("version").unwrap(), BINARY_FORMAT_VERSION);
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
        let first_record = frames(&b)[1].0;
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

    /// The `(start, crc_at)` span of every frame of a v2 file, in file
    /// order: the header, each event record, the sync section. The
    /// CRC-32 at `crc_at` covers `start..crc_at`.
    fn frames(b: &[u8]) -> Vec<(usize, usize)> {
        let mut r = ByteReader::new(b);
        r.take(6, "magic and version").unwrap();
        let mut spans = Vec::new();
        while !r.is_empty() {
            let start = r.offset();
            let fixed = match b[start] {
                _ if start == 6 => 0,
                EVENT_MARKER => 3,
                _ => 1,
            };
            r.take(fixed, "marker and fixed fields").unwrap();
            r.frame(start, u32::MAX, "frame").unwrap();
            spans.push((start, r.offset() - 4));
        }
        spans
    }

    /// Writes `bytes` at `at` and re-seals the frame holding `at` with a
    /// valid CRC-32, so only the decoder's field checks can object.
    fn patch(b: &mut [u8], at: usize, bytes: &[u8]) {
        let (start, crc_at) = frames(b).into_iter().find(|&(s, c)| s <= at && at < c).unwrap();
        b[at..at + bytes.len()].copy_from_slice(bytes);
        let crc = crate::crc32::crc32(&b[start..crc_at]);
        b[crc_at..crc_at + 4].copy_from_slice(&crc.to_be_bytes());
    }

    /// Each 0/1 byte of a v2 trace that holds anything else is refused
    /// at its own offset, under valid checksums.
    #[test]
    fn flag_bytes_other_than_zero_or_one_are_refused_at_their_offset() {
        let mut t = sample();
        t.meta.seed = None;
        let b = t.to_binary();
        let spans = frames(&b);
        // Header payload: the optional strings "sample" and "SC", then
        // the seed flag.
        let seed_flag = 6 + 4 + (4 + 6) + (4 + 2);
        // Records run round-robin by depth: P0.e0, P1.e0 (the acquire),
        // P0.e1 (the release), P1.e1. A sync payload starts after the
        // 7-byte record head: tag, op id, location, kind, role, value,
        // global seq, observed-release flag.
        let sync_kind = spans[2].0 + 7 + 1 + 6 + 4;
        let observed_flag = spans[3].0 + 7 + 1 + 6 + 4 + 1 + 1 + 8 + 8;
        // Sync section payload: a count, then entries ending in their
        // kind; the second entry is the acquire's.
        let order_kind = spans[5].0 + 5 + 4 + 2 * SYNC_ENTRY_BYTES - 1;
        for (at, what, v) in [
            (seed_flag, "seed flag", 2),
            (sync_kind, "sync kind", 2),
            (observed_flag, "observed-release flag", 7),
            (order_kind, "sync-order kind", 7),
        ] {
            assert_eq!(b[at], 0, "{what} must start as 0");
            let mut hurt = b.clone();
            patch(&mut hurt, at, &[v]);
            match TraceSet::from_binary(&hurt) {
                Err(TraceError::Decode(e)) => {
                    assert_eq!((e.offset, e.reason), (at, format!("bad {what} {v}")));
                }
                other => panic!("{what} {v} was not refused: {other:?}"),
            }
        }
    }

    /// A header or sync-section length of `u32::MAX` under a valid
    /// checksum is refused at the section's first byte, before the
    /// payload is taken.
    #[test]
    fn oversized_section_lengths_are_refused_at_the_frame_start() {
        let t = sample();
        let b = t.to_binary();
        let spans = frames(&b);
        let (header, sync) = (spans[0].0, spans[spans.len() - 1].0);
        for (start, len_at, what, recovered) in
            [(header, header, "header", 0), (sync, sync + 1, "sync section", t.num_events())]
        {
            let mut hurt = b.clone();
            patch(&mut hurt, len_at, &u32::MAX.to_be_bytes());
            match TraceSet::from_binary(&hurt) {
                Err(TraceError::Decode(e)) => assert_eq!(
                    (e.offset, e.reason),
                    (start, format!("oversized {what} length {}", u32::MAX))
                ),
                other => panic!("{what} length was not refused: {other:?}"),
            }
            let s = TraceSet::salvage_binary(&hurt).unwrap();
            assert_eq!(s.failure.as_ref().map(|e| e.offset), Some(start), "{what}");
            assert_eq!(s.events_recovered(), recovered, "{what}");
        }
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
