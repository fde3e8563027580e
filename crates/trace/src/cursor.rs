//! The one frame-and-field codec of the checksummed byte formats: the
//! v2 trace file, the `WMRS` record stream and the catalog journal all
//! write through the `put_*` functions here and read through
//! [`ByteReader`].
//!
//! A *frame* is a marker and fixed fields, a `u32` payload length that
//! is capped before anything is taken, the payload, and a CRC-32 over
//! the whole frame ([`put_frame`], [`ByteReader::frame`]; [`put_crc`]
//! and [`ByteReader::check_crc`] for frames without a length). Fields
//! come in put/get pairs. No read can panic or over-allocate on corrupt
//! input, a byte that must be 0 or 1 is refused otherwise, and every
//! failure carries the absolute byte offset where it was detected.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]

use std::fmt::Display;

use crate::crc32::crc32;
use crate::error::DecodeError;
use crate::{AccessKind, OpId, ProcId, SyncRole};

/// Bytes of an encoded [`OpId`].
pub(crate) const OP_ID_BYTES: usize = 6;

/// A cursor over `buf` whose position is reported relative to `base`
/// (so sub-readers over an embedded section still report absolute file
/// offsets).
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    /// The unread tail of `buf`.
    rest: &'a [u8],
    base: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor over `buf`, reporting offsets from 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader::with_base(buf, 0)
    }

    /// A cursor over `buf` whose reported offsets start at `base`
    /// (the absolute position of `buf[0]` in the enclosing input).
    pub fn with_base(buf: &'a [u8], base: usize) -> Self {
        ByteReader { buf, rest: buf, base }
    }

    fn pos(&self) -> usize {
        self.buf.len() - self.rest.len()
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// `true` if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// An error at the current position.
    pub fn err(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError::new(self.offset(), reason)
    }

    /// Consumes `n` bytes.
    pub fn take(&mut self, n: usize, what: impl Display) -> Result<&'a [u8], DecodeError> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            return Err(short(self.offset(), n, self.remaining(), what));
        };
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: impl Display) -> Result<[u8; N], DecodeError> {
        let Some((&head, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(short(self.offset(), N, self.remaining(), what));
        };
        self.rest = rest;
        Ok(head)
    }

    /// Consumes one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        Ok(u8::from_be_bytes(self.array(what)?))
    }

    /// Consumes a big-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.array(what)?))
    }

    /// Consumes a big-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array(what)?))
    }

    /// Consumes a big-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array(what)?))
    }

    /// Consumes a big-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, DecodeError> {
        Ok(i64::from_be_bytes(self.array(what)?))
    }

    /// Consumes a marker byte, refusing any other value at its offset.
    pub fn marker(&mut self, expected: u8, what: &str) -> Result<(), DecodeError> {
        let at = self.offset();
        match self.u8(what)? {
            b if b == expected => Ok(()),
            b => Err(bad(at, what, format_args!("{b:#04x}"))),
        }
    }

    /// Consumes a CRC-32 and checks it against the bytes from absolute
    /// offset `start` up to it; a mismatch is refused at `start`.
    pub fn check_crc(&mut self, start: usize, what: &str) -> Result<(), DecodeError> {
        let (from, to) = (start.saturating_sub(self.base), self.pos());
        let computed = crc32(self.buf.get(from.min(to)..to).unwrap_or_default());
        if u32::from_be_bytes(self.array(format_args!("{what} checksum"))?) != computed {
            return Err(DecodeError::new(start, format!("{what} checksum mismatch")));
        }
        Ok(())
    }

    /// Reads the rest of a frame [`put_frame`] wrote from absolute
    /// offset `start`: the payload length (refused at `start` above
    /// `cap`), the payload and the checksum. Returns a reader over the
    /// payload that reports absolute offsets.
    pub fn frame(&mut self, start: usize, cap: u32, what: &str) -> Result<Self, DecodeError> {
        let len = u32::from_be_bytes(self.array(format_args!("{what} length"))?);
        if len > cap {
            return Err(DecodeError::new(start, format!("oversized {what} length {len}")));
        }
        let base = self.offset();
        let payload = self.take(len as usize, format_args!("{what} payload"))?;
        self.check_crc(start, what)?;
        Ok(ByteReader::with_base(payload, base))
    }

    /// Consumes a flag ([`put_flag`]); a byte other than 0 or 1 is
    /// refused at its offset.
    pub fn flag(&mut self, what: impl Display) -> Result<bool, DecodeError> {
        let at = self.offset();
        match self.array(&what)? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(bad(at, what, b)),
        }
    }

    /// Consumes an access kind ([`put_access_kind`]).
    pub fn access_kind(&mut self, what: &str) -> Result<AccessKind, DecodeError> {
        Ok(if self.flag(what)? { AccessKind::Write } else { AccessKind::Read })
    }

    /// Consumes a sync role ([`put_sync_role`]).
    pub(crate) fn sync_role(&mut self, what: &str) -> Result<SyncRole, DecodeError> {
        let at = self.offset();
        match self.u8(what)? {
            0 => Ok(SyncRole::Release),
            1 => Ok(SyncRole::Acquire),
            2 => Ok(SyncRole::None),
            b => Err(bad(at, what, b)),
        }
    }

    /// Consumes an op id ([`put_op_id`]).
    pub(crate) fn op_id(&mut self) -> Result<OpId, DecodeError> {
        let proc = ProcId::new(self.u16("op processor")?);
        Ok(OpId::new(proc, self.u32("op seq")?))
    }

    /// Consumes an optional op id ([`put_opt_op_id`]) behind the flag
    /// `"{what} flag"`.
    pub(crate) fn opt_op_id(&mut self, what: &str) -> Result<Option<OpId>, DecodeError> {
        Ok(if self.flag(format_args!("{what} flag"))? { Some(self.op_id()?) } else { None })
    }

    /// Consumes an optional `u64` ([`put_opt_u64`]) behind the flag
    /// `"{what} flag"`.
    pub fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, DecodeError> {
        Ok(if self.flag(format_args!("{what} flag"))? { Some(self.u64(what)?) } else { None })
    }

    /// Consumes an optional string ([`put_opt_str`]), checking its
    /// length against the input before copying it.
    pub fn opt_str(&mut self, what: &str) -> Result<Option<String>, DecodeError> {
        let len = self.u32(what)?;
        if len == u32::MAX {
            return Ok(None);
        }
        let at = self.offset();
        let bytes = self.take(len as usize, what)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(Some(s.to_string())),
            Err(_) => Err(DecodeError::new(at, format!("{what} is not UTF-8"))),
        }
    }
}

/// The error for a read of `n` bytes at `at` with only `have` left.
#[cold]
fn short(at: usize, n: usize, have: usize, what: impl Display) -> DecodeError {
    DecodeError::new(at, format!("input ends inside {what} (need {n} bytes, have {have})"))
}

/// The error for a byte `b` at `at` that the field does not allow.
#[cold]
fn bad(at: usize, what: impl Display, b: impl Display) -> DecodeError {
    DecodeError::new(at, format!("bad {what} {b}"))
}

/// Closes a frame that opened at `start`: appends a big-endian CRC-32
/// over `buf[start..]`.
pub fn put_crc(buf: &mut Vec<u8>, start: usize) {
    let crc = crc32(buf.get(start..).unwrap_or_default());
    buf.extend_from_slice(&crc.to_be_bytes());
}

/// Appends the rest of a frame that opened at `start` (its marker and
/// fixed fields written): a `u32` payload length, the payload `write`
/// appends, and [`put_crc`]. Returns the payload length.
pub fn put_frame(buf: &mut Vec<u8>, start: usize, write: impl FnOnce(&mut Vec<u8>)) -> usize {
    let len_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    write(buf);
    let len = buf.len() - len_at - 4;
    if let Some(slot) = buf.get_mut(len_at..len_at + 4) {
        slot.copy_from_slice(&(len as u32).to_be_bytes());
    }
    put_crc(buf, start);
    len
}

/// Appends a flag: one byte, 0 or 1.
pub fn put_flag(buf: &mut Vec<u8>, flag: bool) {
    buf.push(u8::from(flag));
}

/// Appends an access kind as a flag (1 for a write).
pub fn put_access_kind(buf: &mut Vec<u8>, kind: AccessKind) {
    put_flag(buf, kind.is_write());
}

/// Appends a sync role: one byte, 0 release, 1 acquire, 2 none.
pub(crate) fn put_sync_role(buf: &mut Vec<u8>, role: SyncRole) {
    buf.push(match role {
        SyncRole::Release => 0,
        SyncRole::Acquire => 1,
        SyncRole::None => 2,
    });
}

/// Appends an op id: its `u16` processor, then its `u32` sequence number.
pub(crate) fn put_op_id(buf: &mut Vec<u8>, op: OpId) {
    buf.extend_from_slice(&op.proc.raw().to_be_bytes());
    buf.extend_from_slice(&op.seq.to_be_bytes());
}

/// Appends an optional op id: a flag, then the op id when present.
pub(crate) fn put_opt_op_id(buf: &mut Vec<u8>, op: Option<OpId>) {
    put_flag(buf, op.is_some());
    if let Some(op) = op {
        put_op_id(buf, op);
    }
}

/// Appends an optional `u64`: a flag, then the value when present.
pub fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    put_flag(buf, v.is_some());
    if let Some(v) = v {
        buf.extend_from_slice(&v.to_be_bytes());
    }
}

/// Appends an optional string: a big-endian `u32` byte length (`u32::MAX`
/// for absent), then the UTF-8 bytes.
pub fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        None => buf.extend_from_slice(&u32::MAX.to_be_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_track_offsets() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05];
        let mut r = ByteReader::new(&data);
        assert_eq!(r.u8("a").unwrap(), 1);
        assert_eq!(r.u16("b").unwrap(), 0x0203);
        assert_eq!(r.offset(), 3);
        assert_eq!(r.remaining(), 2);
        let e = r.u32("c").unwrap_err();
        assert_eq!(e.offset, 3, "error pinned where the read started");
        assert!(e.reason.contains('c'));
        // The failed read consumed nothing.
        assert_eq!(r.take(2, "rest").unwrap(), &[0x04, 0x05]);
        assert!(r.is_empty());
    }

    #[test]
    fn base_offsets_are_absolute() {
        let section = [0xAA, 0xBB];
        let mut r = ByteReader::with_base(&section, 100);
        assert_eq!(r.offset(), 100);
        r.u8("x").unwrap();
        assert_eq!(r.err("boom").offset, 101);
        r.u8("x").unwrap();
        assert_eq!(r.u8("past end").unwrap_err().offset, 102);
    }

    #[test]
    fn wide_reads_are_big_endian() {
        let data = [0xFF; 8];
        assert_eq!(ByteReader::new(&data).u64("v").unwrap(), u64::MAX);
        assert_eq!(ByteReader::new(&data).i64("v").unwrap(), -1);
    }

    #[test]
    fn fields_round_trip() {
        let op = OpId::new(ProcId::new(3), 70_000);
        let mut buf = Vec::new();
        put_flag(&mut buf, true);
        put_access_kind(&mut buf, AccessKind::Read);
        for role in [SyncRole::Release, SyncRole::Acquire, SyncRole::None] {
            put_sync_role(&mut buf, role);
        }
        put_op_id(&mut buf, op);
        put_opt_op_id(&mut buf, None);
        put_opt_op_id(&mut buf, Some(op));
        put_opt_u64(&mut buf, Some(u64::MAX));
        put_opt_u64(&mut buf, None);
        let mut r = ByteReader::new(&buf);
        assert!(r.flag("f").unwrap());
        assert_eq!(r.access_kind("k").unwrap(), AccessKind::Read);
        for role in [SyncRole::Release, SyncRole::Acquire, SyncRole::None] {
            assert_eq!(r.sync_role("r").unwrap(), role);
        }
        assert_eq!(r.op_id().unwrap(), op);
        assert_eq!(r.opt_op_id("o").unwrap(), None);
        assert_eq!(r.opt_op_id("o").unwrap(), Some(op));
        assert_eq!(r.opt_u64("seed").unwrap(), Some(u64::MAX));
        assert_eq!(r.opt_u64("seed").unwrap(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn enum_bytes_out_of_range_are_refused_at_their_offset() {
        let data = [9, 2, 3, 7];
        let mut r = ByteReader::with_base(&data, 10);
        let e = r.flag("amend flag").unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (10, "bad amend flag 9"));
        let e = r.access_kind("sync kind").unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (11, "bad sync kind 2"));
        let e = r.sync_role("sync role").unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (12, "bad sync role 3"));
        let e = r.opt_u64("seed").unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (13, "bad seed flag 7"));
    }

    #[test]
    fn frames_round_trip_and_check_cap_and_checksum() {
        let mut buf = vec![0xEE];
        buf.push(0xCA);
        let len = put_frame(&mut buf, 1, |p| p.extend_from_slice(b"abc"));
        assert_eq!(len, 3);
        assert_eq!(buf.len(), 2 + 4 + 3 + 4);
        let read = |buf: &[u8], cap| {
            let mut r = ByteReader::new(buf);
            r.u8("lead").unwrap();
            r.marker(0xCA, "record marker")?;
            let mut p = r.frame(1, cap, "record")?;
            assert!(r.is_empty());
            assert_eq!(p.offset(), 6, "payload offsets are absolute");
            Ok::<_, DecodeError>(p.take(3, "body")?.to_vec())
        };
        assert_eq!(read(&buf, 3).unwrap(), b"abc");
        let e = read(&buf, 2).unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (1, "oversized record length 3"));
        let mut hurt = buf.clone();
        hurt[7] ^= 1;
        let e = read(&hurt, 3).unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (1, "record checksum mismatch"));
        let e = read(&buf[..buf.len() - 1], 3).unwrap_err();
        assert_eq!(
            (e.offset, e.reason.as_str()),
            (9, "input ends inside record checksum (need 4 bytes, have 3)")
        );
        hurt[1] = 0xCB;
        let e = read(&hurt, 3).unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (1, "bad record marker 0xcb"));
    }

    #[test]
    fn optional_strings_round_trip_and_reject_bad_utf8() {
        let mut buf = Vec::new();
        put_opt_str(&mut buf, Some("fig1a"));
        put_opt_str(&mut buf, None);
        buf.extend_from_slice(&[0, 0, 0, 1, 0xFF]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.opt_str("program").unwrap().as_deref(), Some("fig1a"));
        assert_eq!(r.opt_str("model").unwrap(), None);
        let e = r.opt_str("digest").unwrap_err();
        assert_eq!((e.offset, e.reason.as_str()), (buf.len() - 1, "digest is not UTF-8"));
    }
}
