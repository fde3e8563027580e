//! Critical-section recovery from the recorded synchronization skeleton.
//!
//! The WCP-style order (see [`crate::order`]) weakens hb1 by keeping a
//! release → acquire edge only when the two critical sections it joins
//! contain conflicting accesses. That requires knowing, per processor
//! and per lock location, which events lie *inside* a critical section —
//! information that is fully recoverable from a trace: an acquiring sync
//! read of `s` opens a section on `(proc, s)`, the next releasing sync
//! write to `s` by the same processor closes it, and every *data* event
//! between the two contributes its READ/WRITE sets (sync accesses can
//! never be a race's conflicting pair, so they are excluded).

use std::collections::HashMap;

use wmrd_trace::{AccessKind, Event, EventId, LocSet, Location, ProcId, TraceSet};

/// One recovered critical section: the span of a processor's event
/// sequence between an acquiring read of a lock location and the
/// matching releasing write, with the accesses performed inside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalSection {
    /// The processor that held the section.
    pub proc: ProcId,
    /// The lock location (the synchronization variable acquired).
    pub lock: Location,
    /// The acquiring sync read that opened the section.
    pub acquire: EventId,
    /// The releasing sync write that closed it; `None` if the processor
    /// never released (the section extends to the end of the trace).
    pub release: Option<EventId>,
    /// Locations read by *data* events strictly inside the section
    /// (sync accesses, including the lock word's own, are excluded).
    pub reads: LocSet,
    /// Locations written by data events strictly inside the section.
    pub writes: LocSet,
}

impl CriticalSection {
    /// `true` iff the accesses inside `self` conflict with the accesses
    /// inside `other`: some location is written by one section and
    /// accessed by the other.
    pub fn conflicts_with(&self, other: &CriticalSection) -> bool {
        self.writes.intersects(&other.reads)
            || self.writes.intersects(&other.writes)
            || other.writes.intersects(&self.reads)
    }
}

fn is_acquire_read(event: &Event) -> Option<Location> {
    let s = event.as_sync()?;
    (s.kind == AccessKind::Read && s.role.is_acquire()).then_some(s.loc)
}

fn is_release_write(event: &Event) -> Option<Location> {
    let s = event.as_sync()?;
    (s.kind == AccessKind::Write && s.role.is_release()).then_some(s.loc)
}

/// Recovers every critical section of a trace, in deterministic order
/// (processors ascending, then opening position).
///
/// Sections may nest (different locks) and re-enter (the same lock
/// acquired again later); a releasing write closes the *innermost* open
/// section on its location. A releasing write with no open section on
/// its location — a bare handoff release like the paper's Figure 1b —
/// opens nothing and closes nothing: the order layer treats its edges
/// as unconditional.
///
/// An acquiring read on a lock that already has an open, unreleased
/// section on the same processor is a spin *retry* (a `Test&Set` that
/// found the lock held and looped): it restarts that section rather
/// than opening a second one, so the section's span begins at the final
/// attempt — the one that actually took the lock. Without this, every
/// failed spin attempt would leave a phantom section open to the end of
/// the trace, polluting its footprint with everything the processor
/// does afterwards.
pub fn critical_sections(trace: &TraceSet) -> Vec<CriticalSection> {
    let mut out: Vec<CriticalSection> = Vec::new();
    for proc_trace in trace.processors() {
        // Indexes into `out` of this processor's still-open sections, in
        // opening order; `by_lock` tracks the innermost open section per
        // lock location.
        let mut open: Vec<usize> = Vec::new();
        let mut by_lock: HashMap<Location, Vec<usize>> = HashMap::new();
        for event in proc_trace.events() {
            if let Some(lock) = is_release_write(event) {
                // Close the innermost open section on this lock before
                // accumulating, so a section never contains its own
                // release; outer sections (and a bare release's
                // enclosing sections) still see the lock-word write.
                if let Some(idx) = by_lock.get_mut(&lock).and_then(Vec::pop) {
                    out[idx].release = Some(event.id);
                    open.retain(|&i| i != idx);
                }
            }
            // Only *data* accesses contribute to a section's footprint:
            // race candidates are data/data pairs, so synchronization
            // accesses inside the span (a `Test&Set`'s write of the lock
            // word, a nested lock's acquire/release) can never be the
            // conflicting pair the WCP rule is probing for.
            if let Some(c) = event.as_computation() {
                for &idx in &open {
                    let section: &mut CriticalSection = &mut out[idx];
                    section.reads.union_with(&c.reads);
                    section.writes.union_with(&c.writes);
                }
            }
            if let Some(lock) = is_acquire_read(event) {
                if let Some(&idx) = by_lock.get(&lock).and_then(|stack| stack.last()) {
                    // Spin retry: restart the still-open section at this
                    // attempt instead of stacking a phantom one.
                    let section = &mut out[idx];
                    section.acquire = event.id;
                    section.reads = LocSet::new();
                    section.writes = LocSet::new();
                } else {
                    let idx = out.len();
                    out.push(CriticalSection {
                        proc: event.id.proc,
                        lock,
                        acquire: event.id,
                        release: None,
                        reads: LocSet::new(),
                        writes: LocSet::new(),
                    });
                    open.push(idx);
                    by_lock.entry(lock).or_default().push(idx);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_trace::{SyncRole, TraceBuilder, TraceSink, Value};

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    fn l(a: u32) -> Location {
        Location::new(a)
    }

    /// P0: acquire(s), write x, release(s).
    #[test]
    fn recovers_a_simple_section() {
        let mut b = TraceBuilder::new(1);
        let s = l(9);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        let cs = critical_sections(&b.finish());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].lock, s);
        assert_eq!(cs[0].acquire, EventId::new(p(0), 0));
        assert_eq!(cs[0].release, Some(EventId::new(p(0), 2)));
        assert!(cs[0].writes.contains(l(0)));
        assert!(cs[0].reads.is_empty());
        assert!(!cs[0].writes.contains(s), "the lock word itself is excluded");
    }

    /// A bare release (no enclosing acquire) produces no section.
    #[test]
    fn bare_release_opens_nothing() {
        let mut b = TraceBuilder::new(1);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), l(9), AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        assert!(critical_sections(&b.finish()).is_empty());
    }

    /// An acquire never released still collects the tail of the trace.
    #[test]
    fn unreleased_section_extends_to_the_end() {
        let mut b = TraceBuilder::new(1);
        b.sync_access(p(0), l(9), AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(3), AccessKind::Read, Value::ZERO, None);
        let cs = critical_sections(&b.finish());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].release, None);
        assert!(cs[0].reads.contains(l(3)));
    }

    /// Nested sections on different locks each collect the inner access.
    #[test]
    fn nested_sections_both_collect() {
        let mut b = TraceBuilder::new(1);
        let (s1, s2) = (l(8), l(9));
        b.sync_access(p(0), s1, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.sync_access(p(0), s2, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), s2, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(0), s1, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        let cs = critical_sections(&b.finish());
        assert_eq!(cs.len(), 2);
        assert!(cs.iter().all(|c| c.writes.contains(l(0))), "{cs:?}");
        assert!(cs.iter().all(|c| c.release.is_some()));
    }

    /// Re-entering the same lock yields two disjoint sections.
    #[test]
    fn reentry_yields_two_sections() {
        let mut b = TraceBuilder::new(1);
        let s = l(9);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        let cs = critical_sections(&b.finish());
        assert_eq!(cs.len(), 2);
        assert!(cs[0].writes.contains(l(0)) && !cs[0].writes.contains(l(1)));
        assert!(cs[1].writes.contains(l(1)) && !cs[1].writes.contains(l(0)));
    }

    /// Failed `Test&Set` spin attempts restart the pending section
    /// rather than stacking phantoms: only the winning attempt opens
    /// the section, and its body excludes pre-acquisition accesses.
    #[test]
    fn spin_retries_restart_the_section() {
        let mut b = TraceBuilder::new(1);
        let s = l(9);
        // Two failed attempts (lock observed held), then the winner.
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::new(1), None);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::new(1), None);
        b.sync_access(p(0), s, AccessKind::Read, SyncRole::Acquire, Value::ZERO, None);
        b.data_access(p(0), l(0), AccessKind::Write, Value::new(1), None);
        b.sync_access(p(0), s, AccessKind::Write, SyncRole::Release, Value::ZERO, None);
        b.data_access(p(0), l(1), AccessKind::Read, Value::ZERO, None);
        let cs = critical_sections(&b.finish());
        assert_eq!(cs.len(), 1, "{cs:?}");
        assert_eq!(cs[0].acquire, EventId::new(p(0), 2), "section starts at the winning attempt");
        assert_eq!(cs[0].release, Some(EventId::new(p(0), 4)));
        assert!(cs[0].writes.contains(l(0)));
        assert!(!cs[0].reads.contains(l(1)), "post-release accesses stay outside");
    }

    #[test]
    fn conflict_predicate() {
        let mk = |reads: &[u32], writes: &[u32]| CriticalSection {
            proc: p(0),
            lock: l(9),
            acquire: EventId::new(p(0), 0),
            release: None,
            reads: reads.iter().map(|&a| l(a)).collect(),
            writes: writes.iter().map(|&a| l(a)).collect(),
        };
        assert!(mk(&[], &[1]).conflicts_with(&mk(&[1], &[])), "write-read");
        assert!(mk(&[1], &[]).conflicts_with(&mk(&[], &[1])), "read-write");
        assert!(mk(&[], &[1]).conflicts_with(&mk(&[], &[1])), "write-write");
        assert!(!mk(&[1], &[]).conflicts_with(&mk(&[1], &[])), "read-read is no conflict");
        assert!(!mk(&[], &[1]).conflicts_with(&mk(&[2], &[3])), "disjoint");
    }
}
