//! Tentpole cross-check for online detection: the incremental
//! [`StreamDetector`] — epoch-compressed, fed operation records in
//! arbitrary chunks — reports exactly the race identities the
//! post-mortem analysis finds on the reassembled trace. Checked over
//! every catalog workload, several seeds, both pairing policies, and
//! several chunk granularities, because the detector's fast path
//! (exclusive epochs) and slow path (shared class tables) partition
//! the inputs in ways a single workload would not cover.

use wmrd_core::{event_race_keys, PairingPolicy, PostMortem, StreamDetector};
use wmrd_progs::catalog;
use wmrd_sim::{run_weak_hw, Fidelity, HwImpl, MemoryModel, Program, RandomWeakSched, RunConfig};
use wmrd_trace::{StreamDecoder, StreamWriter, TraceBuilder};

/// One weak execution captured as operation-granular `WMRS` bytes.
fn wmrs_bytes(program: &Program, hw: HwImpl, seed: u64) -> Vec<u8> {
    let mut sched = RandomWeakSched::new(seed, 0.3);
    let mut writer = StreamWriter::new(Vec::new(), program.num_procs());
    run_weak_hw(
        hw,
        program,
        MemoryModel::Wo,
        Fidelity::Conditioned,
        &mut sched,
        &mut writer,
        RunConfig::default(),
    )
    .unwrap();
    writer.finish().unwrap()
}

/// Streams `bytes` through decoder + detector in `chunk`-sized pieces
/// while reassembling the trace, then asserts the online race-key set
/// equals the post-mortem one.
fn assert_streamed_equals_postmortem(
    name: &str,
    bytes: &[u8],
    pairing: PairingPolicy,
    chunk: usize,
) {
    let mut decoder = StreamDecoder::new();
    let mut detector = StreamDetector::new(0, pairing);
    let mut builder = TraceBuilder::new(0);
    let mut fed = 0u64;
    for part in bytes.chunks(chunk) {
        let mut records = Vec::new();
        decoder.push(part, &mut records).unwrap();
        for r in &records {
            r.apply(&mut builder);
        }
        detector.feed(&records);
        fed += records.len() as u64;
    }
    decoder.finish().unwrap();
    assert_eq!(detector.events(), fed, "{name}: detector event accounting drifted");

    let trace = builder.finish();
    let report = PostMortem::new(&trace).pairing(pairing).analyze().unwrap();
    let postmortem = event_race_keys(&report.races, &trace);
    assert_eq!(
        detector.race_keys(),
        &postmortem,
        "{name}: online race keys diverged from post-mortem ({pairing:?}, chunk {chunk})"
    );
}

/// The headline equivalence, swept across the whole catalog. Chunk
/// sizes include one that splits the 6-byte header and every record
/// (7), a mid-size that splits some records (256), and one covering
/// the entire stream.
#[test]
fn streamed_race_keys_equal_postmortem_across_the_catalog() {
    let entries = catalog::all();
    assert!(entries.len() >= 17, "catalog shrank to {} entries", entries.len());
    for entry in &entries {
        for seed in 0..3u64 {
            let bytes = wmrs_bytes(&entry.program, HwImpl::StoreBuffer, seed);
            for pairing in [PairingPolicy::ByRole, PairingPolicy::AllSync] {
                for chunk in [7usize, 256, usize::MAX] {
                    assert_streamed_equals_postmortem(entry.name, &bytes, pairing, chunk);
                }
            }
        }
    }
}

/// The other weak-hardware style drives different interleavings into
/// the detector; the equivalence must not depend on the store-buffer
/// shape of reordering.
#[test]
fn streamed_race_keys_equal_postmortem_under_invalidation_queues() {
    for entry in [catalog::fig1a(), catalog::work_queue_buggy(), catalog::peterson_racy()] {
        for seed in 0..3u64 {
            let bytes = wmrs_bytes(&entry.program, HwImpl::InvalQueue, seed);
            assert_streamed_equals_postmortem(entry.name, &bytes, PairingPolicy::ByRole, 64);
        }
    }
}

/// Online means online: a race is reported by `feed` the moment its
/// second access arrives, so a strict prefix of the stream already
/// carries the finding — there is no end-of-stream settlement step.
#[test]
fn races_surface_the_moment_the_second_access_arrives() {
    let entry = catalog::fig1a();
    let bytes = wmrs_bytes(&entry.program, HwImpl::StoreBuffer, 2);
    let mut decoder = StreamDecoder::new();
    let mut records = Vec::new();
    decoder.push(&bytes, &mut records).unwrap();
    decoder.finish().unwrap();

    let mut detector = StreamDetector::new(0, PairingPolicy::ByRole);
    let mut first_hit = None;
    for (i, r) in records.iter().enumerate() {
        let new = detector.feed(std::slice::from_ref(r));
        if first_hit.is_none() && !new.is_empty() {
            first_hit = Some(i);
        }
    }
    let hit = first_hit.expect("fig1a under WO with seed 2 is a known racy execution");

    // Replaying exactly that prefix reproduces the mid-stream finding.
    let mut prefix = StreamDetector::new(0, PairingPolicy::ByRole);
    prefix.feed(&records[..=hit]);
    assert!(
        !prefix.race_keys().is_empty(),
        "the prefix that triggered the race must already contain it"
    );
}

/// One `push` is linear in its length: a whole multi-megabyte stream
/// in one chunk (as one large `FEED` delivers it) decodes to the same
/// records as a 1-byte-chunk decode, well within a time bound that a
/// per-record buffer shift (quadratic in the chunk) would blow by
/// an order of magnitude at this size.
#[test]
fn one_large_push_decodes_in_linear_time() {
    use wmrd_trace::{AccessKind, Location, ProcId, SyncRole, TraceSink, Value};
    const RECORDS: u32 = 400_000;
    let mut writer = StreamWriter::new(Vec::new(), 4);
    let mut last_release = None;
    for i in 0..RECORDS {
        let proc = ProcId::new((i % 4) as u16);
        let loc = Location::new(i % 64);
        if i % 97 == 0 {
            last_release = Some(writer.sync_access(
                proc,
                loc,
                AccessKind::Write,
                SyncRole::Release,
                Value::ZERO,
                None,
            ));
        } else if i % 89 == 0 {
            writer.sync_access(
                proc,
                loc,
                AccessKind::Read,
                SyncRole::Acquire,
                Value::ZERO,
                last_release,
            );
        } else {
            writer.data_access(proc, loc, AccessKind::Write, Value::new(i64::from(i)), None);
        }
    }
    let bytes = writer.finish().unwrap();
    assert!(bytes.len() > 9_000_000, "{} bytes", bytes.len());

    let mut bytewise = StreamDecoder::new();
    let mut expected = Vec::new();
    for byte in bytes.chunks(1) {
        bytewise.push(byte, &mut expected).unwrap();
    }
    bytewise.finish().unwrap();
    assert_eq!(expected.len(), RECORDS as usize);

    let mut decoder = StreamDecoder::new();
    let mut records = Vec::new();
    let started = std::time::Instant::now();
    decoder.push(&bytes, &mut records).unwrap();
    let took = started.elapsed();
    decoder.finish().unwrap();
    assert_eq!(records, expected);
    assert!(
        took < std::time::Duration::from_secs(5),
        "one push of {} bytes took {took:?}",
        bytes.len()
    );
}
