//! The post-mortem workflow through actual trace *files*: record an
//! execution, write the trace to disk, read it back in a separate step,
//! and analyze — the paper's two-phase post-mortem pipeline.

use wmrd_core::PostMortem;
use wmrd_progs::{catalog, generate};
use wmrd_sim::{run_sc, run_weak_hw, Fidelity, HwImpl, MemoryModel, RandomWeakSched, RunConfig};
use wmrd_trace::{StreamDecoder, StreamWriter, TraceBuilder, TraceError, TraceSet};

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wmrd-xtest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn record_write_read_analyze_json() {
    let entry = catalog::work_queue_buggy();
    let mut sink = TraceBuilder::new(entry.program.num_procs());
    run_sc(&entry.program, &mut RandomWeakSched::new(3, 0.0), &mut sink, RunConfig::uniform())
        .unwrap();
    let mut trace = sink.finish();
    trace.meta.program = Some(entry.name.into());
    trace.meta.model = Some("SC".into());
    trace.meta.seed = Some(3);

    let path = tmp_dir().join("wq.bin");
    std::fs::write(&path, trace.to_binary()).unwrap();

    // Post-mortem phase: a fresh process would start here.
    let loaded = TraceSet::from_binary(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(loaded, trace);
    let report = PostMortem::new(&loaded).analyze().unwrap();
    assert!(!report.is_race_free());
    assert_eq!(report.meta.program.as_deref(), Some("work-queue-buggy"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_files_roundtrip_weak_traces() {
    let cfg = generate::GenConfig { rogue_fraction: 0.5, ..generate::GenConfig::default() };
    let program = generate::racy(&cfg);
    let mut sink = TraceBuilder::new(program.num_procs());
    let mut sched = RandomWeakSched::new(5, 0.3);
    run_weak_hw(
        HwImpl::StoreBuffer,
        &program,
        MemoryModel::RCsc,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::uniform(),
    )
    .unwrap();
    let trace = sink.finish();

    let path = tmp_dir().join("weak.bin");
    std::fs::write(&path, trace.to_binary()).unwrap();
    let loaded = TraceSet::from_binary(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(loaded, trace);

    // Reports agree regardless of the serialization path taken.
    let direct = PostMortem::new(&trace).analyze().unwrap();
    let via_file = PostMortem::new(&loaded).analyze().unwrap();
    assert_eq!(direct, via_file);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_files_are_rejected_not_misread() {
    let entry = catalog::fig1a();
    let mut sink = TraceBuilder::new(entry.program.num_procs());
    run_sc(&entry.program, &mut RandomWeakSched::new(0, 0.0), &mut sink, RunConfig::uniform())
        .unwrap();
    let trace = sink.finish();

    // Bit-flip every byte position of a small binary trace; decoding must
    // either fail cleanly or produce a trace that still validates — never
    // panic.
    let bin = trace.to_binary();
    for i in 0..bin.len() {
        let mut corrupt = bin.clone();
        corrupt[i] ^= 0xFF;
        match TraceSet::from_binary(&corrupt) {
            Ok(t) => assert!(t.validate().is_ok(), "decoded trace must be valid"),
            Err(e) => {
                assert!(matches!(
                    e,
                    TraceError::Malformed(_) | TraceError::UnknownEvent(_) | TraceError::Decode(_)
                ));
            }
        }
    }

    // Truncations likewise.
    for len in 0..bin.len() {
        assert!(TraceSet::from_binary(&bin[..len]).is_err(), "truncated at {len} must not decode");
    }

    // JSON is not a trace format.
    assert!(TraceSet::from_binary(b"{\"not\": \"a trace\"}").is_err());
}

/// The checked-in corrupt-trace corpus, each file a distinct damage
/// class against the same deterministic base encoding.
fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/corrupt")
}

/// The corpus base: fig1a under the SC scheduler at seed 0 — fully
/// deterministic, so the corpus can be regenerated bit-for-bit.
fn corpus_base() -> TraceSet {
    let entry = catalog::fig1a();
    let mut sink = TraceBuilder::new(entry.program.num_procs());
    run_sc(&entry.program, &mut RandomWeakSched::new(0, 0.0), &mut sink, RunConfig::uniform())
        .unwrap();
    let mut trace = sink.finish();
    trace.meta.program = Some(entry.name.into());
    trace.meta.model = Some("SC".into());
    trace.meta.seed = Some(0);
    trace
}

/// Offset one past the v2 header section (magic + version + framed
/// header payload + CRC).
fn header_end(bin: &[u8]) -> usize {
    let len = u32::from_be_bytes([bin[6], bin[7], bin[8], bin[9]]) as usize;
    6 + 4 + len + 4
}

/// Start offset of the final event record.
fn last_record_start(bin: &[u8]) -> usize {
    let mut pos = header_end(bin);
    let mut last = pos;
    while bin[pos] == 0xE7 {
        last = pos;
        let len = u32::from_be_bytes([bin[pos + 3], bin[pos + 4], bin[pos + 5], bin[pos + 6]]);
        pos += 11 + len as usize;
    }
    last
}

/// Derives the five corpus variants from the base encoding.
fn corpus_variants(bin: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let hdr_end = header_end(bin);
    let flipped_magic = {
        let mut v = bin.to_vec();
        v[0] ^= 0xFF;
        v
    };
    let bad_crc = {
        // The last byte is part of the sync-section CRC; the events
        // themselves stay intact.
        let mut v = bin.to_vec();
        *v.last_mut().unwrap() ^= 0x01;
        v
    };
    let oversized = {
        // The first event record's length field claims 4 GiB.
        let mut v = bin.to_vec();
        v[hdr_end + 3..hdr_end + 7].copy_from_slice(&[0xFF; 4]);
        v
    };
    let mid_cut = bin[..last_record_start(bin) + 5].to_vec();
    vec![
        ("truncated-header.bin", bin[..10].to_vec()),
        ("flipped-magic.bin", flipped_magic),
        ("bad-crc.bin", bad_crc),
        ("oversized-length.bin", oversized),
        ("mid-event-cut.bin", mid_cut),
    ]
}

#[test]
fn corrupt_corpus_matches_its_deterministic_regeneration() {
    // The corpus is derived, not hand-maintained: every checked-in file
    // must equal what `corpus_variants` builds from the deterministic
    // base. Regenerate with WMRD_REGEN_CORPUS=1.
    let dir = corpus_dir();
    let regen = std::env::var_os("WMRD_REGEN_CORPUS").is_some();
    if regen {
        std::fs::create_dir_all(&dir).unwrap();
    }
    for (name, bytes) in corpus_variants(&corpus_base().to_binary()) {
        let path = dir.join(name);
        if regen {
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let on_disk = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{name}: {e} (regenerate with WMRD_REGEN_CORPUS=1)"));
        assert_eq!(on_disk, bytes, "{name} drifted from its construction");
    }
}

#[test]
fn corrupt_corpus_salvage_boundaries_are_golden() {
    let base = corpus_base();
    let bin = base.to_binary();
    let total = base.num_events();
    let base_report = PostMortem::new(&base).analyze().unwrap();

    // Every corpus file fails strict decode with a typed error…
    for (name, bytes) in corpus_variants(&bin) {
        let err =
            TraceSet::from_binary(&bytes).expect_err(&format!("{name} must not decode strictly"));
        assert!(matches!(err, TraceError::Decode(_)), "{name}: {err}");
    }

    // …and salvages to a known boundary.
    let variants = corpus_variants(&bin);
    let by_name = |n: &str| variants.iter().find(|(name, _)| *name == n).unwrap().1.clone();

    // Header gone: nothing to recover by, but still not a panic or a
    // hard error — an empty trace with the failure pinned.
    let s = TraceSet::salvage_binary(&by_name("truncated-header.bin")).unwrap();
    assert!(!s.complete);
    assert_eq!(s.events_recovered(), 0);
    assert_eq!(s.expected, None, "the event-count map died with the header");
    assert_eq!(s.bytes_used, 6);

    // Wrong magic: not a wmrd trace at all — salvage refuses too.
    let err = TraceSet::salvage_binary(&by_name("flipped-magic.bin")).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");

    // Sync-section CRC flipped: every event survives; the sync order is
    // rebuilt from the recovered sync events, so analysis is unharmed.
    let s = TraceSet::salvage_binary(&by_name("bad-crc.bin")).unwrap();
    assert!(!s.complete);
    assert_eq!(s.events_recovered(), total);
    assert_eq!(s.events_lost(), 0);
    let report = PostMortem::new(&s.trace).analyze().unwrap();
    assert_eq!(report.races, base_report.races, "full event recovery ⇒ same races");
    assert_eq!(report.scp, base_report.scp, "… and the same SC prefix");

    // A length field claiming 4 GiB: caught by the record cap at the
    // record's own offset, before any allocation that size.
    let s = TraceSet::salvage_binary(&by_name("oversized-length.bin")).unwrap();
    assert!(!s.complete);
    assert_eq!(s.events_recovered(), 0, "damage hits the very first record");
    assert_eq!(s.expected.as_ref().map(|e| e.iter().sum::<u32>()), Some(total as u32));
    assert_eq!(s.failure.as_ref().unwrap().offset, header_end(&bin));

    // Cut mid-way through the final record: exactly one event is lost,
    // the used-byte count stops at that record's start, and the failure
    // is pinned inside its framing (the cut lands in the length field,
    // 3 bytes past the marker).
    let s = TraceSet::salvage_binary(&by_name("mid-event-cut.bin")).unwrap();
    assert!(!s.complete);
    assert_eq!(s.events_recovered(), total - 1);
    assert_eq!(s.events_lost(), 1);
    assert_eq!(s.bytes_used, last_record_start(&bin));
    assert_eq!(s.failure.as_ref().unwrap().offset, last_record_start(&bin) + 3);
    assert!(s.to_string().contains("salvage boundaries:"), "{s}");
    PostMortem::new(&s.trace).analyze().expect("the salvaged prefix analyzes");
}

#[test]
fn analysis_of_empty_and_single_processor_traces() {
    // Degenerate inputs flow through the full pipeline.
    let empty = TraceBuilder::new(0).finish();
    let report = PostMortem::new(&empty).analyze().unwrap();
    assert!(report.is_race_free());
    assert_eq!(report.num_events, 0);

    let single = {
        use wmrd_trace::{AccessKind, Location, ProcId, TraceSink, Value};
        let mut b = TraceBuilder::new(1);
        b.data_access(ProcId::new(0), Location::new(0), AccessKind::Write, Value::new(1), None);
        b.finish()
    };
    let report = PostMortem::new(&single).analyze().unwrap();
    assert!(report.is_race_free(), "one processor cannot race with itself");
    assert!(report.scp.covers_everything());
}

/// Each trace format has exactly one version: input in a retired
/// version gets a typed decode error pinned at the version's offset,
/// never a decode. A version-1 `WMRD` header is refused at offset 4;
/// a headerless `WMRS` stream (it opens straight with the `0xA5`
/// record magic) is refused at offset 0 by every stream entry point.
#[test]
fn retired_format_versions_are_refused_typed() {
    let mut v1 = corpus_base().to_binary();
    v1[4..6].copy_from_slice(&1u16.to_be_bytes());
    for err in [TraceSet::from_binary(&v1).unwrap_err(), TraceSet::salvage_binary(&v1).unwrap_err()]
    {
        match err {
            TraceError::Decode(d) => {
                assert_eq!(d.offset, 4, "{d}");
                assert_eq!(d.reason, "unsupported version 1");
            }
            other => panic!("expected a typed decode error, got {other}"),
        }
    }

    let entry = catalog::fig1a();
    let mut writer = StreamWriter::new(Vec::new(), entry.program.num_procs());
    let mut sched = RandomWeakSched::new(2, 0.3);
    run_weak_hw(
        HwImpl::StoreBuffer,
        &entry.program,
        MemoryModel::Wo,
        Fidelity::Conditioned,
        &mut sched,
        &mut writer,
        RunConfig::uniform(),
    )
    .unwrap();
    let stream = writer.finish().unwrap();
    let headerless = &stream[6..];
    assert_eq!(headerless[0], 0xA5, "a headerless stream opens with a record");

    match wmrd_trace::read_stream(headerless).unwrap_err() {
        TraceError::Decode(d) => assert_eq!(d.offset, 0, "{d}"),
        other => panic!("expected a typed decode error, got {other}"),
    }
    let mut records = Vec::new();
    match StreamDecoder::new().push(headerless, &mut records).unwrap_err() {
        TraceError::Decode(d) => assert_eq!(d.offset, 0, "{d}"),
        other => panic!("expected a typed decode error, got {other}"),
    }
    assert!(records.is_empty());
    let s = wmrd_trace::salvage_stream(headerless).unwrap();
    assert!(!s.complete);
    assert_eq!(s.records, 0);
    assert_eq!(s.bytes_used, 0);
    assert_eq!(s.failure.map(|d| d.offset), Some(0));
}
