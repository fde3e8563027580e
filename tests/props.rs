//! Property-based tests over the core data structures and whole-pipeline
//! invariants, run by the seeded harness in `wmrd_xtests` (each case is
//! seeded from its index; a failure names the property and the seed).

use wmrd_catalog::journal::{self, JournalRecord, Provenance, RaceObservation};
use wmrd_catalog::{Catalog, Query};
use wmrd_core::{
    event_race_keys, PairingPolicy, PostMortem, RaceKey, SideKey, StreamDetector, VectorClock,
};
use wmrd_progs::generate;
use wmrd_sim::{run_sc, Fidelity, MemoryModel, RandomWeakSched, RunConfig};
use wmrd_trace::AccessKind;
use wmrd_trace::{LocSet, Location, ProcId, StreamDecoder, StreamWriter, TraceBuilder, TraceSet};
use wmrd_verify::is_sequentially_consistent;
use wmrd_xtests::{check, Gen};

fn locs(g: &mut Gen) -> Vec<u32> {
    g.vec(0..40, |g| g.range(0u32..512))
}

/// Deterministically expands one integer into a race observation over
/// a small universe of locations and processors (small on purpose:
/// collisions across records exercise the dedup aggregates).
fn observation_from(x: u64) -> RaceObservation {
    let side = |s: u64| SideKey {
        proc: ProcId::new((s % 4) as u16),
        kind: if s & 4 != 0 { AccessKind::Write } else { AccessKind::Read },
        sync: s & 8 != 0,
    };
    RaceObservation {
        key: RaceKey::new(Location::new((x % 8) as u32), side(x >> 3), side(x >> 7)),
        first_partition: x & 1 != 0,
        // Bits 1-2 of the input pick the provenance so the generators
        // cover observed, predicted, and both (never empty).
        provenance: match (x >> 1) & 3 {
            0 => Provenance::OBSERVED,
            1 => Provenance::PREDICTED,
            _ => Provenance::OBSERVED | Provenance::PREDICTED,
        },
    }
}

/// Deterministically expands seeds into journal records with unique
/// digests — the catalog's content-address invariant; identical
/// digests are dedup, covered separately.
fn records_from(seeds: &[u64]) -> Vec<JournalRecord> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| JournalRecord {
            digest: format!("{i:016x}"),
            program: (s & 1 != 0).then(|| format!("prog-{}", s % 3)),
            model: Some(["WO", "RCsc", "SC"][(s % 3) as usize].to_string()),
            seed: Some(s),
            events: (s % 100) + 1,
            races: sorted_races(
                (0..s % 5)
                    .map(|j| observation_from(s.wrapping_mul(2_654_435_761).wrapping_add(j * 97)))
                    .collect(),
            ),
            amend: false,
        })
        .collect()
}

/// Restores the documented `JournalRecord.races` invariant (sorted by
/// key, deduplicated) over generator output.
fn sorted_races(mut races: Vec<RaceObservation>) -> Vec<RaceObservation> {
    races.sort_by_key(|a| a.key);
    races.dedup_by(|a, b| a.key == b.key);
    races
}

/// LocSet agrees with a HashSet model on membership, size, union and
/// intersection.
#[test]
fn locset_models_a_set() {
    check("locset_models_a_set", 256, |g| {
        let a = locs(g);
        let b = locs(g);
        use std::collections::HashSet;
        let sa: LocSet = a.iter().map(|&l| Location::new(l)).collect();
        let sb: LocSet = b.iter().map(|&l| Location::new(l)).collect();
        let ha: HashSet<u32> = a.iter().copied().collect();
        let hb: HashSet<u32> = b.iter().copied().collect();

        assert_eq!(sa.len(), ha.len());
        for &l in &a {
            assert!(sa.contains(Location::new(l)));
        }
        assert_eq!(sa.intersects(&sb), !ha.is_disjoint(&hb));
        let union: HashSet<u32> = sa.union(&sb).iter().map(|l| l.addr()).collect();
        assert_eq!(&union, &ha.union(&hb).copied().collect::<HashSet<_>>());
        let inter: HashSet<u32> = sa.intersection(&sb).iter().map(|l| l.addr()).collect();
        assert_eq!(&inter, &ha.intersection(&hb).copied().collect::<HashSet<_>>());
        assert_eq!(sa.is_subset(&sb), ha.is_subset(&hb));
    });
}

/// LocSet iteration is strictly ascending and deduplicated.
#[test]
fn locset_iterates_sorted() {
    check("locset_iterates_sorted", 256, |g| {
        let a = locs(g);
        let s: LocSet = a.iter().map(|&l| Location::new(l)).collect();
        let out: Vec<u32> = s.iter().map(|l| l.addr()).collect();
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    });
}

/// Vector clock join is commutative, associative, idempotent, and
/// monotone w.r.t. `le`.
#[test]
fn vector_clock_join_laws() {
    check("vector_clock_join_laws", 256, |g| {
        let a = g.vec(0..6, |g| g.range(0u64..50));
        let b = g.vec(0..6, |g| g.range(0u64..50));
        let c = g.vec(0..6, |g| g.range(0u64..50));
        let mk = |v: &[u64]| {
            let mut vc = VectorClock::new();
            for (i, &x) in v.iter().enumerate() {
                vc.set(ProcId::new(i as u16), x);
            }
            vc
        };
        let (va, vb, vc_) = (mk(&a), mk(&b), mk(&c));

        let mut ab = va.clone();
        ab.join(&vb);
        let mut ba = vb.clone();
        ba.join(&va);
        assert_eq!(&ab, &ba, "commutative");

        let mut ab_c = ab.clone();
        ab_c.join(&vc_);
        let mut bc = vb.clone();
        bc.join(&vc_);
        let mut a_bc = va.clone();
        a_bc.join(&bc);
        assert_eq!(&ab_c, &a_bc, "associative");

        let mut aa = va.clone();
        aa.join(&va);
        assert_eq!(&aa, &va, "idempotent");

        assert!(va.le(&ab) && vb.le(&ab), "join is an upper bound");
    });
}

/// Every SC-machine execution linearizes (the linearizer accepts what
/// the SC machine produced), for random programs and schedules.
#[test]
fn sc_executions_always_linearize() {
    check("sc_executions_always_linearize", 256, |g| {
        let prog_seed = g.range(0u64..500);
        let sched_seed = g.range(0u64..100);
        let cfg = generate::GenConfig {
            procs: 3,
            shared_locations: 4,
            sections_per_proc: 2,
            ops_per_section: 4,
            rogue_fraction: 0.6,
            seed: prog_seed,
        };
        let program = generate::racy(&cfg);
        let mut sink = wmrd_trace::OpRecorder::new(program.num_procs());
        run_sc(
            &program,
            &mut RandomWeakSched::new(sched_seed, 0.0),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        assert!(is_sequentially_consistent(&sink.finish(), &program.initial_memory()));
    });
}

/// Detected races are normalized (a < b), involve distinct
/// processors, and race locations are genuinely accessed by both
/// sides.
#[test]
fn race_reports_are_well_formed() {
    check("race_reports_are_well_formed", 256, |g| {
        let prog_seed = g.range(0u64..300);
        let sched_seed = g.range(0u64..50);
        let cfg = generate::GenConfig {
            rogue_fraction: 0.7,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::racy(&cfg);
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(
            &program,
            &mut RandomWeakSched::new(sched_seed, 0.0),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        let trace = sink.finish();
        let report = PostMortem::new(&trace).analyze().unwrap();
        for race in &report.races {
            assert!(race.a < race.b);
            assert_ne!(race.a.proc, race.b.proc);
            assert!(!race.locations.is_empty());
            let (ea, eb) = (trace.event(race.a).unwrap(), trace.event(race.b).unwrap());
            for loc in &race.locations {
                let a_touches = ea.read_set().contains(loc) || ea.write_set().contains(loc);
                let b_touches = eb.read_set().contains(loc) || eb.write_set().contains(loc);
                assert!(a_touches && b_touches);
                assert!(ea.write_set().contains(loc) || eb.write_set().contains(loc));
            }
        }
        // Every race index referenced by partitions exists; first indices
        // are valid.
        for part in report.partitions.partitions() {
            for &i in &part.races {
                assert!(i < report.races.len());
            }
        }
        for &i in report.partitions.first_indices() {
            assert!(i < report.partitions.len());
        }
    });
}

/// Lock-disciplined random programs are race-free under every
/// scheduler seed (the generator's guarantee).
#[test]
fn locked_generator_is_race_free() {
    check("locked_generator_is_race_free", 256, |g| {
        let prog_seed = g.range(0u64..200);
        let sched_seed = g.range(0u64..30);
        let cfg = generate::GenConfig::default().with_seed(prog_seed);
        let program = generate::locked(&cfg);
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(
            &program,
            &mut RandomWeakSched::new(sched_seed, 0.0),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        let report = PostMortem::new(&sink.finish()).analyze().unwrap();
        assert!(report.is_race_free());
    });
}

/// Trace binary encoding roundtrips for traces of arbitrary random
/// executions.
#[test]
fn trace_binary_roundtrip() {
    check("trace_binary_roundtrip", 256, |g| {
        let prog_seed = g.range(0u64..200);
        let sched_seed = g.range(0u64..20);
        let cfg = generate::GenConfig {
            rogue_fraction: 0.4,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::racy(&cfg);
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(
            &program,
            &mut RandomWeakSched::new(sched_seed, 0.0),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        let mut trace = sink.finish();
        trace.meta.program = Some(program.name().to_string());
        trace.meta.seed = Some(sched_seed);
        let bin = trace.to_binary();
        assert_eq!(TraceSet::from_binary(&bin).unwrap(), trace);
    });
}

/// Analysis results are schedule-deterministic: analyzing the same
/// trace twice yields identical reports.
#[test]
fn analysis_is_deterministic() {
    check("analysis_is_deterministic", 256, |g| {
        let prog_seed = g.range(0u64..100);
        let cfg = generate::GenConfig {
            rogue_fraction: 0.5,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::racy(&cfg);
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(&program, &mut RandomWeakSched::new(1, 0.0), &mut sink, RunConfig::uniform())
            .unwrap();
        let trace = sink.finish();
        let r1 = PostMortem::new(&trace).analyze().unwrap();
        let r2 = PostMortem::new(&trace).analyze().unwrap();
        assert_eq!(r1, r2);
    });
}

/// Weak executions of lock-disciplined programs stay race-free and
/// reach the same settled memory as some SC execution of the same
/// program (Condition 3.4(1) at the outcome level).
#[test]
fn weak_locked_runs_match_sc_outcomes() {
    check("weak_locked_runs_match_sc_outcomes", 256, |g| {
        let prog_seed = g.range(0u64..60);
        let sched_seed = g.range(0u64..10);
        let cfg = generate::GenConfig {
            procs: 2,
            sections_per_proc: 2,
            ops_per_section: 3,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::locked(&cfg);
        let mut sink = wmrd_trace::OpRecorder::new(program.num_procs());
        let mut sched = wmrd_sim::RandomWeakSched::new(sched_seed, 0.4);
        wmrd_sim::run_weak_hw(
            wmrd_sim::HwImpl::StoreBuffer,
            &program,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut sched,
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        assert!(is_sequentially_consistent(&sink.finish(), &program.initial_memory()));
    });
}

/// Every prefix of a v2 binary encoding decodes to either the exact
/// original (the full length) or a typed error whose offset lies
/// within the input — never a panic, never a silently wrong trace.
/// The salvage decoder recovers, per processor, an exact event
/// prefix of the original from every cut.
#[test]
fn every_v2_prefix_decodes_or_errors_sanely() {
    check("every_v2_prefix_decodes_or_errors_sanely", 256, |g| {
        let prog_seed = g.range(0u64..60);
        let sched_seed = g.range(0u64..8);
        let cfg = generate::GenConfig {
            procs: 2,
            sections_per_proc: 1,
            ops_per_section: 3,
            rogue_fraction: 0.5,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::racy(&cfg);
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(
            &program,
            &mut RandomWeakSched::new(sched_seed, 0.0),
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        let trace = sink.finish();
        let bin = trace.to_binary();

        for len in 0..=bin.len() {
            match TraceSet::from_binary(&bin[..len]) {
                Ok(t) => {
                    assert_eq!(len, bin.len(), "only the whole file decodes strictly");
                    assert_eq!(&t, &trace);
                }
                Err(wmrd_trace::TraceError::Decode(e)) => {
                    assert!(e.offset <= len, "offset {} beyond the {len}-byte input", e.offset);
                }
                Err(e) => panic!("untyped error at {}: {}", len, e),
            }
            let Ok(s) = TraceSet::salvage_binary(&bin[..len]) else {
                // Only a cut inside the 6-byte magic/version preamble is
                // unsalvageable.
                assert!(len < 6, "salvage refused a {len}-byte prefix");
                continue;
            };
            assert_eq!(s.complete, len == bin.len());
            assert!(s.bytes_used <= len);
            for (i, p) in s.trace.processors().iter().enumerate() {
                let got = p.events();
                let want = trace.processors()[i].events();
                assert!(got.len() <= want.len());
                assert_eq!(got, &want[..got.len()], "P{} salvage is an event prefix", i);
            }
        }
    });
}

/// Single-bit corruption of a v2 encoding is always either detected
/// (typed error) or harmless (exact original back) — the CRC never
/// lets a flipped trace through silently. Salvage likewise never
/// panics, and anything it recovers is a valid trace.
#[test]
fn v2_bit_flips_are_detected_not_misread() {
    check("v2_bit_flips_are_detected_not_misread", 256, |g| {
        let prog_seed = g.range(0u64..60);
        let byte_pick = g.range(0usize..10_000);
        let bit = g.range(0u8..8);
        let cfg = generate::GenConfig {
            procs: 2,
            sections_per_proc: 1,
            ops_per_section: 3,
            rogue_fraction: 0.5,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::racy(&cfg);
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(&program, &mut RandomWeakSched::new(0, 0.0), &mut sink, RunConfig::uniform())
            .unwrap();
        let trace = sink.finish();
        let mut bin = trace.to_binary();
        let offset = byte_pick % bin.len();
        bin[offset] ^= 1 << bit;

        match TraceSet::from_binary(&bin) {
            Ok(t) => assert_eq!(&t, &trace, "an accepted decode must be bit-exact"),
            Err(wmrd_trace::TraceError::Decode(e)) => assert!(e.offset <= bin.len()),
            Err(wmrd_trace::TraceError::Malformed(_)) => {}
            Err(e) => panic!("untyped error: {}", e),
        }
        if let Ok(s) = TraceSet::salvage_binary(&bin) {
            assert!(s.trace.validate().is_ok(), "salvage must return a valid trace");
            assert!(s.bytes_used <= s.bytes_total);
        }
    });
}

/// `FEED` chunking invariance: however a `WMRS` byte stream is cut
/// into chunks — including cuts inside the header and mid-record —
/// the decoded record sequence and the online detector's race-key
/// set are identical to the unchunked run, and the online keys
/// equal the post-mortem keys of the reassembled trace. This is
/// the property that makes the daemon's chunk size a pure
/// transport knob.
#[test]
fn stream_chunking_never_changes_the_race_set() {
    check("stream_chunking_never_changes_the_race_set", 256, |g| {
        let prog_seed = g.range(0u64..40);
        let sched_seed = g.range(0u64..6);
        let cuts = g.vec(0..12, |g| g.range(1usize..97));
        let cfg = generate::GenConfig {
            procs: 3,
            shared_locations: 3,
            sections_per_proc: 2,
            ops_per_section: 3,
            rogue_fraction: 0.6,
            seed: prog_seed,
        };
        let program = generate::racy(&cfg);
        let mut writer = StreamWriter::new(Vec::new(), program.num_procs());
        let mut sched = wmrd_sim::RandomWeakSched::new(sched_seed, 0.4);
        wmrd_sim::run_weak_hw(
            wmrd_sim::HwImpl::StoreBuffer,
            &program,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut sched,
            &mut writer,
            RunConfig::uniform(),
        )
        .unwrap();
        let bytes = writer.finish().unwrap();

        // Unchunked reference: one push of the whole stream.
        let mut reference = StreamDecoder::new();
        let mut all = Vec::new();
        reference.push(&bytes, &mut all).unwrap();
        reference.finish().unwrap();
        let mut oneshot = StreamDetector::new(program.num_procs(), PairingPolicy::ByRole);
        oneshot.feed(&all);

        // Chunked: cut sizes cycle through the generated list.
        let mut decoder = StreamDecoder::new();
        let mut detector = StreamDetector::new(program.num_procs(), PairingPolicy::ByRole);
        let mut builder = TraceBuilder::new(program.num_procs());
        let mut chunked = Vec::new();
        let (mut pos, mut turn) = (0usize, 0usize);
        while pos < bytes.len() {
            let step = if cuts.is_empty() { bytes.len() } else { cuts[turn % cuts.len()] };
            turn += 1;
            let end = (pos + step).min(bytes.len());
            let mut records = Vec::new();
            decoder.push(&bytes[pos..end], &mut records).unwrap();
            for r in &records {
                r.apply(&mut builder);
            }
            detector.feed(&records);
            chunked.extend(records);
            pos = end;
        }
        decoder.finish().unwrap();

        assert_eq!(&chunked, &all, "chunk boundaries changed the decoded records");
        assert_eq!(
            detector.race_keys(),
            oneshot.race_keys(),
            "chunk boundaries changed the online race set"
        );
        let trace = builder.finish();
        let report = PostMortem::new(&trace).pairing(PairingPolicy::ByRole).analyze().unwrap();
        assert_eq!(
            detector.race_keys(),
            &event_race_keys(&report.races, &trace),
            "online and post-mortem race keys diverged"
        );
    });
}

/// The pairing policy only ever shrinks the race set monotonically:
/// AllSync ⊆ ByRole for data races.
#[test]
fn pairing_monotonicity() {
    check("pairing_monotonicity", 256, |g| {
        let prog_seed = g.range(0u64..100);
        let cfg = generate::GenConfig {
            rogue_fraction: 0.5,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::racy(&cfg);
        let mut sink = TraceBuilder::new(program.num_procs());
        run_sc(&program, &mut RandomWeakSched::new(2, 0.0), &mut sink, RunConfig::uniform())
            .unwrap();
        let trace = sink.finish();
        let by_role = PostMortem::new(&trace).pairing(PairingPolicy::ByRole).analyze().unwrap();
        let all_sync = PostMortem::new(&trace).pairing(PairingPolicy::AllSync).analyze().unwrap();
        assert!(all_sync.data_races().count() <= by_role.data_races().count());
    });
}

/// Catalog journal encoding round-trips exactly, and a clean file
/// decodes as complete with every byte accounted for.
#[test]
fn catalog_journal_roundtrip() {
    check("catalog_journal_roundtrip", 256, |g| {
        let seeds = g.vec(0..8, |g| g.range(0u64..1_000_000));
        let records = records_from(&seeds);
        let bytes = journal::encode(&records).unwrap();
        let (back, salvage) = journal::decode(&bytes).unwrap();
        assert_eq!(&back, &records);
        assert!(salvage.complete);
        assert_eq!(salvage.records, records.len());
        assert_eq!(salvage.bytes_used, bytes.len());
        assert!(salvage.failure.is_none());
    });
}

/// Truncating a journal at *any* byte either fails with a typed
/// header error (cut inside the 10-byte header) or salvages an
/// exact record prefix — never a panic, never a reordered or
/// invented record. This is the kill-9 contract: every record
/// whose append completed survives reopen.
#[test]
fn catalog_journal_truncation_salvages_a_prefix() {
    check("catalog_journal_truncation_salvages_a_prefix", 256, |g| {
        let seeds = g.vec(0..8, |g| g.range(0u64..1_000_000));
        let cut_pick = g.range(0usize..100_000);
        let records = records_from(&seeds);
        let bytes = journal::encode(&records).unwrap();
        let cut = cut_pick % (bytes.len() + 1);
        match journal::decode(&bytes[..cut]) {
            Err(wmrd_catalog::CatalogError::Corrupt { offset, .. }) => {
                assert!(cut < wmrd_catalog::journal::HEADER_BYTES);
                assert!(offset <= cut);
            }
            Err(e) => panic!("untyped journal error at cut {}: {}", cut, e),
            Ok((recovered, salvage)) => {
                assert!(recovered.len() <= records.len());
                assert_eq!(&recovered[..], &records[..recovered.len()]);
                // A cut on a frame boundary is a shorter, complete journal.
                assert_eq!(salvage.complete, salvage.bytes_used == cut);
                assert!(salvage.bytes_used <= cut);
                assert_eq!(salvage.bytes_total, cut);
                if cut == bytes.len() {
                    assert!(salvage.complete && recovered.len() == records.len());
                }
            }
        }
    });
}

/// A single bit flip anywhere in a journal is either fatal (header
/// damage) or salvaged: the recovered records are an exact prefix
/// of the originals. CRC-32 catches every single-bit flip, so a
/// flipped record can never be silently misread.
#[test]
fn catalog_journal_bit_flips_never_corrupt_records() {
    check("catalog_journal_bit_flips_never_corrupt_records", 256, |g| {
        let seeds = g.vec(0..8, |g| g.range(0u64..1_000_000));
        let byte_pick = g.range(0usize..100_000);
        let bit = g.range(0u8..8);
        let records = records_from(&seeds);
        let mut bytes = journal::encode(&records).unwrap();
        let offset = byte_pick % bytes.len();
        bytes[offset] ^= 1 << bit;
        match journal::decode(&bytes) {
            Err(wmrd_catalog::CatalogError::Corrupt { .. }) => {
                assert!(offset < wmrd_catalog::journal::HEADER_BYTES);
            }
            Err(e) => panic!("untyped journal error: {}", e),
            Ok((recovered, salvage)) => {
                assert!(recovered.len() <= records.len());
                assert_eq!(&recovered[..], &records[..recovered.len()]);
                assert!(salvage.bytes_used <= bytes.len());
            }
        }
    });
}

/// Catalog aggregation is ingest-order independent: feeding the
/// same records forward and reversed yields byte-identical `races`
/// and `traces` query output (only `since=` may depend on order —
/// it asks about order by design). This is the invariant that lets
/// the daemon ingest from concurrent submitters deterministically.
#[test]
fn catalog_race_table_is_ingest_order_independent() {
    check("catalog_race_table_is_ingest_order_independent", 256, |g| {
        let seeds = g.vec(0..10, |g| g.range(0u64..1_000_000));
        let records = records_from(&seeds);
        let mut forward = Catalog::in_memory();
        for r in &records {
            forward.ingest(r).unwrap();
        }
        let mut reversed = Catalog::in_memory();
        for r in records.iter().rev() {
            reversed.ingest(r).unwrap();
        }
        assert_eq!(forward.query(&Query::Races).unwrap(), reversed.query(&Query::Races).unwrap());
        assert_eq!(forward.query(&Query::Traces).unwrap(), reversed.query(&Query::Traces).unwrap());
        assert_eq!(forward.race_count(), reversed.race_count());
        assert_eq!(forward.trace_count(), reversed.trace_count());

        // Re-ingesting every record is a no-op: content addressing
        // deduplicates by digest.
        let before = forward.query(&Query::Races).unwrap();
        for r in &records {
            let outcome = forward.ingest(r).unwrap();
            assert!(outcome.duplicate);
            assert_eq!(outcome.new_races, 0);
        }
        assert_eq!(forward.query(&Query::Races).unwrap(), before);
    });
}

/// Amendment records (the `PREDICT` verb's journal form) round-trip
/// through the journal encoding, commute with each other, and are
/// idempotent: re-applying an amendment is a duplicate that changes
/// nothing. Text and JSON renderings must agree on the invariance.
#[test]
fn catalog_amendments_commute_and_roundtrip() {
    check("catalog_amendments_commute_and_roundtrip", 256, |g| {
        let seeds = g.vec(1..8, |g| g.range(0u64..1_000_000));
        let records = records_from(&seeds);
        let amendments: Vec<JournalRecord> = records
            .iter()
            .zip(&seeds)
            .map(|(r, &s)| JournalRecord {
                races: sorted_races(
                    (0..s % 4)
                        .map(|j| {
                            let mut o = observation_from(
                                s.wrapping_mul(1_640_531_527).wrapping_add(j * 131),
                            );
                            o.provenance = Provenance::PREDICTED;
                            o.first_partition = false;
                            o
                        })
                        .collect(),
                ),
                amend: true,
                ..r.clone()
            })
            .collect();

        // Journal round-trip preserves the amend flag and provenance.
        let all: Vec<JournalRecord> = records.iter().chain(&amendments).cloned().collect();
        let bytes = journal::encode(&all).unwrap();
        let (back, salvage) = journal::decode(&bytes).unwrap();
        assert_eq!(&back, &all);
        assert!(salvage.complete);

        // Amendments commute: forward vs reversed amendment order
        // yields byte-identical text and JSON renderings.
        let mut forward = Catalog::in_memory();
        let mut reversed = Catalog::in_memory();
        for r in &records {
            forward.ingest(r).unwrap();
            reversed.ingest(r).unwrap();
        }
        for a in &amendments {
            forward.ingest(a).unwrap();
        }
        for a in amendments.iter().rev() {
            reversed.ingest(a).unwrap();
        }
        for q in [Query::Races, Query::Traces] {
            assert_eq!(forward.query(&q).unwrap(), reversed.query(&q).unwrap());
            assert_eq!(forward.query_json(&q).unwrap(), reversed.query_json(&q).unwrap());
        }

        // Idempotence: re-amending adds no knowledge and is reported
        // as a duplicate.
        let before = forward.query(&Query::Races).unwrap();
        for a in &amendments {
            let outcome = forward.ingest(a).unwrap();
            assert!(outcome.duplicate || a.races.is_empty());
            assert_eq!(outcome.new_races, 0);
        }
        assert_eq!(forward.query(&Query::Races).unwrap(), before);
    });
}

// --- Out-of-order pipeline: Condition 3.4 in property form ---

/// Condition 3.4 for the speculative pipeline, property form:
/// random *locked* (data-race-free) programs run through the
/// conditioned OoO backend always linearize — out-of-order load
/// completion, store forwarding, and renaming never escape the SC
/// envelope when the program is properly synchronized.
#[test]
fn ooo_locked_runs_match_sc_outcomes() {
    check("ooo_locked_runs_match_sc_outcomes", 64, |g| {
        let prog_seed = g.range(0u64..60);
        let sched_seed = g.range(0u64..10);
        let cfg = generate::GenConfig {
            procs: 2,
            sections_per_proc: 2,
            ops_per_section: 3,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::locked(&cfg);
        let mut sink = wmrd_trace::OpRecorder::new(program.num_procs());
        let mut sched = wmrd_sim::RandomWeakSched::new(sched_seed, 0.4);
        wmrd_sim::run_weak_hw(
            wmrd_sim::HwImpl::Ooo,
            &program,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut sched,
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        assert!(is_sequentially_consistent(&sink.finish(), &program.initial_memory()));
    });
}

/// The racy half of the same property: random programs *with*
/// races still satisfy Condition 3.4 on the conditioned pipeline —
/// racy executions' first partitions contain races the SC
/// enumeration also exhibits, and the race-free prefix linearizes.
/// Reuses the verify crate's full decision procedure.
#[test]
fn ooo_random_programs_satisfy_condition_3_4() {
    check("ooo_random_programs_satisfy_condition_3_4", 64, |g| {
        let prog_seed = g.range(0u64..16);
        use std::collections::BTreeSet;
        use wmrd_core::PairingPolicy;
        use wmrd_verify::theorems::{check_condition_3_4_hw, sc_race_signatures};
        use wmrd_verify::{enumerate_sc, EnumConfig};

        let cfg = generate::GenConfig {
            procs: 2,
            sections_per_proc: 1,
            ops_per_section: 3,
            rogue_fraction: 0.6,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = generate::racy(&cfg);
        let sc = enumerate_sc(&program, &EnumConfig::default()).unwrap();
        let sigs: BTreeSet<_> = sc_race_signatures(&sc.executions, PairingPolicy::ByRole).unwrap();
        let outcomes = check_condition_3_4_hw(
            wmrd_sim::HwImpl::Ooo,
            &program,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            0..4,
            &sigs,
            PairingPolicy::ByRole,
        )
        .unwrap();
        for o in &outcomes {
            assert!(o.holds(), "seed {}: Condition 3.4 violated on OoO: {o:?}", o.seed);
        }
    });
}

// --- StreamWriter flush-on-drop: the salvage contract for panicking
// --- workloads (capture PR satellite).

/// Dropping a `StreamWriter` without `finish` must leave every
/// committed record recoverable: the documented flush-on-drop
/// guarantee. We write a random prefix of a run's records, drop the
/// writer mid-stream, and check `salvage_stream` recovers exactly
/// the committed prefix with identical analysis results.
#[test]
fn dropped_stream_writer_salvages_committed_prefix() {
    check("dropped_stream_writer_salvages_committed_prefix", 48, |g| {
        let prog_seed = g.range(0u64..40);
        let sched_seed = g.range(0u64..6);
        let cfg = generate::GenConfig {
            procs: 3,
            shared_locations: 3,
            sections_per_proc: 2,
            ops_per_section: 3,
            rogue_fraction: 0.6,
            seed: prog_seed,
        };
        let program = generate::racy(&cfg);

        // Reference: full run through a finished writer.
        let mut writer = StreamWriter::new(Vec::new(), program.num_procs());
        let mut sched = wmrd_sim::RandomWeakSched::new(sched_seed, 0.4);
        wmrd_sim::run_weak_hw(
            wmrd_sim::HwImpl::StoreBuffer,
            &program,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut sched,
            &mut writer,
            RunConfig::uniform(),
        )
        .unwrap();
        let full_records = writer.records();
        let bytes = writer.finish().unwrap();

        // Abandoned: same bytes, writer dropped instead of finished.
        // The shared buffer outlives the writer so we can inspect what
        // the drop left behind.
        let committed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        {
            let mut writer = StreamWriter::new(ArcSink(committed.clone()), program.num_procs());
            let mut sched = wmrd_sim::RandomWeakSched::new(sched_seed, 0.4);
            wmrd_sim::run_weak_hw(
                wmrd_sim::HwImpl::StoreBuffer,
                &program,
                MemoryModel::Wo,
                Fidelity::Conditioned,
                &mut sched,
                &mut writer,
                RunConfig::uniform(),
            )
            .unwrap();
            // No finish(): the writer is dropped here.
        }
        let salvaged_bytes = committed.lock().unwrap().clone();
        assert_eq!(&salvaged_bytes, &bytes, "drop lost committed bytes");

        let salvage = wmrd_trace::salvage_stream(salvaged_bytes.as_slice()).unwrap();
        assert!(salvage.complete, "fully committed stream salvages cleanly");
        assert_eq!(salvage.records, full_records);
    });
}

/// A torn tail — the stream cut mid-record, as when a process dies
/// inside a `write` — salvages every record before the cut and
/// reports the byte boundary of the committed prefix.
#[test]
fn torn_stream_tail_salvages_whole_records() {
    check("torn_stream_tail_salvages_whole_records", 48, |g| {
        let prog_seed = g.range(0u64..40);
        let sched_seed = g.range(0u64..6);
        let cut_back = g.range(1usize..30);
        let cfg = generate::GenConfig {
            procs: 3,
            shared_locations: 3,
            sections_per_proc: 2,
            ops_per_section: 3,
            rogue_fraction: 0.6,
            seed: prog_seed,
        };
        let program = generate::racy(&cfg);
        let mut writer = StreamWriter::new(Vec::new(), program.num_procs());
        let mut sched = wmrd_sim::RandomWeakSched::new(sched_seed, 0.4);
        wmrd_sim::run_weak_hw(
            wmrd_sim::HwImpl::StoreBuffer,
            &program,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut sched,
            &mut writer,
            RunConfig::uniform(),
        )
        .unwrap();
        let total = writer.records();
        let bytes = writer.finish().unwrap();
        if bytes.len() <= 6 + cut_back {
            return; // too short to tear `cut_back` bytes off the tail
        }

        let torn = &bytes[..bytes.len() - cut_back];
        let salvage = wmrd_trace::salvage_stream(torn).unwrap();
        assert!(salvage.records < total || salvage.complete);
        assert!(salvage.bytes_used <= torn.len());
        // Replaying the salvaged prefix byte-for-byte re-salvages to the
        // same record count: the boundary is stable.
        let again = wmrd_trace::salvage_stream(&torn[..salvage.bytes_used]).unwrap();
        assert_eq!(again.records, salvage.records);
    });
}

/// A `Write` impl backed by a shared buffer, so bytes survive the
/// writer being dropped (standing in for an OS file during a panic).
struct ArcSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for ArcSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A workload that panics mid-capture still yields every record it
/// committed before the panic — exercised end-to-end through a real
/// unwind, not a simulated drop.
#[test]
fn panicking_writer_thread_leaves_salvageable_stream() {
    let committed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = ArcSink(committed.clone());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut writer = StreamWriter::new(sink, 2);
        use wmrd_trace::TraceSink;
        writer.data_access(
            ProcId::new(0),
            Location::new(0),
            AccessKind::Write,
            wmrd_trace::Value::new(7),
            None,
        );
        writer.sync_access(
            ProcId::new(1),
            Location::new(1),
            AccessKind::Write,
            wmrd_trace::SyncRole::Release,
            wmrd_trace::Value::new(1),
            None,
        );
        panic!("workload died");
        // `writer` is dropped by the unwind; flush-on-drop commits.
    }));
    assert!(result.is_err());
    let bytes = committed.lock().unwrap().clone();
    let salvage = wmrd_trace::salvage_stream(bytes.as_slice()).unwrap();
    assert!(salvage.complete);
    assert_eq!(salvage.records, 2);
    let trace = salvage.trace;
    // The stream header carries no processor count: the salvaged trace
    // has exactly the processors whose records were committed.
    assert_eq!(trace.num_procs(), 2);
    assert!(trace.validate().is_ok());
}

// --- Assembly writer: parse ∘ write == id (fence-repair satellite) ---

/// The `.wmrd` assembly layer is a faithful codec: for random
/// generated programs — locked and racy alike — writing the
/// program as assembly and parsing it back is the identity, and
/// the same holds after the fence synthesizer has edited the
/// program (inserted `fence`s, strengthened `ld`/`st` to
/// `ld.acq`/`st.rel`, remapped branch targets). This is what makes
/// `wmrd lint --repair out.wmrd` trustworthy: the file on disk IS
/// the verified program.
#[test]
fn asm_write_parse_round_trips_generated_and_repaired_programs() {
    check("asm_write_parse_round_trips_generated_and_repaired_programs", 64, |g| {
        let prog_seed = g.range(0u64..120);
        let racy = g.bool();
        let cfg = generate::GenConfig {
            procs: 3,
            sections_per_proc: 2,
            ops_per_section: 3,
            ..generate::GenConfig::default().with_seed(prog_seed)
        };
        let program = if racy { generate::racy(&cfg) } else { generate::locked(&cfg) };
        let text = wmrd_sim::write_asm(&program);
        let again = wmrd_sim::parse_asm(&text).unwrap();
        assert_eq!(&program, &again, "parse(write_asm(p)) == p:\n{}", text);

        let report = wmrd_lint::analyze(&program);
        let rep = wmrd_lint::repair(&program, &report);
        let text = wmrd_sim::write_asm(&rep.repaired);
        let again = wmrd_sim::parse_asm(&text).unwrap();
        assert_eq!(&rep.repaired, &again, "repaired round-trip:\n{}", text);
    });
}
