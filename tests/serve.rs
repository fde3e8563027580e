//! End-to-end daemon contracts: concurrent ingestion over a unix
//! socket is deterministic (byte-identical query output regardless of
//! client arrival order and worker count), backpressure is a typed
//! `BUSY` at the explicit queue cap, corrupt submissions are rejected
//! with a typed error without taking the daemon down, and a journal
//! with a torn tail — the kill-9 signature — reopens to exactly the
//! committed record prefix. Streaming sessions (`STREAM`/`FEED`/
//! `CLOSE`) interleave with submissions, dedup into the same catalog
//! aggregates, respect the session-slot bound, and release their slot
//! when a client vanishes mid-stream.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use wmrd_catalog::Catalog;
use wmrd_progs::catalog;
use wmrd_serve::{Client, Endpoint, Reply, ServeConfig, ServeSummary, Server, StreamMeta};
use wmrd_sim::{run_weak_hw, Fidelity, HwImpl, MemoryModel, Program, RandomWeakSched, RunConfig};
use wmrd_trace::{StreamWriter, TraceBuilder, TraceSet};

/// A scratch directory unique to one test invocation.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmrd-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn weak_trace(program: &Program, name: &str, seed: u64) -> TraceSet {
    let mut sched = RandomWeakSched::new(seed, 0.3);
    let mut sink = TraceBuilder::new(program.num_procs());
    run_weak_hw(
        HwImpl::StoreBuffer,
        program,
        MemoryModel::Wo,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::default(),
    )
    .unwrap();
    let mut trace = sink.finish();
    trace.meta.program = Some(name.to_string());
    trace.meta.model = Some(MemoryModel::Wo.to_string());
    trace.meta.seed = Some(seed);
    trace
}

/// The same execution as [`weak_trace`], captured as operation-granular
/// `WMRS` stream bytes (what a live simulator would feed the daemon).
fn weak_stream_bytes(program: &Program, seed: u64) -> Vec<u8> {
    let mut sched = RandomWeakSched::new(seed, 0.3);
    let mut writer = StreamWriter::new(Vec::new(), program.num_procs());
    run_weak_hw(
        HwImpl::StoreBuffer,
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

/// The explore-style corpus: weak executions of racy catalog programs
/// across a seed sweep, encoded as submission bodies.
fn corpus() -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    for entry in [catalog::fig1a(), catalog::work_queue_buggy(), catalog::peterson_racy()] {
        for seed in 0..8 {
            bodies.push(weak_trace(&entry.program, entry.name, seed).to_binary());
        }
    }
    bodies
}

/// Binds a daemon on a fresh unix socket (TCP loopback off unix) and
/// runs it on a background thread.
fn start(
    dir: &std::path::Path,
    config: ServeConfig,
) -> (Endpoint, std::thread::JoinHandle<ServeSummary>) {
    let spec = if cfg!(unix) {
        format!("unix:{}", dir.join("daemon.sock").display())
    } else {
        "127.0.0.1:0".to_string()
    };
    let server = Server::bind(&Endpoint::parse(&spec).unwrap(), config).unwrap();
    let endpoint = server.endpoint().clone();
    let join = std::thread::spawn(move || server.run().unwrap());
    (endpoint, join)
}

/// Submits until the daemon accepts, treating `BUSY` as retry-later —
/// exactly the client discipline the typed reply exists for.
fn submit_until_accepted(client: &mut Client, body: &[u8]) -> String {
    loop {
        match client.submit(body).unwrap() {
            Reply::Ok(payload) => return String::from_utf8(payload).unwrap(),
            Reply::Busy(_) => std::thread::sleep(Duration::from_millis(5)),
            Reply::Err { code, message } => panic!("submission rejected ({code:?}): {message}"),
        }
    }
}

fn query_text(endpoint: &Endpoint, spec: &str) -> String {
    Client::connect(endpoint).unwrap().query(spec).unwrap().into_text().unwrap()
}

/// Drives one complete streaming session with the client discipline
/// the typed replies ask for — retry `BUSY` on open (no session slot)
/// and on close (analysis queue full) — and returns the `CLOSE`
/// verdict line.
fn stream_until_closed(
    endpoint: &Endpoint,
    name: &str,
    seed: u64,
    bytes: &[u8],
    chunk: usize,
) -> String {
    let meta = StreamMeta {
        program: Some(name.to_string()),
        model: Some(MemoryModel::Wo.to_string()),
        seed: Some(seed),
    };
    loop {
        let mut client = Client::connect(endpoint).unwrap();
        match client.stream_open(&format!("{name}-{seed}"), &meta).unwrap() {
            Reply::Ok(_) => {}
            Reply::Busy(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Reply::Err { code, message } => panic!("stream open rejected ({code:?}): {message}"),
        }
        for part in bytes.chunks(chunk) {
            match client.stream_feed(part).unwrap() {
                Reply::Ok(_) => {}
                other => panic!("feed failed: {other:?}"),
            }
        }
        loop {
            match client.stream_close().unwrap() {
                Reply::Ok(payload) => return String::from_utf8(payload).unwrap(),
                Reply::Busy(_) => std::thread::sleep(Duration::from_millis(5)),
                Reply::Err { code, message } => panic!("close rejected ({code:?}): {message}"),
            }
        }
    }
}

fn drain(endpoint: &Endpoint, join: std::thread::JoinHandle<ServeSummary>) -> ServeSummary {
    let reply = Client::connect(endpoint).unwrap().shutdown().unwrap();
    assert_eq!(reply.into_text().unwrap(), "draining\n");
    join.join().unwrap()
}

/// The tentpole determinism claim: N concurrent submitters feeding the
/// corpus in different arrival orders, against different worker
/// counts, always converge to byte-identical `races` and `traces`
/// query output — because every catalog aggregate is commutative and
/// every listing sorted.
#[test]
fn concurrent_ingestion_is_deterministic_across_arrival_order_and_workers() {
    let bodies = corpus();
    let mut outputs = Vec::new();
    for (workers, rotation) in [(1usize, 0usize), (2, 5), (4, 11), (8, 17)] {
        let dir = scratch(&format!("det-{workers}-{rotation}"));
        let config = ServeConfig { workers, queue_cap: 8, ..ServeConfig::default() };
        let (endpoint, join) = start(&dir, config);

        // 8 concurrent submitters, each with a disjoint interleaved
        // slice of a rotated corpus: every config sees every trace,
        // in a different arrival order.
        let mut rotated = bodies.clone();
        rotated.rotate_left(rotation);
        std::thread::scope(|scope| {
            for lane in 0..8 {
                let endpoint = &endpoint;
                let rotated = &rotated;
                scope.spawn(move || {
                    let mut client = Client::connect(endpoint).unwrap();
                    for body in rotated.iter().skip(lane).step_by(8) {
                        let verdict = submit_until_accepted(&mut client, body);
                        assert!(
                            verdict.starts_with("ingested") || verdict.starts_with("duplicate"),
                            "{verdict}"
                        );
                    }
                });
            }
        });

        let races = query_text(&endpoint, "races");
        let traces = query_text(&endpoint, "traces");
        assert!(races.contains("hits="), "corpus must exhibit races:\n{races}");
        let summary = drain(&endpoint, join);
        assert_eq!(summary.submitted, bodies.len() as u64);
        assert_eq!(summary.ingested + summary.deduped, summary.submitted);
        assert_eq!(summary.rejected, 0);
        outputs.push((workers, rotation, races, traces));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, _, races0, traces0) = &outputs[0];
    for (workers, rotation, races, traces) in &outputs[1..] {
        assert_eq!(races, races0, "races diverged at workers={workers} rotation={rotation}");
        assert_eq!(traces, traces0, "traces diverged at workers={workers} rotation={rotation}");
    }
}

/// Backpressure is typed and bounded: a zero-capacity queue refuses
/// every submission with `BUSY` (never an unbounded backlog, never a
/// dropped connection), and the daemon keeps answering.
#[test]
fn queue_at_capacity_answers_busy_and_stays_responsive() {
    let dir = scratch("busy");
    let config = ServeConfig { workers: 1, queue_cap: 0, ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);

    let body = corpus().remove(0);
    let mut client = Client::connect(&endpoint).unwrap();
    for _ in 0..3 {
        match client.submit(&body).unwrap() {
            Reply::Busy(m) => assert!(m.contains("capacity"), "{m}"),
            other => panic!("expected BUSY from a zero-capacity queue, got {other:?}"),
        }
    }
    assert_eq!(client.ping().unwrap().into_text().unwrap(), "pong\n");

    let summary = drain(&endpoint, join);
    assert_eq!(summary.busy, 3);
    assert_eq!(summary.ingested, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in the checked-in corrupt-trace corpus is rejected with
/// a typed decode error — and the daemon survives all of them to
/// ingest a good trace afterwards.
#[test]
fn corrupt_submissions_are_rejected_typed_not_fatal() {
    let dir = scratch("corrupt");
    let (endpoint, join) = start(&dir, ServeConfig::default());

    let corpus_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/corrupt");
    let mut client = Client::connect(&endpoint).unwrap();
    let mut rejected = 0u64;
    let mut names: Vec<_> = std::fs::read_dir(&corpus_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "corrupt corpus missing at {}", corpus_dir.display());
    for path in &names {
        let bytes = std::fs::read(path).unwrap();
        match client.submit(&bytes).unwrap() {
            Reply::Err { code, .. } => {
                assert_eq!(code, wmrd_serve::ErrorCode::Decode, "{}", path.display());
                rejected += 1;
            }
            other => panic!("{}: expected a decode error, got {other:?}", path.display()),
        }
        assert_eq!(client.ping().unwrap().into_text().unwrap(), "pong\n");
    }

    let verdict = submit_until_accepted(
        &mut client,
        &weak_trace(&catalog::fig1a().program, "fig1a", 0).to_binary(),
    );
    assert!(verdict.starts_with("ingested"), "{verdict}");

    let summary = drain(&endpoint, join);
    assert_eq!(summary.rejected, rejected);
    assert_eq!(summary.ingested, 1);
    // Rejections are verdicts, so they count as submissions; only BUSY
    // refusals fall outside the tally.
    assert_eq!(summary.submitted, rejected + 1);
    assert_eq!(summary.ingested + summary.deduped + summary.rejected, summary.submitted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kill-9 contract: a daemon that died mid-append leaves a torn
/// journal tail; reopening salvages every committed record, truncates
/// the damage, and a restarted daemon answers queries identically.
#[test]
fn torn_journal_tail_reopens_to_the_committed_prefix() {
    let dir = scratch("torn");
    let journal = dir.join("races.journal");
    let bodies: Vec<_> = corpus().into_iter().take(6).collect();

    let config = ServeConfig { catalog: Some(journal.clone()), ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);
    let mut client = Client::connect(&endpoint).unwrap();
    for body in &bodies {
        submit_until_accepted(&mut client, body);
    }
    let races_before = query_text(&endpoint, "races");
    let traces_before = query_text(&endpoint, "traces");
    let summary = drain(&endpoint, join);
    let committed = summary.catalog.traces;
    assert!(committed >= 1);

    // Simulate a kill -9 mid-append: a partial frame on the tail.
    let clean = std::fs::read(&journal).unwrap();
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(&[0xCA, 0x00, 0x00, 0x01]).unwrap(); // torn frame prefix
    }
    let reopened = Catalog::open(&journal).unwrap();
    let salvage = reopened.salvage().unwrap();
    assert!(!salvage.complete);
    assert_eq!(salvage.records as u64, committed, "every committed record survives");
    assert_eq!(reopened.stats().dropped_bytes, 4);
    drop(reopened);
    // Reopen truncated the tail back to the committed prefix on disk.
    assert_eq!(std::fs::read(&journal).unwrap(), clean);

    // A restarted daemon on the salvaged journal answers identically.
    let config = ServeConfig { catalog: Some(journal.clone()), ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);
    assert_eq!(query_text(&endpoint, "races"), races_before);
    assert_eq!(query_text(&endpoint, "traces"), traces_before);
    // And resubmitting the same corpus is pure dedup.
    let mut client = Client::connect(&endpoint).unwrap();
    for body in &bodies {
        let verdict = submit_until_accepted(&mut client, body);
        assert!(verdict.starts_with("duplicate"), "{verdict}");
    }
    let summary = drain(&endpoint, join);
    assert_eq!(summary.deduped, bodies.len() as u64);
    assert_eq!(summary.ingested, 0);
    assert_eq!(summary.catalog.traces, committed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncating the tail mid-record loses exactly the final record and
/// nothing before it — salvage keeps the longest valid prefix.
#[test]
fn mid_record_truncation_loses_only_the_final_record() {
    let dir = scratch("midcut");
    let journal = dir.join("races.journal");
    let bodies: Vec<_> = corpus().into_iter().take(4).collect();

    let config = ServeConfig { catalog: Some(journal.clone()), ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);
    let mut client = Client::connect(&endpoint).unwrap();
    for body in &bodies {
        submit_until_accepted(&mut client, body);
    }
    let summary = drain(&endpoint, join);
    let committed = summary.catalog.traces;
    assert!(committed >= 2, "corpus head must be distinct traces");

    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();
    let reopened = Catalog::open(&journal).unwrap();
    assert_eq!(reopened.trace_count() as u64, committed - 1);
    assert!(!reopened.salvage().unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `STATS` carries the `serve.*`, `stream.*`, and `catalog.*`
/// vocabulary as a RunMetrics JSON report.
#[test]
fn stats_report_carries_the_serve_vocabulary() {
    let dir = scratch("stats");
    let (endpoint, join) = start(&dir, ServeConfig::default());
    let mut client = Client::connect(&endpoint).unwrap();
    submit_until_accepted(
        &mut client,
        &weak_trace(&catalog::fig1a().program, "fig1a", 1).to_binary(),
    );
    let bytes = weak_stream_bytes(&catalog::fig1a().program, 2);
    stream_until_closed(&endpoint, "fig1a", 2, &bytes, 96);
    let json = client.stats().unwrap().into_text().unwrap();
    for key in [
        "serve.submitted",
        "serve.ingested",
        "serve.queue_cap",
        "serve.workers",
        "stream.sessions",
        "stream.events",
        "stream.races",
        "stream.open",
        "stream.cap",
        "stream.feed_p50_ns",
        "catalog.traces",
        "catalog.races",
    ] {
        assert!(json.contains(key), "STATS report missing `{key}`:\n{json}");
    }
    drain(&endpoint, join);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh daemon's first `STATS` lists every counter, each at 0: the
/// daemon seeds its metrics record when it binds, so a counter nothing
/// has touched yet is still reported.
#[test]
fn stats_of_a_fresh_daemon_lists_every_counter_at_zero() {
    let dir = scratch("stats-fresh");
    let (endpoint, join) = start(&dir, ServeConfig::default());
    let json = Client::connect(&endpoint).unwrap().stats().unwrap().into_text().unwrap();
    for key in [
        "serve.submitted",
        "serve.ingested",
        "serve.deduped",
        "serve.rejected",
        "serve.busy",
        "serve.queries",
        "serve.predictions",
        "stream.sessions",
        "stream.sessions_rejected",
        "stream.events",
        "stream.races",
        "stream.epochs_promoted",
        "stream.crosscheck_failures",
    ] {
        assert!(json.contains(&format!("\"{key}\": 0")), "STATS report missing `{key}`:\n{json}");
    }
    drain(&endpoint, join);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streaming sessions and whole-trace submissions interleave freely
/// across concurrent connections, land in the same content-addressed
/// catalog, and every `CLOSE` cross-check agrees with the post-mortem.
#[test]
fn streams_and_submissions_interleave_into_one_catalog() {
    let dir = scratch("stream-mix");
    let (endpoint, join) = start(&dir, ServeConfig::default());

    // Concurrent lanes: work-queue executions arrive as SUBMITs while
    // fig1a executions stream in live, all at once.
    let wq = catalog::work_queue_buggy();
    let fig = catalog::fig1a();
    std::thread::scope(|scope| {
        for seed in 0..4u64 {
            let endpoint = &endpoint;
            let wq = &wq;
            let fig = &fig;
            scope.spawn(move || {
                let body = weak_trace(&wq.program, wq.name, seed).to_binary();
                let mut client = Client::connect(endpoint).unwrap();
                submit_until_accepted(&mut client, &body);
            });
            scope.spawn(move || {
                let bytes = weak_stream_bytes(&fig.program, seed);
                let verdict = stream_until_closed(endpoint, fig.name, seed, &bytes, 48);
                assert!(verdict.contains("match=yes"), "{verdict}");
            });
        }
    });

    // Digest parity: the post-hoc recording of every streamed
    // execution (same meta) is already in the catalog.
    let mut client = Client::connect(&endpoint).unwrap();
    for seed in 0..4u64 {
        let body = weak_trace(&fig.program, fig.name, seed).to_binary();
        let verdict = submit_until_accepted(&mut client, &body);
        assert!(verdict.starts_with("duplicate"), "stream/submit parity at seed {seed}: {verdict}");
    }

    let races = query_text(&endpoint, "races");
    assert!(races.contains("hits="), "{races}");
    let summary = drain(&endpoint, join);
    assert_eq!(summary.stream_sessions, 4);
    assert_eq!(summary.stream_crosscheck_failures, 0);
    assert!(summary.stream_events > 0);
    // 4 SUBMITs + 4 CLOSEs + 4 parity SUBMITs, every one a verdict.
    assert_eq!(summary.submitted, 12);
    assert_eq!(summary.ingested + summary.deduped, 12);
    assert_eq!(summary.rejected, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retired format versions are refused over the wire exactly as on
/// disk: a version-1 `WMRD` body gets a typed `ERR` to `SUBMIT`, a
/// headerless `WMRS` stream a typed `ERR` to its first `FEED`, and the
/// daemon keeps serving the same connection.
#[test]
fn retired_format_versions_get_err_replies() {
    let dir = scratch("retired");
    let (endpoint, join) = start(&dir, ServeConfig::default());
    let fig = catalog::fig1a();
    let mut client = Client::connect(&endpoint).unwrap();

    let mut v1 = weak_trace(&fig.program, fig.name, 0).to_binary();
    v1[4..6].copy_from_slice(&1u16.to_be_bytes());
    match client.submit(&v1).unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, wmrd_serve::ErrorCode::Decode, "{message}");
            assert!(message.contains("at byte 4: unsupported version 1"), "{message}");
        }
        other => panic!("expected a decode error for a v1 trace, got {other:?}"),
    }

    let stream = weak_stream_bytes(&fig.program, 0);
    assert!(matches!(
        client.stream_open("headerless", &StreamMeta::default()).unwrap(),
        Reply::Ok(_)
    ));
    match client.stream_feed(&stream[6..]).unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, wmrd_serve::ErrorCode::Decode, "{message}");
            assert!(message.contains("at byte 0: bad stream magic"), "{message}");
        }
        other => panic!("expected a decode error for a headerless stream, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap().into_text().unwrap(), "pong\n");

    let summary = drain(&endpoint, join);
    assert_eq!(summary.rejected, 1);
    assert_eq!(summary.ingested, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `PREDICT` re-analyzes a retained submission predictively and amends
/// the cataloged entry with the predicted identities: provenance shows
/// up in both text and JSON query renderings, re-prediction is an
/// idempotent no-op, and bad orders or forgotten digests come back as
/// typed query errors.
#[test]
fn predict_amends_retained_traces_with_typed_errors() {
    let dir = scratch("predict");
    let (endpoint, join) = start(&dir, ServeConfig::default());

    let mut client = Client::connect(&endpoint).unwrap();
    let body = weak_trace(&catalog::fig1a().program, "fig1a", 1).to_binary();
    let verdict = submit_until_accepted(&mut client, &body);
    assert!(verdict.starts_with("ingested"), "{verdict}");
    let digest = verdict.split_whitespace().nth(1).unwrap().to_string();

    // A bad order token is a typed query error, not a dropped line.
    match client.predict(&digest, Some("hb9")).unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, wmrd_serve::ErrorCode::Query);
            assert!(message.contains("shb|wcp"), "{message}");
        }
        other => panic!("expected a typed error for a bad order, got {other:?}"),
    }

    // Default order is wcp; the reply names the digest and tallies.
    let payload = match client.predict(&digest, None).unwrap() {
        Reply::Ok(payload) => String::from_utf8(payload).unwrap(),
        other => panic!("PREDICT failed: {other:?}"),
    };
    assert!(payload.starts_with(&format!("predicted {digest} order=wcp keys=")), "{payload}");

    // Predicting again adds no knowledge: the amendment dedups.
    let repeat = match client.predict(&digest, Some("wcp")).unwrap() {
        Reply::Ok(payload) => String::from_utf8(payload).unwrap(),
        other => panic!("repeat PREDICT failed: {other:?}"),
    };
    assert!(repeat.contains("new=0"), "{repeat}");

    // Provenance reaches both query renderings.
    let races = query_text(&endpoint, "races");
    assert!(races.contains("provenance=observed"), "{races}");
    let json = query_text(&endpoint, "json:races");
    assert!(json.contains("\"provenance\":"), "{json}");
    assert!(json.starts_with("{\"races\":["), "{json}");

    // An unknown digest is a typed query error.
    match client.predict("deadbeef", None).unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, wmrd_serve::ErrorCode::Query);
            assert!(message.contains("not retained"), "{message}");
        }
        other => panic!("expected a typed error for an unknown digest, got {other:?}"),
    }

    let summary = drain(&endpoint, join);
    assert_eq!(summary.predictions, 2, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention is working-set state, not durable: a restarted daemon
/// answers `PREDICT` for an old digest with a typed "resubmit" error,
/// while the amended provenance replays from the journal — and
/// resubmitting the same bytes re-retains the trace, after which a
/// replayed prediction adds nothing.
#[test]
fn predict_retention_is_not_durable_but_amendments_are() {
    let dir = scratch("predict-restart");
    let journal = dir.join("races.journal");
    let config = ServeConfig { catalog: Some(journal.clone()), ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);
    let mut client = Client::connect(&endpoint).unwrap();
    let body = weak_trace(&catalog::fig1a().program, "fig1a", 1).to_binary();
    let verdict = submit_until_accepted(&mut client, &body);
    let digest = verdict.split_whitespace().nth(1).unwrap().to_string();
    match client.predict(&digest, None).unwrap() {
        Reply::Ok(_) => {}
        other => panic!("PREDICT failed: {other:?}"),
    }
    let races = query_text(&endpoint, "races");
    drain(&endpoint, join);

    let config = ServeConfig { catalog: Some(journal.clone()), ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);
    let mut client = Client::connect(&endpoint).unwrap();
    match client.predict(&digest, None).unwrap() {
        Reply::Err { code, message } => {
            assert_eq!(code, wmrd_serve::ErrorCode::Query);
            assert!(message.contains("resubmit"), "{message}");
        }
        other => panic!("expected a typed error after restart, got {other:?}"),
    }
    assert_eq!(query_text(&endpoint, "races"), races, "amendments must survive the restart");
    let verdict = submit_until_accepted(&mut client, &body);
    assert!(verdict.starts_with("duplicate"), "{verdict}");
    let payload = match client.predict(&digest, None).unwrap() {
        Reply::Ok(payload) => String::from_utf8(payload).unwrap(),
        other => panic!("PREDICT after resubmission failed: {other:?}"),
    };
    assert!(payload.contains("new=0"), "a replayed prediction adds nothing: {payload}");
    let summary = drain(&endpoint, join);
    assert_eq!(summary.predictions, 1, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The session-slot bound is a typed `BUSY`, and a client that
/// vanishes mid-stream (half a record in flight) has its slot
/// reclaimed — no leak, no wedged daemon.
#[test]
fn stream_slots_are_bounded_and_reclaimed_on_disconnect() {
    let dir = scratch("stream-cap");
    let config = ServeConfig { max_streams: 2, ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);
    let meta = StreamMeta::default();

    let mut a = Client::connect(&endpoint).unwrap();
    let mut b = Client::connect(&endpoint).unwrap();
    assert!(matches!(a.stream_open("a", &meta).unwrap(), Reply::Ok(_)));
    assert!(matches!(b.stream_open("b", &meta).unwrap(), Reply::Ok(_)));

    // Both slots held: a third session is refused, typed, and the
    // daemon keeps answering on that same connection.
    let mut c = Client::connect(&endpoint).unwrap();
    match c.stream_open("c", &meta).unwrap() {
        Reply::Busy(m) => assert!(m.contains("capacity"), "{m}"),
        other => panic!("expected BUSY at the stream cap, got {other:?}"),
    }
    assert_eq!(c.ping().unwrap().into_text().unwrap(), "pong\n");

    // `a` dies mid-stream with a split record on the wire.
    let bytes = weak_stream_bytes(&catalog::fig1a().program, 3);
    assert!(matches!(a.stream_feed(&bytes[..10]).unwrap(), Reply::Ok(_)));
    drop(a);

    // The daemon notices the disconnect asynchronously; the freed slot
    // lets `c` in.
    let mut freed = false;
    for _ in 0..400 {
        match c.stream_open("c", &meta).unwrap() {
            Reply::Ok(_) => {
                freed = true;
                break;
            }
            Reply::Busy(_) => std::thread::sleep(Duration::from_millis(10)),
            Reply::Err { code, message } => panic!("({code:?}): {message}"),
        }
    }
    assert!(freed, "a dead client's stream slot must be reclaimed");

    // `b`'s session was never disturbed: it completes and cross-checks.
    for part in bytes.chunks(64) {
        assert!(matches!(b.stream_feed(part).unwrap(), Reply::Ok(_)));
    }
    let verdict = loop {
        match b.stream_close().unwrap() {
            Reply::Ok(payload) => break String::from_utf8(payload).unwrap(),
            Reply::Busy(_) => std::thread::sleep(Duration::from_millis(5)),
            Reply::Err { code, message } => panic!("close rejected ({code:?}): {message}"),
        }
    };
    assert!(verdict.contains("match=yes"), "{verdict}");

    drop(b);
    drop(c);
    let summary = drain(&endpoint, join);
    assert_eq!(summary.stream_sessions, 3, "{summary}");
    assert_eq!(summary.stream_crosscheck_failures, 0, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session whose `CLOSE` was refused `BUSY` is sealed: it takes no
/// more `FEED`s and waits for a retried `CLOSE`. A `STREAM` on the same
/// connection drops it and opens the new session in its slot, so a
/// client that stops retrying can carry on without reconnecting.
#[test]
fn stream_after_a_busy_close_replaces_the_sealed_session() {
    let dir = scratch("sealed");
    let config = ServeConfig { queue_cap: 0, max_streams: 1, ..ServeConfig::default() };
    let (endpoint, join) = start(&dir, config);
    let meta = StreamMeta::default();
    let bytes = weak_stream_bytes(&catalog::fig1a().program, 3);

    let mut client = Client::connect(&endpoint).unwrap();
    assert!(matches!(client.stream_open("first", &meta).unwrap(), Reply::Ok(_)));
    assert!(matches!(client.stream_feed(&bytes).unwrap(), Reply::Ok(_)));
    match client.stream_close().unwrap() {
        Reply::Busy(m) => assert!(m.contains("retry CLOSE"), "{m}"),
        other => panic!("expected BUSY from a zero-capacity queue, got {other:?}"),
    }
    match client.stream_feed(&bytes).unwrap() {
        Reply::Err { message, .. } => assert!(message.contains("sealed"), "{message}"),
        other => panic!("a sealed session takes no FEED, got {other:?}"),
    }

    // The one slot passes from the sealed session to the new one.
    match client.stream_open("second", &meta).unwrap() {
        Reply::Ok(payload) => assert_eq!(payload, b"opened second\n"),
        other => panic!("STREAM must replace a sealed session, got {other:?}"),
    }
    let mut other = Client::connect(&endpoint).unwrap();
    assert!(matches!(other.stream_open("third", &meta).unwrap(), Reply::Busy(_)));
    assert!(matches!(client.stream_feed(&bytes).unwrap(), Reply::Ok(_)));
    assert_eq!(client.ping().unwrap().into_text().unwrap(), "pong\n");

    drop(client);
    drop(other);
    let summary = drain(&endpoint, join);
    assert_eq!(summary.stream_sessions, 2, "{summary}");
    assert_eq!(summary.ingested, 0, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}
