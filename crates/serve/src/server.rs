//! The daemon: accept loop, connection handlers, and the bounded
//! analysis worker pool.
//!
//! Concurrency layout:
//!
//! * one nonblocking **accept loop** (the thread that called
//!   [`Server::run`]), polling for connections and the shutdown flag;
//! * one **connection handler** thread per client, which parses
//!   requests, answers queries directly (catalog reads are cheap), and
//!   turns each `SUBMIT` into a job on the bounded queue;
//! * `workers` **analysis threads**, which pop jobs, run the paper's
//!   post-mortem analysis ([`PostMortem`]), ingest the result into the
//!   shared [`Catalog`], and send the outcome back to the waiting
//!   handler.
//!
//! Connection handlers additionally own the daemon's **streaming
//! sessions** (`STREAM`/`FEED`/`CLOSE`, documented in `SERVING.md`):
//! each session couples an incremental [`StreamDecoder`] with the
//! exact online [`StreamDetector`], reporting races as chunks arrive,
//! and a `CLOSE` replays the reassembled trace through the ordinary
//! post-mortem worker path so the streamed result is cross-checked
//! against — and cataloged exactly like — a `SUBMIT`.
//!
//! Memory is bounded end to end: request lines and bodies are
//! length-checked before allocation, the job queue refuses work at its
//! cap (a typed `BUSY` reply), streaming sessions are counted against
//! an explicit slot cap (`max_streams`, also a `BUSY`), and the
//! latency windows are fixed-size rings. Graceful drain — on a
//! `SHUTDOWN` request or SIGTERM — stops accepting, closes the queue,
//! lets workers finish the backlog, and joins every thread before
//! [`Server::run`] returns its summary.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use wmrd_catalog::{
    format_key, Catalog, CatalogStats, IngestOutcome, JournalRecord, Provenance, Query,
    RaceObservation,
};
use wmrd_core::{event_race_keys, PairingPolicy, PostMortem, RaceKey, StreamDetector};
use wmrd_predict::{predict, PredictOrder};
use wmrd_trace::{metric_keys, Metrics, StreamDecoder, TraceBuilder, TraceMeta, TraceSet};

use crate::endpoint::{Endpoint, Listener, Stream};
use crate::protocol::{
    read_exact_bounded, read_line_into, ErrorCode, LineStatus, Reply, Request, StreamMeta,
};
use crate::queue::{JobQueue, PushRefused};
use crate::stats::{self, LatencyWindow};
use crate::ServeError;

/// How often the accept loop polls for connections and shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Read timeout while a handler waits for the next request line —
/// the cadence at which idle connections notice a drain.
const IDLE_POLL: Duration = Duration::from_millis(200);
/// Read timeout for a `SUBMIT` body: a client that stalls longer
/// mid-upload forfeits the connection (and bounds drain time).
const BODY_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Analysis worker threads (clamped to at least 1).
    pub workers: usize,
    /// Pending-analysis queue capacity — the explicit backpressure
    /// bound. Zero refuses every submission with `BUSY`.
    pub queue_cap: usize,
    /// Journal path for a durable catalog; `None` keeps it in memory.
    pub catalog: Option<PathBuf>,
    /// Pairing policy for server-side analysis.
    pub pairing: PairingPolicy,
    /// Streaming sessions the daemon will hold open at once; a
    /// `STREAM` beyond this cap is refused with `BUSY`. Zero disables
    /// streaming entirely.
    pub max_streams: usize,
    /// Analyzed traces kept in memory (FIFO) so `PREDICT` can
    /// re-analyze them without resubmission. Zero disables retention
    /// (every `PREDICT` answers "not retained").
    pub retain_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            catalog: None,
            pairing: PairingPolicy::ByRole,
            max_streams: 4,
            retain_cap: 128,
        }
    }
}

/// What the daemon did over its lifetime, reported when
/// [`Server::run`] returns after a drain.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// The resolved listen endpoint.
    pub endpoint: String,
    /// `SUBMIT` requests accepted for analysis.
    pub submitted: u64,
    /// Submissions that added a new trace.
    pub ingested: u64,
    /// Submissions deduplicated by digest.
    pub deduped: u64,
    /// Submissions rejected with a typed error.
    pub rejected: u64,
    /// Submissions refused with `BUSY`.
    pub busy: u64,
    /// Queries answered.
    pub queries: u64,
    /// Streaming sessions opened.
    pub stream_sessions: u64,
    /// Operations ingested through `FEED` chunks.
    pub stream_events: u64,
    /// Race identities first reported mid-stream, before `CLOSE`.
    pub stream_races: u64,
    /// Sessions whose streamed race keys disagreed with the
    /// post-mortem cross-check at `CLOSE` (must stay zero).
    pub stream_crosscheck_failures: u64,
    /// `PREDICT` requests that completed a predictive re-analysis.
    pub predictions: u64,
    /// Final catalog counters.
    pub catalog: CatalogStats,
}

impl fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "served on {}", self.endpoint)?;
        writeln!(
            f,
            "submissions: {} ({} ingested, {} deduplicated, {} rejected, {} busy)",
            self.submitted, self.ingested, self.deduped, self.rejected, self.busy
        )?;
        writeln!(f, "queries: {}", self.queries)?;
        writeln!(
            f,
            "streams: {} sessions ({} events, {} mid-stream races, {} cross-check failures)",
            self.stream_sessions,
            self.stream_events,
            self.stream_races,
            self.stream_crosscheck_failures
        )?;
        writeln!(f, "predictions: {}", self.predictions)?;
        write!(
            f,
            "catalog: {} traces, {} race identities, {} observations",
            self.catalog.traces, self.catalog.races, self.catalog.observations
        )
    }
}

/// What a worker sends back per analyzed trace: the catalog outcome
/// plus the post-mortem race-key set, which `CLOSE` compares against
/// the streamed keys (a plain `SUBMIT` ignores the key set).
type AnalysisResult = Result<(IngestOutcome, BTreeSet<RaceKey>), (ErrorCode, String)>;

/// One pending analysis: the decoded trace plus the channel the
/// connection handler is waiting on.
struct Job {
    trace: TraceSet,
    enqueued: Instant,
    reply: mpsc::Sender<AnalysisResult>,
}

/// A bounded FIFO of analyzed traces, keyed by digest token, kept so
/// `PREDICT <digest>` can re-analyze a submission without the client
/// resending it. Retention is best-effort working-set state, not
/// durable: a restarted daemon answers `PREDICT` for old digests with
/// a typed "resubmit it" error (documented in SERVING.md).
struct RetainedTraces {
    map: BTreeMap<String, TraceSet>,
    /// Digests in insertion order; the front is evicted at capacity.
    order: VecDeque<String>,
    cap: usize,
}

impl RetainedTraces {
    fn new(cap: usize) -> Self {
        RetainedTraces { map: BTreeMap::new(), order: VecDeque::new(), cap }
    }

    /// Retains `trace` under `digest`, evicting the oldest entry at
    /// capacity. Re-retaining a known digest refreshes nothing — the
    /// trace is content-addressed, so the bytes are identical.
    fn retain(&mut self, digest: String, trace: &TraceSet) {
        if self.cap == 0 || self.map.contains_key(&digest) {
            return;
        }
        while self.map.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.order.push_back(digest.clone());
        self.map.insert(digest, trace.clone());
    }

    fn get(&self, digest: &str) -> Option<&TraceSet> {
        self.map.get(digest)
    }
}

/// State shared by the accept loop, handlers, and workers.
struct Shared {
    queue: JobQueue<Job>,
    catalog: Mutex<Catalog>,
    /// The daemon's one metrics record: every `serve.*`/`stream.*`
    /// counter, recorded where it happens and reported by `STATS`.
    metrics: Metrics,
    /// Recent end-to-end analysis latencies.
    latency: Mutex<LatencyWindow>,
    /// Recent per-`FEED` ingest-to-detection latencies.
    feed_latency: Mutex<LatencyWindow>,
    shutdown: AtomicBool,
    /// Streaming sessions currently open, bounded by
    /// [`ServeConfig::max_streams`].
    stream_open: AtomicUsize,
    /// Recently analyzed traces available to `PREDICT`.
    retained: Mutex<RetainedTraces>,
    endpoint: Endpoint,
    config: ServeConfig,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || sigterm::received()
    }
}

/// A clonable remote control for a running server — the programmatic
/// equivalent of SIGTERM, for embedding the daemon in tests and tools.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle").field("endpoint", &self.shared.endpoint).finish()
    }
}

impl ServerHandle {
    /// Begins a graceful drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// The resolved endpoint the server listens on.
    pub fn endpoint(&self) -> Endpoint {
        self.shared.endpoint.clone()
    }
}

/// A bound, not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared").field("endpoint", &self.endpoint).finish()
    }
}

impl Server {
    /// Binds `endpoint` and opens (or creates) the catalog.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if binding fails and
    /// [`ServeError::Catalog`] if the journal is unusable.
    pub fn bind(endpoint: &Endpoint, config: ServeConfig) -> Result<Self, ServeError> {
        let catalog = match &config.catalog {
            Some(path) => Catalog::open(path)?,
            None => Catalog::in_memory(),
        };
        let (listener, resolved) = Listener::bind(endpoint)?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_cap),
            catalog: Mutex::new(catalog),
            metrics: stats::serve_metrics(),
            latency: Mutex::default(),
            feed_latency: Mutex::default(),
            shutdown: AtomicBool::new(false),
            stream_open: AtomicUsize::new(0),
            retained: Mutex::new(RetainedTraces::new(config.retain_cap)),
            endpoint: resolved,
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The resolved endpoint (a TCP bind to port 0 shows its assigned
    /// port here).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// A remote control for triggering a drain from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Runs the daemon until a `SHUTDOWN` request, a
    /// [`ServerHandle::shutdown`], or SIGTERM, then drains and
    /// reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] only for fatal listener failures;
    /// per-connection and per-submission failures are contained and
    /// counted.
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        sigterm::install();
        self.listener.set_nonblocking(true)?;

        let shared = &self.shared;
        let summary = std::thread::scope(|scope| -> Result<ServeSummary, ServeError> {
            let workers: Vec<_> = (0..shared.config.workers.max(1))
                .map(|_| scope.spawn(|| worker_loop(shared)))
                .collect();
            let mut handlers = Vec::new();

            while !shared.draining() {
                match self.listener.accept()? {
                    Some(stream) => {
                        handlers.push(scope.spawn(move || handle_connection(shared, stream)));
                    }
                    None => std::thread::sleep(ACCEPT_POLL),
                }
            }

            // Drain: no new connections; handlers see the flag within
            // one idle poll; the queue backlog is finished by the
            // workers before they exit.
            for h in handlers {
                let _ = h.join();
            }
            shared.queue.close();
            for w in workers {
                let _ = w.join();
            }

            let count = |key| shared.metrics.counter(key).unwrap_or(0);
            let catalog = shared.catalog.lock().unwrap_or_else(|e| e.into_inner());
            Ok(ServeSummary {
                endpoint: shared.endpoint.to_string(),
                submitted: count(metric_keys::SERVE_SUBMITTED),
                ingested: count(metric_keys::SERVE_INGESTED),
                deduped: count(metric_keys::SERVE_DEDUPED),
                rejected: count(metric_keys::SERVE_REJECTED),
                busy: count(metric_keys::SERVE_BUSY),
                queries: count(metric_keys::SERVE_QUERIES),
                stream_sessions: count(metric_keys::STREAM_SESSIONS),
                stream_events: count(metric_keys::STREAM_EVENTS),
                stream_races: count(metric_keys::STREAM_RACES),
                stream_crosscheck_failures: count(metric_keys::STREAM_CROSSCHECK_FAILURES),
                predictions: count(metric_keys::SERVE_PREDICTIONS),
                catalog: catalog.stats(),
            })
        });
        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
        summary
    }
}

/// The analysis worker: pop, analyze, ingest, reply — with the same
/// panic containment as the explore engine, so one adversarial trace
/// cannot take the daemon down.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let Job { trace, enqueued, reply } = job;
        let pairing = shared.config.pairing;
        let result = catch_unwind(AssertUnwindSafe(|| analyze_and_ingest(shared, &trace, pairing)))
            .unwrap_or_else(|_| {
                Err((ErrorCode::Internal, "analysis panicked; submission contained".into()))
            });
        stats::record(&shared.latency, enqueued.elapsed().as_nanos() as u64);
        shared.metrics.incr(match &result {
            Ok((outcome, _)) if outcome.duplicate => metric_keys::SERVE_DEDUPED,
            Ok(_) => metric_keys::SERVE_INGESTED,
            Err(_) => metric_keys::SERVE_REJECTED,
        });
        let _ = reply.send(result);
    }
}

fn analyze_and_ingest(shared: &Shared, trace: &TraceSet, pairing: PairingPolicy) -> AnalysisResult {
    let report = PostMortem::new(trace)
        .pairing(pairing)
        .analyze()
        .map_err(|e| (ErrorCode::Analysis, e.to_string()))?;
    let keys = event_race_keys(&report.races, trace);
    let record = Catalog::record_for(trace, &report);
    let outcome = {
        let mut catalog = shared.catalog.lock().unwrap_or_else(|e| e.into_inner());
        catalog.ingest(&record).map_err(|e| (ErrorCode::Internal, e.to_string()))?
    };
    // Retain the trace for PREDICT — duplicates included, so
    // resubmitting an evicted trace makes it predictable again.
    shared.retained.lock().unwrap_or_else(|e| e.into_inner()).retain(outcome.digest.clone(), trace);
    Ok((outcome, keys))
}

/// One client connection: request lines in, replies out, until EOF,
/// a fatal transport error, or a drain. However the connection ends,
/// an open streaming session is discarded and its slot freed — a
/// client that vanishes mid-stream cannot leak capacity.
fn handle_connection(shared: &Shared, mut stream: Stream) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let mut session: Option<StreamSession> = None;
    serve_requests(shared, &mut stream, &mut session);
    discard_session(shared, &mut session);
}

/// The request loop behind [`handle_connection`]; returning (for any
/// reason) hands the session back for cleanup.
fn serve_requests(shared: &Shared, stream: &mut Stream, session: &mut Option<StreamSession>) {
    let mut partial = Vec::new();
    loop {
        let line = match read_line_into(stream, &mut partial) {
            Ok(LineStatus::Line(line)) => line,
            Ok(LineStatus::Eof) => return,
            Err(ServeError::Io(e)) if is_timeout(&e) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let reply = match Request::parse(&line) {
            Ok(request) => match dispatch(shared, stream, session, request) {
                Ok(Dispatch::Reply(reply)) => reply,
                Ok(Dispatch::Hangup) => return,
                Err(()) => return,
            },
            Err(e) => Reply::Err { code: ErrorCode::Proto, message: e.to_string() },
        };
        if reply.write_to(stream).is_err() {
            return;
        }
    }
}

/// What a dispatched request asks the connection loop to do next.
enum Dispatch {
    /// Send this reply and keep serving.
    Reply(Reply),
    /// Send nothing further; close the connection.
    Hangup,
}

/// Executes one parsed request. `Err(())` means the transport broke
/// mid-request and the connection must close without a reply.
fn dispatch(
    shared: &Shared,
    stream: &mut Stream,
    session: &mut Option<StreamSession>,
    request: Request,
) -> Result<Dispatch, ()> {
    let reply = match request {
        Request::Submit { len } => submit(shared, &read_body(stream, len)?),
        Request::Stream { name, meta } => open_stream(shared, session, name, meta),
        Request::Feed { len } => feed_stream(shared, session, &read_body(stream, len)?),
        Request::Close => close_stream(shared, session),
        Request::Query(spec) => {
            shared.metrics.incr(metric_keys::SERVE_QUERIES);
            match Query::parse_spec(&spec) {
                Ok((query, json)) => {
                    let catalog = shared.catalog.lock().unwrap_or_else(|e| e.into_inner());
                    let answer =
                        if json { catalog.query_json(&query) } else { catalog.query(&query) };
                    match answer {
                        Ok(text) => Reply::Ok(text.into_bytes()),
                        Err(e) => Reply::Err { code: ErrorCode::Query, message: e.to_string() },
                    }
                }
                Err(e) => Reply::Err { code: ErrorCode::Query, message: e.to_string() },
            }
        }
        Request::Predict { digest, order } => predict_retained(shared, &digest, order.as_deref()),
        Request::Stats => Reply::Ok(stats_payload(shared).into_bytes()),
        Request::Compact => {
            let mut catalog = shared.catalog.lock().unwrap_or_else(|e| e.into_inner());
            match catalog.compact() {
                Ok(()) => Reply::Ok(b"compacted\n".to_vec()),
                Err(e) => Reply::Err { code: ErrorCode::Internal, message: e.to_string() },
            }
        }
        Request::Ping => Reply::Ok(b"pong\n".to_vec()),
        Request::Shutdown => {
            let _ = Reply::Ok(b"draining\n".to_vec()).write_to(stream);
            shared.shutdown.store(true, Ordering::SeqCst);
            return Ok(Dispatch::Hangup);
        }
    };
    Ok(Dispatch::Reply(reply))
}

/// Reads a `SUBMIT` or `FEED` body under a generous timeout: stalling
/// mid-upload desynchronizes the stream, so it forfeits the connection
/// (`Err`) rather than blocking a drain forever. A `FEED` chunk is
/// consumed even when no session is open, keeping the line protocol in
/// sync so the error is reportable.
fn read_body(stream: &mut Stream, len: usize) -> Result<Vec<u8>, ()> {
    let _ = stream.set_read_timeout(Some(BODY_TIMEOUT));
    let body = read_exact_bounded(stream, len);
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    body.map_err(|_| ())
}

/// Decodes (binary `WMRD` traces only) and analyzes one submission.
fn submit(shared: &Shared, body: &[u8]) -> Reply {
    let trace = match TraceSet::from_binary(body) {
        Ok(trace) => trace,
        Err(e) => {
            // A rejection is still a submission answered with a verdict;
            // only BUSY refusals (the client retries) stay uncounted, so
            // `ingested + deduped + rejected <= submitted` holds.
            shared.metrics.incr(metric_keys::SERVE_SUBMITTED);
            shared.metrics.incr(metric_keys::SERVE_REJECTED);
            return Reply::Err { code: ErrorCode::Decode, message: e.to_string() };
        }
    };
    match analyze_on_worker(shared, trace, "") {
        Ok((outcome, _keys)) => {
            let verdict = if outcome.duplicate { "duplicate" } else { "ingested" };
            Reply::Ok(
                format!(
                    "{verdict} {} races={} new={}\n",
                    outcome.digest, outcome.races, outcome.new_races
                )
                .into_bytes(),
            )
        }
        Err(reply) => reply,
    }
}

/// The one hand-off from a connection handler to the worker pool, for
/// `SUBMIT` and `CLOSE` alike: pushes the job, counts it as submitted,
/// and waits for the verdict. A full or closed queue is refused with
/// the typed `BUSY` reply (`retry` is appended to the full-queue
/// message) and counted as busy; a failed analysis comes back as its
/// `ERR` reply.
fn analyze_on_worker(
    shared: &Shared,
    trace: TraceSet,
    retry: &str,
) -> Result<(IngestOutcome, BTreeSet<RaceKey>), Reply> {
    let (tx, rx) = mpsc::channel();
    let job = Job { trace, enqueued: Instant::now(), reply: tx };
    if let Err(refused) = shared.queue.try_push(job) {
        shared.metrics.incr(metric_keys::SERVE_BUSY);
        return Err(Reply::Busy(match refused {
            PushRefused::Busy => {
                format!("analysis queue at capacity ({}){retry}", shared.config.queue_cap)
            }
            PushRefused::Closed => "daemon draining".into(),
        }));
    }
    shared.metrics.incr(metric_keys::SERVE_SUBMITTED);
    match rx.recv() {
        Ok(Ok(done)) => Ok(done),
        Ok(Err((code, message))) => Err(Reply::Err { code, message }),
        Err(_) => {
            Err(Reply::Err { code: ErrorCode::Internal, message: "analysis worker lost".into() })
        }
    }
}

/// Per-connection streaming state behind an accepted `STREAM`: the
/// incremental decoder, the exact online detector, and a builder
/// reassembling the full trace for the post-mortem cross-check at
/// `CLOSE`. At most one session exists per connection; the global
/// count is bounded by [`ServeConfig::max_streams`].
struct StreamSession {
    /// Provenance stamped on the trace when `CLOSE` seals it.
    meta: TraceMeta,
    decoder: StreamDecoder,
    detector: StreamDetector,
    /// Receives every decoded record until `CLOSE` seals the trace.
    builder: TraceBuilder,
    /// The sealed trace, stashed so a `CLOSE` that was refused with
    /// `BUSY` can be retried without resending anything.
    sealed: Option<TraceSet>,
    /// Promotion count already flushed to the global
    /// `stream.epochs_promoted` counter.
    reported_promotions: u64,
}

/// Handles `STREAM`: acquires a session slot (or refuses with `BUSY`)
/// and installs fresh decoder/detector state on this connection. A
/// sealed session, whose `CLOSE` was refused `BUSY`, is dropped and its
/// slot freed first: a new `STREAM` means the client gave up retrying.
fn open_stream(
    shared: &Shared,
    session: &mut Option<StreamSession>,
    name: String,
    meta: StreamMeta,
) -> Reply {
    match session {
        Some(s) if s.sealed.is_some() => discard_session(shared, session),
        Some(_) => {
            return Reply::Err {
                code: ErrorCode::Proto,
                message: "a stream session is already open on this connection".into(),
            }
        }
        None => {}
    }
    let cap = shared.config.max_streams;
    let acquired = shared
        .stream_open
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < cap).then_some(n + 1))
        .is_ok();
    if !acquired {
        shared.metrics.incr(metric_keys::STREAM_SESSIONS_REJECTED);
        return Reply::Busy(format!("stream sessions at capacity ({cap})"));
    }
    shared.metrics.incr(metric_keys::STREAM_SESSIONS);
    let reply = Reply::Ok(format!("opened {name}\n").into_bytes());
    *session = Some(StreamSession {
        meta: TraceMeta { program: meta.program, model: meta.model, seed: meta.seed },
        decoder: StreamDecoder::new(),
        detector: StreamDetector::new(0, shared.config.pairing),
        builder: TraceBuilder::new(0),
        sealed: None,
        reported_promotions: 0,
    });
    reply
}

/// Drops a session (if any) and frees its slot — decode failures,
/// completed `CLOSE`s, and client disconnects all end here.
fn discard_session(shared: &Shared, session: &mut Option<StreamSession>) {
    if session.take().is_some() {
        shared.stream_open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handles one `FEED` chunk: decode, detect, reply with the races
/// whose second access arrived in this chunk. A decode error poisons
/// and discards the session (the stream cannot be resynchronized) but
/// keeps the connection alive.
fn feed_stream(shared: &Shared, session: &mut Option<StreamSession>, body: &[u8]) -> Reply {
    let Some(s) = session.as_mut() else {
        return Reply::Err {
            code: ErrorCode::Proto,
            message: "FEED without an open stream session (send STREAM first)".into(),
        };
    };
    if s.sealed.is_some() {
        return Reply::Err {
            code: ErrorCode::Proto,
            message: "session already sealed by CLOSE; retry CLOSE".into(),
        };
    }
    let started = Instant::now();
    let mut records = Vec::new();
    if let Err(e) = s.decoder.push(body, &mut records) {
        let message = e.to_string();
        discard_session(shared, session);
        return Reply::Err { code: ErrorCode::Decode, message };
    }
    for r in &records {
        r.apply(&mut s.builder);
    }
    let new = s.detector.feed(&records);

    shared.metrics.add(metric_keys::STREAM_EVENTS, records.len() as u64);
    shared.metrics.add(metric_keys::STREAM_RACES, new.len() as u64);
    let promoted = s.detector.promotions() - s.reported_promotions;
    s.reported_promotions = s.detector.promotions();
    shared.metrics.add(metric_keys::STREAM_EPOCHS_PROMOTED, promoted);
    stats::record(&shared.feed_latency, started.elapsed().as_nanos() as u64);

    let mut payload = format!(
        "fed events={} races={} new={}\n",
        records.len(),
        s.detector.race_keys().len(),
        new.len()
    );
    for race in &new {
        payload.push_str(&race.to_string());
        payload.push('\n');
    }
    Reply::Ok(payload.into_bytes())
}

/// Handles `CLOSE`: seals the trace, runs it through the ordinary
/// post-mortem worker path, cross-checks the streamed race keys
/// against the post-mortem set, and frees the session slot. A `BUSY`
/// queue keeps the sealed session alive so the client can retry
/// `CLOSE` without resending.
fn close_stream(shared: &Shared, session: &mut Option<StreamSession>) -> Reply {
    let Some(s) = session.as_mut() else {
        return Reply::Err {
            code: ErrorCode::Proto,
            message: "CLOSE without an open stream session".into(),
        };
    };
    // The worker gets a copy so a refused push can be retried from the
    // stash; the session keeps the original.
    let trace = match &s.sealed {
        Some(trace) => trace.clone(),
        None => {
            if let Err(e) = s.decoder.finish() {
                let message = e.to_string();
                discard_session(shared, session);
                return Reply::Err { code: ErrorCode::Decode, message };
            }
            let mut trace = std::mem::replace(&mut s.builder, TraceBuilder::new(0)).finish();
            trace.meta = s.meta.clone();
            s.sealed = Some(trace.clone());
            trace
        }
    };
    let (outcome, postmortem) = match analyze_on_worker(shared, trace, "; retry CLOSE") {
        Ok(done) => done,
        Err(busy @ Reply::Busy(_)) => return busy,
        Err(reply) => {
            discard_session(shared, session);
            return reply;
        }
    };
    let streamed = s.detector.race_keys();
    let matches = postmortem == *streamed;
    if !matches {
        shared.metrics.incr(metric_keys::STREAM_CROSSCHECK_FAILURES);
    }
    let verdict = if outcome.duplicate { "duplicate" } else { "ingested" };
    let reply = Reply::Ok(
        format!(
            "closed {} {verdict} races={} new={} streamed={} match={}\n",
            outcome.digest,
            outcome.races,
            outcome.new_races,
            streamed.len(),
            if matches { "yes" } else { "no" },
        )
        .into_bytes(),
    );
    discard_session(shared, session);
    reply
}

/// Handles `PREDICT`: looks up the retained trace, runs the predictive
/// engine over it, amends the catalog entry with the predicted race
/// identities, and reports the predicted-only keys. Prediction runs on
/// the handler thread — it is one graph pass over an already decoded
/// trace, cheap next to a post-mortem enumeration — with the same
/// panic containment as the worker path.
fn predict_retained(shared: &Shared, digest: &str, order: Option<&str>) -> Reply {
    let order = match order {
        None => PredictOrder::default(),
        Some(tok) => match PredictOrder::parse(tok) {
            Some(order) => order,
            None => {
                return Reply::Err {
                    code: ErrorCode::Query,
                    message: format!("unknown order `{tok}` (expected shb|wcp)"),
                }
            }
        },
    };
    let trace = {
        let retained = shared.retained.lock().unwrap_or_else(|e| e.into_inner());
        retained.get(digest).cloned()
    };
    let Some(trace) = trace else {
        return Reply::Err {
            code: ErrorCode::Query,
            message: format!("trace `{digest}` is not retained (resubmit it, then PREDICT again)"),
        };
    };
    let program = trace.meta.program.clone().unwrap_or_else(|| digest.to_string());
    let pairing = shared.config.pairing;
    let report = match catch_unwind(AssertUnwindSafe(|| predict(&trace, &program, pairing, order)))
    {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Reply::Err { code: ErrorCode::Analysis, message: e.to_string() },
        Err(_) => {
            return Reply::Err {
                code: ErrorCode::Internal,
                message: "prediction panicked; request contained".into(),
            }
        }
    };
    let record = JournalRecord {
        digest: digest.to_string(),
        program: trace.meta.program.clone(),
        model: trace.meta.model.clone(),
        seed: trace.meta.seed,
        events: trace.processors().iter().map(|p| p.events().len() as u64).sum(),
        races: report
            .keys
            .iter()
            .map(|&key| RaceObservation {
                key,
                first_partition: false,
                provenance: Provenance::PREDICTED,
            })
            .collect(),
        amend: true,
    };
    let outcome = {
        let mut catalog = shared.catalog.lock().unwrap_or_else(|e| e.into_inner());
        match catalog.ingest(&record) {
            Ok(outcome) => outcome,
            Err(e) => return Reply::Err { code: ErrorCode::Internal, message: e.to_string() },
        }
    };
    shared.metrics.incr(metric_keys::SERVE_PREDICTIONS);
    let mut payload = format!(
        "predicted {digest} order={order} keys={} observed={} predicted_only={} new={}\n",
        report.keys.len(),
        report.observed.len(),
        report.predicted_only().count(),
        outcome.new_races,
    );
    for key in report.predicted_only() {
        payload.push_str("  ");
        payload.push_str(&format_key(key));
        payload.push('\n');
    }
    Reply::Ok(payload.into_bytes())
}

/// Builds the `STATS` payload: the daemon's metrics record plus the
/// live gauges and the catalog's `catalog.*` vocabulary, as one
/// `RunMetrics` report (see `OBSERVABILITY.md`).
fn stats_payload(shared: &Shared) -> String {
    let live = Metrics::enabled();
    live.context("listen", &shared.endpoint);
    live.set_gauge(metric_keys::SERVE_QUEUE_DEPTH, shared.queue.depth() as u64);
    live.set_gauge(metric_keys::SERVE_QUEUE_CAP, shared.config.queue_cap as u64);
    live.set_gauge(metric_keys::SERVE_WORKERS, shared.config.workers.max(1) as u64);
    let (p50, p99) = stats::percentiles(&shared.latency);
    live.set_gauge(metric_keys::SERVE_ANALYSIS_P50_NS, p50);
    live.set_gauge(metric_keys::SERVE_ANALYSIS_P99_NS, p99);
    live.set_gauge(metric_keys::STREAM_OPEN, shared.stream_open.load(Ordering::SeqCst) as u64);
    live.set_gauge(metric_keys::STREAM_CAP, shared.config.max_streams as u64);
    let (fp50, fp99) = stats::percentiles(&shared.feed_latency);
    live.set_gauge(metric_keys::STREAM_FEED_P50_NS, fp50);
    live.set_gauge(metric_keys::STREAM_FEED_P99_NS, fp99);
    shared.catalog.lock().unwrap_or_else(|e| e.into_inner()).record_into(&live);
    let mut report = shared.metrics.report();
    report.merge(&live.report());
    report.to_json()
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// SIGTERM handling: a single async-signal-safe atomic store, checked
/// by the accept loop and connection handlers. This is the only
/// unsafe code in the workspace, and it exists because the daemon is
/// std-only: without libc, installing a handler needs one raw
/// `signal(2)` declaration.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    const SIGTERM: i32 = 15;
    static RECEIVED: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();

    extern "C" fn on_sigterm(_signum: i32) {
        // An atomic store is async-signal-safe.
        RECEIVED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the handler once per process.
    pub fn install() {
        INSTALL.call_once(|| {
            // SAFETY: `signal(2)` with a handler that only performs an
            // async-signal-safe atomic store.
            unsafe {
                let _ = signal(SIGTERM, on_sigterm);
            }
        });
    }

    /// `true` once SIGTERM has been delivered.
    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigterm {
    /// No signal handling off unix; drains come from `SHUTDOWN` or
    /// [`super::ServerHandle::shutdown`].
    pub fn install() {}

    /// Always `false` off unix.
    pub fn received() -> bool {
        false
    }
}
