//! A thin synchronous client for the daemon protocol.
//!
//! Each method sends one request and reads one reply. Replies are
//! returned as [`Reply`] so callers can distinguish the typed `BUSY`
//! backpressure signal from success and failure — a submitter that
//! wants retry-with-backoff needs that distinction, and flattening it
//! into an error would lose it. [`Client::stream_session`] is the one
//! place that runs a whole `STREAM`/`FEED`/`CLOSE` session, `CLOSE`
//! retries included.

use std::io::Write;
use std::time::Duration;

use crate::endpoint::{Endpoint, Stream};
use crate::protocol::{Reply, StreamMeta, MAX_PAYLOAD_BYTES};
use crate::ServeError;

/// `CLOSE` retries under a `BUSY` analysis queue before
/// [`Client::stream_session`] gives up.
const CLOSE_RETRIES: usize = 5;
/// Pause before each `CLOSE` retry.
const CLOSE_BACKOFF: Duration = Duration::from_millis(50);

/// A connected client.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects to the daemon at `endpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the connection fails.
    pub fn connect(endpoint: &Endpoint) -> Result<Self, ServeError> {
        Ok(Client { stream: Stream::connect(endpoint)? })
    }

    /// Submits an encoded binary (`WMRD`) trace for analysis.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] for oversized submissions and
    /// [`ServeError::Io`] for transport failures. A `BUSY` or `ERR`
    /// reply is **not** an error here — it comes back as the [`Reply`].
    pub fn submit(&mut self, bytes: &[u8]) -> Result<Reply, ServeError> {
        if bytes.len() > MAX_PAYLOAD_BYTES {
            return Err(ServeError::Protocol(format!(
                "trace of {} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte submission bound",
                bytes.len()
            )));
        }
        self.stream.write_all(format!("SUBMIT {}\n", bytes.len()).as_bytes())?;
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Reply::read_from(&mut self.stream)
    }

    /// Runs a catalog query (`races`, `traces`, `key=…`, `program=…`,
    /// `model=…`, `since=…`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for transport failures.
    pub fn query(&mut self, spec: &str) -> Result<Reply, ServeError> {
        self.request_line(&format!("QUERY {spec}\n"))
    }

    /// Fetches the daemon's metrics report as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for transport failures.
    pub fn stats(&mut self) -> Result<Reply, ServeError> {
        self.request_line("STATS\n")
    }

    /// Asks the daemon to compact its catalog journal.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for transport failures.
    pub fn compact(&mut self) -> Result<Reply, ServeError> {
        self.request_line("COMPACT\n")
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for transport failures.
    pub fn ping(&mut self) -> Result<Reply, ServeError> {
        self.request_line("PING\n")
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for transport failures.
    pub fn shutdown(&mut self) -> Result<Reply, ServeError> {
        self.request_line("SHUTDOWN\n")
    }

    /// Opens a streaming session named `name` on this connection.
    ///
    /// Optional provenance in `meta` is carried as `key=value` tokens
    /// on the request line and stamped onto the reassembled trace at
    /// `CLOSE` — matching it to a `SUBMIT`'s metadata makes the two
    /// paths deduplicate against each other in the catalog.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] if `name` or a metadata value
    /// cannot be carried on a request line, and [`ServeError::Io`] for
    /// transport failures. `BUSY` (no session slot) comes back as the
    /// [`Reply`].
    pub fn stream_open(&mut self, name: &str, meta: &StreamMeta) -> Result<Reply, ServeError> {
        token("stream session name", name, false)?;
        let mut line = format!("STREAM {name}");
        for (key, value) in [("program", &meta.program), ("model", &meta.model)] {
            if let Some(value) = value {
                token(&format!("stream metadata `{key}`"), value, true)?;
                line.push_str(&format!(" {key}={value}"));
            }
        }
        if let Some(seed) = meta.seed {
            line.push_str(&format!(" seed={seed}"));
        }
        line.push('\n');
        self.request_line(&line)
    }

    /// Feeds one chunk of WMRS stream bytes to the open session.
    ///
    /// Chunks may split records (and the stream header) at any byte
    /// boundary; the daemon reassembles them. The reply reports races
    /// completed by this chunk.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] for oversized chunks and
    /// [`ServeError::Io`] for transport failures.
    pub fn stream_feed(&mut self, chunk: &[u8]) -> Result<Reply, ServeError> {
        if chunk.len() > MAX_PAYLOAD_BYTES {
            return Err(ServeError::Protocol(format!(
                "chunk of {} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte bound",
                chunk.len()
            )));
        }
        self.stream.write_all(format!("FEED {}\n", chunk.len()).as_bytes())?;
        self.stream.write_all(chunk)?;
        self.stream.flush()?;
        Reply::read_from(&mut self.stream)
    }

    /// Closes the open session: the daemon seals the reassembled
    /// trace, analyzes it post-mortem, cross-checks the streamed race
    /// keys, and ingests the result into the catalog. On a `BUSY`
    /// reply the session stays open and `stream_close` can simply be
    /// retried.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for transport failures.
    pub fn stream_close(&mut self) -> Result<Reply, ServeError> {
        self.request_line("CLOSE\n")
    }

    /// Runs a whole streaming session on this connection: `STREAM
    /// name`, then `bytes` in `FEED`s of at most `chunk` bytes, then
    /// `CLOSE`. A `BUSY` answer to `CLOSE` (the analysis queue is full;
    /// the sealed session survives it) is retried up to 5 times, 50 ms
    /// apart.
    ///
    /// `on_reply` sees each reply that keeps the session going: the
    /// `OK` to `STREAM` and to every `FEED`, and every `BUSY` to a
    /// `CLOSE` that is about to be retried. The first other reply ends
    /// the session and is returned: a refused `STREAM`, a failed
    /// `FEED`, or the last answer to `CLOSE`.
    ///
    /// # Errors
    ///
    /// As [`Client::stream_open`] and [`Client::stream_feed`]. A `BUSY`
    /// or `ERR` reply is **not** an error here — it comes back as the
    /// [`Reply`].
    pub fn stream_session(
        &mut self,
        name: &str,
        meta: &StreamMeta,
        bytes: &[u8],
        chunk: usize,
        mut on_reply: impl FnMut(&Reply),
    ) -> Result<Reply, ServeError> {
        let opened = self.stream_open(name, meta)?;
        if !matches!(opened, Reply::Ok(_)) {
            return Ok(opened);
        }
        on_reply(&opened);
        for frame in bytes.chunks(chunk.max(1)) {
            let fed = self.stream_feed(frame)?;
            if !matches!(fed, Reply::Ok(_)) {
                return Ok(fed);
            }
            on_reply(&fed);
        }
        for _ in 0..CLOSE_RETRIES {
            match self.stream_close()? {
                busy @ Reply::Busy(_) => {
                    on_reply(&busy);
                    std::thread::sleep(CLOSE_BACKOFF);
                }
                reply => return Ok(reply),
            }
        }
        self.stream_close()
    }

    /// Asks the daemon to predictively re-analyze the retained trace
    /// with digest token `digest`, amending its catalog entry with the
    /// predicted race identities. `order` selects the partial order
    /// (`"shb"` or `"wcp"`); `None` uses the daemon default (`wcp`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] if `digest` cannot be carried
    /// on a request line and [`ServeError::Io`] for transport
    /// failures. A trace the daemon no longer retains comes back as a
    /// typed `ERR query` [`Reply`], not an `Err`.
    pub fn predict(&mut self, digest: &str, order: Option<&str>) -> Result<Reply, ServeError> {
        token("digest", digest, false)?;
        let mut line = format!("PREDICT {digest}");
        if let Some(order) = order {
            token("order", order, true)?;
            line.push_str(&format!(" order={order}"));
        }
        line.push('\n');
        self.request_line(&line)
    }

    fn request_line(&mut self, line: &str) -> Result<Reply, ServeError> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.flush()?;
        Reply::read_from(&mut self.stream)
    }
}

/// Checks that `value` can travel as one token of a request line: free
/// of `=`, spaces and newlines, and non-empty unless `may_be_empty`.
fn token(what: &str, value: &str, may_be_empty: bool) -> Result<(), ServeError> {
    if (value.is_empty() && !may_be_empty) || value.contains(['=', ' ', '\n']) {
        let rule = if may_be_empty { "" } else { "non-empty and " };
        return Err(ServeError::Protocol(format!(
            "{what} `{value}` must be {rule}free of `=`, spaces, and newlines"
        )));
    }
    Ok(())
}
