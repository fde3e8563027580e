//! The daemon's metrics record and the latency windows behind `STATS`.

use std::sync::Mutex;

use wmrd_trace::{metric_keys, Metrics};

/// Samples kept in the latency ring; old samples are overwritten so
/// percentiles track recent behavior with bounded memory.
const LATENCY_WINDOW: usize = 4096;

/// A fixed-size ring of recent analysis latencies (nanoseconds).
#[derive(Debug, Default)]
pub struct LatencyWindow {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyWindow {
    /// Records one sample, evicting the oldest once the window fills.
    pub fn record(&mut self, nanos: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(nanos);
        } else {
            self.samples[self.next] = nanos;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }

    /// The `p`-th percentile (0–100) of the window, 0 when empty.
    ///
    /// Nearest-rank on a sorted copy: exact for the window, and the
    /// window is small enough that sorting on demand beats maintaining
    /// an ordered structure on the hot path.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = (p as usize * sorted.len()).div_ceil(100);
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// The daemon's counters, all seeded at 0 when it binds so `STATS`
/// lists every one of them before it is first touched.
const COUNTERS: [&str; 13] = [
    metric_keys::SERVE_SUBMITTED,
    metric_keys::SERVE_INGESTED,
    metric_keys::SERVE_DEDUPED,
    metric_keys::SERVE_REJECTED,
    metric_keys::SERVE_BUSY,
    metric_keys::SERVE_QUERIES,
    metric_keys::SERVE_PREDICTIONS,
    metric_keys::STREAM_SESSIONS,
    metric_keys::STREAM_SESSIONS_REJECTED,
    metric_keys::STREAM_EVENTS,
    metric_keys::STREAM_RACES,
    metric_keys::STREAM_EPOCHS_PROMOTED,
    metric_keys::STREAM_CROSSCHECK_FAILURES,
];

/// The daemon's one metrics record: an enabled [`Metrics`] holding
/// every `serve.*`/`stream.*` counter at 0.
pub fn serve_metrics() -> Metrics {
    let metrics = Metrics::enabled();
    for key in COUNTERS {
        metrics.add(key, 0);
    }
    metrics
}

/// (p50, p99) of a shared latency window, in nanoseconds.
pub fn percentiles(window: &Mutex<LatencyWindow>) -> (u64, u64) {
    let window = window.lock().unwrap_or_else(|e| e.into_inner());
    (window.percentile(50), window.percentile(99))
}

/// Records one sample into a shared latency window.
pub fn record(window: &Mutex<LatencyWindow>, nanos: u64) {
    window.lock().unwrap_or_else(|e| e.into_inner()).record(nanos);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_distribution() {
        let mut w = LatencyWindow::default();
        assert_eq!(w.percentile(50), 0, "empty window reports 0");
        for v in 1..=100 {
            w.record(v);
        }
        assert_eq!(w.percentile(50), 50);
        assert_eq!(w.percentile(99), 99);
        assert_eq!(w.percentile(100), 100);
    }

    #[test]
    fn window_is_bounded() {
        let mut w = LatencyWindow::default();
        for v in 0..(LATENCY_WINDOW as u64 * 3) {
            w.record(v);
        }
        assert_eq!(w.samples.len(), LATENCY_WINDOW);
        // Only the most recent window's samples remain.
        assert!(w.samples.iter().all(|&v| v >= LATENCY_WINDOW as u64 * 2));
    }

    #[test]
    fn stats_counters_accumulate() {
        let s = serve_metrics();
        s.incr(metric_keys::SERVE_SUBMITTED);
        s.incr(metric_keys::SERVE_SUBMITTED);
        assert_eq!(s.counter(metric_keys::SERVE_SUBMITTED), Some(2));
        let latency = Mutex::new(LatencyWindow::default());
        record(&latency, 10);
        record(&latency, 20);
        let (p50, p99) = percentiles(&latency);
        assert_eq!(p50, 10);
        assert_eq!(p99, 20);
    }
}
