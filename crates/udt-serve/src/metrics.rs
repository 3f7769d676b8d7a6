//! Serving metrics: per-model counters and latency histograms, plus the
//! server-wide health counters.
//!
//! Every value is a `udt_obs` primitive. Worker threads record one
//! observation per request after its batch completes (latency measured
//! from enqueue to reply, so queueing delay is included — that is the
//! figure a client actually experiences) into a [`udt_obs::Histogram`]:
//! 48 log₂ buckets over nanoseconds, a percentile reported as the upper
//! bound of the bucket holding it. The error is bounded by the bucket
//! width (a factor of 2) — plenty for p50/p95/p99 dashboards — in
//! exchange for constant memory and O(1) relaxed-atomic record cost.
//! The health counters and the queue-wait histogram are lock-free
//! [`udt_obs::Counter`] / [`udt_obs::Histogram`] fields. They live in
//! each [`ServeMetrics`] rather than in the process-wide
//! [`udt_obs::catalog`], so every server reports its own traffic even
//! when several share one process.
//!
//! [`ServeMetrics::render_prometheus`] (served by the `stats` command
//! with `"format":"prometheus"`) writes every line through `udt_obs`'s
//! exposition writers — the same ones that render the workspace
//! catalog, which it appends — so counters become `_total` series, the
//! log₂ buckets become cumulative `..._seconds` histograms with `le`
//! labels, and registry / queue gauges ride along.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use udt_obs::{
    escape_label_value, render_counter_into, render_gauge_into, render_header_into,
    render_histogram_into, Counter, Histogram,
};

use crate::protocol::{HealthStats, ModelInfo, ModelMetricsSnapshot, QueueStats};

/// `(name, help)` of the per-model families.
const REQUESTS: (&str, &str) = (
    "udt_serve_requests_total",
    "Requests served, including failed ones.",
);
const TUPLES: (&str, &str) = ("udt_serve_tuples_total", "Tuples classified.");
const ERRORS: (&str, &str) = ("udt_serve_errors_total", "Requests that failed.");
const LATENCY: (&str, &str) = (
    "udt_serve_request_latency_seconds",
    "Enqueue-to-reply latency (log2 buckets).",
);

/// One model's counters. Every record and read of them holds the
/// per-model map's mutex, so one `stats` snapshot reads `requests` and
/// the latency count consistently.
#[derive(Debug)]
struct ModelCounters {
    requests: Counter,
    tuples: Counter,
    errors: Counter,
    latency: Histogram,
}

impl Default for ModelCounters {
    fn default() -> Self {
        ModelCounters {
            requests: Counter::new(REQUESTS.0, REQUESTS.1),
            tuples: Counter::new(TUPLES.0, TUPLES.1),
            errors: Counter::new(ERRORS.0, ERRORS.1),
            latency: Histogram::new(LATENCY.0, LATENCY.1),
        }
    }
}

/// Aggregated serving metrics, shared by every worker and connection
/// thread. The per-model map sits behind one mutex whose critical
/// sections are a handful of relaxed atomic adds, and its lock recovers
/// from poisoning (`into_inner`): a panicking worker must not take the
/// metrics — and with them every future `stats` response — down with
/// it. The server-wide health counters are not per model (a shed request
/// is rejected before its model name matters, and keying rejections by
/// client-supplied strings would let an attacker grow the map); each is
/// an independent relaxed atomic.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    per_model: Mutex<HashMap<String, ModelCounters>>,
    sheds: Counter,
    deadline_drops: Counter,
    worker_panics: Counter,
    rejected_connections: Counter,
    flushes: Counter,
    flushed_jobs: Counter,
    queue_wait: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            started: Instant::now(),
            per_model: Mutex::new(HashMap::new()),
            sheds: Counter::new(
                "udt_serve_sheds_total",
                "Requests rejected at admission (queue full).",
            ),
            deadline_drops: Counter::new(
                "udt_serve_deadline_drops_total",
                "Accepted jobs dropped at dequeue past their deadline.",
            ),
            worker_panics: Counter::new(
                "udt_serve_worker_panics_total",
                "Worker panics caught and contained.",
            ),
            rejected_connections: Counter::new(
                "udt_serve_rejected_connections_total",
                "Connections refused by the max-connections gate.",
            ),
            flushes: Counter::new(
                "udt_serve_flushes_total",
                "Micro-batches the scheduler workers flushed.",
            ),
            flushed_jobs: Counter::new(
                "udt_serve_flushed_jobs_total",
                "Jobs served across all flushes (per flush: divide by udt_serve_flushes_total).",
            ),
            queue_wait: Histogram::new(
                "udt_serve_queue_wait_seconds",
                "Enqueue-to-dequeue wait (log2 buckets).",
            ),
        }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock: counters
/// are always valid, and losing observability during a failure is
/// exactly when it hurts most.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pre-rendered `model="…"` label of one model's series.
fn model_label(name: &str) -> String {
    format!("model=\"{}\"", escape_label_value(name))
}

impl ServeMetrics {
    /// Creates an empty metrics registry; the uptime clock starts now.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Records one successfully served request for `model`.
    pub fn record(&self, model: &str, tuples: usize, latency: Duration) {
        let mut map = lock_recover(&self.per_model);
        let c = map.entry(model.to_string()).or_default();
        c.requests.incr();
        c.tuples.add(tuples as u64);
        c.latency.record(latency);
    }

    /// Records one failed request for `model`.
    pub fn record_error(&self, model: &str) {
        let mut map = lock_recover(&self.per_model);
        let c = map.entry(model.to_string()).or_default();
        c.requests.incr();
        c.errors.incr();
    }

    /// Records one request rejected at admission (queue full, shed
    /// policy or bounded submit wait expired).
    pub fn record_shed(&self) {
        self.sheds.incr();
    }

    /// Records one accepted job dropped at dequeue because its deadline
    /// passed while it waited.
    pub fn record_deadline_drop(&self) {
        self.deadline_drops.incr();
    }

    /// Records one caught-and-contained worker panic.
    pub fn record_worker_panic(&self) {
        self.worker_panics.incr();
    }

    /// Records one connection refused by the accept-loop gate.
    pub fn record_rejected_connection(&self) {
        self.rejected_connections.incr();
    }

    /// Records one micro-batch a worker took off the queue, holding
    /// `jobs` jobs (`flushed_jobs / flushes` is the mean coalescing).
    pub fn record_flush(&self, jobs: usize) {
        self.flushes.incr();
        self.flushed_jobs.add(jobs as u64);
    }

    /// Records how long one admitted job waited between enqueue and
    /// dequeue (the admission-control signal: queue wait growing toward
    /// the deadline means sheds are imminent).
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    /// A serialisable snapshot of the server-wide health counters.
    pub fn health_snapshot(&self) -> HealthStats {
        HealthStats {
            sheds: self.sheds.get(),
            deadline_drops: self.deadline_drops.get(),
            worker_panics: self.worker_panics.get(),
            rejected_connections: self.rejected_connections.get(),
            flushes: self.flushes.get(),
            flushed_jobs: self.flushed_jobs.get(),
            queue_wait_count: self.queue_wait.count(),
            queue_wait_p50_us: self.queue_wait.quantile_ns(0.50) as f64 / 1_000.0,
            queue_wait_p99_us: self.queue_wait.quantile_ns(0.99) as f64 / 1_000.0,
        }
    }

    /// Seconds since the metrics registry (≈ the server) started.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// A serialisable snapshot of every model's counters, sorted by model
    /// name so `stats` responses are stable.
    pub fn snapshot(&self) -> Vec<ModelMetricsSnapshot> {
        let map = lock_recover(&self.per_model);
        let mut out: Vec<ModelMetricsSnapshot> = map
            .iter()
            .map(|(name, c)| ModelMetricsSnapshot {
                model: name.clone(),
                requests: c.requests.get(),
                tuples: c.tuples.get(),
                errors: c.errors.get(),
                mean_us: c.latency.mean_ns() / 1_000.0,
                p50_us: c.latency.quantile_ns(0.50) as f64 / 1_000.0,
                p95_us: c.latency.quantile_ns(0.95) as f64 / 1_000.0,
                p99_us: c.latency.quantile_ns(0.99) as f64 / 1_000.0,
            })
            .collect();
        out.sort_by(|a, b| a.model.cmp(&b.model));
        out
    }

    /// Renders the Prometheus text exposition: uptime and queue gauges,
    /// the health counters and queue-wait histogram, the registry's
    /// per-model gauges, the per-model request / tuple / error counters
    /// and latency histograms, then the workspace [`udt_obs::catalog`].
    /// Models are emitted in name order so the output is stable; a
    /// labelled family with no models is written as its header alone.
    pub fn render_prometheus(
        &self,
        models: &[ModelInfo],
        queue: &QueueStats,
        uptime_seconds: f64,
    ) -> String {
        let mut out = String::new();
        render_gauge_into(
            &mut out,
            "udt_serve_uptime_seconds",
            "Seconds since the server started.",
            "",
            uptime_seconds,
        );
        render_gauge_into(
            &mut out,
            "udt_serve_queue_depth",
            "Jobs waiting in the scheduler queue.",
            "",
            queue.depth,
        );
        render_gauge_into(
            &mut out,
            "udt_serve_queue_workers",
            "Scheduler worker threads.",
            "",
            queue.workers,
        );

        // Server-wide overload/failure counters and the queue-wait
        // histogram (the admission-control signals).
        for c in [
            &self.sheds,
            &self.deadline_drops,
            &self.worker_panics,
            &self.rejected_connections,
            &self.flushes,
            &self.flushed_jobs,
        ] {
            render_counter_into(&mut out, c.name(), c.help(), "", c.get());
        }
        let h = &self.queue_wait;
        render_histogram_into(&mut out, h.name(), h.help(), "", h);

        let mut sorted: Vec<&ModelInfo> = models.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        type ModelGauge = fn(&ModelInfo) -> u64;
        let gauges: [(&str, &str, ModelGauge); 2] = [
            (
                "udt_serve_model_heap_bytes",
                "Arena heap footprint per model.",
                |m| m.heap_bytes as u64,
            ),
            (
                "udt_serve_model_generation",
                "Hot-swap generation per model.",
                |m| m.generation,
            ),
        ];
        for (name, help, get) in gauges {
            render_header_into(&mut out, name, "gauge", help);
            for m in &sorted {
                render_gauge_into(&mut out, name, "", &model_label(&m.name), get(m));
            }
        }

        let map = lock_recover(&self.per_model);
        let mut rows: Vec<(&String, &ModelCounters)> = map.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        let rows: Vec<(String, &ModelCounters)> =
            rows.into_iter().map(|(n, c)| (model_label(n), c)).collect();
        type ModelCounter = fn(&ModelCounters) -> u64;
        let counters: [((&str, &str), ModelCounter); 3] = [
            (REQUESTS, |c| c.requests.get()),
            (TUPLES, |c| c.tuples.get()),
            (ERRORS, |c| c.errors.get()),
        ];
        for ((name, help), get) in counters {
            render_header_into(&mut out, name, "counter", help);
            for (label, c) in &rows {
                render_counter_into(&mut out, name, "", label, get(c));
            }
        }
        render_header_into(&mut out, LATENCY.0, "histogram", LATENCY.1);
        for (label, c) in &rows {
            render_histogram_into(&mut out, LATENCY.0, "", label, &c.latency);
        }
        drop(map);

        // Workspace-wide build/pool/kernel/pruning counters from
        // `udt-obs`: any tree built inside this process (warm-start
        // builds, admin-triggered rebuilds) shows up here next to the
        // serving metrics, so one scrape covers both planes.
        udt_obs::render_prometheus_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_exposition_renders_counters_and_buckets() {
        let m = ServeMetrics::new();
        m.record("toy", 4, Duration::from_micros(1));
        m.record("toy", 2, Duration::from_millis(1));
        m.record_error("toy");
        m.record("a\"b", 1, Duration::from_micros(2));
        let models = vec![ModelInfo {
            name: "toy".into(),
            generation: 3,
            nodes: 5,
            leaves: 3,
            depth: 2,
            n_classes: 2,
            n_attributes: 1,
            heap_bytes: 512,
        }];
        let queue = QueueStats {
            workers: 2,
            capacity: 64,
            depth: 1,
            max_batch_tuples: 32,
            policy: "block".into(),
            deadline_ms: 0,
        };
        m.record_shed();
        m.record_shed();
        m.record_deadline_drop();
        m.record_worker_panic();
        m.record_rejected_connection();
        m.record_queue_wait(Duration::from_micros(1));
        m.record_flush(1);
        m.record_flush(4);
        let text = m.render_prometheus(&models, &queue, 9.5);
        assert!(text.contains("udt_serve_sheds_total 2"));
        assert!(text.contains("udt_serve_deadline_drops_total 1"));
        assert!(text.contains("udt_serve_worker_panics_total 1"));
        assert!(text.contains("udt_serve_rejected_connections_total 1"));
        assert!(text.contains("udt_serve_flushes_total 2"));
        assert!(text.contains("udt_serve_flushed_jobs_total 5"));
        assert!(text.contains("udt_serve_queue_wait_seconds_count 1"));
        assert!(text.contains("udt_serve_queue_wait_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("udt_serve_uptime_seconds 9.5"));
        assert!(text.contains("udt_serve_queue_depth 1"));
        assert!(text.contains("udt_serve_model_heap_bytes{model=\"toy\"} 512"));
        assert!(text.contains("udt_serve_model_generation{model=\"toy\"} 3"));
        assert!(text.contains("udt_serve_requests_total{model=\"toy\"} 3"));
        assert!(text.contains("udt_serve_tuples_total{model=\"toy\"} 6"));
        assert!(text.contains("udt_serve_errors_total{model=\"toy\"} 1"));
        // 1 µs lives in bucket 9 (le = 2^10 ns = 1.024e-6 s); the
        // histogram is cumulative and closes with +Inf = count.
        assert!(text.contains(
            "udt_serve_request_latency_seconds_bucket{model=\"toy\",le=\"0.000001024\"} 1"
        ));
        assert!(
            text.contains("udt_serve_request_latency_seconds_bucket{model=\"toy\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("udt_serve_request_latency_seconds_count{model=\"toy\"} 2"));
        // Quotes in model names are escaped in label values.
        assert!(text.contains("udt_serve_requests_total{model=\"a\\\"b\"} 1"));
        // Cumulative bucket counts never decrease per model.
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("udt_serve_request_latency_seconds_bucket{model=\"toy\""))
        {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= prev, "cumulative buckets: {line}");
            prev = n;
        }
    }

    fn queue_stats(workers: usize, depth: usize) -> QueueStats {
        QueueStats {
            workers,
            capacity: 64,
            depth,
            max_batch_tuples: 32,
            policy: "block".into(),
            deadline_ms: 0,
        }
    }

    fn model_info(name: &str, generation: u64, heap_bytes: usize) -> ModelInfo {
        ModelInfo {
            name: name.into(),
            generation,
            nodes: 5,
            leaves: 3,
            depth: 2,
            n_classes: 2,
            n_attributes: 1,
            heap_bytes,
        }
    }

    /// The serve-owned part of the exposition: everything before the
    /// workspace catalog, whose first family is `udt_builds_total`.
    fn serve_part(text: &str) -> &str {
        let end = text
            .find("# HELP udt_builds_total ")
            .expect("the catalog follows the serve families");
        &text[..end]
    }

    #[test]
    fn serve_exposition_is_pinned_byte_for_byte() {
        let m = ServeMetrics::new();
        m.record("toy", 4, Duration::from_micros(1));
        m.record("toy", 2, Duration::from_millis(1));
        m.record_error("toy");
        // A model that only ever failed: its histogram is `+Inf` only.
        m.record_error("a\"b");
        m.record_shed();
        m.record_shed();
        m.record_deadline_drop();
        m.record_worker_panic();
        m.record_rejected_connection();
        m.record_flush(1);
        m.record_flush(4);
        m.record_queue_wait(Duration::from_micros(3));
        let models = vec![model_info("toy", 3, 512), model_info("a\"b", 1, 256)];
        let text = m.render_prometheus(&models, &queue_stats(2, 1), 12.25);
        let expected = r#"# HELP udt_serve_uptime_seconds Seconds since the server started.
# TYPE udt_serve_uptime_seconds gauge
udt_serve_uptime_seconds 12.25
# HELP udt_serve_queue_depth Jobs waiting in the scheduler queue.
# TYPE udt_serve_queue_depth gauge
udt_serve_queue_depth 1
# HELP udt_serve_queue_workers Scheduler worker threads.
# TYPE udt_serve_queue_workers gauge
udt_serve_queue_workers 2
# HELP udt_serve_sheds_total Requests rejected at admission (queue full).
# TYPE udt_serve_sheds_total counter
udt_serve_sheds_total 2
# HELP udt_serve_deadline_drops_total Accepted jobs dropped at dequeue past their deadline.
# TYPE udt_serve_deadline_drops_total counter
udt_serve_deadline_drops_total 1
# HELP udt_serve_worker_panics_total Worker panics caught and contained.
# TYPE udt_serve_worker_panics_total counter
udt_serve_worker_panics_total 1
# HELP udt_serve_rejected_connections_total Connections refused by the max-connections gate.
# TYPE udt_serve_rejected_connections_total counter
udt_serve_rejected_connections_total 1
# HELP udt_serve_flushes_total Micro-batches the scheduler workers flushed.
# TYPE udt_serve_flushes_total counter
udt_serve_flushes_total 2
# HELP udt_serve_flushed_jobs_total Jobs served across all flushes (per flush: divide by udt_serve_flushes_total).
# TYPE udt_serve_flushed_jobs_total counter
udt_serve_flushed_jobs_total 5
# HELP udt_serve_queue_wait_seconds Enqueue-to-dequeue wait (log2 buckets).
# TYPE udt_serve_queue_wait_seconds histogram
udt_serve_queue_wait_seconds_bucket{le="0.000000002"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000004"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000008"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000016"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000032"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000064"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000128"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000256"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000000512"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000001024"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000002048"} 0
udt_serve_queue_wait_seconds_bucket{le="0.000004096"} 1
udt_serve_queue_wait_seconds_bucket{le="+Inf"} 1
udt_serve_queue_wait_seconds_sum 0.000003
udt_serve_queue_wait_seconds_count 1
# HELP udt_serve_model_heap_bytes Arena heap footprint per model.
# TYPE udt_serve_model_heap_bytes gauge
udt_serve_model_heap_bytes{model="a\"b"} 256
udt_serve_model_heap_bytes{model="toy"} 512
# HELP udt_serve_model_generation Hot-swap generation per model.
# TYPE udt_serve_model_generation gauge
udt_serve_model_generation{model="a\"b"} 1
udt_serve_model_generation{model="toy"} 3
# HELP udt_serve_requests_total Requests served, including failed ones.
# TYPE udt_serve_requests_total counter
udt_serve_requests_total{model="a\"b"} 1
udt_serve_requests_total{model="toy"} 3
# HELP udt_serve_tuples_total Tuples classified.
# TYPE udt_serve_tuples_total counter
udt_serve_tuples_total{model="a\"b"} 0
udt_serve_tuples_total{model="toy"} 6
# HELP udt_serve_errors_total Requests that failed.
# TYPE udt_serve_errors_total counter
udt_serve_errors_total{model="a\"b"} 1
udt_serve_errors_total{model="toy"} 1
# HELP udt_serve_request_latency_seconds Enqueue-to-reply latency (log2 buckets).
# TYPE udt_serve_request_latency_seconds histogram
udt_serve_request_latency_seconds_bucket{model="a\"b",le="+Inf"} 0
udt_serve_request_latency_seconds_sum{model="a\"b"} 0
udt_serve_request_latency_seconds_count{model="a\"b"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000002"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000004"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000008"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000016"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000032"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000064"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000128"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000256"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000000512"} 0
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000001024"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000002048"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000004096"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000008192"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000016384"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000032768"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000065536"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000131072"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000262144"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.000524288"} 1
udt_serve_request_latency_seconds_bucket{model="toy",le="0.001048576"} 2
udt_serve_request_latency_seconds_bucket{model="toy",le="+Inf"} 2
udt_serve_request_latency_seconds_sum{model="toy"} 0.001001
udt_serve_request_latency_seconds_count{model="toy"} 2
"#;
        assert_eq!(serve_part(&text), expected);
    }

    #[test]
    fn empty_serve_exposition_writes_family_headers_only() {
        let m = ServeMetrics::new();
        let text = m.render_prometheus(&[], &queue_stats(1, 0), 0.5);
        let expected = r#"# HELP udt_serve_uptime_seconds Seconds since the server started.
# TYPE udt_serve_uptime_seconds gauge
udt_serve_uptime_seconds 0.5
# HELP udt_serve_queue_depth Jobs waiting in the scheduler queue.
# TYPE udt_serve_queue_depth gauge
udt_serve_queue_depth 0
# HELP udt_serve_queue_workers Scheduler worker threads.
# TYPE udt_serve_queue_workers gauge
udt_serve_queue_workers 1
# HELP udt_serve_sheds_total Requests rejected at admission (queue full).
# TYPE udt_serve_sheds_total counter
udt_serve_sheds_total 0
# HELP udt_serve_deadline_drops_total Accepted jobs dropped at dequeue past their deadline.
# TYPE udt_serve_deadline_drops_total counter
udt_serve_deadline_drops_total 0
# HELP udt_serve_worker_panics_total Worker panics caught and contained.
# TYPE udt_serve_worker_panics_total counter
udt_serve_worker_panics_total 0
# HELP udt_serve_rejected_connections_total Connections refused by the max-connections gate.
# TYPE udt_serve_rejected_connections_total counter
udt_serve_rejected_connections_total 0
# HELP udt_serve_flushes_total Micro-batches the scheduler workers flushed.
# TYPE udt_serve_flushes_total counter
udt_serve_flushes_total 0
# HELP udt_serve_flushed_jobs_total Jobs served across all flushes (per flush: divide by udt_serve_flushes_total).
# TYPE udt_serve_flushed_jobs_total counter
udt_serve_flushed_jobs_total 0
# HELP udt_serve_queue_wait_seconds Enqueue-to-dequeue wait (log2 buckets).
# TYPE udt_serve_queue_wait_seconds histogram
udt_serve_queue_wait_seconds_bucket{le="+Inf"} 0
udt_serve_queue_wait_seconds_sum 0
udt_serve_queue_wait_seconds_count 0
# HELP udt_serve_model_heap_bytes Arena heap footprint per model.
# TYPE udt_serve_model_heap_bytes gauge
# HELP udt_serve_model_generation Hot-swap generation per model.
# TYPE udt_serve_model_generation gauge
# HELP udt_serve_requests_total Requests served, including failed ones.
# TYPE udt_serve_requests_total counter
# HELP udt_serve_tuples_total Tuples classified.
# TYPE udt_serve_tuples_total counter
# HELP udt_serve_errors_total Requests that failed.
# TYPE udt_serve_errors_total counter
# HELP udt_serve_request_latency_seconds Enqueue-to-reply latency (log2 buckets).
# TYPE udt_serve_request_latency_seconds histogram
"#;
        assert_eq!(serve_part(&text), expected);
    }

    #[test]
    fn request_counters_survive_model_hot_swaps() {
        use crate::registry::ModelRegistry;
        use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

        let trained = |algorithm| {
            TreeBuilder::new(UdtConfig::new(algorithm).with_postprune(false))
                .build(&udt_data::toy::table1_dataset().unwrap())
                .unwrap()
                .tree
        };
        let reg = ModelRegistry::new();
        let m = ServeMetrics::new();
        reg.insert_tree("m", trained(Algorithm::UdtEs)).unwrap();
        m.record("m", 3, Duration::from_micros(5));
        // Hot-swap bumps the generation but the per-model counters are
        // keyed by name, so traffic keeps accumulating on one series.
        let info = reg.swap_tree("m", trained(Algorithm::Avg));
        assert_eq!(info.generation, 2);
        m.record("m", 7, Duration::from_micros(5));
        let queue = QueueStats {
            workers: 1,
            capacity: 8,
            depth: 0,
            max_batch_tuples: 32,
            policy: "block".into(),
            deadline_ms: 0,
        };
        let text = m.render_prometheus(&reg.info(), &queue, 1.0);
        assert!(text.contains("udt_serve_model_generation{model=\"m\"} 2"));
        assert!(text.contains("udt_serve_requests_total{model=\"m\"} 2"));
        assert!(text.contains("udt_serve_tuples_total{model=\"m\"} 10"));
        assert!(text.contains("udt_serve_request_latency_seconds_count{model=\"m\"} 2"));
    }

    #[test]
    fn exposition_includes_workspace_build_metrics() {
        use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

        // Building a tree in-process flushes its per-build stats into the
        // udt-obs catalog, and the serve exposition appends the whole
        // catalog after its own series.
        TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs).with_postprune(false))
            .build(&udt_data::toy::table1_dataset().unwrap())
            .unwrap();
        let m = ServeMetrics::new();
        let queue = QueueStats {
            workers: 1,
            capacity: 8,
            depth: 0,
            max_batch_tuples: 32,
            policy: "block".into(),
            deadline_ms: 0,
        };
        let text = m.render_prometheus(&[], &queue, 1.0);
        assert!(text.contains("# TYPE udt_builds_total counter"));
        assert!(text.contains("udt_pool_tasks_executed_total"));
        assert!(text.contains("udt_kernel_scalar_batches_total"));
        assert!(text.contains("udt_split_candidates_total{algorithm=\"UDT-ES\"}"));
        assert!(text.contains("udt_split_prune_fraction{algorithm=\"UDT-ES\"}"));
        // The global catalog counted at least this build.
        let builds: u64 = text
            .lines()
            .find(|l| l.starts_with("udt_builds_total "))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(builds >= 1, "udt_builds_total should count the build");
    }

    #[test]
    fn health_counters_accumulate_and_snapshot() {
        let m = ServeMetrics::new();
        let empty = m.health_snapshot();
        assert_eq!(empty.sheds, 0);
        assert_eq!(empty.queue_wait_count, 0);
        assert_eq!((empty.flushes, empty.flushed_jobs), (0, 0));
        m.record_shed();
        m.record_deadline_drop();
        m.record_deadline_drop();
        m.record_worker_panic();
        m.record_rejected_connection();
        m.record_queue_wait(Duration::from_micros(10));
        m.record_queue_wait(Duration::from_millis(1));
        m.record_flush(3);
        m.record_flush(1);
        let h = m.health_snapshot();
        assert_eq!(h.sheds, 1);
        assert_eq!(h.deadline_drops, 2);
        assert_eq!(h.worker_panics, 1);
        assert_eq!(h.rejected_connections, 1);
        assert_eq!(h.flushes, 2);
        assert_eq!(h.flushed_jobs, 4);
        assert_eq!(h.queue_wait_count, 2);
        assert!(h.queue_wait_p50_us > 0.0);
        assert!(h.queue_wait_p99_us >= h.queue_wait_p50_us);
    }

    #[test]
    fn metrics_accumulate_per_model() {
        let m = ServeMetrics::new();
        m.record("a", 3, Duration::from_micros(10));
        m.record("a", 5, Duration::from_micros(20));
        m.record_error("a");
        m.record("b", 1, Duration::from_micros(1));
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].model, "a");
        assert_eq!(snap[0].requests, 3);
        assert_eq!(snap[0].tuples, 8);
        assert_eq!(snap[0].errors, 1);
        assert!(snap[0].p50_us > 0.0);
        assert!(snap[0].p99_us >= snap[0].p50_us);
        assert_eq!(snap[1].model, "b");
        assert!(m.uptime_seconds() >= 0.0);
    }
}
