//! Serving metrics: per-model counters and latency histograms.
//!
//! Worker threads record one observation per request after its batch
//! completes (latency measured from enqueue to reply, so queueing delay
//! is included — that is the figure a client actually experiences).
//! Latencies go into a log₂-bucketed histogram: bucket `i` covers
//! `[2^i, 2^(i+1))` nanoseconds, 48 buckets span ~1 ns to ~78 h, and a
//! percentile is reported as the upper bound of the bucket holding it.
//! The error is bounded by the bucket width (a factor of 2) — plenty for
//! p50/p95/p99 dashboards — in exchange for constant memory and O(1)
//! record cost under one short mutex hold.

//! The same counters and buckets can be rendered as a Prometheus text
//! exposition ([`ServeMetrics::render_prometheus`], served by the
//! `stats` command with `"format":"prometheus"`): counters become
//! `_total` series, the log₂ buckets become a cumulative
//! `..._latency_seconds` histogram with `le` labels, and registry /
//! queue gauges ride along — a read-only formatting of state the server
//! already tracks.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::protocol::{HealthStats, ModelInfo, ModelMetricsSnapshot, QueueStats};

/// Number of log₂ latency buckets (`2^48` ns ≈ 78 hours).
const BUCKETS: usize = 48;

/// A fixed-size log₂ histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_ns: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().max(1) as u64;
        let bucket = (ns.ilog2() as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns += latency.as_nanos();
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The latency (in nanoseconds) below which `q` of the observations
    /// fall, reported as the upper bound of the matching bucket. Returns
    /// 0 for an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), at least 1: the rank of the target observation.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << 63
    }
}

/// One model's mutable counters.
#[derive(Debug, Clone, Default)]
struct ModelCounters {
    requests: u64,
    tuples: u64,
    errors: u64,
    latency: LatencyHistogram,
}

/// Server-wide overload/failure counters (not per model: a shed request
/// is rejected before its model name matters, and keying rejections by
/// client-supplied strings would let an attacker grow the map).
#[derive(Debug, Default)]
struct HealthCounters {
    sheds: u64,
    deadline_drops: u64,
    worker_panics: u64,
    rejected_connections: u64,
    flushes: u64,
    flushed_jobs: u64,
    queue_wait: LatencyHistogram,
}

/// Aggregated serving metrics, shared by every worker and connection
/// thread. All mutation happens under one mutex; every critical section
/// is a handful of integer operations. Locks recover from poisoning
/// (`into_inner`): a panicking worker must not take the metrics — and
/// with them every future `stats` response — down with it.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    per_model: Mutex<HashMap<String, ModelCounters>>,
    health: Mutex<HealthCounters>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            started: Instant::now(),
            per_model: Mutex::new(HashMap::new()),
            health: Mutex::new(HealthCounters::default()),
        }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock: counters
/// are plain integers, always valid, and losing observability during a
/// failure is exactly when it hurts most.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
        c.requests += 1;
        c.tuples += tuples as u64;
        c.latency.record(latency);
    }

    /// Records one failed request for `model`.
    pub fn record_error(&self, model: &str) {
        let mut map = lock_recover(&self.per_model);
        let c = map.entry(model.to_string()).or_default();
        c.requests += 1;
        c.errors += 1;
    }

    /// Records one request rejected at admission (queue full, shed
    /// policy or bounded submit wait expired).
    pub fn record_shed(&self) {
        lock_recover(&self.health).sheds += 1;
    }

    /// Records one accepted job dropped at dequeue because its deadline
    /// passed while it waited.
    pub fn record_deadline_drop(&self) {
        lock_recover(&self.health).deadline_drops += 1;
    }

    /// Records one caught-and-contained worker panic.
    pub fn record_worker_panic(&self) {
        lock_recover(&self.health).worker_panics += 1;
    }

    /// Records one connection refused by the accept-loop gate.
    pub fn record_rejected_connection(&self) {
        lock_recover(&self.health).rejected_connections += 1;
    }

    /// Records one micro-batch a worker took off the queue, holding
    /// `jobs` jobs (`flushed_jobs / flushes` is the mean coalescing).
    pub fn record_flush(&self, jobs: usize) {
        let mut h = lock_recover(&self.health);
        h.flushes += 1;
        h.flushed_jobs += jobs as u64;
    }

    /// Records how long one admitted job waited between enqueue and
    /// dequeue (the admission-control signal: queue wait growing toward
    /// the deadline means sheds are imminent).
    pub fn record_queue_wait(&self, wait: Duration) {
        lock_recover(&self.health).queue_wait.record(wait);
    }

    /// A serialisable snapshot of the server-wide health counters.
    pub fn health_snapshot(&self) -> HealthStats {
        let h = lock_recover(&self.health);
        HealthStats {
            sheds: h.sheds,
            deadline_drops: h.deadline_drops,
            worker_panics: h.worker_panics,
            rejected_connections: h.rejected_connections,
            flushes: h.flushes,
            flushed_jobs: h.flushed_jobs,
            queue_wait_count: h.queue_wait.count(),
            queue_wait_p50_us: h.queue_wait.quantile_ns(0.50) as f64 / 1_000.0,
            queue_wait_p99_us: h.queue_wait.quantile_ns(0.99) as f64 / 1_000.0,
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
                requests: c.requests,
                tuples: c.tuples,
                errors: c.errors,
                mean_us: c.latency.mean_ns() / 1_000.0,
                p50_us: c.latency.quantile_ns(0.50) as f64 / 1_000.0,
                p95_us: c.latency.quantile_ns(0.95) as f64 / 1_000.0,
                p99_us: c.latency.quantile_ns(0.99) as f64 / 1_000.0,
            })
            .collect();
        out.sort_by(|a, b| a.model.cmp(&b.model));
        out
    }

    /// Renders the Prometheus text exposition: per-model request /
    /// tuple / error counters, the latency histogram with cumulative
    /// log₂ buckets (`le` upper bounds in seconds), and the registry /
    /// queue gauges passed in. Models are emitted in name order so the
    /// output is stable.
    pub fn render_prometheus(
        &self,
        models: &[ModelInfo],
        queue: &QueueStats,
        uptime_seconds: f64,
    ) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP udt_serve_uptime_seconds Seconds since the server started."
        );
        let _ = writeln!(out, "# TYPE udt_serve_uptime_seconds gauge");
        let _ = writeln!(out, "udt_serve_uptime_seconds {uptime_seconds}");
        let _ = writeln!(
            out,
            "# HELP udt_serve_queue_depth Jobs waiting in the scheduler queue."
        );
        let _ = writeln!(out, "# TYPE udt_serve_queue_depth gauge");
        let _ = writeln!(out, "udt_serve_queue_depth {}", queue.depth);
        let _ = writeln!(
            out,
            "# HELP udt_serve_queue_workers Scheduler worker threads."
        );
        let _ = writeln!(out, "# TYPE udt_serve_queue_workers gauge");
        let _ = writeln!(out, "udt_serve_queue_workers {}", queue.workers);

        // Server-wide overload/failure counters and the queue-wait
        // histogram (the admission-control signals).
        let health = lock_recover(&self.health);
        for (name, help, value) in [
            (
                "udt_serve_sheds_total",
                "Requests rejected at admission (queue full).",
                health.sheds,
            ),
            (
                "udt_serve_deadline_drops_total",
                "Accepted jobs dropped at dequeue past their deadline.",
                health.deadline_drops,
            ),
            (
                "udt_serve_worker_panics_total",
                "Worker panics caught and contained.",
                health.worker_panics,
            ),
            (
                "udt_serve_rejected_connections_total",
                "Connections refused by the max-connections gate.",
                health.rejected_connections,
            ),
            (
                "udt_serve_flushes_total",
                "Micro-batches the scheduler workers flushed.",
                health.flushes,
            ),
            (
                "udt_serve_flushed_jobs_total",
                "Jobs served across all flushes (per flush: divide by udt_serve_flushes_total).",
                health.flushed_jobs,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(
            out,
            "# HELP udt_serve_queue_wait_seconds Enqueue-to-dequeue wait (log2 buckets)."
        );
        let _ = writeln!(out, "# TYPE udt_serve_queue_wait_seconds histogram");
        let h = &health.queue_wait;
        let mut cumulative = 0u64;
        if let Some(last) = h.buckets.iter().rposition(|&n| n > 0) {
            for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
                cumulative += n;
                let le = (1u128 << (i + 1)) as f64 / 1e9;
                let _ = writeln!(
                    out,
                    "udt_serve_queue_wait_seconds_bucket{{le=\"{le}\"}} {cumulative}"
                );
            }
        }
        let _ = writeln!(
            out,
            "udt_serve_queue_wait_seconds_bucket{{le=\"+Inf\"}} {}",
            h.count
        );
        let _ = writeln!(
            out,
            "udt_serve_queue_wait_seconds_sum {}",
            h.total_ns as f64 / 1e9
        );
        let _ = writeln!(out, "udt_serve_queue_wait_seconds_count {}", h.count);
        drop(health);

        let mut sorted: Vec<&ModelInfo> = models.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let _ = writeln!(
            out,
            "# HELP udt_serve_model_heap_bytes Arena heap footprint per model."
        );
        let _ = writeln!(out, "# TYPE udt_serve_model_heap_bytes gauge");
        for m in &sorted {
            let label = escape_label(&m.name);
            let _ = writeln!(
                out,
                "udt_serve_model_heap_bytes{{model=\"{label}\"}} {}",
                m.heap_bytes
            );
        }
        let _ = writeln!(
            out,
            "# HELP udt_serve_model_generation Hot-swap generation per model."
        );
        let _ = writeln!(out, "# TYPE udt_serve_model_generation gauge");
        for m in &sorted {
            let label = escape_label(&m.name);
            let _ = writeln!(
                out,
                "udt_serve_model_generation{{model=\"{label}\"}} {}",
                m.generation
            );
        }

        let map = lock_recover(&self.per_model);
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        let _ = writeln!(
            out,
            "# HELP udt_serve_requests_total Requests served, including failed ones."
        );
        let _ = writeln!(out, "# TYPE udt_serve_requests_total counter");
        for name in &names {
            let label = escape_label(name);
            let _ = writeln!(
                out,
                "udt_serve_requests_total{{model=\"{label}\"}} {}",
                map[*name].requests
            );
        }
        let _ = writeln!(out, "# HELP udt_serve_tuples_total Tuples classified.");
        let _ = writeln!(out, "# TYPE udt_serve_tuples_total counter");
        for name in &names {
            let label = escape_label(name);
            let _ = writeln!(
                out,
                "udt_serve_tuples_total{{model=\"{label}\"}} {}",
                map[*name].tuples
            );
        }
        let _ = writeln!(out, "# HELP udt_serve_errors_total Requests that failed.");
        let _ = writeln!(out, "# TYPE udt_serve_errors_total counter");
        for name in &names {
            let label = escape_label(name);
            let _ = writeln!(
                out,
                "udt_serve_errors_total{{model=\"{label}\"}} {}",
                map[*name].errors
            );
        }
        let _ = writeln!(
            out,
            "# HELP udt_serve_request_latency_seconds Enqueue-to-reply latency (log2 buckets)."
        );
        let _ = writeln!(out, "# TYPE udt_serve_request_latency_seconds histogram");
        for name in &names {
            let label = escape_label(name);
            let h = &map[*name].latency;
            // Cumulative buckets up to the last non-empty one, then +Inf
            // — the standard Prometheus histogram shape without 48 empty
            // series per model.
            let last = h.buckets.iter().rposition(|&n| n > 0);
            let mut cumulative = 0u64;
            if let Some(last) = last {
                for (i, &n) in h.buckets.iter().enumerate().take(last + 1) {
                    cumulative += n;
                    // Bucket i covers [2^i, 2^(i+1)) ns; `le` is the
                    // upper bound in seconds.
                    let le = (1u128 << (i + 1)) as f64 / 1e9;
                    let _ = writeln!(
                        out,
                        "udt_serve_request_latency_seconds_bucket{{model=\"{label}\",le=\"{le}\"}} {cumulative}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "udt_serve_request_latency_seconds_bucket{{model=\"{label}\",le=\"+Inf\"}} {}",
                h.count
            );
            let _ = writeln!(
                out,
                "udt_serve_request_latency_seconds_sum{{model=\"{label}\"}} {}",
                h.total_ns as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "udt_serve_request_latency_seconds_count{{model=\"{label}\"}} {}",
                h.count
            );
        }

        // Workspace-wide build/pool/kernel/pruning counters from
        // `udt-obs`: any tree built inside this process (warm-start
        // builds, admin-triggered rebuilds) shows up here next to the
        // serving metrics, so one scrape covers both planes.
        udt_obs::render_prometheus_into(&mut out);
        out
    }
}

/// Escapes a model name for use inside a Prometheus label value.
fn escape_label(name: &str) -> String {
    name.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut h = LatencyHistogram::default();
        // 90 observations at ~1 µs, 10 at ~1 ms.
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 100);
        // 1 µs = 1000 ns lives in bucket 9 ([512, 1024)); its upper
        // bound is 1024 ns.
        assert_eq!(h.quantile_ns(0.50), 1024);
        assert_eq!(h.quantile_ns(0.90), 1024);
        // 1 ms = 1e6 ns lives in bucket 19 ([524288, 1048576)).
        assert_eq!(h.quantile_ns(0.95), 1 << 20);
        assert_eq!(h.quantile_ns(0.99), 1 << 20);
        assert_eq!(h.quantile_ns(1.0), 1 << 20);
        // Mean sits between the two modes.
        assert!(h.mean_ns() > 1_000.0 && h.mean_ns() < 1_000_000.0);
    }

    #[test]
    fn huge_latencies_saturate_the_last_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_secs(1_000_000_000));
        assert_eq!(h.count(), 1);
        assert!(h.quantile_ns(0.5) >= 1u64 << 48);
    }

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
