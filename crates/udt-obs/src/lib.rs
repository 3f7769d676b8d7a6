//! Process-wide observability substrate for the UDT workspace.
//!
//! Three primitives, all std-only and safe to leave enabled in
//! production builds:
//!
//! * [`Counter`] — a named, monotonically increasing `AtomicU64`
//!   incremented with `Ordering::Relaxed`. The hot-path cost of an
//!   increment is one uncontended atomic add; counters never allocate
//!   and never take locks.
//! * [`Gauge`] — a named `AtomicI64` that can move in both directions,
//!   for level-style quantities (circuit breakers currently open,
//!   connections active). Same relaxed-atomic cost model as counters.
//! * [`Histogram`] — 48 log2-bucketed atomic counters over nanosecond
//!   durations (bucket *i* covers `[2^i, 2^(i+1))` ns). The build
//!   engine records node-search and pool-idle times into it, and
//!   `udt-serve` records its per-model request latency and queue wait
//!   into it; quantiles are reported as the upper bound of the bucket
//!   holding them ([`Histogram::quantile_ns`]).
//! * spans ([`trace`]) — lightweight RAII guards that record Chrome
//!   trace-event JSON (complete `X` events) when tracing is active.
//!   When tracing is off — the default — a span site costs a single
//!   relaxed atomic load (see the `disabled_span_site_is_cheap` test
//!   and the `obs_overhead` bench in `udt-bench`).
//!
//! The [`catalog`] module holds the workspace-wide registry: every
//! counter and histogram the build engine (`udt-tree`), the
//! build pool, the score kernels, and the pruning searches
//! record into. [`render_prometheus_into`] renders the whole registry
//! as Prometheus text exposition, which `udt-serve` appends to its own
//! `stats --format prometheus` output so one endpoint exposes build,
//! pool, kernel, and request metrics together.
//!
//! Every exposition line in the workspace is written by one of three
//! writers — [`render_counter_into`], [`render_gauge_into`] and
//! [`render_histogram_into`] — plus [`render_header_into`] for the
//! `# HELP`/`# TYPE` pair. A labelled family writes its header once and
//! then one sample per label set with an empty `help`.

#![warn(missing_docs)]

use std::fmt::Display;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

pub mod catalog;
pub mod trace;

/// Number of log2 buckets in a [`Histogram`] (covers 1 ns .. ~2^48 ns,
/// i.e. more than three days, in power-of-two steps).
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A named monotonic counter. Increments are `Ordering::Relaxed`: the
/// counters are statistical, never used for synchronisation.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter (const, so catalog entries can be `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name (sanitised at render time, not here).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The help text rendered into the Prometheus `# HELP` line.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named level gauge. Unlike a [`Counter`] it can decrease; like one,
/// every operation is a relaxed atomic and never allocates.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge (const, so catalog entries can be `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge {
            name,
            help,
            value: AtomicI64::new(0),
        }
    }

    /// The metric name (sanitised at render time, not here).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The help text rendered into the Prometheus `# HELP` line.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Adds `delta` (possibly negative) to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the gauge by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements the gauge by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named histogram of nanosecond durations over [`HISTOGRAM_BUCKETS`]
/// log2 buckets, plus a running count and total. All fields are relaxed
/// atomics, so recording from many threads is lock-free.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Histogram {
    /// Creates a histogram (const, so catalog entries can be `static`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        // `AtomicU64` is not `Copy`; the `[CONST; N]` repeat form is
        // the only way to build the array in a `const fn`. Each repeat
        // instantiates a fresh atomic, which is exactly what we want —
        // the shared-instance footgun the lint guards against does not
        // apply.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            help,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }

    /// The metric name (sanitised at render time, not here).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The help text rendered into the Prometheus `# HELP` line.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let bucket = (ns.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one observation of `d`, saturating at `u64::MAX` ns.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// A relaxed snapshot of the per-bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.total_ns() as f64 / n as f64,
        }
    }

    /// The duration (in nanoseconds) below which `q` of the observations
    /// fall, reported as the upper bound of the bucket holding rank
    /// `ceil(q·n)` (at least 1). Returns 0 when empty; `q` is clamped to
    /// `[0, 1]`. `n` is the sum of one [`buckets`](Self::buckets)
    /// snapshot, not [`count`](Self::count), so a concurrent
    /// [`record_ns`](Self::record_ns) cannot push the rank past the
    /// buckets scanned.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let buckets = self.buckets();
        let n: u64 = buckets.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let i = buckets
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        1u64 << (i + 1)
    }
}

/// Sanitises `name` into a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every illegal character becomes `_`,
/// and a leading digit is prefixed with `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if legal {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`), matching the exposition-format quoting rules.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Writes the `# HELP`/`# TYPE` pair of family `name` (of Prometheus
/// type `kind`) into `out`; nothing when `help` is empty.
pub fn render_header_into(out: &mut String, name: &str, kind: &str, help: &str) {
    if !help.is_empty() {
        let name = sanitize_metric_name(name);
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }
}

/// Writes one sample line `name{labels} value` (no braces when `labels`
/// is empty).
fn render_sample_into(out: &mut String, name: &str, labels: &str, value: impl Display) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Renders one counter sample into `out`, preceded by its header when
/// `help` is non-empty. `labels` is pre-rendered (e.g.
/// `algorithm="UDT-ES"`, values escaped with [`escape_label_value`]) or
/// empty.
pub fn render_counter_into(out: &mut String, name: &str, help: &str, labels: &str, value: u64) {
    render_header_into(out, name, "counter", help);
    render_sample_into(out, &sanitize_metric_name(name), labels, value);
}

/// Renders one gauge sample into `out`; `help` and `labels` as for
/// [`render_counter_into`].
pub fn render_gauge_into(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &str,
    value: impl Display,
) {
    render_header_into(out, name, "gauge", help);
    render_sample_into(out, &sanitize_metric_name(name), labels, value);
}

/// Renders one histogram (seconds-valued, cumulative `le` buckets up to
/// the last non-empty one, then `+Inf`, `_sum`, `_count`) into `out`;
/// `help` and `labels` as for [`render_counter_into`]. The bucket lines,
/// `+Inf` and `_count` come from one [`Histogram::buckets`] snapshot, so
/// they agree with each other under concurrent recording.
pub fn render_histogram_into(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &str,
    h: &Histogram,
) {
    render_header_into(out, name, "histogram", help);
    let name = sanitize_metric_name(name);
    let le_prefix = if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    };
    let buckets = h.buckets();
    let last = buckets.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last {
        for (i, &c) in buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            // Bucket i covers [2^i, 2^(i+1)) ns; its upper bound in
            // seconds is 2^(i+1) / 1e9.
            let le = (1u128 << (i + 1)) as f64 / 1e9;
            out.push_str(&format!(
                "{name}_bucket{{{le_prefix}le=\"{le}\"}} {cumulative}\n"
            ));
        }
    }
    out.push_str(&format!(
        "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {cumulative}\n"
    ));
    render_sample_into(
        out,
        &format!("{name}_sum"),
        labels,
        h.total_ns() as f64 / 1e9,
    );
    render_sample_into(out, &format!("{name}_count"), labels, cumulative);
}

/// Renders the whole [`catalog`] registry — counters, histograms, and
/// per-algorithm pruning metrics — as Prometheus text exposition,
/// appending to `out`. `udt-serve` calls this from its own renderer so
/// build/pool/kernel metrics share the endpoint with request metrics.
pub fn render_prometheus_into(out: &mut String) {
    for c in catalog::counters() {
        render_counter_into(out, c.name(), c.help(), "", c.get());
    }
    for g in catalog::gauges() {
        render_gauge_into(out, g.name(), g.help(), "", g.get());
    }
    for h in catalog::histograms() {
        render_histogram_into(out, h.name(), h.help(), "", h);
    }
    catalog::pruning::render_into(out);
}

/// Renders the registry as a standalone Prometheus exposition string.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    render_prometheus_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        static C: Counter = Counter::new("test_counter", "a test counter");
        assert_eq!(C.get(), 0);
        C.incr();
        C.add(4);
        assert_eq!(C.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways_and_renders() {
        static G: Gauge = Gauge::new("test_gauge", "a test gauge");
        assert_eq!(G.get(), 0);
        G.inc();
        G.inc();
        G.dec();
        assert_eq!(G.get(), 1);
        G.add(-3);
        assert_eq!(G.get(), -2, "gauges may go negative");
        G.set(7);
        let mut out = String::new();
        render_gauge_into(&mut out, G.name(), G.help(), "", G.get());
        assert!(out.contains("# TYPE test_gauge gauge\ntest_gauge 7\n"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new("test_hist", "a test histogram");
        h.record_ns(0); // clamps to bucket 0
        h.record_ns(1);
        h.record_ns(2);
        h.record_ns(3);
        h.record_ns(1 << 20);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 2);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[20], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.total_ns(), (1 << 20) + 6);
    }

    #[test]
    fn histogram_clamps_huge_values_to_last_bucket() {
        let h = Histogram::new("test_hist_huge", "");
        h.record_ns(u64::MAX);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new("test_hist_empty", "");
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::new("test_hist_quantiles", "");
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
        let h = Histogram::new("test_hist_saturate", "");
        h.record(Duration::from_secs(1_000_000_000));
        assert_eq!(h.count(), 1);
        assert!(h.quantile_ns(0.5) >= 1u64 << 48);
    }

    #[test]
    fn durations_beyond_u64_nanoseconds_saturate() {
        let h = Histogram::new("test_hist_duration_max", "");
        h.record(Duration::MAX);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.total_ns(), u64::MAX);
    }

    #[test]
    fn quantiles_stay_in_range_under_concurrent_recording() {
        use std::sync::atomic::AtomicBool;

        // Recorded values span buckets 0..=19, so no quantile may exceed
        // bucket 19's upper bound.
        let largest_bound = 1u64 << 20;
        let h = Histogram::new("test_hist_concurrent", "");
        let stop = AtomicBool::new(false);
        let mut worst = 0u64;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (h, stop) = (&h, &stop);
                scope.spawn(move || {
                    let mut k = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record_ns(1 << (k % 20));
                        k += 1;
                    }
                });
            }
            while h.count() == 0 {
                std::hint::spin_loop();
            }
            for _ in 0..1_000 {
                // q = 1 ranks the newest observation: the first to fall
                // past a stale bucket snapshot.
                for q in [0.50, 0.99, 1.0] {
                    worst = worst.max(h.quantile_ns(q));
                }
            }
            // Assert only after the recorders stop, so a failure cannot
            // leave the scope waiting on them.
            stop.store(true, Ordering::Relaxed);
        });
        assert!(worst <= largest_bound, "a quantile reached {worst} ns");
        assert_ne!(worst, 1u64 << 63);
    }

    #[test]
    fn metric_name_sanitization() {
        assert_eq!(sanitize_metric_name("udt_pool_tasks"), "udt_pool_tasks");
        assert_eq!(sanitize_metric_name("udt.pool-tasks"), "udt_pool_tasks");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a:b_c9"), "a:b_c9");
        assert_eq!(sanitize_metric_name("héllo wörld"), "h_llo_w_rld");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn label_value_escaping() {
        assert_eq!(escape_label_value("UDT-ES"), "UDT-ES");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    }

    #[test]
    fn empty_histogram_renders_only_inf_bucket() {
        let h = Histogram::new("udt_test_empty_hist", "empty");
        let mut out = String::new();
        render_histogram_into(&mut out, h.name(), h.help(), "", &h);
        assert!(out.contains("# TYPE udt_test_empty_hist histogram"));
        assert!(out.contains("udt_test_empty_hist_bucket{le=\"+Inf\"} 0\n"));
        assert!(out.contains("udt_test_empty_hist_sum 0\n"));
        assert!(out.contains("udt_test_empty_hist_count 0\n"));
        // No finite buckets are rendered for an empty histogram.
        assert_eq!(out.matches("_bucket{").count(), 1);
    }

    #[test]
    fn histogram_render_is_cumulative() {
        let h = Histogram::new("udt_test_cum_hist", "cumulative");
        h.record_ns(1); // bucket 0
        h.record_ns(2); // bucket 1
        h.record_ns(5); // bucket 2
        let mut out = String::new();
        render_histogram_into(&mut out, h.name(), h.help(), "", &h);
        // le for bucket 0 is 2ns = 2e-9 s.
        assert!(
            out.contains("le=\"0.000000002\"}} 1\n") || out.contains("le=\"2e-9\"}} 1\n") || {
                // The exact float formatting is std's; just check cumulative
                // counts appear in order 1, 2, 3.
                let counts: Vec<&str> = out
                    .lines()
                    .filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
                    .collect();
                counts.len() == 3
                    && counts[0].ends_with(" 1")
                    && counts[1].ends_with(" 2")
                    && counts[2].ends_with(" 3")
            }
        );
        assert!(out.contains("udt_test_cum_hist_bucket{le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn render_counter_sanitizes_and_labels() {
        let mut out = String::new();
        render_counter_into(
            &mut out,
            "my.metric",
            "help text",
            "algorithm=\"UDT-ES\"",
            7,
        );
        assert!(out.contains("# HELP my_metric help text\n"));
        assert!(out.contains("# TYPE my_metric counter\n"));
        assert!(out.contains("my_metric{algorithm=\"UDT-ES\"} 7\n"));
    }

    #[test]
    fn disabled_span_site_is_cheap() {
        // The disabled span path must stay a relaxed load, not a lock:
        // 10M sites under a very generous 1s budget (≈100 ns each —
        // orders of magnitude above the real cost, but robust to a busy
        // CI container).
        let started = std::time::Instant::now();
        let mut live = 0u64;
        for _ in 0..10_000_000u64 {
            if trace::span("x", "bench").is_some() {
                live += 1;
            }
        }
        assert_eq!(live, 0, "tracing must be off in this test");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "disabled span site took {:?} for 10M iterations",
            started.elapsed()
        );
    }
}
