//! The `udt-client` CLI.
//!
//! ```text
//! udt-client --addr HOST:PORT classify MODEL --point V1,V2,...
//! udt-client --addr HOST:PORT classify MODEL --uniform LO,HI[,SAMPLES]
//! udt-client --addr HOST:PORT stats [--format json|prometheus]
//! udt-client --addr HOST:PORT stats --watch SECS [--samples N]
//! udt-client --addr HOST:PORT load NAME PATH
//! udt-client --addr HOST:PORT swap NAME PATH
//! udt-client --addr HOST:PORT health
//! udt-client --addr HOST:PORT shutdown
//! udt-client --replicas H1:P1,H2:P2 [--hedge-ms MS] classify MODEL --point ... [--repeat N]
//! ```
//!
//! `--point` sends a certain (point-valued) tuple; `--uniform` sends a
//! single-attribute *uncertain* tuple whose pdf is uniform over
//! `[LO, HI]` with `SAMPLES` sample points (default 16) — enough for the
//! CI smoke test to exercise the fractional classification path over the
//! wire.
//!
//! ## Robustness flags and exit codes
//!
//! `--timeout-ms MS` bounds the connect and every socket read/write;
//! `--retries N` re-runs the command up to `N` extra times on
//! *transient* failures (sheds, deadline drops, worker panics, transport
//! errors) with exponential backoff and seeded jitter
//! (`--retry-base-ms`, `--retry-seed`). Exit codes tell scripts **what
//! kind** of failure survived the retries: `0` success, `1` usage /
//! local errors, `2` transport errors (could not reach or keep the
//! connection), `3` server-reported errors.
//!
//! ## Watch mode
//!
//! `stats --watch SECS` re-polls the server every `SECS` seconds and
//! prints **delta rates** for the monotone counters (requests, tuples,
//! errors, sheds, deadline drops) between consecutive samples — a
//! poor-man's `top` for a serving box with no Prometheus scraper
//! around. `--samples N` stops after `N` polls (handy for scripts and
//! the CI smoke); without it the loop runs until interrupted or the
//! server goes away. The exit-code contract is unchanged: a transport
//! failure that survives the retries exits 2, a server error 3.
//!
//! ## Replica sets, hedging and health
//!
//! `--replicas H1:P1,H2:P2,...`
//! routes `classify` and `health` through a
//! [`udt_serve::client::ReplicaSet`]: per-endpoint circuit breakers,
//! failover to the next healthy replica on transient failures, and —
//! with `--hedge-ms MS` (`0` disables) — a hedged
//! second attempt for point classifies that have not answered in time.
//! `--repeat N` streams `N` classifies through the same replica set and
//! reports `replies: N/N` plus the failover/hedge counters, which the
//! failover smoke test asserts on. `health` prints the liveness /
//! readiness report and exits `0` when the server is ready, `3` when it
//! is live but not ready (draining, empty registry, wedged scheduler),
//! `2` when it cannot be reached at all — exactly the trichotomy a load
//! balancer probe wants.

// `!(hi > lo)` is a deliberate NaN guard (same convention as udt-tree):
// a NaN bound must take the rejection branch.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use udt_data::{Tuple, UncertainValue};
use udt_prob::SampledPdf;
use udt_serve::client::{ReplicaSet, ReplicaSetOptions, RetryPolicy};
use udt_serve::{Client, HealthReport, ServeError, StatsFormat, StatsReport};

/// What failed, for the exit code.
enum CliError {
    /// Bad flags or arguments (exit 1).
    Usage(String),
    /// Could not reach the server or lost the connection (exit 2).
    Transport(String),
    /// The server answered with an error (exit 3).
    Server(String),
}

/// A fully validated command — every usage error is caught before the
/// first connection attempt, so the retry loop only ever sees transport
/// and server failures.
enum Command {
    Classify {
        model: String,
        tuple: Tuple,
    },
    Stats {
        format: StatsFormat,
    },
    /// `stats --watch SECS [--samples N]`: periodic re-poll with delta
    /// rates; `samples: None` polls until interrupted.
    StatsWatch {
        period: Duration,
        samples: Option<u64>,
    },
    Load {
        name: String,
        path: String,
    },
    Swap {
        name: String,
        path: String,
    },
    /// `health`: liveness/readiness probe — exit 0 when ready, 3 when
    /// live but not ready, 2 when unreachable.
    Health,
    Shutdown,
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("udt-client: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Transport(msg)) => {
            eprintln!("udt-client: transport error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Server(msg)) => {
            eprintln!("udt-client: server error: {msg}");
            ExitCode::from(3)
        }
    }
}

fn run() -> Result<String, CliError> {
    let usage = |msg: String| CliError::Usage(msg);
    let mut args = std::env::args().skip(1);
    let mut addr = "127.0.0.1:7878".to_string();
    let mut timeout: Option<Duration> = None;
    let mut policy = RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    };
    let mut replicas: Option<String> = None;
    let mut hedge_ms: Option<u64> = None;
    let mut repeat: u64 = 1;
    let mut command: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = value_for("--addr")?,
            "--timeout-ms" => {
                let ms: u64 = value_for("--timeout-ms")?
                    .parse()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| usage("--timeout-ms wants a positive integer".into()))?;
                timeout = Some(Duration::from_millis(ms));
            }
            "--retries" => {
                let n: u32 = value_for("--retries")?
                    .parse()
                    .map_err(|_| usage("--retries wants an integer >= 0".into()))?;
                policy.attempts = n + 1;
            }
            "--retry-base-ms" => {
                let ms: u64 = value_for("--retry-base-ms")?
                    .parse()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| usage("--retry-base-ms wants a positive integer".into()))?;
                policy.base_backoff = Duration::from_millis(ms);
            }
            "--retry-seed" => {
                policy.seed = value_for("--retry-seed")?
                    .parse()
                    .map_err(|_| usage("--retry-seed wants an integer".into()))?;
            }
            "--replicas" => replicas = Some(value_for("--replicas")?),
            "--hedge-ms" => {
                let ms: u64 = value_for("--hedge-ms")?
                    .parse()
                    .map_err(|_| usage("--hedge-ms wants an integer >= 0".into()))?;
                hedge_ms = Some(ms);
            }
            "--repeat" => {
                repeat = value_for("--repeat")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| usage("--repeat wants a positive integer".into()))?;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: udt-client [--addr HOST:PORT] [--timeout-ms MS] \
                     [--retries N] [--retry-base-ms MS] [--retry-seed N] \
                     [--replicas H1:P1,H2:P2,...] [--hedge-ms MS] [--repeat N] \
                     <classify MODEL (--point CSV | --uniform LO,HI[,SAMPLES]) | \
                     stats [--format json|prometheus] [--watch SECS [--samples N]] | \
                     load NAME PATH | swap NAME PATH | health | shutdown>"
                );
                return Ok(String::new());
            }
            other => command.push(other.to_string()),
        }
    }
    let command = parse_command(&command).map_err(CliError::Usage)?;
    let endpoints: Vec<String> = match &replicas {
        Some(raw) => {
            let list: Vec<String> = raw
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if list.is_empty() {
                return Err(usage(
                    "--replicas wants a comma-separated endpoint list".into(),
                ));
            }
            list
        }
        None => vec![addr.clone()],
    };
    let replicated = matches!(command, Command::Classify { .. } | Command::Health);
    if !replicated {
        if replicas.is_some() {
            return Err(usage(
                "--replicas only applies to classify and health".into(),
            ));
        }
        if repeat != 1 {
            return Err(usage("--repeat only applies to classify".into()));
        }
    }
    if replicated {
        let options = ReplicaSetOptions {
            timeout,
            hedge: hedge_ms.filter(|&ms| ms > 0).map(Duration::from_millis),
            seed: policy.seed,
            ..ReplicaSetOptions::default()
        };
        return match command {
            Command::Classify { model, tuple } => {
                run_classify(endpoints, options, &policy, &model, &tuple, repeat)
            }
            Command::Health => run_health(endpoints, options, &policy),
            _ => unreachable!("replicated commands are classify and health"),
        };
    }
    if let Command::StatsWatch { period, samples } = command {
        return run_watch(&addr, timeout, &policy, period, samples);
    }
    // Each attempt gets a fresh connection: after a transport failure or
    // a shed, the old socket proves nothing about the next try.
    let result = policy.run(|attempt| {
        if attempt > 0 {
            eprintln!(
                "udt-client: transient failure, retry {attempt}/{}",
                policy.attempts - 1
            );
        }
        let mut client = match timeout {
            Some(t) => Client::connect_with_timeout(&addr, t),
            None => Client::connect(&addr),
        }
        .map_err(|e| ServeError::Io(format!("cannot connect to {addr}: {e}")))?;
        execute(&mut client, &command)
    });
    result.map_err(classify_error)
}

/// Streams `repeat` classifies through one replica set (so breaker
/// state, failover decisions and connections persist across requests)
/// and renders the last reply plus a delivery/failover summary. Every
/// reply is accounted for: the loop aborts on the first undelivered
/// request, so `replies: N/N` on stdout means nothing was lost.
fn run_classify(
    endpoints: Vec<String>,
    options: ReplicaSetOptions,
    policy: &RetryPolicy,
    model: &str,
    tuple: &Tuple,
    repeat: u64,
) -> Result<String, CliError> {
    let mut set = ReplicaSet::new(endpoints, options)
        .map_err(|e| CliError::Usage(format!("bad replica set: {e}")))?;
    let mut last = None;
    let mut replies = 0u64;
    for _ in 0..repeat {
        let result = policy
            .run(|attempt| {
                if attempt > 0 {
                    eprintln!(
                        "udt-client: transient failure, retry {attempt}/{}",
                        policy.attempts - 1
                    );
                }
                set.classify(model, tuple)
            })
            .map_err(classify_error)?;
        replies += 1;
        last = Some(result);
    }
    let (distribution, label) = last.expect("repeat >= 1 is enforced at parse time");
    let mut out = String::new();
    let _ = writeln!(out, "label: {label}");
    for (c, p) in distribution.iter().enumerate() {
        let _ = writeln!(out, "P(class {c}) = {p:.6}");
    }
    let _ = writeln!(out, "replies: {replies}/{repeat}");
    let obs = udt_obs::catalog::serve::FAILOVERS.get();
    let _ = writeln!(out, "failovers: {obs}");
    let _ = writeln!(
        out,
        "hedges: launched {}, won {}",
        udt_obs::catalog::serve::HEDGES_LAUNCHED.get(),
        udt_obs::catalog::serve::HEDGES_WON.get()
    );
    Ok(out)
}

/// The `health` command: prints the report and maps readiness onto the
/// exit-code taxonomy (ready ⇒ 0, live-but-not-ready ⇒ 3 via a server
/// error, unreachable ⇒ 2 via a transport error).
fn run_health(
    endpoints: Vec<String>,
    options: ReplicaSetOptions,
    policy: &RetryPolicy,
) -> Result<String, CliError> {
    let mut set = ReplicaSet::new(endpoints, options)
        .map_err(|e| CliError::Usage(format!("bad replica set: {e}")))?;
    let report = policy.run(|_| set.health()).map_err(classify_error)?;
    let text = render_health(&report);
    if report.ready {
        Ok(text)
    } else {
        // The report still lands on stdout for the operator; the exit
        // code carries the verdict for scripts and probes.
        print!("{text}");
        Err(CliError::Server("server is live but not ready".into()))
    }
}

fn render_health(report: &HealthReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "live: {}", report.live);
    let _ = writeln!(out, "ready: {}", report.ready);
    let _ = writeln!(out, "models: {}", report.models);
    let _ = writeln!(out, "accepting: {}", report.accepting);
    let _ = writeln!(out, "draining: {}", report.draining);
    let _ = writeln!(out, "quarantined: {}", report.quarantined);
    out
}

/// Maps a post-validation serve error onto the exit-code taxonomy.
/// Usage-shaped problems were rejected before the first connect, so an
/// error here is the wire's fault or the server's word.
fn classify_error(e: ServeError) -> CliError {
    match e {
        ServeError::Io(_) | ServeError::Protocol(_) => CliError::Transport(e.to_string()),
        other => CliError::Server(other.to_string()),
    }
}

/// The `stats --watch` loop: polls the server every `period`, printing
/// each sample as it lands (absolute values first, then deltas and
/// per-second rates against the previous sample). Every poll opens a
/// fresh connection under the same retry policy as one-shot commands,
/// so a restarting server only kills the watch once the retries are
/// exhausted.
fn run_watch(
    addr: &str,
    timeout: Option<Duration>,
    policy: &RetryPolicy,
    period: Duration,
    samples: Option<u64>,
) -> Result<String, CliError> {
    let mut prev: Option<(Instant, StatsReport)> = None;
    let mut tick = 0u64;
    loop {
        let report = policy
            .run(|attempt| {
                if attempt > 0 {
                    eprintln!(
                        "udt-client: transient failure, retry {attempt}/{}",
                        policy.attempts - 1
                    );
                }
                let mut client = match timeout {
                    Some(t) => Client::connect_with_timeout(addr, t),
                    None => Client::connect(addr),
                }
                .map_err(|e| ServeError::Io(format!("cannot connect to {addr}: {e}")))?;
                client.stats()
            })
            .map_err(classify_error)?;
        let now = Instant::now();
        let delta = prev
            .as_ref()
            .map(|(at, report)| (now.duration_since(*at), report));
        print!("{}", render_watch_sample(tick, &report, delta));
        let _ = std::io::stdout().flush();
        prev = Some((now, report));
        tick += 1;
        if samples.is_some_and(|n| tick >= n) {
            return Ok(String::new());
        }
        std::thread::sleep(period);
    }
}

/// Renders one watch sample. The first sample shows absolute counter
/// values; later samples show the increment since the previous one and
/// its per-second rate. Counters are compared with saturating
/// subtraction so a server restart (counters reset to zero) renders as
/// a quiet sample instead of an underflow.
fn render_watch_sample(
    tick: u64,
    report: &StatsReport,
    prev: Option<(Duration, &StatsReport)>,
) -> String {
    let mut out = String::new();
    match prev {
        None => {
            let _ = writeln!(
                out,
                "sample {tick}: uptime {:.1}s, queue {}/{}, {} sheds, {} deadline drops, \
                 {} worker panics",
                report.uptime_seconds,
                report.queue.depth,
                report.queue.capacity,
                report.health.sheds,
                report.health.deadline_drops,
                report.health.worker_panics
            );
            for m in &report.metrics {
                let _ = writeln!(
                    out,
                    "  {}: {} requests, {} tuples, {} errors, p99 {:.1} us",
                    m.model, m.requests, m.tuples, m.errors, m.p99_us
                );
            }
        }
        Some((dt, old)) => {
            let secs = dt.as_secs_f64().max(1e-9);
            let _ = writeln!(
                out,
                "sample {tick} (+{:.1}s): queue {}/{}, +{} sheds, +{} deadline drops, \
                 +{} worker panics",
                dt.as_secs_f64(),
                report.queue.depth,
                report.queue.capacity,
                report.health.sheds.saturating_sub(old.health.sheds),
                report
                    .health
                    .deadline_drops
                    .saturating_sub(old.health.deadline_drops),
                report
                    .health
                    .worker_panics
                    .saturating_sub(old.health.worker_panics)
            );
            for m in &report.metrics {
                // A model first seen this sample diffs against zero.
                let (requests, tuples, errors) = old
                    .metrics
                    .iter()
                    .find(|o| o.model == m.model)
                    .map_or((0, 0, 0), |o| (o.requests, o.tuples, o.errors));
                let d_requests = m.requests.saturating_sub(requests);
                let d_tuples = m.tuples.saturating_sub(tuples);
                let _ = writeln!(
                    out,
                    "  {}: +{} requests ({:.1}/s), +{} tuples ({:.1}/s), +{} errors, \
                     p99 {:.1} us",
                    m.model,
                    d_requests,
                    d_requests as f64 / secs,
                    d_tuples,
                    d_tuples as f64 / secs,
                    m.errors.saturating_sub(errors),
                    m.p99_us
                );
            }
        }
    }
    out
}

/// Validates the positional arguments into a [`Command`].
fn parse_command(command: &[String]) -> Result<Command, String> {
    match command.first().map(String::as_str) {
        Some("classify") => {
            let model = command
                .get(1)
                .ok_or("classify needs a MODEL name")?
                .to_string();
            let tuple = parse_tuple(&command[2..])?;
            Ok(Command::Classify { model, tuple })
        }
        Some("stats") => {
            // `stats [--format json|prometheus] [--watch SECS
            // [--samples N]]`; the format is parsed by the canonical
            // `StatsFormat` parser the wire field shares.
            let mut format: Option<StatsFormat> = None;
            let mut watch: Option<Duration> = None;
            let mut samples: Option<u64> = None;
            let mut rest = command[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--format" => {
                        let raw = rest.next().ok_or("--format needs a value")?;
                        format = Some(raw.parse().map_err(|e| format!("{e}"))?);
                    }
                    "--watch" => {
                        let secs: u64 = rest
                            .next()
                            .ok_or("--watch needs a period in seconds")?
                            .parse()
                            .ok()
                            .filter(|&s| s > 0)
                            .ok_or("--watch wants a positive integer of seconds")?;
                        watch = Some(Duration::from_secs(secs));
                    }
                    "--samples" => {
                        let n: u64 = rest
                            .next()
                            .ok_or("--samples needs a value")?
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or("--samples wants a positive integer")?;
                        samples = Some(n);
                    }
                    other => return Err(format!("unknown stats argument `{other}`")),
                }
            }
            match watch {
                Some(period) => {
                    // Watch renders human-readable delta rates; the raw
                    // expositions don't fit a rolling display.
                    if format.is_some() && format != Some(StatsFormat::Json) {
                        return Err("stats --watch only supports the json format".into());
                    }
                    Ok(Command::StatsWatch { period, samples })
                }
                None => {
                    if samples.is_some() {
                        return Err("--samples only makes sense with --watch".into());
                    }
                    Ok(Command::Stats {
                        format: format.unwrap_or(StatsFormat::Json),
                    })
                }
            }
        }
        Some("load") | Some("swap") => {
            let name = command.get(1).ok_or("load/swap needs NAME PATH")?.clone();
            let path = command.get(2).ok_or("load/swap needs NAME PATH")?.clone();
            if command[0] == "load" {
                Ok(Command::Load { name, path })
            } else {
                Ok(Command::Swap { name, path })
            }
        }
        Some("health") => Ok(Command::Health),
        Some("shutdown") => Ok(Command::Shutdown),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given (try --help)".to_string()),
    }
}

/// Runs one validated command over a connected client and renders its
/// output (printed only after the retry loop settles on success).
fn execute(client: &mut Client, command: &Command) -> udt_serve::Result<String> {
    let mut out = String::new();
    match command {
        Command::Stats { format } => {
            if *format == StatsFormat::Prometheus {
                let _ = write!(out, "{}", client.stats_prometheus()?);
                return Ok(out);
            }
            let stats = client.stats()?;
            let _ = writeln!(out, "uptime: {:.1}s", stats.uptime_seconds);
            let _ = writeln!(
                out,
                "queue: {} slots, {}/{} waiting, policy {}, deadline {}",
                stats.queue.workers,
                stats.queue.depth,
                stats.queue.capacity,
                stats.queue.policy,
                if stats.queue.deadline_ms == 0 {
                    "none".to_string()
                } else {
                    format!("{} ms", stats.queue.deadline_ms)
                }
            );
            let _ = writeln!(
                out,
                "health: {} sheds, {} deadline drops, {} worker panics, \
                 {} rejected connections, queue wait p50 {:.1} us p99 {:.1} us",
                stats.health.sheds,
                stats.health.deadline_drops,
                stats.health.worker_panics,
                stats.health.rejected_connections,
                stats.health.queue_wait_p50_us,
                stats.health.queue_wait_p99_us
            );
            for m in &stats.models {
                let _ = writeln!(
                    out,
                    "model {} (gen {}): {} nodes, {} leaves, depth {}, {} classes, {} bytes",
                    m.name, m.generation, m.nodes, m.leaves, m.depth, m.n_classes, m.heap_bytes
                );
            }
            for s in &stats.metrics {
                let _ = writeln!(
                    out,
                    "traffic {}: {} requests, {} tuples, {} errors, \
                     p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
                    s.model, s.requests, s.tuples, s.errors, s.p50_us, s.p95_us, s.p99_us
                );
            }
        }
        Command::Load { name, path } => {
            let info = client.load_model(name, path)?;
            let _ = writeln!(
                out,
                "model {} (gen {}): {} nodes, {} bytes",
                info.name, info.generation, info.nodes, info.heap_bytes
            );
        }
        Command::Swap { name, path } => {
            let info = client.swap(name, path)?;
            let _ = writeln!(
                out,
                "model {} (gen {}): {} nodes, {} bytes",
                info.name, info.generation, info.nodes, info.heap_bytes
            );
        }
        Command::Shutdown => {
            client.shutdown()?;
            let _ = writeln!(out, "server shutting down");
        }
        // Watch, classify and health never reach the one-shot path:
        // `run` dispatches them right after parsing (the latter two via
        // the replica-set path, even with a single endpoint).
        Command::StatsWatch { .. } => unreachable!("watch is handled before the retry loop"),
        Command::Classify { .. } | Command::Health => {
            unreachable!("replicated commands are handled before the retry loop")
        }
    }
    Ok(out)
}

/// Parses `--point CSV` or `--uniform LO,HI[,SAMPLES]` into a tuple.
fn parse_tuple(spec: &[String]) -> Result<Tuple, String> {
    match spec.first().map(String::as_str) {
        Some("--point") => {
            let csv = spec.get(1).ok_or("--point needs comma-separated values")?;
            let values: Result<Vec<f64>, _> =
                csv.split(',').map(str::trim).map(str::parse).collect();
            let values = values.map_err(|_| format!("--point: `{csv}` is not numeric CSV"))?;
            if values.is_empty() {
                return Err("--point needs at least one value".into());
            }
            Ok(Tuple::from_points(&values, 0))
        }
        Some("--uniform") => {
            let csv = spec.get(1).ok_or("--uniform needs LO,HI[,SAMPLES]")?;
            let parts: Vec<&str> = csv.split(',').map(str::trim).collect();
            if parts.len() < 2 || parts.len() > 3 {
                return Err(format!("--uniform: `{csv}` is not LO,HI[,SAMPLES]"));
            }
            let lo: f64 = parts[0]
                .parse()
                .map_err(|_| format!("--uniform: bad LO `{}`", parts[0]))?;
            let hi: f64 = parts[1]
                .parse()
                .map_err(|_| format!("--uniform: bad HI `{}`", parts[1]))?;
            let samples: usize = match parts.get(2) {
                Some(s) => s
                    .parse()
                    .map_err(|_| format!("--uniform: bad SAMPLES `{s}`"))?,
                None => 16,
            };
            if samples < 2 || !(hi > lo) {
                return Err("--uniform needs HI > LO and SAMPLES >= 2".into());
            }
            let step = (hi - lo) / (samples - 1) as f64;
            let points: Vec<f64> = (0..samples).map(|i| lo + step * i as f64).collect();
            let mass = vec![1.0 / samples as f64; samples];
            let pdf = SampledPdf::new(points, mass)
                .map_err(|e| format!("--uniform: invalid pdf: {e}"))?;
            Ok(Tuple::new(vec![UncertainValue::Numeric(pdf)], 0))
        }
        _ => Err("classify needs --point CSV or --uniform LO,HI[,SAMPLES]".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_serve::protocol::{HealthStats, ModelMetricsSnapshot, QueueStats};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_watch_arguments_parse() {
        match parse_command(&argv(&["stats", "--watch", "2"])).unwrap() {
            Command::StatsWatch { period, samples } => {
                assert_eq!(period, Duration::from_secs(2));
                assert_eq!(samples, None);
            }
            _ => panic!("expected watch mode"),
        }
        match parse_command(&argv(&["stats", "--watch", "1", "--samples", "3"])).unwrap() {
            Command::StatsWatch { period, samples } => {
                assert_eq!(period, Duration::from_secs(1));
                assert_eq!(samples, Some(3));
            }
            _ => panic!("expected watch mode"),
        }
        // Order does not matter, and an explicit json format is fine.
        assert!(matches!(
            parse_command(&argv(&[
                "stats",
                "--samples",
                "2",
                "--format",
                "json",
                "--watch",
                "5"
            ]))
            .unwrap(),
            Command::StatsWatch { .. }
        ));
    }

    #[test]
    fn bad_watch_combinations_are_usage_errors() {
        assert!(parse_command(&argv(&["stats", "--watch"])).is_err());
        assert!(parse_command(&argv(&["stats", "--watch", "0"])).is_err());
        assert!(parse_command(&argv(&["stats", "--watch", "nope"])).is_err());
        assert!(parse_command(&argv(&["stats", "--samples", "2"])).is_err());
        assert!(
            parse_command(&argv(&["stats", "--watch", "1", "--format", "prometheus"])).is_err()
        );
        // The plain forms still parse.
        assert!(matches!(
            parse_command(&argv(&["stats"])).unwrap(),
            Command::Stats {
                format: StatsFormat::Json
            }
        ));
        assert!(matches!(
            parse_command(&argv(&["stats", "--format", "prometheus"])).unwrap(),
            Command::Stats {
                format: StatsFormat::Prometheus
            }
        ));
    }

    fn report(requests: u64, tuples: u64, errors: u64, sheds: u64) -> StatsReport {
        StatsReport {
            uptime_seconds: 10.0,
            models: Vec::new(),
            metrics: vec![ModelMetricsSnapshot {
                model: "toy".into(),
                requests,
                tuples,
                errors,
                mean_us: 5.0,
                p50_us: 4.0,
                p95_us: 8.0,
                p99_us: 9.0,
            }],
            queue: QueueStats {
                workers: 2,
                capacity: 64,
                depth: 1,
                policy: "block".into(),
                deadline_ms: 0,
            },
            health: HealthStats {
                sheds,
                deadline_drops: 0,
                worker_panics: 0,
                rejected_connections: 0,
                queue_wait_count: requests,
                queue_wait_p50_us: 1.0,
                queue_wait_p99_us: 2.0,
            },
        }
    }

    #[test]
    fn first_watch_sample_is_absolute() {
        let text = render_watch_sample(0, &report(3, 12, 1, 0), None);
        assert!(text.contains("sample 0: uptime 10.0s, queue 1/64"));
        assert!(text.contains("toy: 3 requests, 12 tuples, 1 errors"));
    }

    #[test]
    fn later_watch_samples_show_deltas_and_rates() {
        let old = report(3, 12, 1, 0);
        let new = report(7, 32, 1, 2);
        let text = render_watch_sample(1, &new, Some((Duration::from_secs(2), &old)));
        assert!(text.contains("sample 1 (+2.0s)"), "{text}");
        assert!(text.contains("+2 sheds"), "{text}");
        assert!(text.contains("toy: +4 requests (2.0/s), +20 tuples (10.0/s), +0 errors"));
    }

    #[test]
    fn counter_resets_render_as_quiet_samples() {
        // The server restarted: counters went backwards. Saturating
        // deltas keep the output sane.
        let old = report(100, 400, 5, 9);
        let new = report(2, 8, 0, 0);
        let text = render_watch_sample(2, &new, Some((Duration::from_secs(1), &old)));
        assert!(text.contains("+0 sheds"), "{text}");
        assert!(text.contains("toy: +0 requests (0.0/s), +0 tuples (0.0/s), +0 errors"));
    }
}
