//! Server configuration and flag parsing for the `udt-serve` binary.

use std::path::PathBuf;
use std::time::Duration;

use udt_tree::ThreadCount;

use crate::batcher::{BatchOptions, QueuePolicy};
use crate::error::ServeError;
use crate::faults::FaultPlan;
use crate::Result;

/// Configuration for a serving process.
///
/// Built either programmatically (tests, benches) or from CLI flags via
/// [`ServeConfig::from_args`]:
///
/// ```text
/// udt-serve [--addr HOST:PORT] [--workers N] [--max-batch TUPLES]
///           [--queue-capacity JOBS]
///           [--queue-policy block|shed] [--request-deadline-ms MS]
///           [--drain-deadline-ms MS] [--max-connections N]
///           [--idle-timeout-ms MS] [--write-timeout-ms MS]
///           [--faults SPEC] [--fault-seed N]
///           [--model NAME=PATH]... [--preload NAME=PATH]...
///           [--train-toy NAME] [--threads auto|N]
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:7878` by default; port 0 asks the OS
    /// for an ephemeral port, which the binary prints on startup).
    pub addr: String,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Micro-batch cap in tuples. A worker flushes whatever is queued
    /// the moment it picks up a job, up to this many tuples; it never
    /// waits for company.
    pub max_batch_tuples: usize,
    /// Bounded queue capacity in jobs.
    pub queue_capacity: usize,
    /// Admission behaviour when the queue is full: block or shed.
    pub queue_policy: QueuePolicy,
    /// End-to-end request budget (submit wait + queue residence); `None`
    /// disables deadline handling.
    pub request_deadline: Option<Duration>,
    /// How long shutdown waits for in-flight connections to finish
    /// before abandoning them and draining the queue.
    pub drain_deadline: Duration,
    /// Maximum concurrently served connections; excess connections get a
    /// structured `overloaded` error and are closed immediately.
    pub max_connections: usize,
    /// Disconnect a connection after this long without a complete
    /// request (`None` = never; a stalled peer then only costs its
    /// thread).
    pub idle_timeout: Option<Duration>,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Fault-injection plan (empty in production).
    pub faults: FaultPlan,
    /// Models to load at startup, as `(name, path)` pairs. A corrupt or
    /// unreadable file refuses startup — these models are *required*.
    pub models: Vec<(String, PathBuf)>,
    /// Best-effort startup models: a corrupt or unreadable file is
    /// quarantined (counted, logged, surfaced by `health`) and the
    /// server starts without it instead of dying.
    pub preload: Vec<(String, PathBuf)>,
    /// When set, train the paper's Table 1 toy model in-process at
    /// startup and serve it under this name — lets the smoke test and
    /// walkthrough start a useful server with no model file at hand.
    pub train_toy: Option<String>,
    /// Build-pool thread budget used when training startup models;
    /// parsed by the canonical [`ThreadCount`] `FromStr` impl, the same
    /// parser `UDT_THREADS` goes through (which also supplies the
    /// default).
    pub threads: ThreadCount,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // The scheduler defaults have one source of truth:
        // `BatchOptions::default()`.
        let batch = BatchOptions::default();
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: batch.workers,
            max_batch_tuples: batch.max_batch_tuples,
            queue_capacity: batch.queue_capacity,
            queue_policy: batch.queue_policy,
            request_deadline: batch.request_deadline,
            drain_deadline: Duration::from_millis(5_000),
            max_connections: 256,
            idle_timeout: None,
            write_timeout: Duration::from_secs(10),
            faults: FaultPlan::default(),
            models: Vec::new(),
            preload: Vec::new(),
            train_toy: None,
            threads: ThreadCount::from_env(),
        }
    }
}

impl ServeConfig {
    /// The scheduler options this configuration implies. The fault
    /// injector stays disabled here — the server arms one injector from
    /// the plan and shares it across the batcher and the connection
    /// layer, so counters do not split.
    pub fn batch_options(&self) -> BatchOptions {
        BatchOptions {
            workers: self.workers,
            max_batch_tuples: self.max_batch_tuples,
            queue_capacity: self.queue_capacity,
            queue_policy: self.queue_policy,
            request_deadline: self.request_deadline,
            ..BatchOptions::default()
        }
    }

    /// Parses CLI flags (everything after the program name). Unknown
    /// flags, missing values and malformed numbers are configuration
    /// errors naming the offending flag.
    pub fn from_args<I, S>(args: I) -> Result<ServeConfig>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut config = ServeConfig::default();
        let mut fault_seed: Option<u64> = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            let mut value_for = |flag: &str| -> Result<String> {
                args.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| ServeError::Config(format!("{flag} needs a value")))
            };
            match arg {
                "--addr" => config.addr = value_for("--addr")?,
                "--workers" => config.workers = parse_num(&value_for("--workers")?, "--workers")?,
                "--max-batch" => {
                    config.max_batch_tuples = parse_num(&value_for("--max-batch")?, "--max-batch")?
                }
                "--queue-capacity" => {
                    config.queue_capacity =
                        parse_num(&value_for("--queue-capacity")?, "--queue-capacity")?
                }
                "--queue-policy" => {
                    let raw = value_for("--queue-policy")?;
                    config.queue_policy = raw.parse().map_err(|_| {
                        ServeError::Config(format!(
                            "--queue-policy must be `block` or `shed`, got `{raw}`"
                        ))
                    })?;
                }
                "--request-deadline-ms" => {
                    let ms: u64 = parse_num(
                        &value_for("--request-deadline-ms")?,
                        "--request-deadline-ms",
                    )?;
                    // 0 disables.
                    config.request_deadline = (ms > 0).then(|| Duration::from_millis(ms));
                }
                "--drain-deadline-ms" => {
                    let ms: u64 =
                        parse_num(&value_for("--drain-deadline-ms")?, "--drain-deadline-ms")?;
                    config.drain_deadline = Duration::from_millis(ms);
                }
                "--max-connections" => {
                    config.max_connections =
                        parse_num(&value_for("--max-connections")?, "--max-connections")?
                }
                "--idle-timeout-ms" => {
                    let ms: u64 = parse_num(&value_for("--idle-timeout-ms")?, "--idle-timeout-ms")?;
                    config.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
                }
                "--write-timeout-ms" => {
                    let ms: u64 =
                        parse_num(&value_for("--write-timeout-ms")?, "--write-timeout-ms")?;
                    if ms == 0 {
                        return Err(ServeError::Config(
                            "--write-timeout-ms must be at least 1".into(),
                        ));
                    }
                    config.write_timeout = Duration::from_millis(ms);
                }
                "--faults" => {
                    let spec = value_for("--faults")?;
                    config.faults = FaultPlan::parse(&spec, config.faults.seed)?;
                }
                "--fault-seed" => {
                    fault_seed = Some(parse_num(&value_for("--fault-seed")?, "--fault-seed")?);
                }
                "--model" => {
                    let spec = value_for("--model")?;
                    config.models.push(parse_model_spec(&spec, "--model")?);
                }
                "--preload" => {
                    let spec = value_for("--preload")?;
                    config.preload.push(parse_model_spec(&spec, "--preload")?);
                }
                "--train-toy" => config.train_toy = Some(value_for("--train-toy")?),
                "--threads" => {
                    let raw = value_for("--threads")?;
                    // The one canonical parser (shared with
                    // `UDT_THREADS`).
                    config.threads = raw.parse().map_err(|_| {
                        ServeError::Config(format!(
                            "--threads must be `auto` or an integer >= 1, got `{raw}`"
                        ))
                    })?;
                }
                other => {
                    return Err(ServeError::Config(format!("unknown flag `{other}`")));
                }
            }
        }
        if config.workers == 0 {
            return Err(ServeError::Config("--workers must be at least 1".into()));
        }
        if config.max_batch_tuples == 0 {
            return Err(ServeError::Config("--max-batch must be at least 1".into()));
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::Config(
                "--queue-capacity must be at least 1".into(),
            ));
        }
        if config.max_connections == 0 {
            return Err(ServeError::Config(
                "--max-connections must be at least 1".into(),
            ));
        }
        if let Some(seed) = fault_seed {
            // `--fault-seed` may appear before or after `--faults`.
            config.faults.seed = seed;
        }
        Ok(config)
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T> {
    raw.parse()
        .map_err(|_| ServeError::Config(format!("{flag}: `{raw}` is not a valid number")))
}

fn parse_model_spec(spec: &str, flag: &str) -> Result<(String, PathBuf)> {
    let (name, path) = spec
        .split_once('=')
        .filter(|(name, path)| !name.is_empty() && !path.is_empty())
        .ok_or_else(|| ServeError::Config(format!("{flag} expects NAME=PATH, got `{spec}`")))?;
    Ok((name.to_string(), PathBuf::from(path)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.workers, 2);
        assert!(c.max_batch_tuples > 0);
        assert!(c.queue_capacity > 0);
        assert!(c.models.is_empty());
        let b = c.batch_options();
        assert_eq!(b.workers, c.workers);
        assert_eq!(b.max_batch_tuples, c.max_batch_tuples);
    }

    #[test]
    fn full_flag_set_parses() {
        let c = ServeConfig::from_args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--max-batch",
            "128",
            "--queue-capacity",
            "64",
            "--model",
            "iris=models/iris.json",
            "--model",
            "toy=models/toy.json",
            "--preload",
            "extra=models/extra.json",
            "--train-toy",
            "demo",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.workers, 4);
        assert_eq!(c.max_batch_tuples, 128);
        assert_eq!(c.queue_capacity, 64);
        assert_eq!(c.models.len(), 2);
        assert_eq!(c.models[0].0, "iris");
        assert_eq!(c.models[1].1, PathBuf::from("models/toy.json"));
        assert_eq!(
            c.preload,
            vec![("extra".to_string(), PathBuf::from("models/extra.json"))]
        );
        assert_eq!(c.train_toy.as_deref(), Some("demo"));
        assert_eq!(c.threads, ThreadCount::fixed(4));
    }

    #[test]
    fn threads_flag_accepts_auto_and_rejects_bad_values() {
        let c = ServeConfig::from_args(["--threads", "auto"]).unwrap();
        assert!(c.threads.is_auto());
        for bad in ["0", "many"] {
            let err = ServeConfig::from_args(["--threads", bad]).unwrap_err();
            assert!(
                err.to_string().contains("--threads"),
                "{bad:?} should name the flag, got: {err}"
            );
        }
    }

    #[test]
    fn robustness_flags_parse_and_zero_disables_the_optional_ones() {
        let c = ServeConfig::from_args([
            "--queue-policy",
            "shed",
            "--request-deadline-ms",
            "250",
            "--drain-deadline-ms",
            "1500",
            "--max-connections",
            "8",
            "--idle-timeout-ms",
            "30000",
            "--write-timeout-ms",
            "2000",
            "--faults",
            "panic_in_worker:nth=2",
            "--fault-seed",
            "42",
        ])
        .unwrap();
        assert_eq!(c.queue_policy, QueuePolicy::Shed);
        assert_eq!(c.request_deadline, Some(Duration::from_millis(250)));
        assert_eq!(c.drain_deadline, Duration::from_millis(1500));
        assert_eq!(c.max_connections, 8);
        assert_eq!(c.idle_timeout, Some(Duration::from_millis(30_000)));
        assert_eq!(c.write_timeout, Duration::from_millis(2000));
        assert_eq!(c.faults.specs.len(), 1);
        assert_eq!(c.faults.seed, 42);
        let b = c.batch_options();
        assert_eq!(b.queue_policy, QueuePolicy::Shed);
        assert_eq!(b.request_deadline, Some(Duration::from_millis(250)));
        assert!(
            !b.faults.active(),
            "plans are armed by the server, not here"
        );

        // Zero disables the optional deadlines.
        let c = ServeConfig::from_args(["--request-deadline-ms", "0", "--idle-timeout-ms", "0"])
            .unwrap();
        assert_eq!(c.request_deadline, None);
        assert_eq!(c.idle_timeout, None);
    }

    #[test]
    fn bad_flags_name_themselves() {
        for (args, needle) in [
            (vec!["--frobnicate"], "--frobnicate"),
            (vec!["--workers"], "--workers"),
            (vec!["--workers", "many"], "--workers"),
            (vec!["--workers", "0"], "--workers"),
            (vec!["--max-batch", "0"], "--max-batch"),
            (vec!["--queue-capacity", "0"], "--queue-capacity"),
            (vec!["--queue-policy", "drop"], "--queue-policy"),
            (
                vec!["--request-deadline-ms", "soon"],
                "--request-deadline-ms",
            ),
            (vec!["--max-connections", "0"], "--max-connections"),
            (vec!["--write-timeout-ms", "0"], "--write-timeout-ms"),
            (vec!["--faults", "frobnicate:nth=1"], "frobnicate"),
            (vec!["--fault-seed", "abc"], "--fault-seed"),
            (vec!["--model", "nameonly"], "NAME=PATH"),
            (vec!["--model", "=path"], "NAME=PATH"),
            (vec!["--preload", "nameonly"], "--preload"),
        ] {
            let err = ServeConfig::from_args(args.clone()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{args:?} should mention {needle}, got: {err}"
            );
        }
    }
}
