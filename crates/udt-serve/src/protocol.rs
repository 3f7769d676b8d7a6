//! The NDJSON wire protocol.
//!
//! Every request and every response is one JSON object on one line
//! (newline-delimited JSON), so the framing layer is `BufRead::read_line`
//! and nothing else. Requests carry a `"cmd"` discriminant; responses
//! carry `"ok"` plus either a `"result"` discriminant or an `"error"`
//! message:
//!
//! ```text
//! → {"cmd":"classify","model":"iris","tuple":{…}}
//! ← {"ok":true,"result":"classify","distribution":[0.9,0.1],"label":0}
//! → {"cmd":"classify_batch","model":"iris","tuples":[{…},{…}]}
//! ← {"ok":true,"result":"classify_batch","distributions":[[…],[…]],"labels":[0,1]}
//! → {"cmd":"load_model","name":"iris","path":"models/iris.json"}
//! → {"cmd":"swap","name":"iris","path":"models/iris-v2.json"}
//! ← {"ok":true,"result":"model_loaded","model":{…}}
//! → {"cmd":"stats"}
//! ← {"ok":true,"result":"stats","stats":{…}}
//! → {"cmd":"health"}
//! ← {"ok":true,"result":"health","health":{"live":true,"ready":true,…}}
//! → {"cmd":"stats","format":"prometheus"}
//! ← {"ok":true,"result":"stats_text","text":"# HELP udt_serve_…"}
//! → {"cmd":"shutdown"}
//! ← {"ok":true,"result":"shutting_down"}
//! ← {"ok":false,"error":"unknown model nope"}
//! ```
//!
//! Tuples use the same serde projection as the rest of the workspace
//! (`udt_data::Tuple`), and floats are printed with Rust's shortest
//! round-trip formatting, so a distribution crossing the socket is
//! **bit-for-bit** the distribution `classify_batch` produced.
//!
//! The envelope is parsed by hand over the [`serde::Value`] data model
//! rather than derived: hand parsing gives precise error messages for
//! malformed client input (missing/mistyped fields name themselves) and
//! keeps the externally visible format independent of derive-macro
//! conventions.

use serde::{Deserialize, Serialize, Value};
use udt_data::Tuple;

use crate::error::ServeError;
use crate::Result;

/// Metadata describing one registered model, as returned by `stats` and
/// `load_model`/`swap` responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registry name the model is served under.
    pub name: String,
    /// Hot-swap generation: 1 for the first load, bumped by every swap.
    pub generation: u64,
    /// Total arena nodes.
    pub nodes: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Tree depth.
    pub depth: usize,
    /// Number of classes the model distinguishes.
    pub n_classes: usize,
    /// Number of attributes the model was trained on.
    pub n_attributes: usize,
    /// Approximate arena heap footprint in bytes
    /// ([`udt_tree::FlatTree::heap_bytes`]).
    pub heap_bytes: usize,
}

/// One model's serving counters, as reported by `stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMetricsSnapshot {
    /// Model name.
    pub model: String,
    /// Requests served (including failed ones).
    pub requests: u64,
    /// Tuples classified.
    pub tuples: u64,
    /// Requests that failed.
    pub errors: u64,
    /// Mean enqueue-to-reply latency, microseconds.
    pub mean_us: f64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency (bucket upper bound), microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_us: f64,
}

/// Scheduler configuration and occupancy, as reported by `stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity, in jobs.
    pub capacity: usize,
    /// Jobs waiting in the queue at snapshot time.
    pub depth: usize,
    /// Flush cap: tuples per micro-batch.
    pub max_batch_tuples: usize,
    /// Admission policy when the queue is full: `"block"` or `"shed"`.
    pub policy: String,
    /// Request deadline in milliseconds (0 = no deadline): jobs older
    /// than this at dequeue are dropped with `deadline_exceeded`.
    pub deadline_ms: u64,
}

/// Server-wide overload and failure counters, as reported by `stats`.
/// These are the signals an operator alarms on: nonzero `sheds` means
/// admission control is rejecting traffic, `deadline_drops` means jobs
/// are expiring in the queue, `worker_panics` means a model or the
/// engine misbehaved (and was contained).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthStats {
    /// Requests rejected at admission because the queue was full.
    pub sheds: u64,
    /// Accepted jobs dropped at dequeue because their deadline passed.
    pub deadline_drops: u64,
    /// Worker panics caught and contained (each failed its own job
    /// with a structured error; the worker kept serving).
    pub worker_panics: u64,
    /// Connections refused by the max-in-flight-connections gate.
    pub rejected_connections: u64,
    /// Micro-batches the scheduler workers flushed.
    pub flushes: u64,
    /// Jobs served across all flushes; `flushed_jobs / flushes` is the
    /// mean coalescing (1 when every request flushes alone).
    pub flushed_jobs: u64,
    /// Jobs that entered the queue (admitted; denominator for the drop
    /// counters above).
    pub queue_wait_count: u64,
    /// Median enqueue-to-dequeue wait, microseconds (bucket upper bound).
    pub queue_wait_p50_us: f64,
    /// 99th-percentile queue wait, microseconds (bucket upper bound).
    pub queue_wait_p99_us: f64,
}

/// The `health` response payload: the probe surface load balancers and
/// replica-set clients route on. **Liveness** (`live`) is "the process
/// answered at all" — it is `true` in every health response, because a
/// dead server sends nothing. **Readiness** (`ready`) is "this replica
/// can serve a classify right now": at least one model is registered,
/// the scheduler is accepting submissions, and no drain is in progress.
/// Unlike `stats`, the payload is intentionally small and allocation-
/// light — probes arrive every few hundred milliseconds, forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The process is up and answering its socket (always `true` in a
    /// response; its absence — a refused or timed-out probe — is what
    /// "not live" looks like).
    pub live: bool,
    /// `models > 0 && accepting && !draining`: a classify sent now
    /// would be admitted and has a model to run against.
    pub ready: bool,
    /// Registered model count.
    pub models: usize,
    /// The scheduler queue is open to new submissions.
    pub accepting: bool,
    /// A shutdown has been requested; in-flight work is being drained.
    pub draining: bool,
    /// Corrupt model files quarantined at startup (`--preload`) instead
    /// of loaded. Nonzero means an operator has a disk to inspect.
    pub quarantined: u64,
}

/// The full `stats` response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Every registered model, sorted by name.
    pub models: Vec<ModelInfo>,
    /// Per-model serving counters, sorted by name.
    pub metrics: Vec<ModelMetricsSnapshot>,
    /// Scheduler state.
    pub queue: QueueStats,
    /// Server-wide overload and failure counters.
    pub health: HealthStats,
}

/// How a `stats` request wants its payload rendered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StatsFormat {
    /// The structured [`StatsReport`] object (the default).
    #[default]
    Json,
    /// Prometheus text exposition
    /// ([`crate::metrics::ServeMetrics::render_prometheus`]), delivered
    /// as one JSON-escaped string in a `stats_text` response.
    Prometheus,
}

impl StatsFormat {
    /// Wire name of the format.
    pub fn name(&self) -> &'static str {
        match self {
            StatsFormat::Json => "json",
            StatsFormat::Prometheus => "prometheus",
        }
    }
}

/// The canonical parser for the `"format"` request field and the
/// `udt-client stats --format` flag: `json` / `prometheus`,
/// case-insensitive.
impl std::str::FromStr for StatsFormat {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<StatsFormat> {
        if s.eq_ignore_ascii_case("json") {
            Ok(StatsFormat::Json)
        } else if s.eq_ignore_ascii_case("prometheus") {
            Ok(StatsFormat::Prometheus)
        } else {
            Err(ServeError::Protocol(format!(
                "stats format must be `json` or `prometheus`, got `{s}`"
            )))
        }
    }
}

/// A request, one per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one tuple with the named model.
    Classify {
        /// Model name.
        model: String,
        /// The tuple to classify.
        tuple: Tuple,
    },
    /// Classify a batch of tuples with the named model.
    ClassifyBatch {
        /// Model name.
        model: String,
        /// The tuples to classify, order preserved in the response.
        tuples: Vec<Tuple>,
    },
    /// Load a persisted model file under a fresh name.
    LoadModel {
        /// Registry name to bind.
        name: String,
        /// Path (on the server's filesystem) of the persisted model.
        path: String,
    },
    /// Load a persisted model file and atomically replace the named
    /// binding (or create it if absent).
    Swap {
        /// Registry name to rebind.
        name: String,
        /// Path (on the server's filesystem) of the persisted model.
        path: String,
    },
    /// Report models, counters and scheduler state.
    Stats {
        /// Payload rendering; the `"format"` field is optional on the
        /// wire and defaults to JSON.
        format: StatsFormat,
    },
    /// Report liveness and readiness (see [`HealthReport`]).
    Health,
    /// Stop accepting connections and shut down cleanly.
    Shutdown,
}

/// A response, one per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Classify`].
    Classify {
        /// Class distribution for the tuple.
        distribution: Vec<f64>,
        /// `argmax` class label.
        label: usize,
    },
    /// Answer to [`Request::ClassifyBatch`].
    ClassifyBatch {
        /// Class distribution per tuple, in request order.
        distributions: Vec<Vec<f64>>,
        /// `argmax` class label per tuple.
        labels: Vec<usize>,
    },
    /// Answer to [`Request::LoadModel`] / [`Request::Swap`].
    ModelLoaded(ModelInfo),
    /// Answer to [`Request::Stats`] with [`StatsFormat::Json`].
    Stats(StatsReport),
    /// Answer to [`Request::Stats`] with a textual format: the rendered
    /// exposition as one (JSON-escaped) string.
    StatsText {
        /// The rendered text, newlines included.
        text: String,
    },
    /// Answer to [`Request::Health`].
    Health(HealthReport),
    /// Answer to [`Request::Shutdown`].
    ShuttingDown,
    /// Any request that failed.
    Error {
        /// Structured failure code ([`ServeError::code`]) so clients can
        /// distinguish e.g. `overloaded` (retry later) from
        /// `unknown_model` (permanent) without parsing message text.
        code: String,
        /// Human-readable failure description.
        message: String,
    },
}

// ------------------------------------------------------------- helpers

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value> {
    v.get(key)
        .ok_or_else(|| ServeError::Protocol(format!("{ctx}: missing field `{key}`")))
}

fn string_field(v: &Value, key: &str, ctx: &str) -> Result<String> {
    field(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ServeError::Protocol(format!("{ctx}: field `{key}` must be a string")))
}

fn typed_field<T: Deserialize>(v: &Value, key: &str, ctx: &str) -> Result<T> {
    T::deserialize(field(v, key, ctx)?)
        .map_err(|e| ServeError::Protocol(format!("{ctx}: bad field `{key}`: {e}")))
}

fn parse_line(line: &str, ctx: &str) -> Result<Value> {
    serde_json::from_str(line.trim()).map_err(|e| ServeError::Protocol(format!("{ctx}: {e}")))
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("protocol values always serialise")
}

// ------------------------------------------------------------- request

impl Request {
    /// Renders the request as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Classify { model, tuple } => obj(vec![
                ("cmd", Value::Str("classify".into())),
                ("model", Value::Str(model.clone())),
                ("tuple", tuple.serialize()),
            ]),
            Request::ClassifyBatch { model, tuples } => obj(vec![
                ("cmd", Value::Str("classify_batch".into())),
                ("model", Value::Str(model.clone())),
                ("tuples", tuples.serialize()),
            ]),
            Request::LoadModel { name, path } => obj(vec![
                ("cmd", Value::Str("load_model".into())),
                ("name", Value::Str(name.clone())),
                ("path", Value::Str(path.clone())),
            ]),
            Request::Swap { name, path } => obj(vec![
                ("cmd", Value::Str("swap".into())),
                ("name", Value::Str(name.clone())),
                ("path", Value::Str(path.clone())),
            ]),
            Request::Stats {
                format: StatsFormat::Json,
            } => obj(vec![("cmd", Value::Str("stats".into()))]),
            Request::Stats { format } => obj(vec![
                ("cmd", Value::Str("stats".into())),
                ("format", Value::Str(format.name().into())),
            ]),
            Request::Health => obj(vec![("cmd", Value::Str("health".into()))]),
            Request::Shutdown => obj(vec![("cmd", Value::Str("shutdown".into()))]),
        };
        render(&v)
    }

    /// Parses one NDJSON request line.
    pub fn parse(line: &str) -> Result<Request> {
        let v = parse_line(line, "request")?;
        let cmd = string_field(&v, "cmd", "request")?;
        match cmd.as_str() {
            "classify" => Ok(Request::Classify {
                model: string_field(&v, "model", "classify")?,
                tuple: typed_field(&v, "tuple", "classify")?,
            }),
            "classify_batch" => Ok(Request::ClassifyBatch {
                model: string_field(&v, "model", "classify_batch")?,
                tuples: typed_field(&v, "tuples", "classify_batch")?,
            }),
            "load_model" => Ok(Request::LoadModel {
                name: string_field(&v, "name", "load_model")?,
                path: string_field(&v, "path", "load_model")?,
            }),
            "swap" => Ok(Request::Swap {
                name: string_field(&v, "name", "swap")?,
                path: string_field(&v, "path", "swap")?,
            }),
            "stats" => {
                // `format` is optional; absent means JSON. Present but
                // invalid is a protocol error naming the input.
                let format = match v.get("format") {
                    None => StatsFormat::Json,
                    Some(f) => f
                        .as_str()
                        .ok_or_else(|| {
                            ServeError::Protocol("stats: field `format` must be a string".into())
                        })?
                        .parse()?,
                };
                Ok(Request::Stats { format })
            }
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::Protocol(format!("unknown cmd `{other}`"))),
        }
    }
}

// ------------------------------------------------------------ response

impl Response {
    /// Renders the response as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Response::Classify {
                distribution,
                label,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("result", Value::Str("classify".into())),
                ("distribution", distribution.serialize()),
                ("label", label.serialize()),
            ]),
            Response::ClassifyBatch {
                distributions,
                labels,
            } => obj(vec![
                ("ok", Value::Bool(true)),
                ("result", Value::Str("classify_batch".into())),
                ("distributions", distributions.serialize()),
                ("labels", labels.serialize()),
            ]),
            Response::ModelLoaded(info) => obj(vec![
                ("ok", Value::Bool(true)),
                ("result", Value::Str("model_loaded".into())),
                ("model", info.serialize()),
            ]),
            Response::Stats(report) => obj(vec![
                ("ok", Value::Bool(true)),
                ("result", Value::Str("stats".into())),
                ("stats", report.serialize()),
            ]),
            Response::StatsText { text } => obj(vec![
                ("ok", Value::Bool(true)),
                ("result", Value::Str("stats_text".into())),
                ("text", Value::Str(text.clone())),
            ]),
            Response::Health(report) => obj(vec![
                ("ok", Value::Bool(true)),
                ("result", Value::Str("health".into())),
                ("health", report.serialize()),
            ]),
            Response::ShuttingDown => obj(vec![
                ("ok", Value::Bool(true)),
                ("result", Value::Str("shutting_down".into())),
            ]),
            Response::Error { code, message } => obj(vec![
                ("ok", Value::Bool(false)),
                ("code", Value::Str(code.clone())),
                ("error", Value::Str(message.clone())),
            ]),
        };
        render(&v)
    }

    /// Parses one NDJSON response line.
    pub fn parse(line: &str) -> Result<Response> {
        let v = parse_line(line, "response")?;
        let ok = match field(&v, "ok", "response")? {
            Value::Bool(b) => *b,
            _ => {
                return Err(ServeError::Protocol(
                    "response: field `ok` must be a bool".into(),
                ))
            }
        };
        if !ok {
            // `code` is optional on the wire (pre-code servers); absent
            // means the generic `error`.
            let code = match v.get("code") {
                None => "error".to_string(),
                Some(c) => c.as_str().map(str::to_string).ok_or_else(|| {
                    ServeError::Protocol("error response: field `code` must be a string".into())
                })?,
            };
            return Ok(Response::Error {
                code,
                message: string_field(&v, "error", "error response")?,
            });
        }
        let result = string_field(&v, "result", "response")?;
        match result.as_str() {
            "classify" => Ok(Response::Classify {
                distribution: typed_field(&v, "distribution", "classify response")?,
                label: typed_field(&v, "label", "classify response")?,
            }),
            "classify_batch" => Ok(Response::ClassifyBatch {
                distributions: typed_field(&v, "distributions", "classify_batch response")?,
                labels: typed_field(&v, "labels", "classify_batch response")?,
            }),
            "model_loaded" => Ok(Response::ModelLoaded(typed_field(
                &v,
                "model",
                "model_loaded response",
            )?)),
            "stats" => Ok(Response::Stats(typed_field(&v, "stats", "stats response")?)),
            "stats_text" => Ok(Response::StatsText {
                text: string_field(&v, "text", "stats_text response")?,
            }),
            "health" => Ok(Response::Health(typed_field(
                &v,
                "health",
                "health response",
            )?)),
            "shutting_down" => Ok(Response::ShuttingDown),
            other => Err(ServeError::Protocol(format!("unknown result `{other}`"))),
        }
    }

    /// Wraps a serving error as an error response, carrying its
    /// structured code.
    pub fn from_error(e: &ServeError) -> Response {
        Response::Error {
            code: e.code().to_string(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_data::toy;

    fn sample_stats() -> StatsReport {
        StatsReport {
            uptime_seconds: 1.5,
            models: vec![ModelInfo {
                name: "toy".into(),
                generation: 2,
                nodes: 5,
                leaves: 3,
                depth: 3,
                n_classes: 2,
                n_attributes: 1,
                heap_bytes: 420,
            }],
            metrics: vec![ModelMetricsSnapshot {
                model: "toy".into(),
                requests: 10,
                tuples: 40,
                errors: 1,
                mean_us: 12.5,
                p50_us: 8.0,
                p95_us: 32.0,
                p99_us: 64.0,
            }],
            queue: QueueStats {
                workers: 2,
                capacity: 128,
                depth: 0,
                max_batch_tuples: 64,
                policy: "shed".into(),
                deadline_ms: 250,
            },
            health: HealthStats {
                sheds: 3,
                deadline_drops: 1,
                worker_panics: 0,
                rejected_connections: 2,
                flushes: 7,
                flushed_jobs: 10,
                queue_wait_count: 10,
                queue_wait_p50_us: 8.0,
                queue_wait_p99_us: 64.0,
            },
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Classify {
                model: "toy".into(),
                tuple: toy::fig1_test_tuple().unwrap(),
            },
            Request::ClassifyBatch {
                model: "toy".into(),
                tuples: toy::table1_dataset().unwrap().tuples().to_vec(),
            },
            Request::LoadModel {
                name: "iris".into(),
                path: "/tmp/iris.json".into(),
            },
            Request::Swap {
                name: "iris".into(),
                path: "/tmp/iris2.json".into(),
            },
            Request::Stats {
                format: StatsFormat::Json,
            },
            Request::Stats {
                format: StatsFormat::Prometheus,
            },
            Request::Health,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one line per request");
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
        // A JSON-format stats request omits the field (wire back-compat
        // with pre-format clients), and a format-less line parses as
        // JSON.
        let line = Request::Stats {
            format: StatsFormat::Json,
        }
        .to_line();
        assert!(!line.contains("format"), "line: {line}");
        assert_eq!(
            Request::parse("{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats {
                format: StatsFormat::Json
            }
        );
        // Unknown formats are rejected with the offending input named.
        let err = Request::parse("{\"cmd\":\"stats\",\"format\":\"xml\"}").unwrap_err();
        assert!(err.to_string().contains("xml"), "got: {err}");
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Classify {
                distribution: vec![0.1 + 0.2, 0.7],
                label: 1,
            },
            Response::ClassifyBatch {
                distributions: vec![vec![1.0, 0.0], vec![0.25, 0.75]],
                labels: vec![0, 1],
            },
            Response::ModelLoaded(sample_stats().models[0].clone()),
            Response::Stats(sample_stats()),
            Response::StatsText {
                text: "# HELP udt_serve_uptime_seconds x\nudt_serve_uptime_seconds 1\n".into(),
            },
            Response::Health(HealthReport {
                live: true,
                ready: false,
                models: 0,
                accepting: true,
                draining: false,
                quarantined: 1,
            }),
            Response::ShuttingDown,
            Response::Error {
                code: "unknown_model".into(),
                message: "unknown model \"x\"".into(),
            },
        ];
        for resp in resps {
            let line = resp.to_line();
            assert!(!line.contains('\n'), "one line per response");
            assert_eq!(Response::parse(&line).unwrap(), resp, "line: {line}");
        }
        // Error lines from pre-code servers (no `code` field) still parse,
        // with the generic code filled in.
        assert_eq!(
            Response::parse("{\"ok\":false,\"error\":\"boom\"}").unwrap(),
            Response::Error {
                code: "error".into(),
                message: "boom".into(),
            }
        );
        // `from_error` stamps the structured code onto the wire.
        let line = Response::from_error(&ServeError::Overloaded).to_line();
        assert!(line.contains("\"code\":\"overloaded\""), "line: {line}");
        let line = Response::from_error(&ServeError::DeadlineExceeded).to_line();
        assert!(
            line.contains("\"code\":\"deadline_exceeded\""),
            "line: {line}"
        );
    }

    #[test]
    fn distributions_cross_the_wire_bit_for_bit() {
        let dist = vec![0.1 + 0.2, 1.0 / 3.0, 1.0e-300, 0.0];
        let line = Response::Classify {
            distribution: dist.clone(),
            label: 0,
        }
        .to_line();
        match Response::parse(&line).unwrap() {
            Response::Classify { distribution, .. } => {
                for (a, b) in distribution.iter().zip(&dist) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        let err = Request::parse("{not json").unwrap_err();
        assert!(err.to_string().contains("request"));
        let err = Request::parse("{\"nocmd\":1}").unwrap_err();
        assert!(err.to_string().contains("cmd"));
        let err = Request::parse("{\"cmd\":\"dance\"}").unwrap_err();
        assert!(err.to_string().contains("dance"));
        let err = Request::parse("{\"cmd\":\"classify\",\"model\":\"m\"}").unwrap_err();
        assert!(err.to_string().contains("tuple"));
        let err = Response::parse("{\"ok\":1}").unwrap_err();
        assert!(err.to_string().contains("ok"));
        let err = Response::parse("{\"ok\":true,\"result\":\"nope\"}").unwrap_err();
        assert!(err.to_string().contains("nope"));
    }
}
