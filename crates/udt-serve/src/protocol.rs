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
//! Lines are read and written by hand rather than derived: hand parsing
//! gives precise error messages for malformed client input
//! (missing/mistyped fields name themselves) and keeps the externally
//! visible format independent of derive-macro conventions. No
//! [`serde::Value`] tree is built on the way: a line is read with the
//! `serde_json` shim's pull [`Reader`] (its one JSON grammar) and written
//! with its number and string writers, so the classify messages go
//! straight between bytes and tuples. The bytes and the accepted input
//! are those of the `Value` codec this replaced: fields in any order,
//! the first of duplicate fields, unknown fields skipped; the pdfs pass
//! the checks of [`SampledPdf::from_parts`] and
//! [`DiscreteDist::from_probs`], as their `Deserialize` impls do. Class
//! labels are the one exception: that codec carried them through `f64`,
//! so a label past 2^53 came back changed. Here a label is written as
//! plain digits and read back exactly up to `usize::MAX`; past that, or
//! written in another number form at or past 2^53, it is refused.
//! Payloads of the other messages go through their derived `Serialize`
//! and `Deserialize`.

use std::borrow::Cow;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use serde_json::{write_number, write_string, Reader};
use udt_data::{Tuple, UncertainValue};
use udt_prob::{DiscreteDist, SampledPdf};

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

/// Classification-gate configuration and occupancy, as reported by
/// `stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Classification slots: requests that may classify at once.
    pub workers: usize,
    /// How many callers may wait for a slot.
    pub capacity: usize,
    /// Callers waiting for a slot at snapshot time.
    pub depth: usize,
    /// Admission policy when the line is full: `"block"` or `"shed"`.
    pub policy: String,
    /// Request deadline in milliseconds (0 = no deadline): requests older
    /// than this when they get a slot are dropped with
    /// `deadline_exceeded`.
    pub deadline_ms: u64,
}

/// Server-wide overload and failure counters, as reported by `stats`.
/// These are the signals an operator alarms on: nonzero `sheds` means
/// admission control is rejecting traffic, `deadline_drops` means
/// requests are expiring while they wait for a slot, `worker_panics`
/// means a model or the engine misbehaved (and was contained).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthStats {
    /// Requests rejected at admission because the line was full.
    pub sheds: u64,
    /// Admitted requests dropped at slot acquisition because their
    /// deadline passed.
    pub deadline_drops: u64,
    /// Classification panics caught and contained (each failed its own
    /// request with a structured error; the slot kept serving).
    pub worker_panics: u64,
    /// Connections refused by the max-in-flight-connections gate.
    pub rejected_connections: u64,
    /// Requests that got a slot (admitted; denominator for the drop
    /// counters above).
    pub queue_wait_count: u64,
    /// Median arrival-to-slot wait, microseconds (bucket upper bound).
    pub queue_wait_p50_us: f64,
    /// 99th-percentile arrival-to-slot wait, microseconds (bucket upper
    /// bound).
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
    /// The classification gate admits new requests.
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
    /// Classification-gate state.
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

// ------------------------------------------------------------- request

impl Request {
    /// Renders the request as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Classify { model, tuple } => classify_line(model, tuple),
            Request::ClassifyBatch { model, tuples } => classify_batch_line(model, tuples),
            Request::LoadModel { name, path } => model_file_line("load_model", name, path),
            Request::Swap { name, path } => model_file_line("swap", name, path),
            Request::Stats { format } => {
                let mut out = cmd_line("stats", 48);
                // A JSON-format request omits the field, as clients
                // from before the field did.
                if *format != StatsFormat::Json {
                    write_string_field(&mut out, "format", format.name());
                }
                close(out)
            }
            Request::Health => close(cmd_line("health", 16)),
            Request::Shutdown => close(cmd_line("shutdown", 18)),
        }
    }

    /// Parses one NDJSON request line.
    pub fn parse(line: &str) -> Result<Request> {
        const KEYS: [&str; 7] = ["cmd", "model", "tuple", "tuples", "name", "path", "format"];
        let mut scratch = Scratch::default();
        let (mut one, mut many) = (None, None);
        let raw = read_envelope(line, "request", KEYS, |i, raw, r| {
            // After `cmd`, as a line is written, the tuples decode where
            // they stand.
            match (i, string_of(raw[0]).as_deref()) {
                (2, Some("classify")) => {
                    one = Some(bad_field(read_tuple(r, &mut scratch), "tuple", "classify")?)
                }
                (3, Some("classify_batch")) => {
                    many = Some(bad_field(
                        read_tuples(r, &mut scratch),
                        "tuples",
                        "classify_batch",
                    )?)
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let [cmd, model, tuple, tuples, name, path, format] = raw;
        match &*string(cmd, "cmd", "request")? {
            "classify" => Ok(Request::Classify {
                model: string(model, "model", "classify")?.into_owned(),
                tuple: match one {
                    Some(tuple) => tuple,
                    None => typed(tuple, "tuple", "classify", |r| read_tuple(r, &mut scratch))?,
                },
            }),
            "classify_batch" => Ok(Request::ClassifyBatch {
                model: string(model, "model", "classify_batch")?.into_owned(),
                tuples: match many {
                    Some(tuples) => tuples,
                    None => typed(tuples, "tuples", "classify_batch", |r| {
                        read_tuples(r, &mut scratch)
                    })?,
                },
            }),
            "load_model" => Ok(Request::LoadModel {
                name: string(name, "name", "load_model")?.into_owned(),
                path: string(path, "path", "load_model")?.into_owned(),
            }),
            "swap" => Ok(Request::Swap {
                name: string(name, "name", "swap")?.into_owned(),
                path: string(path, "path", "swap")?.into_owned(),
            }),
            "stats" => {
                // `format` is optional; absent means JSON. Present but
                // invalid is a protocol error naming the input.
                let format = match format {
                    None => StatsFormat::Json,
                    Some(_) => string(format, "format", "stats")?.parse()?,
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
        match self {
            Response::Classify {
                distribution,
                label,
            } => {
                let mut out = ok_line("classify", 64 + 24 * distribution.len());
                key(&mut out, "distribution");
                write_numbers(&mut out, distribution.iter().copied());
                key(&mut out, "label");
                write_label(*label, &mut out);
                close(out)
            }
            Response::ClassifyBatch {
                distributions,
                labels,
            } => {
                let numbers: usize = distributions.iter().map(|d| d.len() + 1).sum();
                let mut out = ok_line("classify_batch", 64 + 24 * numbers);
                key(&mut out, "distributions");
                out.push('[');
                for (i, distribution) in distributions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_numbers(&mut out, distribution.iter().copied());
                }
                out.push(']');
                key(&mut out, "labels");
                out.push('[');
                for (i, &label) in labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_label(label, &mut out);
                }
                out.push(']');
                close(out)
            }
            Response::ModelLoaded(info) => payload_line("model_loaded", "model", info),
            Response::Stats(report) => payload_line("stats", "stats", report),
            Response::StatsText { text } => {
                let mut out = ok_line("stats_text", 48 + text.len());
                write_string_field(&mut out, "text", text);
                close(out)
            }
            Response::Health(report) => payload_line("health", "health", report),
            Response::ShuttingDown => close(ok_line("shutting_down", 48)),
            Response::Error { code, message } => {
                let mut out = String::with_capacity(48 + code.len() + message.len());
                out.push_str("{\"ok\":false");
                write_string_field(&mut out, "code", code);
                write_string_field(&mut out, "error", message);
                close(out)
            }
        }
    }

    /// Parses one NDJSON response line.
    pub fn parse(line: &str) -> Result<Response> {
        const KEYS: [&str; 12] = [
            "ok",
            "result",
            "code",
            "error",
            "distribution",
            "label",
            "distributions",
            "labels",
            "model",
            "stats",
            "text",
            "health",
        ];
        let mut numbers = Vec::new();
        let (mut one, mut many) = (None, None);
        let raw = read_envelope(line, "response", KEYS, |i, raw, r| {
            // After `ok` and `result`, as a line is written, the
            // distributions decode where they stand.
            if raw[0] != Some("true") {
                return Ok(false);
            }
            match (i, string_of(raw[1]).as_deref()) {
                (4, Some("classify")) => {
                    one = Some(bad_field(
                        read_numbers(r, &mut numbers),
                        "distribution",
                        "classify response",
                    )?)
                }
                (6, Some("classify_batch")) => {
                    many = Some(bad_field(
                        read_rows(r, &mut numbers),
                        "distributions",
                        "classify_batch response",
                    )?)
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let [ok, result, code, error, distribution, label, distributions, labels, model, stats, text, health] =
            raw;
        match ok {
            Some("true") => {}
            Some("false") => {
                // `code` is optional on the wire (pre-code servers);
                // absent means the generic `error`.
                let code = match code {
                    None => "error".to_string(),
                    Some(_) => string(code, "code", "error response")?.into_owned(),
                };
                return Ok(Response::Error {
                    code,
                    message: string(error, "error", "error response")?.into_owned(),
                });
            }
            Some(_) => {
                return Err(ServeError::Protocol(
                    "response: field `ok` must be a bool".into(),
                ))
            }
            None => return Err(missing_field("ok", "response")),
        }
        match &*string(result, "result", "response")? {
            "classify" => Ok(Response::Classify {
                distribution: match one {
                    Some(distribution) => distribution,
                    None => typed(distribution, "distribution", "classify response", |r| {
                        read_numbers(r, &mut numbers)
                    })?,
                },
                label: typed(label, "label", "classify response", read_label)?,
            }),
            "classify_batch" => Ok(Response::ClassifyBatch {
                distributions: match many {
                    Some(distributions) => distributions,
                    None => typed(
                        distributions,
                        "distributions",
                        "classify_batch response",
                        |r| read_rows(r, &mut numbers),
                    )?,
                },
                labels: typed(labels, "labels", "classify_batch response", |r| {
                    read_array(r, read_label)
                })?,
            }),
            "model_loaded" => Ok(Response::ModelLoaded(derived(
                model,
                "model",
                "model_loaded response",
            )?)),
            "stats" => Ok(Response::Stats(derived(stats, "stats", "stats response")?)),
            "stats_text" => Ok(Response::StatsText {
                text: string(text, "text", "stats_text response")?.into_owned(),
            }),
            "health" => Ok(Response::Health(derived(
                health,
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

// ------------------------------------------------------------- writing
//
// Every line is written field by field, in the field order and with the
// number text that `serde_json::to_string` gives the message's `Value`
// form: the envelope's fields first, a tuple as `{"values":[…],
// "label":n}`, a pdf as `{"Numeric":{"points":[…],"mass":[…],
// "cumulative":[…]}}`, integers without a fraction. Labels are written
// as plain digits, so one past 2^53 keeps its exact value (the `Value`
// codec wrote it through `f64`).

/// The line of a `classify` request: [`Request::to_line`] of
/// [`Request::Classify`], written from a borrowed tuple.
pub(crate) fn classify_line(model: &str, tuple: &Tuple) -> String {
    let capacity = 64 + model.len() + text_capacity(std::slice::from_ref(tuple));
    let mut out = cmd_line("classify", capacity);
    write_string_field(&mut out, "model", model);
    key(&mut out, "tuple");
    write_tuple(&mut out, tuple);
    close(out)
}

/// The line of a `classify_batch` request: [`Request::to_line`] of
/// [`Request::ClassifyBatch`], written from borrowed tuples.
pub(crate) fn classify_batch_line(model: &str, tuples: &[Tuple]) -> String {
    let mut out = cmd_line("classify_batch", 64 + model.len() + text_capacity(tuples));
    write_string_field(&mut out, "model", model);
    key(&mut out, "tuples");
    out.push('[');
    for (i, tuple) in tuples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_tuple(&mut out, tuple);
    }
    out.push(']');
    close(out)
}

/// A bound that the text of `tuples` rarely passes, so that a request
/// line is written into one allocation: a pdf sample is three numbers
/// of at most ~20 characters each.
fn text_capacity(tuples: &[Tuple]) -> usize {
    tuples
        .iter()
        .map(|t| 32 + 48 * t.arity() + 64 * t.total_samples())
        .sum()
}

fn model_file_line(cmd: &str, name: &str, path: &str) -> String {
    let mut out = cmd_line(cmd, 48 + name.len() + path.len());
    write_string_field(&mut out, "name", name);
    write_string_field(&mut out, "path", path);
    close(out)
}

/// A successful response line whose payload is a derived-`Serialize`
/// value.
fn payload_line(result: &str, key_name: &str, payload: &impl Serialize) -> String {
    let payload = serde_json::to_string(payload).expect("protocol values always serialise");
    let mut out = ok_line(result, 48 + payload.len());
    key(&mut out, key_name);
    out.push_str(&payload);
    close(out)
}

/// Opens a request line, `{"cmd":"<cmd>"`.
fn cmd_line(cmd: &str, capacity: usize) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str("{\"cmd\":");
    write_string(cmd, &mut out);
    out
}

/// Opens a successful response line, `{"ok":true,"result":"<result>"`.
fn ok_line(result: &str, capacity: usize) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str("{\"ok\":true");
    write_string_field(&mut out, "result", result);
    out
}

/// Writes the key of the next field, `,"<name>":`.
fn key(out: &mut String, name: &str) {
    out.push(',');
    write_string(name, out);
    out.push(':');
}

fn write_string_field(out: &mut String, name: &str, value: &str) {
    key(out, name);
    write_string(value, out);
}

fn close(mut out: String) -> String {
    out.push('}');
    out
}

fn write_numbers(out: &mut String, numbers: impl IntoIterator<Item = f64>) {
    out.push('[');
    for (i, n) in numbers.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(n, out);
    }
    out.push(']');
}

fn write_tuple(out: &mut String, tuple: &Tuple) {
    out.push_str("{\"values\":[");
    for (i, value) in tuple.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            UncertainValue::Numeric(pdf) => {
                out.push_str("{\"Numeric\":{\"points\":");
                write_numbers(out, pdf.points().iter().copied());
                out.push_str(",\"mass\":");
                write_numbers(out, pdf.mass().iter().copied());
                out.push_str(",\"cumulative\":");
                write_numbers(out, pdf.cumulative());
            }
            UncertainValue::Categorical(dist) => {
                out.push_str("{\"Categorical\":{\"probs\":");
                write_numbers(out, dist.probs().iter().copied());
            }
        }
        out.push_str("}}");
    }
    out.push_str("],\"label\":");
    write_label(tuple.label(), out);
    out.push('}');
}

/// Writes a class label as plain digits, exact at any size. Below 2^53
/// these are the bytes `write_number` gives the label's `f64`.
fn write_label(label: usize, out: &mut String) {
    write!(out, "{label}").expect("writing to a String cannot fail");
}

// ------------------------------------------------------------- reading
//
// A line is read as `serde_json::from_str` into a `Value` and the
// `Deserialize` impls would read it: keys in any order, the first of
// duplicate keys, unknown keys skipped (but still checked as JSON).
// The classify payloads decode straight into tuples and distributions,
// through the constructors the `Deserialize` impls call; every other
// payload goes through `serde_json::from_str` of its own text.

/// Reads the top-level object of a `ctx` line and returns, for each of
/// `keys`, the text of its first occurrence. `eager(i, raw, reader)`
/// may decode the first value of `keys[i]` where it stands, given the
/// text of the fields read before it, and return `true`; that key's
/// text is then `None`.
fn read_envelope<'a, const N: usize>(
    line: &'a str,
    ctx: &str,
    keys: [&str; N],
    mut eager: impl FnMut(usize, &[Option<&'a str>; N], &mut Reader<'a>) -> Result<bool>,
) -> Result<[Option<&'a str>; N]> {
    let json = |e: serde_json::Error| ServeError::Protocol(format!("{ctx}: {e}"));
    let (mut raw, mut seen) = ([None; N], [false; N]);
    let mut r = Reader::new(line.trim());
    r.begin_object().map_err(json)?;
    while let Some(name) = r.next_key().map_err(json)? {
        match keys.iter().position(|k| *k == name) {
            Some(i) if !seen[i] => {
                seen[i] = true;
                if !eager(i, &raw, &mut r)? {
                    raw[i] = Some(r.raw_value().map_err(json)?);
                }
            }
            _ => r.skip_value().map_err(json)?,
        }
    }
    r.end().map_err(json)?;
    Ok(raw)
}

fn missing_field(name: &str, ctx: &str) -> ServeError {
    ServeError::Protocol(format!("{ctx}: missing field `{name}`"))
}

fn bad_field<T>(decoded: Decoded<T>, name: &str, ctx: &str) -> Result<T> {
    decoded.map_err(|e| ServeError::Protocol(format!("{ctx}: bad field `{name}`: {e}")))
}

/// The string a field's text holds, if it is a string.
fn string_of(raw: Option<&str>) -> Option<Cow<'_, str>> {
    Reader::new(raw?).string().ok()
}

/// The string field `name` of a `ctx` line.
fn string<'a>(raw: Option<&'a str>, name: &str, ctx: &str) -> Result<Cow<'a, str>> {
    let raw = raw.ok_or_else(|| missing_field(name, ctx))?;
    string_of(Some(raw))
        .ok_or_else(|| ServeError::Protocol(format!("{ctx}: field `{name}` must be a string")))
}

/// Decodes the field `name` of a `ctx` line from its text with `read`.
fn typed<'a, T>(
    raw: Option<&'a str>,
    name: &str,
    ctx: &str,
    read: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Result<T> {
    let raw = raw.ok_or_else(|| missing_field(name, ctx))?;
    bad_field(read(&mut Reader::new(raw)), name, ctx)
}

/// Decodes the field `name` of a `ctx` line through its derived
/// `Deserialize`.
fn derived<T: Deserialize>(raw: Option<&str>, name: &str, ctx: &str) -> Result<T> {
    let raw = raw.ok_or_else(|| missing_field(name, ctx))?;
    bad_field(serde_json::from_str(raw), name, ctx)
}

/// The outcome of decoding one value.
type Decoded<T> = std::result::Result<T, serde_json::Error>;

fn invalid(e: impl std::fmt::Display) -> serde_json::Error {
    serde::Error::custom(e.to_string()).into()
}

fn missing(name: &str, ty: &str) -> serde_json::Error {
    invalid(format!("missing field `{name}` for `{ty}`"))
}

/// Arrays of numbers a decode reads into, reused across the tuples and
/// pdfs of a request: `numbers` is copied out at its exact length, and a
/// pdf's three arrays are read in place by [`SampledPdf::from_parts`].
#[derive(Default)]
struct Scratch {
    numbers: Vec<f64>,
    points: Vec<f64>,
    mass: Vec<f64>,
    cumulative: Vec<f64>,
}

/// Reads an array of numbers into `buf`.
fn fill_numbers(r: &mut Reader<'_>, buf: &mut Vec<f64>) -> Decoded<()> {
    buf.clear();
    r.begin_array()?;
    while r.next_element()? {
        buf.push(r.f64()?);
    }
    Ok(())
}

/// Reads an array of numbers, through `buf`, into a vector of its
/// exact length.
fn read_numbers(r: &mut Reader<'_>, buf: &mut Vec<f64>) -> Decoded<Vec<f64>> {
    fill_numbers(r, buf)?;
    Ok(buf.to_vec())
}

fn read_array<'a, T>(
    r: &mut Reader<'a>,
    mut read_item: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let mut items = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        items.push(read_item(r)?);
    }
    Ok(items)
}

fn read_rows(r: &mut Reader<'_>, buf: &mut Vec<f64>) -> Decoded<Vec<Vec<f64>>> {
    read_array(r, |r| read_numbers(r, buf))
}

/// 2^53: `f64` holds every integer below it exactly, and not every one
/// past it.
const F64_EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Reads a class label. Plain digits read exactly as a `usize`; any
/// other number form (`1.0`, `1e3`) reads through `f64` and is taken
/// only when it is integral, non-negative and below 2^53, where the
/// `f64` is exact. Everything else is refused.
fn read_label(r: &mut Reader<'_>) -> Decoded<usize> {
    let text = r.raw_value()?;
    let refused = || invalid(format!("label `{text}` is not a class index"));
    if text.bytes().all(|b| b.is_ascii_digit()) {
        return text.parse().map_err(|_| refused());
    }
    match Reader::new(text).f64() {
        Ok(n) if n >= 0.0 && n.fract() == 0.0 && n < F64_EXACT_INTEGERS => Ok(n as usize),
        _ => Err(refused()),
    }
}

fn read_tuples(r: &mut Reader<'_>, s: &mut Scratch) -> Decoded<Vec<Tuple>> {
    read_array(r, |r| read_tuple(r, s))
}

/// Reads a tuple as its derived `Deserialize` does.
fn read_tuple(r: &mut Reader<'_>, s: &mut Scratch) -> Decoded<Tuple> {
    let (mut values, mut label) = (None, None);
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match &*name {
            "values" if values.is_none() => values = Some(read_array(r, |r| read_value(r, s))?),
            "label" if label.is_none() => label = Some(read_label(r)?),
            _ => r.skip_value()?,
        }
    }
    Ok(Tuple::new(
        values.ok_or_else(|| missing("values", "Tuple"))?,
        label.ok_or_else(|| missing("label", "Tuple"))?,
    ))
}

/// Reads a value as its derived `Deserialize` does: an object of
/// exactly one entry, whose key names the variant.
fn read_value(r: &mut Reader<'_>, s: &mut Scratch) -> Decoded<UncertainValue> {
    let not_a_value = || invalid("invalid value for enum UncertainValue");
    r.begin_object()?;
    let value = match r.next_key()?.as_deref() {
        Some("Numeric") => UncertainValue::Numeric(read_pdf(r, s)?),
        Some("Categorical") => UncertainValue::Categorical(read_dist(r, s)?),
        _ => return Err(not_a_value()),
    };
    match r.next_key()? {
        None => Ok(value),
        Some(_) => Err(not_a_value()),
    }
}

/// Reads a pdf through [`SampledPdf::from_parts`].
fn read_pdf(r: &mut Reader<'_>, s: &mut Scratch) -> Decoded<SampledPdf> {
    let (mut points, mut mass, mut cumulative) = (false, false, false);
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match &*name {
            "points" if !points => {
                fill_numbers(r, &mut s.points)?;
                points = true;
            }
            "mass" if !mass => {
                fill_numbers(r, &mut s.mass)?;
                mass = true;
            }
            "cumulative" if !cumulative => {
                fill_numbers(r, &mut s.cumulative)?;
                cumulative = true;
            }
            _ => r.skip_value()?,
        }
    }
    for (seen, name) in [
        (points, "points"),
        (mass, "mass"),
        (cumulative, "cumulative"),
    ] {
        if !seen {
            return Err(missing(name, "SampledPdf"));
        }
    }
    SampledPdf::from_parts(&s.points, &s.mass, &s.cumulative).map_err(invalid)
}

/// Reads a distribution through [`DiscreteDist::from_probs`].
fn read_dist(r: &mut Reader<'_>, s: &mut Scratch) -> Decoded<DiscreteDist> {
    let mut probs = None;
    r.begin_object()?;
    while let Some(name) = r.next_key()? {
        match &*name {
            "probs" if probs.is_none() => probs = Some(read_numbers(r, &mut s.numbers)?),
            _ => r.skip_value()?,
        }
    }
    DiscreteDist::from_probs(probs.ok_or_else(|| missing("probs", "DiscreteDist"))?)
        .map_err(invalid)
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
                policy: "shed".into(),
                deadline_ms: 250,
            },
            health: HealthStats {
                sheds: 3,
                deadline_drops: 1,
                worker_panics: 0,
                rejected_connections: 2,
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
        // A label must be a class index, not a negative or fractional
        // number.
        for label in ["-1", "0.5"] {
            let line = format!(
                "{{\"ok\":true,\"result\":\"classify\",\"distribution\":[1],\"label\":{label}}}"
            );
            let err = Response::parse(&line).unwrap_err();
            assert!(err.to_string().contains("label"), "{err}");
        }
    }

    #[test]
    fn labels_cross_the_wire_exactly() {
        let past_f64 = (1usize << 53) + 1;
        for label in [0, 7, (1 << 53) - 1, past_f64, usize::MAX] {
            let tuple = Tuple::new(vec![], label);
            for req in [
                Request::Classify {
                    model: "m".into(),
                    tuple: tuple.clone(),
                },
                Request::ClassifyBatch {
                    model: "m".into(),
                    tuples: vec![tuple.clone(), tuple.clone()],
                },
            ] {
                let line = req.to_line();
                assert!(line.contains(&format!("\"label\":{label}}}")), "{line}");
                assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
            }
            for resp in [
                Response::Classify {
                    distribution: vec![1.0],
                    label,
                },
                Response::ClassifyBatch {
                    distributions: vec![vec![1.0], vec![1.0]],
                    labels: vec![label, 1],
                },
            ] {
                let line = resp.to_line();
                assert_eq!(Response::parse(&line).unwrap(), resp, "line: {line}");
            }
        }
        // Other number forms read through `f64`, below 2^53 only.
        let classify = |label: &str| {
            Response::parse(&format!(
                "{{\"ok\":true,\"result\":\"classify\",\"distribution\":[1],\"label\":{label}}}"
            ))
        };
        for (text, label) in [
            ("3.0", 3),
            ("1e3", 1000),
            ("9007199254740991.0", (1 << 53) - 1),
        ] {
            match classify(text).unwrap() {
                Response::Classify { label: read, .. } => assert_eq!(read, label, "{text}"),
                other => panic!("unexpected response {other:?}"),
            }
        }
        for text in [
            "18446744073709551616",
            "9007199254740992.0",
            "1e16",
            "-1",
            "0.5",
            "null",
            "\"1\"",
        ] {
            let err = classify(text).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{text}");
            assert!(err.to_string().contains("label"), "{text}: {err}");
            let err = Request::parse(&format!(
                "{{\"cmd\":\"classify\",\"model\":\"m\",\"tuple\":{{\"values\":[],\"label\":{text}}}}}"
            ))
            .unwrap_err();
            assert_eq!(err.code(), "bad_request", "{text}");
            assert!(err.to_string().contains("label"), "{text}: {err}");
        }
    }
}
