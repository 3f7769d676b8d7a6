//! The classify codec pinned to the `Value` codec it replaced.
//!
//! `Request::parse` and `Response::parse` read lines straight into typed
//! values, and `to_line` writes straight from them. The oracle below is
//! the codec they replaced: `serde_json::from_str::<Value>` plus the
//! derived and hand-written `Deserialize` impls to read a line, and
//! `serde_json::to_string` of the message's `Value` form to write one.
//! Over seeded lines, with whitespace, key order, unknown and duplicated
//! keys, escapes, truncations and out-of-range numbers varied, the codec
//! must give the oracle's value where the oracle accepts a line, fail
//! where it fails, and write its bytes. Class labels past 2^53 are the
//! exception: the oracle carries them through `f64` and changes them,
//! so lines that hold one must round-trip exactly instead.

use rand::prelude::*;
use rand::rngs::SmallRng;
use serde::{Serialize, Value};
use udt_data::{Tuple, UncertainValue};
use udt_prob::{DiscreteDist, SampledPdf};
use udt_serve::protocol::{
    HealthReport, HealthStats, ModelInfo, ModelMetricsSnapshot, QueueStats, StatsFormat,
    StatsReport,
};
use udt_serve::{Request, Response};

/// The `Value` codec, as the protocol had it before it read and wrote
/// lines directly.
mod oracle {
    use serde::{Deserialize, Serialize, Value};
    use udt_serve::protocol::StatsFormat;
    use udt_serve::{Request, Response, ServeError};

    type Result<T> = std::result::Result<T, String>;

    fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value> {
        v.get(key)
            .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
    }

    fn string_field(v: &Value, key: &str, ctx: &str) -> Result<String> {
        field(v, key, ctx)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx}: field `{key}` must be a string"))
    }

    fn typed_field<T: Deserialize>(v: &Value, key: &str, ctx: &str) -> Result<T> {
        T::deserialize(field(v, key, ctx)?).map_err(|e| format!("{ctx}: bad field `{key}`: {e}"))
    }

    fn parse_line(line: &str, ctx: &str) -> Result<Value> {
        serde_json::from_str(line.trim()).map_err(|e| format!("{ctx}: {e}"))
    }

    pub fn request_line(request: &Request) -> String {
        let v = match request {
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
        serde_json::to_string(&v).expect("protocol values always serialise")
    }

    pub fn parse_request(line: &str) -> Result<Request> {
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
                let format = match v.get("format") {
                    None => StatsFormat::Json,
                    Some(f) => f
                        .as_str()
                        .ok_or("stats: field `format` must be a string")?
                        .parse()
                        .map_err(|e: ServeError| e.to_string())?,
                };
                Ok(Request::Stats { format })
            }
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    pub fn response_line(response: &Response) -> String {
        let v = match response {
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
        serde_json::to_string(&v).expect("protocol values always serialise")
    }

    pub fn parse_response(line: &str) -> Result<Response> {
        let v = parse_line(line, "response")?;
        let ok = match field(&v, "ok", "response")? {
            Value::Bool(b) => *b,
            _ => return Err("response: field `ok` must be a bool".into()),
        };
        if !ok {
            let code = match v.get("code") {
                None => "error".to_string(),
                Some(c) => c
                    .as_str()
                    .map(str::to_string)
                    .ok_or("error response: field `code` must be a string")?,
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
            other => Err(format!("unknown result `{other}`")),
        }
    }
}

// ------------------------------------------------------------ messages

/// A float of any magnitude, denormals and signed zeros included.
fn any_f64(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        3 => rng.gen_range(-1e300..1e300),
        4 => rng.gen_range(-1e6..1e6f64).round(),
        _ => rng.gen_range(-100.0..100.0),
    }
}

/// Strictly increasing finite points.
fn points(rng: &mut SmallRng, s: usize) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..s).map(|_| any_f64(rng)).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| a == b);
    xs
}

/// Masses with zeros and denormals among them, and a positive total.
fn masses(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    let mut m: Vec<f64> = (0..n)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            _ => rng.gen_range(0.0..1.0),
        })
        .collect();
    let i = rng.gen_range(0..n);
    m[i] += 0.5;
    m
}

fn value(rng: &mut SmallRng, kind: u32) -> UncertainValue {
    match kind {
        0 => UncertainValue::point(any_f64(rng)),
        1 => {
            let s = if rng.gen_bool(0.1) {
                64
            } else {
                rng.gen_range(1..9usize)
            };
            let xs = points(rng, s);
            let m = masses(rng, xs.len());
            UncertainValue::Numeric(SampledPdf::new(xs, m).expect("valid pdf"))
        }
        _ => {
            let k = rng.gen_range(1..6usize);
            UncertainValue::Categorical(DiscreteDist::new(masses(rng, k)).expect("valid dist"))
        }
    }
}

/// A point, uncertain or categorical tuple, or one that mixes them.
fn tuple(rng: &mut SmallRng) -> Tuple {
    let arity = rng.gen_range(0..20);
    let kind = rng.gen_range(0..4u32);
    let values = (0..arity)
        .map(|_| {
            let k = if kind == 3 {
                rng.gen_range(0..3u32)
            } else {
                kind
            };
            value(rng, k)
        })
        .collect();
    let label = if rng.gen_bool(0.1) {
        rng.gen_range(0..1usize << 60)
    } else {
        rng.gen_range(0..8usize)
    };
    Tuple::new(values, label)
}

/// A name with quotes, backslashes, control and non-ASCII characters
/// among plain ones.
fn name(rng: &mut SmallRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'z', '_', '-', '"', '\\', '\n', '\u{1}', 'é', '€', '𝄞', '/',
    ];
    let n = rng.gen_range(0..8);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.7) {
                CHARS[rng.gen_range(0..2usize)]
            } else {
                CHARS[rng.gen_range(0..CHARS.len())]
            }
        })
        .collect()
}

fn request(rng: &mut SmallRng) -> Request {
    match rng.gen_range(0..10u32) {
        0..=4 => Request::Classify {
            model: name(rng),
            tuple: tuple(rng),
        },
        5..=7 => Request::ClassifyBatch {
            model: name(rng),
            tuples: (0..rng.gen_range(0..5)).map(|_| tuple(rng)).collect(),
        },
        8 => Request::LoadModel {
            name: name(rng),
            path: name(rng),
        },
        _ => match rng.gen_range(0..5u32) {
            0 => Request::Swap {
                name: name(rng),
                path: name(rng),
            },
            1 => Request::Stats {
                format: StatsFormat::Json,
            },
            2 => Request::Stats {
                format: StatsFormat::Prometheus,
            },
            3 => Request::Health,
            _ => Request::Shutdown,
        },
    }
}

fn distribution(rng: &mut SmallRng) -> Vec<f64> {
    (0..rng.gen_range(0..8))
        .map(|_| any_f64(rng).abs())
        .collect()
}

fn stats(rng: &mut SmallRng) -> StatsReport {
    StatsReport {
        uptime_seconds: any_f64(rng).abs(),
        models: vec![ModelInfo {
            name: name(rng),
            generation: rng.gen_range(1..100u64),
            nodes: rng.gen_range(1..1000usize),
            leaves: rng.gen_range(1..500usize),
            depth: rng.gen_range(0..30usize),
            n_classes: rng.gen_range(1..10usize),
            n_attributes: rng.gen_range(1..30usize),
            heap_bytes: rng.gen_range(0..1usize << 40),
        }],
        metrics: vec![ModelMetricsSnapshot {
            model: name(rng),
            requests: rng.gen_range(0..1u64 << 50),
            tuples: rng.gen_range(0..1u64 << 50),
            errors: rng.gen_range(0..100u64),
            mean_us: any_f64(rng).abs(),
            p50_us: 8.0,
            p95_us: 32.0,
            p99_us: 64.0,
        }],
        queue: QueueStats {
            workers: 2,
            capacity: 128,
            depth: rng.gen_range(0..128usize),
            policy: "shed".into(),
            deadline_ms: 250,
        },
        health: HealthStats {
            sheds: rng.gen_range(0..10u64),
            deadline_drops: 1,
            worker_panics: 0,
            rejected_connections: 2,
            queue_wait_count: 10,
            queue_wait_p50_us: 8.0,
            queue_wait_p99_us: any_f64(rng).abs(),
        },
    }
}

fn response(rng: &mut SmallRng) -> Response {
    match rng.gen_range(0..10u32) {
        0..=3 => Response::Classify {
            distribution: distribution(rng),
            label: rng.gen_range(0..8usize),
        },
        4..=6 => Response::ClassifyBatch {
            distributions: (0..rng.gen_range(0..6))
                .map(|_| distribution(rng))
                .collect(),
            labels: (0..rng.gen_range(0..6))
                .map(|_| rng.gen_range(0..8usize))
                .collect(),
        },
        7 => Response::Error {
            code: name(rng),
            message: name(rng),
        },
        _ => match rng.gen_range(0..5u32) {
            0 => Response::ModelLoaded(stats(rng).models.remove(0)),
            1 => Response::Stats(stats(rng)),
            2 => Response::StatsText { text: name(rng) },
            3 => Response::Health(HealthReport {
                live: true,
                ready: rng.gen_bool(0.5),
                models: rng.gen_range(0..4usize),
                accepting: rng.gen_bool(0.5),
                draining: rng.gen_bool(0.5),
                quarantined: rng.gen_range(0..3u64),
            }),
            _ => Response::ShuttingDown,
        },
    }
}

// --------------------------------------------------------------- lines

/// How a `Value` is written back to text.
#[derive(Clone, Copy)]
struct Style {
    /// Chance of whitespace before and after each token.
    spaces: f64,
    /// Chance that a string is written with `\u` escapes.
    escapes: f64,
}

const CANONICAL: Style = Style {
    spaces: 0.0,
    escapes: 0.0,
};

fn space(rng: &mut SmallRng, style: Style, out: &mut String) {
    while rng.gen_bool(style.spaces) {
        out.push([' ', '\t', '\n', '\r'][rng.gen_range(0..4usize)]);
    }
}

/// Writes `s` with every character of the Basic Multilingual Plane as
/// a `\u` escape.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if (c as u32) < 0x10000 {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out.push('"');
}

/// Writes `v` as `serde_json::to_string` does, with spaces and escapes
/// drawn per `style`, and infinities as `1e999`.
fn render(v: &Value, rng: &mut SmallRng, style: Style, out: &mut String) {
    space(rng, style, out);
    match v {
        Value::Num(n) if n.is_infinite() => out.push_str(if *n > 0.0 { "1e999" } else { "-1e999" }),
        Value::Str(s) if rng.gen_bool(style.escapes) => write_escaped(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, style, out);
            }
            space(rng, style, out);
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(&Value::Str(k.clone()), rng, style, out);
                space(rng, style, out);
                out.push(':');
                render(item, rng, style, out);
            }
            space(rng, style, out);
            out.push('}');
        }
        scalar => out.push_str(&serde_json::to_string(scalar).expect("scalars serialise")),
    }
    space(rng, style, out);
}

fn text(v: &Value, rng: &mut SmallRng, style: Style) -> String {
    let mut out = String::new();
    render(v, rng, style, &mut out);
    out
}

/// A small JSON value of any kind.
fn junk(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..7u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Num(any_f64(rng)),
        3 => Value::Str(name(rng)),
        4 => Value::Seq(vec![Value::Num(1.0), Value::Null]),
        5 => Value::Map(vec![("k".into(), Value::Str(name(rng)))]),
        _ => Value::Map(Vec::new()),
    }
}

/// Reorders, adds and duplicates keys of `v`'s objects.
fn shuffle_keys(v: &mut Value, rng: &mut SmallRng) {
    let entries = match v {
        Value::Map(entries) => entries,
        Value::Seq(items) => return items.iter_mut().for_each(|item| shuffle_keys(item, rng)),
        _ => return,
    };
    for (_, item) in entries.iter_mut() {
        shuffle_keys(item, rng);
    }
    match rng.gen_range(0..6u32) {
        0 => entries.shuffle(rng),
        1 => {
            let at = rng.gen_range(0..=entries.len());
            entries.insert(at, ("zz_unknown".into(), junk(rng)));
        }
        2 if !entries.is_empty() => {
            // A duplicate after the first occurrence: the first wins.
            let i = rng.gen_range(0..entries.len());
            let at = rng.gen_range(i + 1..=entries.len());
            let key = entries[i].0.clone();
            entries.insert(at, (key, junk(rng)));
        }
        3 if !entries.is_empty() => {
            // A copy ahead of the original, so that the copy is read.
            let i = rng.gen_range(0..entries.len());
            let copy = entries[i].clone();
            entries.insert(rng.gen_range(0..=i), copy);
        }
        _ => {}
    }
}

/// The value of the first `key` in the first object of `v` that has it.
fn find_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match v {
        Value::Map(entries) => {
            if let Some(i) = entries.iter().position(|(k, _)| k == key) {
                return Some(&mut entries[i].1);
            }
            entries.iter_mut().find_map(|(_, item)| find_mut(item, key))
        }
        Value::Seq(items) => items.iter_mut().find_map(|item| find_mut(item, key)),
        _ => None,
    }
}

/// Sets the first number of the first `key` array (or the first `key`
/// number) in `v`; `false` if `v` has none.
fn set_number(v: &mut Value, key: &str, to: impl FnOnce(f64) -> f64) -> bool {
    match find_mut(v, key) {
        Some(Value::Num(n)) => *n = to(*n),
        Some(Value::Seq(items)) => match items.first_mut() {
            Some(Value::Num(n)) => *n = to(*n),
            _ => return false,
        },
        _ => return false,
    }
    true
}

fn check_request(line: &str) -> Result<Request, ()> {
    let (codec, oracle) = (Request::parse(line), oracle::parse_request(line));
    match (codec, oracle) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "line {line:?}");
            Ok(a)
        }
        (Err(_), Err(_)) => Err(()),
        (a, b) => panic!("codec {a:?} but oracle {b:?} on line {line:?}"),
    }
}

/// Whether every label of `req` is below 2^53, where the oracle's `f64`
/// holds it exactly. The codec writes and reads larger labels exactly,
/// so lines that carry one are checked by round trip, not by oracle.
fn labels_fit_f64(req: &Request) -> bool {
    let fits = |t: &Tuple| t.label() < 1 << 53;
    match req {
        Request::Classify { tuple, .. } => fits(tuple),
        Request::ClassifyBatch { tuples, .. } => tuples.iter().all(fits),
        _ => true,
    }
}

fn check_response(line: &str) -> Result<Response, ()> {
    let (codec, oracle) = (Response::parse(line), oracle::parse_response(line));
    match (codec, oracle) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "line {line:?}");
            Ok(a)
        }
        (Err(_), Err(_)) => Err(()),
        (a, b) => panic!("codec {a:?} but oracle {b:?} on line {line:?}"),
    }
}

/// The variants of a line's `Value` the parse tests read: spaced and
/// escaped text, keys reordered, added and duplicated, and numbers out
/// of range.
fn variants(v: &Value, rng: &mut SmallRng) -> Vec<String> {
    let styled = Style {
        spaces: 0.3,
        escapes: 0.3,
    };
    let mut out = vec![text(v, rng, styled)];
    for _ in 0..3 {
        let mut w = v.clone();
        shuffle_keys(&mut w, rng);
        out.push(text(&w, rng, CANONICAL));
        out.push(text(&w, rng, styled));
    }
    for (key, to) in [
        ("label", -1.0),
        ("label", 2.5),
        ("labels", -1.0),
        ("points", f64::INFINITY),
        ("probs", f64::INFINITY),
        ("distribution", f64::INFINITY),
    ] {
        let mut w = v.clone();
        if set_number(&mut w, key, |_| to) {
            out.push(text(&w, rng, CANONICAL));
        }
    }
    out
}

const SEEDS: u64 = 400;

#[test]
fn to_line_writes_the_bytes_of_the_value_codec() {
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..SEEDS {
        let req = request(&mut rng);
        if labels_fit_f64(&req) {
            assert_eq!(req.to_line(), oracle::request_line(&req), "{req:?}");
        } else {
            assert_eq!(Request::parse(&req.to_line()).ok(), Some(req));
        }
        let resp = response(&mut rng);
        assert_eq!(resp.to_line(), oracle::response_line(&resp), "{resp:?}");
    }
}

#[test]
fn requests_parse_as_the_value_codec_reads_them() {
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..SEEDS {
        let req = request(&mut rng);
        let line = req.to_line();
        let v: Value = serde_json::from_str(&line).expect("a written line is JSON");
        if labels_fit_f64(&req) {
            assert_eq!(check_request(&line), Ok(req), "line {line:?}");
            for variant in variants(&v, &mut rng) {
                let _ = check_request(&variant);
            }
        } else {
            assert_eq!(Request::parse(&line).ok(), Some(req), "line {line:?}");
            // The `Value` the variants are rendered from holds the label
            // past 2^53 as an `f64`, written in float form, which the
            // codec refuses: no variant of such a line is read.
            for variant in variants(&v, &mut rng) {
                assert!(Request::parse(&variant).is_err(), "line {variant:?}");
            }
        }
    }
}

#[test]
fn responses_parse_as_the_value_codec_reads_them() {
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..SEEDS {
        let resp = response(&mut rng);
        let line = resp.to_line();
        assert_eq!(check_response(&line), Ok(resp), "line {line:?}");
        let v: Value = serde_json::from_str(&line).expect("a written line is JSON");
        for variant in variants(&v, &mut rng) {
            let _ = check_response(&variant);
        }
    }
}

#[test]
fn every_truncation_fails_on_both_codecs() {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut lines = 0;
    while lines < 20 {
        let (req, resp) = (request(&mut rng), response(&mut rng));
        let (req_line, resp_line) = (req.to_line(), resp.to_line());
        if req_line.len() > 4096 {
            continue;
        }
        lines += 1;
        for cut in (0..req_line.len()).filter(|&i| req_line.is_char_boundary(i)) {
            assert_eq!(check_request(&req_line[..cut]), Err(()), "cut at {cut}");
        }
        for cut in (0..resp_line.len()).filter(|&i| resp_line.is_char_boundary(i)) {
            assert_eq!(check_response(&resp_line[..cut]), Err(()), "cut at {cut}");
        }
    }
}

/// A classify line for a two-point pdf, with `cumulative` and `label`
/// as the text of its cumulative array and its label.
fn pdf_line(cumulative: &str, label: &str) -> String {
    format!(
        r#"{{"cmd":"classify","model":"m","tuple":{{"values":[{{"Numeric":{{"points":[1,2],"mass":[0.25,0.75],"cumulative":{cumulative}}}}}],"label":{label}}}}}"#
    )
}

#[test]
fn refusals_hold_on_both_codecs() {
    assert!(check_request(&pdf_line("[0.25,1]", "1")).is_ok());
    // A supplied cumulative mass off by more than MASS_EPSILON, or of
    // another length, is refused; one within it is read and dropped.
    assert!(check_request(&pdf_line("[0.250001,1]", "1")).is_err());
    assert!(check_request(&pdf_line("[1]", "1")).is_err());
    assert!(check_request(&pdf_line("[0.2500000000001,1]", "1")).is_ok());
    // Labels must be non-negative integers.
    for label in ["-1", "2.5", "-0.5", "1e999", "null", "\"1\""] {
        assert!(
            check_request(&pdf_line("[0.25,1]", label)).is_err(),
            "{label}"
        );
    }
    for line in [
        r#"{"ok":true,"result":"classify","distribution":[1],"label":-1}"#,
        r#"{"ok":true,"result":"classify","distribution":[1],"label":0.7}"#,
        r#"{"ok":true,"result":"classify_batch","distributions":[[1]],"labels":[2.5]}"#,
        r#"{"ok":true,"result":"classify","distribution":[1e999,null],"label":0}"#,
    ] {
        assert!(check_response(line).is_err(), "{line}");
    }
    // Labels read exactly up to the largest `usize`, and no further.
    // (The oracle reads both lines through `f64` as 2^64, which it
    // saturates to `usize::MAX`.)
    let line = |label: &str| {
        format!(r#"{{"ok":true,"result":"classify","distribution":[],"label":{label}}}"#)
    };
    assert_eq!(
        Response::parse(&line("18446744073709551615")).ok(),
        Some(Response::Classify {
            distribution: vec![],
            label: usize::MAX,
        })
    );
    assert!(Response::parse(&line("18446744073709551616")).is_err());
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let line = pdf_line("[0.25,1]", "1").replacen(
        r#""model":"m""#,
        r#""model":"first","model":"second","cmd":"health""#,
        1,
    );
    match check_request(&line) {
        Ok(Request::Classify { model, tuple }) => {
            assert_eq!(model, "first");
            assert_eq!(tuple.label(), 1);
        }
        other => panic!("{other:?}"),
    }
    // The `tuple` read first is the one decoded, even where `cmd` comes
    // after both.
    let first = pdf_line("[0.25,1]", "1");
    let tuple = &first[first.find(r#"{"values""#).expect("tuple")..first.len() - 1];
    let second = tuple.replace(r#""label":1"#, r#""label":2"#);
    let line = format!(r#"{{"tuple":{tuple},"tuple":{second},"model":"m","cmd":"classify"}}"#);
    match check_request(&line) {
        Ok(Request::Classify { tuple, .. }) => assert_eq!(tuple.label(), 1),
        other => panic!("{other:?}"),
    }
    let line = r#"{"ok":true,"result":"classify","label":1,"label":2,"distribution":[1],"distribution":[0]}"#;
    assert_eq!(
        check_response(line),
        Ok(Response::Classify {
            distribution: vec![1.0],
            label: 1,
        })
    );
}

#[test]
fn escaped_names_and_keys_read_back() {
    let line = r#"{"cmd":"classify","model":"segmenté\"","tuple":{"values":[],"label":0}}"#;
    assert_eq!(
        check_request(line),
        Ok(Request::Classify {
            model: "segmenté\"".into(),
            tuple: Tuple::new(vec![], 0),
        })
    );
}

/// A tuple's own `Serialize` output is what the request line carries.
#[test]
fn request_lines_embed_the_serialized_tuple() {
    let mut rng = SmallRng::seed_from_u64(5);
    let t = tuple(&mut rng);
    let line = Request::Classify {
        model: "m".into(),
        tuple: t.clone(),
    }
    .to_line();
    let embedded = serde_json::to_string(&t.serialize()).expect("serialises");
    assert!(line.contains(&embedded), "{line}");
}
