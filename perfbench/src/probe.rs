//! Per-layer probes for the traced run: each times the benchmark's own
//! calls into one layer's public functions on the run's inputs, and
//! checks that the call gave the right answer.

use std::sync::Arc;

use udt_data::Dataset;
use udt_serve::{BatchOptions, Batcher, ModelRegistry, Request, Response, ServeMetrics};
use udt_tree::classify::argmax_class;
use udt_tree::fractional::FractionalTuple;
use udt_tree::{
    classify_batch, columns, persist, BatchScratch, DecisionTree, TreeBuilder, WorkerPool,
};

use crate::build::{build_once, reference_config};
use crate::serve::{Requests, MODEL};
use crate::stats::{median, timed};

/// Repetitions of each whole-data-set probe; the median is reported.
const REPS: usize = 5;
/// Requests each request-level probe times, at most.
const MAX_PROBE_REQUESTS: usize = 256;

/// Median seconds to convert the training tuples to fractional tuples.
pub fn convert_s(train: &Dataset) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let (tuples, t) = timed(|| {
                train
                    .tuples()
                    .iter()
                    .map(FractionalTuple::from_tuple)
                    .collect::<Vec<_>>()
            });
            drop(std::hint::black_box(tuples));
            t
        })
        .collect();
    median(&times)
}

/// Median seconds of the root presort on the training tuples, on a pool
/// of the build's thread count.
pub fn presort_s(train: &Dataset, threads: usize) -> f64 {
    let tuples: Vec<FractionalTuple> = train
        .tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect();
    let numerical = train.schema().numerical_indices();
    let pool = WorkerPool::for_concurrency(threads);
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let (root, t) = timed(|| columns::build_root_with(&tuples, &numerical, &pool));
            drop(std::hint::black_box(root));
            t
        })
        .collect();
    median(&times)
}

/// Median seconds a 1-thread build of `train` spends outside its named
/// phases. On one thread no phase is summed over threads, so the
/// residual is the build's own wall time that no phase accounts for.
pub fn other_s(train: &Dataset) -> Result<f64, String> {
    let builder = TreeBuilder::new(reference_config());
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (_, stats) = build_once(&builder, train)?;
        times.push(stats.other_s());
    }
    Ok(median(&times))
}

/// Persist-layer timings of one model.
pub struct PersistTimes {
    pub encode_s: f64,
    pub decode_s: f64,
    pub bytes: usize,
    /// Whether every decode gave back the encoded tree.
    pub round_trips: bool,
}

pub fn persist(tree: &DecisionTree) -> Result<PersistTimes, String> {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = 0;
    let mut round_trips = true;
    for _ in 0..REPS {
        let (text, t) = timed(|| persist::to_json_v3(tree));
        let text = text.map_err(|e| format!("persist encode: {e}"))?;
        encode.push(t);
        let (back, t) = timed(|| persist::from_json(&text));
        decode.push(t);
        round_trips &= back.is_ok_and(|b| &b == tree);
        bytes = text.len();
    }
    Ok(PersistTimes {
        encode_s: median(&encode),
        decode_s: median(&decode),
        bytes,
        round_trips,
    })
}

/// Median per-request timings of every serving layer, on the
/// workload's own requests.
pub struct RequestLayers {
    pub request_encode_s: f64,
    pub request_parse_s: f64,
    pub response_encode_s: f64,
    pub response_parse_s: f64,
    pub request_bytes_per_tuple: f64,
    pub response_bytes_per_tuple: f64,
    /// In-process `classify_batch` on one request's tuples.
    pub classify_s: f64,
    /// `Batcher::classify` minus `classify_batch` on the same tuples.
    pub batcher_wait_s: f64,
    pub tuples_per_request: usize,
    /// Operations whose output was wrong.
    pub failures: u64,
    pub attempted: u64,
}

pub fn request_layers(tree: &DecisionTree, requests: &Requests) -> RequestLayers {
    let n = requests.tuples.len().min(MAX_PROBE_REQUESTS);
    let tuples_per_request = requests.tuples[0].len();
    let (mut request_encode, mut request_parse) = (Vec::new(), Vec::new());
    let (mut response_encode, mut response_parse) = (Vec::new(), Vec::new());
    let (mut classify, mut batcher_wait) = (Vec::new(), Vec::new());
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let mut failures = 0;
    let mut scratch = BatchScratch::new();
    let batcher = Batcher::start(
        Arc::new(registry_with(tree)),
        Arc::new(ServeMetrics::new()),
        BatchOptions::default(),
    );
    for i in 0..n {
        // Wire codec, both directions.
        let request = requests.wire(i);
        let (line, t) = timed(|| request.to_line());
        request_encode.push(t);
        let (parsed, t) = timed(|| Request::parse(&line));
        request_parse.push(t);
        failures += u64::from(parsed.ok() != Some(request));
        request_bytes += line.len();
        let response = response_for(requests, i);
        let (line, t) = timed(|| response.to_line());
        response_encode.push(t);
        let (parsed, t) = timed(|| Response::parse(&line));
        response_parse.push(t);
        failures += u64::from(parsed.ok() != Some(response));
        response_bytes += line.len();

        // Classification in-process, then through a standalone batcher.
        let tuples = &requests.tuples[i];
        let expected = Some(&requests.expected[i]);
        let (dists, classify_t) = timed(|| classify_batch(tree, tuples, &mut scratch));
        failures += u64::from(dists.ok().as_ref() != expected);
        let owned = tuples.clone();
        let (reply, batcher_t) = timed(|| batcher.classify(MODEL, owned));
        failures += u64::from(reply.ok().map(|r| r.distributions).as_ref() != expected);
        classify.push(classify_t);
        batcher_wait.push(batcher_t - classify_t);
    }
    batcher.shutdown();
    let per_tuple = (n * tuples_per_request) as f64;
    RequestLayers {
        request_encode_s: median(&request_encode),
        request_parse_s: median(&request_parse),
        response_encode_s: median(&response_encode),
        response_parse_s: median(&response_parse),
        request_bytes_per_tuple: request_bytes as f64 / per_tuple,
        response_bytes_per_tuple: response_bytes as f64 / per_tuple,
        classify_s: median(&classify),
        batcher_wait_s: median(&batcher_wait),
        tuples_per_request,
        failures,
        // Request parse, response parse, classify and batcher replies
        // are each checked.
        attempted: 4 * n as u64,
    }
}

impl RequestLayers {
    /// Median seconds of every measured layer a round trip passes
    /// through, except the transport itself.
    pub fn known_s(&self) -> f64 {
        self.request_encode_s
            + self.request_parse_s
            + self.batcher_wait_s
            + self.classify_s
            + self.response_encode_s
            + self.response_parse_s
    }
}

fn registry_with(tree: &DecisionTree) -> ModelRegistry {
    let registry = ModelRegistry::new();
    registry
        .insert_tree(MODEL, tree.clone())
        .expect("a freshly built tree registers");
    registry
}

/// The reply the server gives to request `i`.
fn response_for(requests: &Requests, i: usize) -> Response {
    let k = requests.n_classes.max(1);
    let rows: Vec<Vec<f64>> = requests.expected[i]
        .chunks(k)
        .map(<[f64]>::to_vec)
        .collect();
    let labels: Vec<usize> = rows.iter().map(|r| argmax_class(r)).collect();
    match requests.kind {
        crate::serve::Kind::Point => Response::Classify {
            distribution: rows[0].clone(),
            label: labels[0],
        },
        crate::serve::Kind::Batch => Response::ClassifyBatch {
            distributions: rows,
            labels,
        },
    }
}

/// Bytes of a point request line per held-out point tuple (mean) and of
/// a batch request line per tuple, from the generated inputs alone.
pub fn request_sizes(inputs: &crate::inputs::Inputs) -> (f64, f64) {
    let point: usize = inputs
        .test_points
        .iter()
        .map(|t| {
            Request::Classify {
                model: MODEL.to_string(),
                tuple: t.clone(),
            }
            .to_line()
            .len()
        })
        .sum();
    let batches = crate::serve::batch_tuples(&inputs.test, 2);
    let batch: usize = batches
        .iter()
        .map(|tuples| {
            Request::ClassifyBatch {
                model: MODEL.to_string(),
                tuples: tuples.clone(),
            }
            .to_line()
            .len()
        })
        .sum();
    (
        point as f64 / inputs.test_points.len() as f64,
        batch as f64 / (batches.len() * crate::serve::BATCH_TUPLES) as f64,
    )
}
