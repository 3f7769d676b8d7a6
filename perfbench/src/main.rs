//! One benchmark for UDT training and serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_es|serve_point --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload generates a
//! Segment-shaped Table 2 stand-in and splits it by `--seed`, then
//! measures its closed loop for `--seconds`, checking every output. The
//! run is cut into rounds; each round first sets up the workload anew a
//! few times (`setup_s` is the median of every set-up), then measures
//! the loop for the rest of its share of the run. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run measures twice, untraced and then with an
//! `udt_obs::trace` collector recording spans around every call into a
//! layer, and reports the per-layer metrics plus the tracing overhead
//! (traced minus untraced). A line starting with `stamp` records the
//! host, sources and parameters. `perfbench/LAYERS.md` lists which
//! end-to-end metric each per-layer metric should move.

mod build;
mod inputs;
mod probe;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use udt_data::Dataset;
use udt_obs::trace;
use udt_serve::{BatchOptions, Server};
use udt_tree::classify::argmax_class;
use udt_tree::{classify_batch, BatchScratch, DecisionTree, TreeBuilder};

use build::{build_once, BuildStats};
use inputs::Inputs;
use serve::{LoopOutcome, Requests, Running, ServerCounters};
use stats::{median, median_over_rounds, peak_rss_mb, percentile, process_cpu_s, Sample};

/// Rounds a measured run is cut into; every latency and throughput
/// figure is the median over the rounds.
const ROUNDS: u32 = 5;
/// Set-ups at the start of each round, timed and freed at once. Set-up
/// time is sampled across the whole run, as the loop is, rather than in
/// the first seconds: set-ups timed back to back before the loop moved
/// by 20 % between two series of ten runs while the loop moved by 7 %.
const SETUPS_PER_ROUND: usize = 2;
/// Closed-loop connections of `serve_point` (the reference host's
/// `nproc`, so that requests can coalesce in the batcher).
const POINT_CONNECTIONS: usize = 2;
/// Batch requests of the serving probe in a traced `train_es` run, and
/// the time it may take at most.
const PROBE_REQUESTS: usize = 12;
const PROBE_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrainEs,
    ServePoint,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "train_es" => Some(Workload::TrainEs),
            "serve_point" => Some(Workload::ServePoint),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainEs => "train_es",
            Workload::ServePoint => "serve_point",
        }
    }

    fn serves(self) -> bool {
        self == Workload::ServePoint
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::TrainEs,
        seed: inputs::DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required (train_es, serve_point)")?;
    Ok(args)
}

/// What the run prints as its last line.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn count(&mut self, attempted: u64, failed: u64, first_error: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!(
                "{failed} of {attempted} operations failed; first: {}",
                first_error.unwrap_or_else(|| "(no detail)".to_string())
            ));
        }
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a metric that is not finite
            // was not measured.
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The state one set-up leaves behind.
struct Prepared {
    inputs: Inputs,
    /// The served model (serving workloads only).
    model: Option<DecisionTree>,
    server: Option<Server>,
}

/// What one set-up cost.
struct SetupTimes {
    seconds: f64,
    generate_s: f64,
    inject_s: f64,
    /// The model build (serving workloads only).
    build: Option<BuildStats>,
}

/// Data generation and injection, plus model build and server bind for
/// the serving workloads: everything a loop needs before it starts.
fn prepare(workload: Workload, seed: u64) -> Result<(Prepared, SetupTimes), String> {
    let start = Instant::now();
    let folds = if workload.serves() { 1 } else { inputs::FOLDS };
    let inputs = inputs::make_inputs(seed, folds)?;
    let (mut model, mut server, mut build) = (None, None, None);
    if workload.serves() {
        let (tree, stats) = build_once(&TreeBuilder::new(build::config()), &inputs.folds[0])?;
        let _span = trace::span("server.bind", "perfbench");
        server = Some(serve::bind(tree.clone())?);
        model = Some(tree);
        build = Some(stats);
    }
    let times = SetupTimes {
        seconds: start.elapsed().as_secs_f64(),
        generate_s: inputs.generate_s,
        inject_s: inputs.inject_s,
        build,
    };
    Ok((
        Prepared {
            inputs,
            model,
            server,
        },
        times,
    ))
}

/// The median set-up time.
fn setup_seconds(times: &[SetupTimes]) -> f64 {
    median(&times.iter().map(|t| t.seconds).collect::<Vec<_>>())
}

/// One measured loop of a workload.
struct Measured {
    /// The operations of each round.
    rounds: Vec<Vec<Sample>>,
    connections: usize,
    /// Process CPU seconds (every thread) the loop used, set-ups left out.
    cpu_s: f64,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    builds: Vec<BuildStats>,
    /// Server counters before and after the loop.
    server: Option<(ServerCounters, ServerCounters)>,
}

impl Measured {
    fn new(connections: usize) -> Measured {
        Measured {
            rounds: Vec::new(),
            connections,
            cpu_s: 0.0,
            attempted: 0,
            failed: 0,
            first_error: None,
            builds: Vec::new(),
            server: None,
        }
    }

    fn add_round(&mut self, outcome: LoopOutcome) {
        self.rounds.push(outcome.samples);
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        if self.first_error.is_none() {
            self.first_error = outcome.first_error;
        }
    }

    /// Records the server's counters around the loop. A failure the
    /// client saw is usually one the server counted too; count each once.
    fn add_server(&mut self, before: ServerCounters, after: ServerCounters) {
        self.failed = self.failed.max(after.failures_since(&before));
        self.server = Some((before, after));
    }

    fn latencies(&self) -> Vec<f64> {
        self.rounds.iter().flatten().map(|s| s.latency_s).collect()
    }
}

/// Everything the measured loops share, made once per run.
struct Bench<'a> {
    workload: Workload,
    seed: u64,
    folds: &'a [Dataset],
    /// 1-thread builds of each training set (`train_es`), or the served
    /// model.
    references: &'a [DecisionTree],
    requests: &'a Requests,
    running: Option<&'a Running>,
}

impl Bench<'_> {
    /// Measures the workload's loop for `run`, cut into [`ROUNDS`]
    /// rounds. Each round first sets up [`SETUPS_PER_ROUND`] times,
    /// appending the times to `setups` and freeing each set-up at once.
    fn measure(&self, run: Duration, setups: &mut Vec<SetupTimes>) -> Result<Measured, String> {
        let connections = if self.workload.serves() {
            POINT_CONNECTIONS
        } else {
            1
        };
        let mut m = Measured::new(connections);
        let before = self
            .running
            .map(|r| ServerCounters::fetch(r.addr))
            .transpose()?;
        let start = Instant::now();
        for round in 1..=ROUNDS {
            for _ in 0..SETUPS_PER_ROUND {
                let (prepared, times) = prepare(self.workload, self.seed)?;
                drop(prepared);
                setups.push(times);
            }
            let until = start + run * round / ROUNDS;
            let cpu_before = process_cpu_s();
            match self.running {
                None => self.build_round(until, &mut m),
                Some(r) => m.add_round(serve::closed_loop(
                    r.addr,
                    self.requests,
                    connections,
                    until,
                    usize::MAX,
                )),
            }
            m.cpu_s += process_cpu_s() - cpu_before;
        }
        if let (Some(r), Some(before)) = (self.running, before) {
            m.add_server(before, ServerCounters::fetch(r.addr)?);
        }
        Ok(m)
    }

    /// Repeated builds with the default configuration, cycling through
    /// the training sets, until `until` (at least one); every arena must
    /// equal the 1-thread build of the same training set.
    fn build_round(&self, until: Instant, m: &mut Measured) {
        let builder = TreeBuilder::new(build::config());
        let mut out = LoopOutcome {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            first_error: None,
        };
        while out.attempted == 0 || Instant::now() < until {
            let fold = (m.attempted + out.attempted) as usize % self.folds.len();
            out.attempted += 1;
            let sent = Instant::now();
            let outcome = build_once(&builder, &self.folds[fold]);
            let mut sample = Sample {
                latency_s: sent.elapsed().as_secs_f64(),
                items: 0,
            };
            match outcome {
                Ok((tree, stats)) => {
                    sample.latency_s = stats.wall_s;
                    if tree == self.references[fold] {
                        sample.items = 1;
                    } else {
                        out.failed += 1;
                        out.first_error
                            .get_or_insert_with(|| "arena differs from the 1-thread build".into());
                    }
                    m.builds.push(stats);
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error.get_or_insert(e);
                }
            }
            out.samples.push(sample);
        }
        m.add_round(out);
    }
}

/// The metrics of one loop a user sees. Latencies and throughput are
/// medians over the loop's rounds (see [`stats::median_over_rounds`]).
struct EndToEnd {
    setup_s: f64,
    op_p50_ms: f64,
    op_cpu_ms: f64,
    op_p90_ms: f64,
    throughput_per_s: f64,
}

impl EndToEnd {
    fn of(m: &Measured, setup_s: f64) -> EndToEnd {
        let latency_ms = |p: f64| {
            median_over_rounds(&m.rounds, |r| {
                percentile(&r.iter().map(|s| s.latency_s).collect::<Vec<_>>(), p) * 1e3
            })
        };
        // A closed loop keeps `connections` operations in flight, so it
        // completes connections / latency operations per second.
        let throughput = |r: &[Sample]| {
            let items: u64 = r.iter().map(|s| s.items).sum();
            items as f64 * m.connections as f64 / r.iter().map(|s| s.latency_s).sum::<f64>()
        };
        let operations: usize = m.rounds.iter().map(Vec::len).sum();
        EndToEnd {
            setup_s,
            op_p50_ms: latency_ms(50.0),
            op_cpu_ms: m.cpu_s * 1e3 / operations.max(1) as f64,
            op_p90_ms: latency_ms(90.0),
            throughput_per_s: median_over_rounds(&m.rounds, throughput),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("perfbench: {p}");
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let run_for = Duration::from_secs(args.seconds);
    let mut report = Report::default();

    let (prepared, first_setup) = prepare(workload, args.seed)?;
    let mut setups = vec![first_setup];
    let Prepared {
        inputs,
        model,
        server,
    } = prepared;

    // `train_es` builds each training set once on one thread, outside
    // the timed set-up: every timed build's arena must equal it. The
    // model every served output is checked against is the served one,
    // or the first of these.
    let references: Vec<DecisionTree> = match model {
        Some(tree) => vec![tree],
        None => inputs
            .folds
            .iter()
            .map(|train| {
                build_once(&TreeBuilder::new(build::reference_config()), train)
                    .map(|(tree, _)| tree)
            })
            .collect::<Result<_, _>>()?,
    };
    let model = &references[0];
    check_inputs(args.seed, &inputs, model, &mut report)?;
    // The serving layers are probed with the workload's own request, or
    // with a batch for `train_es`, whose loop sends none.
    let requests = if workload.serves() {
        Requests::point(model, &inputs.test_points)?
    } else {
        Requests::batch(model, &inputs.test)?
    };
    let running = server.map(Running::start);
    let bench = Bench {
        workload,
        seed: args.seed,
        folds: &inputs.folds,
        references: &references,
        requests: &requests,
        running: running.as_ref(),
    };

    let untraced = bench.measure(run_for, &mut setups)?;
    report.count(
        untraced.attempted,
        untraced.failed,
        untraced.first_error.clone(),
    );
    let plain = EndToEnd::of(&untraced, setup_seconds(&setups));
    if !args.trace {
        report.metric("setup_s", plain.setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("op_p50_ms", plain.op_p50_ms, "ms");
        if let Some(r) = running {
            r.stop()?;
        }
        return Ok(report);
    }

    // Traced run: the same rounds with the collector on, then probes.
    if !trace::start(0) {
        return Err("another trace collector is already active".into());
    }
    let mut traced_setups = Vec::new();
    let mut traced = bench.measure(run_for, &mut traced_setups)?;
    report.count(traced.attempted, traced.failed, traced.first_error.clone());
    let with_spans = EndToEnd::of(&traced, setup_seconds(&traced_setups));
    report.metric("overhead.setup_s", with_spans.setup_s - plain.setup_s, "s");
    report.metric(
        "overhead.op_p50_ms",
        with_spans.op_p50_ms - plain.op_p50_ms,
        "ms",
    );
    report.metric("client.op_p90_ms", plain.op_p90_ms, "ms");
    report.metric("client.op_cpu_ms", plain.op_cpu_ms, "ms");
    report.metric("client.throughput_per_s", plain.throughput_per_s, "1/s");
    let generate: Vec<f64> = traced_setups.iter().map(|t| t.generate_s).collect();
    let inject: Vec<f64> = traced_setups.iter().map(|t| t.inject_s).collect();
    report.metric("data.generate_s", median(&generate), "s");
    report.metric("data.inject_s", median(&inject), "s");

    // Build-side layers: from the timed builds of `train_es`, from the
    // set-up builds of the serving workloads.
    let builds: Vec<BuildStats> = if workload.serves() {
        traced_setups.into_iter().filter_map(|t| t.build).collect()
    } else {
        std::mem::take(&mut traced.builds)
    };
    let train = &inputs.folds[0];
    let threads = build::config().threads.get();
    report.metric("tree.convert_s", probe::convert_s(train), "s");
    report.metric("tree.presort_s", probe::presort_s(train, threads), "s");
    build_layers(&builds, &mut report);
    report.metric("tree.other_s", probe::other_s(train)?, "s");

    let persisted = probe::persist(model)?;
    report.count(
        1,
        u64::from(!persisted.round_trips),
        Some("persist round trip".into()),
    );
    report.metric("persist.encode_us", persisted.encode_s * 1e6, "us");
    report.metric("persist.decode_us", persisted.decode_s * 1e6, "us");
    report.metric("persist.model_bytes", persisted.bytes as f64, "bytes");

    // Serving layers, on the workload's own request kind.
    let layers = probe::request_layers(model, &requests);
    report.count(
        layers.attempted,
        layers.failures,
        Some("serving-layer probe".into()),
    );
    let per_tuple = layers.tuples_per_request as f64;
    report.metric(
        "classify.tuple_us",
        layers.classify_s / per_tuple * 1e6,
        "us",
    );
    report.metric(
        "protocol.request_encode_us",
        layers.request_encode_s * 1e6,
        "us",
    );
    report.metric(
        "protocol.request_parse_us",
        layers.request_parse_s * 1e6,
        "us",
    );
    report.metric(
        "protocol.response_encode_us",
        layers.response_encode_s * 1e6,
        "us",
    );
    report.metric(
        "protocol.response_parse_us",
        layers.response_parse_s * 1e6,
        "us",
    );
    report.metric("batcher.wait_us", layers.batcher_wait_s * 1e6, "us");
    report.metric(
        "wire.request_bytes_per_tuple",
        layers.request_bytes_per_tuple,
        "bytes",
    );
    report.metric(
        "wire.response_bytes_per_tuple",
        layers.response_bytes_per_tuple,
        "bytes",
    );

    // Round trips and the server's own view: from the traced loop, or
    // for `train_es` from a short serving probe of the built model.
    let (traffic, running) = match running {
        Some(r) => (traced, r),
        None => {
            let r = Running::start(serve::bind(model.clone())?);
            let mut m = Measured::new(1);
            let before = ServerCounters::fetch(r.addr)?;
            let until = Instant::now() + PROBE_LIMIT;
            m.add_round(serve::closed_loop(
                r.addr,
                &requests,
                1,
                until,
                PROBE_REQUESTS,
            ));
            m.add_server(before, ServerCounters::fetch(r.addr)?);
            report.count(m.attempted, m.failed, m.first_error.clone());
            (m, r)
        }
    };
    let rtt = traffic.latencies();
    report.metric(
        "transport_us",
        (median(&rtt) - layers.known_s()) * 1e6,
        "us",
    );
    report.metric("client.rtt_p99_ms", percentile(&rtt, 99.0) * 1e3, "ms");
    let (before, after) = traffic.server.expect("serving loops read server counters");
    report.metric(
        "server.enqueue_to_reply_mean_us",
        after.mean_us_since(&before),
        "us",
    );
    running.stop()?;

    write_trace(args, &trace::finish());
    Ok(report)
}

/// Medians over `builds` of each build phase, and the build's exact
/// counts (every build of one seed does the same work).
fn build_layers(builds: &[BuildStats], report: &mut Report) {
    let med = |f: &dyn Fn(&BuildStats) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    report.metric(
        "tree.presort_build_s",
        med(&|b| b.summary.build_presort_s),
        "s",
    );
    report.metric("tree.search_s", med(&|b| b.summary.build_search_s), "s");
    report.metric(
        "tree.partition_s",
        med(&|b| b.summary.build_partition_s),
        "s",
    );
    report.metric("tree.graft_s", med(&|b| b.summary.build_graft_s), "s");
    let first = &builds[0].summary;
    report.metric(
        "tree.entropy_calcs",
        first.entropy_like_calculations as f64,
        "count",
    );
    report.metric(
        "tree.candidates_total",
        first.candidates_total as f64,
        "count",
    );
    report.metric("tree.prune_fraction", first.prune_fraction, "fraction");
    report.metric(
        "tree.partition_bytes",
        first.partition_bytes as f64,
        "bytes",
    );
    report.metric(
        "tree.partition_peak_bytes",
        first.partition_peak_bytes as f64,
        "bytes",
    );
    report.metric("tree.nodes", first.nodes as f64, "count");
    report.metric("tree.depth", first.depth as f64, "count");
    report.metric(
        "pool.tasks_executed",
        med(&|b| b.counters.tasks_executed as f64),
        "count",
    );
    report.metric(
        "pool.tasks_stolen",
        med(&|b| b.counters.tasks_stolen as f64),
        "count",
    );
    report.metric(
        "pool.idle_ms",
        med(&|b| b.counters.idle_ns as f64 / 1e6),
        "ms",
    );
    report.metric(
        "kernel.simd_batches",
        med(&|b| b.counters.simd_batches as f64),
        "count",
    );
    report.metric(
        "kernel.scalar_batches",
        med(&|b| b.counters.scalar_batches as f64),
        "count",
    );
}

/// Checks the workload's shape and held-out accuracy, and prints the
/// stamp that goes with every result.
fn check_inputs(
    seed: u64,
    inputs: &Inputs,
    model: &DecisionTree,
    report: &mut Report,
) -> Result<(), String> {
    let (point_bytes, batch_bytes) = probe::request_sizes(inputs);
    report
        .problems
        .extend(inputs::shape_problems(inputs, point_bytes, batch_bytes));
    let test = inputs.test.tuples();
    let dists = classify_batch(model, test, &mut BatchScratch::new())
        .map_err(|e| format!("classify_batch: {e}"))?;
    let k = model.n_classes();
    let correct = dists
        .chunks(k)
        .zip(test)
        .filter(|(row, t)| argmax_class(row) == t.label())
        .count();
    report
        .problems
        .extend(inputs::accuracy_problem(seed, correct, test.len()));
    println!(
        "stamp {}",
        stamp(seed, inputs, correct, point_bytes, batch_bytes)
    );
    Ok(())
}

fn stamp(seed: u64, inputs: &Inputs, correct: usize, point_bytes: f64, batch_bytes: f64) -> String {
    let config = build::config();
    let batch = BatchOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    format!(
        concat!(
            "{{\"args\": \"{}\", \"seed\": {}, \"default_seed\": {}, \"check_seed\": {}, ",
            "\"host\": {{\"nproc\": {}, \"arch\": \"{}\", \"simd\": \"{}\", \"kernel_backend\": \"{:?}\"}}, ",
            "\"source\": {{\"commit\": \"{}\", \"fnv64\": \"{}\"}}, ",
            "\"data\": {{\"set\": \"{}\", \"scale\": {}, \"folds\": {}, \"train\": {}, \"test\": {}, \"attributes\": {}, ",
            "\"classes\": {}, \"s\": {}, \"w\": {}, \"error_model\": \"gaussian\"}}, ",
            "\"build\": {{\"algorithm\": \"{}\", \"threads\": {}, \"kernel\": \"{:?}\", \"counts\": \"{:?}\", ",
            "\"partition\": \"{}\", \"postprune\": {}}}, ",
            "\"serve\": {{\"workers\": {}, \"max_delay_us\": {}, \"max_batch_tuples\": {}, ",
            "\"point_connections\": {}, \"tuples_per_batch_request\": {}, ",
            "\"point_request_bytes\": {:.1}, \"batch_request_bytes_per_tuple\": {:.1}}}, ",
            "\"accuracy\": {{\"correct\": {}, \"total\": {}}}}}"
        ),
        args.join(" "),
        seed,
        inputs::DEFAULT_SEED,
        inputs::CHECK_SEED,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::ARCH,
        simd_features().join(","),
        udt_tree::kernel::detected_backend(),
        commit(),
        source_fingerprint(),
        inputs::DATASET,
        inputs::SCALE,
        inputs.folds.len(),
        inputs.folds[0].len(),
        inputs.test.len(),
        inputs.folds[0].n_attributes(),
        inputs.folds[0].n_classes(),
        inputs::S,
        inputs::W,
        config.algorithm.name(),
        config.threads.get(),
        config.kernel,
        config.counts,
        config.partition_mode.name(),
        config.postprune,
        batch.workers,
        batch.max_delay.as_micros(),
        batch.max_batch_tuples,
        POINT_CONNECTIONS,
        serve::BATCH_TUPLES,
        point_bytes,
        batch_bytes,
        correct,
        inputs.test.len(),
    )
}

fn simd_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    found.push($f);
                }
            )*};
        }
        probe!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f");
        found
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The checked-out commit, when the sources are a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds (`crates/`, the root manifests, `perfbench/src`), so results
/// from different sources never compare silently.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("perfbench/src".as_ref(), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Writes the traced run's spans as a Chrome trace under
/// `perfbench/out/`; a failure to write costs only the file.
fn write_trace(args: &Args, events: &[trace::TraceEvent]) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| trace::write_chrome_trace(&path, events));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
