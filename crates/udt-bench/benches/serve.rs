//! Serving throughput over a real loopback socket: micro-batched
//! requests vs a one-request-at-a-time loop.
//!
//! A `udt-serve` endpoint is started in-process with a trained UDT-ES
//! model, and every benchmark classifies the same uncertain (or
//! averaged/point) tuple set end to end — NDJSON encode, TCP round
//! trip(s), scheduler queue, worker classification with its long-lived
//! warm `BatchScratch`, NDJSON decode:
//!
//! * `single_*` issues one `classify` request per tuple, sequentially —
//!   the naive integration a client might start with; each tuple pays a
//!   full round trip plus a scheduler wake-up.
//! * `batch_*` issues one `classify_batch` request for the whole set —
//!   the intended integration; framing, syscalls, queue hops and reply
//!   wake-ups amortise across the batch.
//!
//! A third pair measures the failover machinery itself: the same
//! sequential point stream through a bare `Client` vs a two-replica
//! `ReplicaSet` whose preferred endpoint is healthy, so every request
//! pays the circuit-breaker bookkeeping (availability check, attempt
//! accounting, success recording) but never actually reroutes. ISSUE 10
//! pins that overhead below 1% of the direct path.
//!
//! The `serve_concurrency` axis runs closed-loop point clients — each
//! sends the averaged tuple set one `classify` at a time, waiting for
//! every reply — over 1, 8 and 64 connections at once. It shows what the
//! scheduler's greedy flushing coalesces under real concurrency: each
//! point prints its mean jobs per flush, from the server's `flushes` /
//! `flushed_jobs` counters over that point's run.
//!
//! `scripts/bench.sh` writes these measurements to `BENCH_serve.json`
//! and prints the batched-vs-single speedups and the concurrency axis.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use udt_bench::baseline_workload;
use udt_serve::{
    Client, HealthStats, ModelRegistry, ReplicaSet, ReplicaSetOptions, ServeConfig, Server,
};
use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

fn bench_serve(c: &mut Criterion) {
    let data = baseline_workload(60);
    let tree = TreeBuilder::new(UdtConfig::new(Algorithm::UdtEs))
        .build(&data)
        .expect("build succeeds")
        .tree;
    let averaged = data.to_averaged();

    let registry = Arc::new(ModelRegistry::new());
    registry.insert_tree("bench", tree).expect("fresh name");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config, registry).expect("bind on loopback");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().expect("clean run"));

    let mut group = c.benchmark_group("serve_throughput");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    // Uncertain tuples: fractional propagation dominated by real work,
    // so the protocol overhead shows up as the single/batch gap.
    group.bench_function("single_uncertain", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| {
            data.tuples()
                .iter()
                .map(|t| client.classify("bench", t).expect("served").1)
                .sum::<usize>()
        });
    });
    group.bench_function("batch_uncertain", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| {
            client
                .classify_batch("bench", data.tuples())
                .expect("served")
                .1
                .len()
        });
    });

    // Point (averaged) tuples: classification is nearly free, so this
    // pair measures almost pure protocol + scheduling overhead.
    group.bench_function("single_point", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| {
            averaged
                .tuples()
                .iter()
                .map(|t| client.classify("bench", t).expect("served").1)
                .sum::<usize>()
        });
    });
    group.bench_function("batch_point", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| {
            client
                .classify_batch("bench", averaged.tuples())
                .expect("served")
                .1
                .len()
        });
    });
    group.finish();

    // Failover overhead on the healthy path: both replica-set endpoints
    // point at the live server, so the preferred one always answers and
    // the measured gap vs the direct client is pure breaker bookkeeping.
    let mut group = c.benchmark_group("serve_failover");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("direct_point", |b| {
        let mut client = Client::connect(addr).expect("connect");
        b.iter(|| {
            averaged
                .tuples()
                .iter()
                .map(|t| client.classify("bench", t).expect("served").1)
                .sum::<usize>()
        });
    });
    group.bench_function("replica_set_point", |b| {
        let mut set = ReplicaSet::new(
            vec![addr.to_string(), addr.to_string()],
            ReplicaSetOptions::default(),
        )
        .expect("two endpoints");
        b.iter(|| {
            averaged
                .tuples()
                .iter()
                .map(|t| set.classify("bench", t).expect("served").1)
                .sum::<usize>()
        });
    });
    group.finish();

    // Closed-loop point clients at rising concurrency against the same
    // default server. Connection `c` starts at tuple `c` so concurrent
    // requests carry different tuples.
    let mut group = c.benchmark_group("serve_concurrency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    let points = averaged.tuples();
    for connections in [1usize, 8, 64] {
        let mut clients: Vec<Client> = (0..connections)
            .map(|_| Client::connect(addr).expect("connect"))
            .collect();
        let before = server_health(addr);
        group.throughput(Throughput::Elements((connections * points.len()) as u64));
        group.bench_function(&format!("point_{connections}conn"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for (c, client) in clients.iter_mut().enumerate() {
                        scope.spawn(move || {
                            (0..points.len())
                                .map(|i| {
                                    let t = &points[(c + i) % points.len()];
                                    client.classify("bench", t).expect("served").1
                                })
                                .sum::<usize>()
                        });
                    }
                });
            });
        });
        let after = server_health(addr);
        let flushes = after.flushes - before.flushes;
        let jobs = after.flushed_jobs - before.flushed_jobs;
        eprintln!(
            "serve_concurrency/point_{connections}conn: {:.2} jobs per flush \
             ({jobs} jobs in {flushes} flushes)",
            jobs as f64 / flushes.max(1) as f64
        );
    }
    group.finish();

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread");
}

/// The server-wide counters, `flushes` / `flushed_jobs` among them.
fn server_health(addr: std::net::SocketAddr) -> HealthStats {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats")
        .health
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
