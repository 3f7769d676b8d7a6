//! Deterministic chaos suite: the serving stack under injected faults.
//!
//! Every test arms a seeded [`FaultPlan`] (counter triggers where the
//! exact failure matters, seeded probability where volume does) and
//! asserts the survival properties the robustness layer promises:
//!
//! * the server never deadlocks — every test ends in a clean shutdown
//!   with the run loop joined;
//! * every **accepted** request gets exactly one reply, and successful
//!   distributions stay **bit-for-bit** equal to a direct
//!   [`classify_batch`] call;
//! * every **rejected** request gets a structured error (`overloaded`,
//!   `deadline_exceeded`, `internal`, …), never silence;
//! * the health counters (sheds, deadline drops, worker panics,
//!   rejected connections) observe what happened.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use udt_data::toy;
use udt_serve::client::{BreakerState, ReplicaSet, ReplicaSetOptions, RetryPolicy};
use udt_serve::{Client, FaultPlan, ModelRegistry, QueuePolicy, ServeConfig, ServeError, Server};
use udt_tree::{
    classify_batch, persist, Algorithm, BatchScratch, DecisionTree, TreeBuilder, UdtConfig,
};

fn trained(algorithm: Algorithm) -> DecisionTree {
    TreeBuilder::new(
        UdtConfig::new(algorithm)
            .with_postprune(false)
            .with_min_node_weight(0.0),
    )
    .build(&toy::table1_dataset().expect("toy data"))
    .expect("toy build")
    .tree
}

/// Direct (ground-truth) distributions for the toy training tuples.
fn direct_distributions(tree: &DecisionTree) -> (Vec<udt_data::Tuple>, Vec<f64>, usize) {
    let data = toy::table1_dataset().expect("toy data");
    let tuples = data.tuples().to_vec();
    let mut scratch = BatchScratch::new();
    let direct = classify_batch(tree, &tuples, &mut scratch).expect("direct");
    let k = tree.n_classes();
    (tuples, direct, k)
}

/// Starts a chaos server: toy model preloaded, the given faults armed,
/// and `tweak` applied to the config before binding.
fn chaos_server(
    faults: &str,
    seed: u64,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (std::net::SocketAddr, JoinHandle<()>) {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert_tree("toy", trained(Algorithm::UdtEs))
        .expect("fresh name");
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        faults: FaultPlan::parse(faults, seed).expect("valid fault spec"),
        // Keep shutdown snappy even when a test wedges a connection.
        drain_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    tweak(&mut config);
    let server = Server::bind(&config, registry).expect("bind on loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server runs to clean shutdown"));
    (addr, handle)
}

fn assert_bits(dist: &[f64], expected: &[f64], what: &str) {
    assert_eq!(dist.len(), expected.len(), "{what}: distribution width");
    for (a, b) in dist.iter().zip(expected) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: bit-for-bit");
    }
}

#[test]
fn worker_panic_hits_one_request_and_spares_every_other_connection() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    // Exactly one request panics, deterministically: the first one to
    // classify.
    let (addr, handle) = chaos_server("panic_in_worker:nth=1", 7, |_| {});

    // Concurrent submitters on distinct connections: exactly one gets
    // the structured internal error, everyone else gets exact answers.
    let outcomes: Vec<(usize, Result<Vec<f64>, ServeError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tuples
            .iter()
            .enumerate()
            .map(|(i, tuple)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (i, client.classify("toy", tuple).map(|(dist, _)| dist))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let mut panics = 0;
    for (i, outcome) in &outcomes {
        match outcome {
            Ok(dist) => assert_bits(dist, &direct[i * k..(i + 1) * k], "survivor"),
            Err(e) => {
                assert_eq!(e.code(), "internal", "structured worker-panic error");
                assert!(e.is_transient(), "worker panics are retryable");
                panics += 1;
            }
        }
    }
    assert_eq!(panics, 1, "the nth=1 fault fired exactly once");

    // The pool survived: a fresh request on a fresh connection is exact.
    let mut client = Client::connect(addr).expect("connect");
    let (dist, _) = client.classify("toy", &tuples[0]).expect("post-panic");
    assert_bits(&dist, &direct[0..k], "post-panic");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.health.worker_panics, 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn shed_policy_rejects_loudly_and_answers_everything_it_accepts() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    // One slow slot (50 ms per request), a one-caller line,
    // shed policy: a burst must split into exact answers and structured
    // `overloaded` rejections — nothing blocks, nothing goes silent.
    let (addr, handle) = chaos_server("delay_in_worker:always:50ms", 11, |c| {
        c.workers = 1;
        c.queue_capacity = 1;
        c.queue_policy = QueuePolicy::Shed;
    });

    let n = tuples.len();
    let outcomes: Vec<(usize, Result<Vec<f64>, ServeError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tuples
            .iter()
            .enumerate()
            .map(|(i, tuple)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (i, client.classify("toy", tuple).map(|(dist, _)| dist))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    assert_eq!(outcomes.len(), n, "every request got exactly one reply");
    let mut shed = 0u64;
    for (i, outcome) in &outcomes {
        match outcome {
            Ok(dist) => assert_bits(dist, &direct[i * k..(i + 1) * k], "accepted"),
            Err(e) => {
                assert_eq!(*e, ServeError::Overloaded, "structured shed error");
                shed += 1;
            }
        }
    }
    assert!(shed >= 1, "the one-slot queue shed under an {n}-way burst");
    assert!(shed < n as u64, "the slow worker still served someone");

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.queue.policy, "shed");
    assert_eq!(
        stats.health.sheds, shed,
        "shed counter matches observed rejections"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn expired_requests_get_deadline_exceeded_not_stale_answers() {
    // Every request is delayed 30 ms past a 1 ms request budget: it
    // must come back as `deadline_exceeded`, dropped at slot acquisition
    // without being classified.
    let (addr, handle) = chaos_server("delay_in_worker:always:30ms", 3, |c| {
        c.workers = 1;
        c.request_deadline = Some(Duration::from_millis(1));
    });
    let t = toy::fig1_test_tuple().expect("tuple");
    let mut client = Client::connect(addr).expect("connect");
    let err = client.classify("toy", &t).expect_err("expired in queue");
    assert_eq!(err, ServeError::DeadlineExceeded);
    assert!(err.is_transient());

    let stats = client.stats().expect("stats");
    assert_eq!(stats.queue.deadline_ms, 1);
    assert!(stats.health.deadline_drops >= 1);
    assert!(
        stats.metrics.iter().all(|m| m.requests == 0),
        "expired jobs are never classified"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn truncated_frames_are_transport_errors_and_a_retry_recovers_exactly() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    let (addr, handle) = chaos_server("truncate_frame:nth=1", 5, |_| {});

    // The first response is severed mid-frame. The client must surface a
    // transient transport error — not hand half a JSON object to the
    // parser — and a fresh-connection retry must land the exact answer.
    let policy = RetryPolicy {
        attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        seed: 99,
    };
    let mut attempts_used = 0;
    let dist = policy
        .run(|attempt| {
            attempts_used = attempt + 1;
            let mut client = Client::connect(addr)?;
            client.classify("toy", &tuples[0]).map(|(dist, _)| dist)
        })
        .expect("retry recovers");
    assert_eq!(
        attempts_used, 2,
        "first frame truncated, second attempt clean"
    );
    assert_bits(&dist, &direct[0..k], "post-retry");

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn a_stalled_reader_pins_only_its_own_connection() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    let (addr, handle) = chaos_server("stall_reader:nth=1:150ms", 13, |_| {});

    // Connection A eats the stall; connection B, opened after A's
    // request is in flight, is served normally in the meantime.
    let stalled = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect A");
        let t = toy::fig1_test_tuple().expect("tuple");
        let start = Instant::now();
        client.classify("toy", &t).expect("stalled but served");
        start.elapsed()
    });
    std::thread::sleep(Duration::from_millis(30));
    let mut client = Client::connect(addr).expect("connect B");
    let start = Instant::now();
    let (dist, _) = client.classify("toy", &tuples[0]).expect("B served");
    let b_latency = start.elapsed();
    assert_bits(&dist, &direct[0..k], "unstalled connection");
    let a_latency = stalled.join().expect("A joins");
    assert!(
        a_latency >= Duration::from_millis(150),
        "A ate the injected stall ({a_latency:?})"
    );
    assert!(
        b_latency < a_latency,
        "B ({b_latency:?}) did not wait behind A ({a_latency:?})"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn failed_model_load_leaves_the_old_model_serving() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    let avg = trained(Algorithm::Avg);
    let path = std::env::temp_dir().join("udt-serve-chaos-swap.json");
    persist::save(&avg, &path).expect("save replacement");

    let (addr, handle) = chaos_server("fail_model_load:nth=1", 21, |_| {});
    let mut client = Client::connect(addr).expect("connect");

    // The injected load failure is structured, and generation 1 keeps
    // serving bit-for-bit.
    let err = client
        .swap("toy", path.to_str().expect("utf-8 path"))
        .expect_err("injected load failure");
    assert_eq!(err.code(), "io");
    let (dist, _) = client
        .classify("toy", &tuples[0])
        .expect("old model serves");
    assert_bits(&dist, &direct[0..k], "old generation");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.models[0].generation, 1, "no half-applied swap");

    // The fault was one-shot; the swap now lands and answers change.
    let info = client
        .swap("toy", path.to_str().unwrap())
        .expect("swap lands");
    assert_eq!(info.generation, 2);
    let mut scratch = BatchScratch::new();
    let avg_direct = classify_batch(&avg, &tuples[..1], &mut scratch).expect("direct avg");
    let (dist, _) = client
        .classify("toy", &tuples[0])
        .expect("new model serves");
    assert_bits(&dist, &avg_direct[0..k], "new generation");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn excess_connections_get_a_structured_rejection_at_the_door() {
    let (addr, handle) = chaos_server("", 0, |c| {
        c.max_connections = 1;
    });

    // Claim the only slot and prove it serves.
    let mut first = Client::connect(addr).expect("first connection");
    let t = toy::fig1_test_tuple().expect("tuple");
    first.classify("toy", &t).expect("slot holder is served");

    // The second connection is told why before being dropped.
    let second = TcpStream::connect(addr).expect("tcp connect");
    let mut line = String::new();
    BufReader::new(&second)
        .read_line(&mut line)
        .expect("rejection line");
    assert!(line.contains("\"ok\":false"), "got: {line}");
    assert!(line.contains("\"code\":\"overloaded\""), "got: {line}");
    drop(second);

    let stats = first.stats().expect("stats over the held slot");
    assert_eq!(stats.health.rejected_connections, 1);

    // Freeing the slot readmits new connections (the gate decrements).
    drop(first);
    let mut readmitted = None;
    for _ in 0..40 {
        std::thread::sleep(Duration::from_millis(25));
        if let Ok(mut c) = Client::connect(addr) {
            if c.classify("toy", &t).is_ok() {
                readmitted = Some(c);
                break;
            }
        }
    }
    let mut client = readmitted.expect("slot freed after disconnect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn idle_connections_are_disconnected_after_the_idle_timeout() {
    let (addr, handle) = chaos_server("", 0, |c| {
        c.idle_timeout = Some(Duration::from_millis(100));
    });

    let idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut line = String::new();
    let n = BufReader::new(&idle)
        .read_line(&mut line)
        .expect("EOF, not a read error");
    assert_eq!(n, 0, "the server closed the idle connection");

    // An active connection is not an idle one: requests reset the clock.
    let mut client = Client::connect(addr).expect("connect");
    let t = toy::fig1_test_tuple().expect("tuple");
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(60));
        client
            .classify("toy", &t)
            .expect("active connection survives");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A replica set over freshly started chaos servers, with a short
/// connect/read budget so a dead replica fails fast instead of hanging
/// the suite.
fn replica_set(addrs: &[std::net::SocketAddr], hedge: Option<Duration>, seed: u64) -> ReplicaSet {
    ReplicaSet::new(
        addrs.iter().map(|a| a.to_string()).collect(),
        ReplicaSetOptions {
            timeout: Some(Duration::from_secs(2)),
            hedge,
            seed,
            ..ReplicaSetOptions::default()
        },
    )
    .expect("at least one endpoint")
}

#[test]
fn replica_killed_mid_stream_loses_no_request_and_no_bits() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    let (addr_a, handle_a) = chaos_server("", 0, |_| {});
    let (addr_b, handle_b) = chaos_server("", 0, |_| {});
    let mut set = replica_set(&[addr_a, addr_b], None, 77);

    // Stream classifies; kill replica A (the preferred endpoint) a third
    // of the way through. The contract: every request in the stream is
    // answered exactly once, bit-for-bit, and the set routes around the
    // corpse without the caller doing anything.
    const STREAM: usize = 30;
    let mut replies = 0usize;
    let mut handle_a = Some(handle_a);
    for i in 0..STREAM {
        if i == STREAM / 3 {
            let mut direct_client = Client::connect(addr_a).expect("connect to A");
            direct_client.shutdown().expect("A shuts down");
            handle_a
                .take()
                .expect("A killed once")
                .join()
                .expect("A joins");
        }
        let tuple = &tuples[i % tuples.len()];
        let (dist, _) = set
            .classify("toy", tuple)
            .expect("stream survives the kill");
        assert_bits(
            &dist,
            &direct[(i % tuples.len()) * k..(i % tuples.len() + 1) * k],
            "stream",
        );
        replies += 1;
    }
    assert_eq!(replies, STREAM, "exactly one reply per request");

    let snap = set.snapshot();
    assert!(snap[0].trips >= 1, "A's breaker tripped after the kill");
    assert!(
        snap[1].attempts >= (STREAM - STREAM / 3) as u64,
        "B served the rest of the stream ({} attempts)",
        snap[1].attempts
    );
    assert_eq!(snap[1].state, BreakerState::Closed, "B stayed healthy");

    let mut client = Client::connect(addr_b).expect("connect to B");
    client.shutdown().expect("B shuts down");
    handle_b.join().expect("B joins");
}

#[test]
fn flapping_replica_is_routed_around_without_losing_bits() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    // Replica A answers, then truncates, alternating — a flapping
    // half-dead node. Replica B is clean. Every classify must still land
    // exactly one bit-for-bit reply, transparently.
    let (addr_a, handle_a) = chaos_server("truncate_frame:every=2", 9, |_| {});
    let (addr_b, handle_b) = chaos_server("", 0, |_| {});
    let mut set = replica_set(&[addr_a, addr_b], None, 123);

    const STREAM: usize = 16;
    for i in 0..STREAM {
        let tuple = &tuples[i % tuples.len()];
        let (dist, _) = set.classify("toy", tuple).expect("flapping is survivable");
        assert_bits(
            &dist,
            &direct[(i % tuples.len()) * k..(i % tuples.len() + 1) * k],
            "flap",
        );
    }
    let snap = set.snapshot();
    assert!(
        snap[1].attempts >= 1,
        "the truncations actually failed over"
    );
    // The flap alternates success and truncation, so A's consecutive
    // failure count keeps resetting below the trip threshold: a
    // half-dead replica is tolerated and drained, not amputated.
    assert_eq!(snap[0].trips, 0, "alternating failures never trip A");
    assert_eq!(snap[0].state, BreakerState::Closed);
    assert_eq!(
        snap[0].attempts, STREAM as u64,
        "with A never tripped, every request begins at A"
    );

    for (addr, handle) in [(addr_a, handle_a), (addr_b, handle_b)] {
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("join");
    }
}

#[test]
fn checksum_corruption_on_disk_is_refused_and_the_old_generation_serves() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    let avg = trained(Algorithm::Avg);
    let path = std::env::temp_dir().join("udt-serve-chaos-corrupt.json");
    persist::save(&avg, &path).expect("save replacement");
    // Flip one bit in the body: the v3 footer checksum must catch it at
    // load, long before the registry considers swapping.
    let mut bytes = std::fs::read(&path).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write corrupted");

    let (addr, handle) = chaos_server("", 0, |_| {});
    let mut client = Client::connect(addr).expect("connect");

    let err = client
        .swap("toy", path.to_str().expect("utf-8 path"))
        .expect_err("corrupt file is refused");
    assert_eq!(err.code(), "model", "typed model error, not a crash: {err}");
    assert!(
        err.to_string().contains("corrupt") || err.to_string().contains("deserialisation"),
        "the error names the corruption: {err}"
    );
    // Generation 1 never stopped serving, bit-for-bit.
    let (dist, _) = client
        .classify("toy", &tuples[0])
        .expect("old model serves");
    assert_bits(&dist, &direct[0..k], "old generation after refused swap");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.models[0].generation, 1, "no half-applied swap");

    // Restore the file; the swap lands and answers change.
    persist::save(&avg, &path).expect("save clean");
    let info = client
        .swap("toy", path.to_str().unwrap())
        .expect("swap lands");
    assert_eq!(info.generation, 2);
    let mut scratch = BatchScratch::new();
    let avg_direct = classify_batch(&avg, &tuples[..1], &mut scratch).expect("direct avg");
    let (dist, _) = client
        .classify("toy", &tuples[0])
        .expect("new model serves");
    assert_bits(&dist, &avg_direct[0..k], "new generation");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hedge_storm_returns_one_exact_reply_per_request() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    // Replica A is always slow (80 ms per request); B is fast. With a
    // 10 ms hedge, every classify should race B and win there — and the
    // caller must still see exactly one reply, bit-for-bit, per request,
    // with the slow loser cancelled rather than leaking.
    let (addr_a, handle_a) = chaos_server("delay_in_worker:always:80ms", 31, |c| {
        c.workers = 1;
    });
    let (addr_b, handle_b) = chaos_server("", 0, |_| {});
    let launched_before = udt_obs::catalog::serve::HEDGES_LAUNCHED.get();
    let won_before = udt_obs::catalog::serve::HEDGES_WON.get();
    let mut set = replica_set(&[addr_a, addr_b], Some(Duration::from_millis(10)), 55);

    const STORM: usize = 8;
    for i in 0..STORM {
        let tuple = &tuples[i % tuples.len()];
        let (dist, _) = set.classify("toy", tuple).expect("hedged classify");
        assert_bits(
            &dist,
            &direct[(i % tuples.len()) * k..(i % tuples.len() + 1) * k],
            "hedge",
        );
    }
    let launched = udt_obs::catalog::serve::HEDGES_LAUNCHED.get() - launched_before;
    let won = udt_obs::catalog::serve::HEDGES_WON.get() - won_before;
    assert!(
        launched >= STORM as u64,
        "the slow primary forced a hedge per request (launched {launched})"
    );
    assert!(won >= 1, "the fast replica won at least one race");
    let snap = set.snapshot();
    assert!(snap[1].attempts >= STORM as u64, "B joined every race");

    for (addr, handle) in [(addr_a, handle_a), (addr_b, handle_b)] {
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
        handle.join().expect("join");
    }
}

#[test]
fn mixed_chaos_storm_answers_every_accepted_request_exactly_once() {
    let tree = trained(Algorithm::UdtEs);
    let (tuples, direct, k) = direct_distributions(&tree);
    // Sustained fire: periodic worker panics plus seeded probabilistic
    // worker delays, several rounds of concurrent clients. The contract
    // under all of it: one reply per request — exact bits or a
    // structured error — then a clean, non-deadlocked shutdown.
    let (addr, handle) = chaos_server(
        "panic_in_worker:every=5,delay_in_worker:prob=0.2:5ms",
        42,
        |c| {
            c.workers = 2;
            c.queue_capacity = 8;
            c.queue_policy = QueuePolicy::Shed;
        },
    );

    const ROUNDS: usize = 4;
    let outcomes: Vec<(usize, Result<Vec<f64>, ServeError>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..ROUNDS {
            for (i, tuple) in tuples.iter().enumerate() {
                handles.push(scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (i, client.classify("toy", tuple).map(|(dist, _)| dist))
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    assert_eq!(
        outcomes.len(),
        ROUNDS * tuples.len(),
        "exactly one reply per request, none lost, none duplicated"
    );
    let mut ok = 0u64;
    let mut structured = 0u64;
    for (i, outcome) in &outcomes {
        match outcome {
            Ok(dist) => {
                assert_bits(dist, &direct[i * k..(i + 1) * k], "storm survivor");
                ok += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e.code(), "internal" | "overloaded"),
                    "structured failure, got code {:?}",
                    e.code()
                );
                structured += 1;
            }
        }
    }
    assert!(ok > 0, "the server kept serving through the storm");
    assert!(structured > 0, "every=5 panics actually fired");

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stats.health.worker_panics >= 1);
    assert_eq!(
        stats.health.worker_panics + stats.health.sheds,
        structured,
        "health counters account for every structured failure"
    );
    assert!(stats.health.queue_wait_count > 0, "queue wait was observed");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread exits: no deadlock");
}
