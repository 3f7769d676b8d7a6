//! The serving side: an in-process `udt-serve` server with its default
//! configuration, the requests the workloads send, and the closed-loop
//! clients that send them.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use udt_data::{Dataset, Tuple};
use udt_obs::trace;
use udt_serve::{Client, ModelRegistry, Request, ServeConfig, Server};
use udt_tree::classify::argmax_class;
use udt_tree::{classify_batch, BatchScratch, DecisionTree};

use crate::stats::Sample;

/// Registry name the model is served under.
pub const MODEL: &str = "segment";
/// Held-out tuples per `classify_batch` request.
pub const BATCH_TUPLES: usize = 64;
/// Distinct `classify_batch` requests a connection cycles through.
const BATCH_REQUESTS: usize = 6;

/// Which request a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `classify` of one averaged (point) held-out tuple.
    Point,
    /// `classify_batch` of [`BATCH_TUPLES`] uncertain held-out tuples.
    Batch,
}

/// The requests a workload sends, each with the distributions
/// in-process `classify_batch` gives for the same tuples: the served
/// reply must equal them bit for bit.
pub struct Requests {
    pub kind: Kind,
    pub tuples: Vec<Vec<Tuple>>,
    pub expected: Vec<Vec<f64>>,
    pub n_classes: usize,
}

impl Requests {
    /// One point request per averaged held-out tuple.
    pub fn point(tree: &DecisionTree, test_points: &[Tuple]) -> Result<Requests, String> {
        Requests::new(
            Kind::Point,
            tree,
            test_points.iter().map(|t| vec![t.clone()]).collect(),
        )
    }

    /// Batches of [`BATCH_TUPLES`] consecutive uncertain held-out tuples,
    /// wrapping around the held-out set.
    pub fn batch(tree: &DecisionTree, test: &Dataset) -> Result<Requests, String> {
        Requests::new(Kind::Batch, tree, batch_tuples(test, BATCH_REQUESTS))
    }

    fn new(kind: Kind, tree: &DecisionTree, tuples: Vec<Vec<Tuple>>) -> Result<Requests, String> {
        let mut scratch = BatchScratch::new();
        let expected = tuples
            .iter()
            .map(|req| classify_batch(tree, req, &mut scratch))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("classify_batch: {e}"))?;
        Ok(Requests {
            kind,
            tuples,
            expected,
            n_classes: tree.n_classes(),
        })
    }

    /// Items one successful request completes: replies for point
    /// requests, tuples for batch requests.
    pub fn items_per_request(&self) -> u64 {
        match self.kind {
            Kind::Point => 1,
            Kind::Batch => BATCH_TUPLES as u64,
        }
    }

    /// The wire request for request `i`.
    pub fn wire(&self, i: usize) -> Request {
        let tuples = &self.tuples[i];
        match self.kind {
            Kind::Point => Request::Classify {
                model: MODEL.to_string(),
                tuple: tuples[0].clone(),
            },
            Kind::Batch => Request::ClassifyBatch {
                model: MODEL.to_string(),
                tuples: tuples.clone(),
            },
        }
    }

    /// Whether a served reply is right: bit-identical to in-process
    /// `classify_batch`, each row a probability vector, and each label
    /// its row's argmax.
    pub fn reply_is_correct(&self, i: usize, distributions: &[f64], labels: &[usize]) -> bool {
        let expected = &self.expected[i];
        let k = self.n_classes.max(1);
        distributions.len() == expected.len()
            && labels.len() * k == expected.len()
            && distributions
                .iter()
                .zip(expected)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && distributions.chunks(k).zip(labels).all(|(row, &label)| {
                (row.iter().sum::<f64>() - 1.0).abs() <= 1e-9 && label == argmax_class(row)
            })
    }
}

/// `count` batches of [`BATCH_TUPLES`] consecutive tuples of `test`.
pub fn batch_tuples(test: &Dataset, count: usize) -> Vec<Vec<Tuple>> {
    let all = test.tuples();
    (0..count)
        .map(|j| {
            (0..BATCH_TUPLES)
                .map(|i| all[(j * BATCH_TUPLES + i) % all.len()].clone())
                .collect()
        })
        .collect()
}

/// Binds a server with the default `ServeConfig` (on an ephemeral
/// loopback port) serving `tree` under [`MODEL`].
pub fn bind(tree: DecisionTree) -> Result<Server, String> {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert_tree(MODEL, tree)
        .map_err(|e| format!("register model: {e}"))?;
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    Server::bind(&config, registry).map_err(|e| format!("bind: {e}"))
}

/// A server running on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: JoinHandle<udt_serve::Result<()>>,
}

impl Running {
    pub fn start(server: Server) -> Running {
        let addr = server.local_addr();
        Running {
            addr,
            handle: std::thread::spawn(move || server.run()),
        }
    }

    /// Asks the server to shut down and waits until it has drained.
    pub fn stop(self) -> Result<(), String> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        let joined = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        asked.map_err(|e| format!("shutdown: {e}"))?;
        joined.map_err(|e| format!("server: {e}"))
    }
}

/// The server's own counters for [`MODEL`], from a `stats` request.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    pub requests: u64,
    pub errors: u64,
    pub mean_us: f64,
    pub sheds: u64,
    pub deadline_drops: u64,
}

impl ServerCounters {
    pub fn fetch(addr: SocketAddr) -> Result<ServerCounters, String> {
        let report = Client::connect(addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))?;
        let mut counters = ServerCounters {
            sheds: report.health.sheds,
            deadline_drops: report.health.deadline_drops,
            ..ServerCounters::default()
        };
        if let Some(m) = report.metrics.iter().find(|m| m.model == MODEL) {
            counters.requests = m.requests;
            counters.errors = m.errors;
            counters.mean_us = m.mean_us;
        }
        Ok(counters)
    }

    /// Failures the server counted since `before`.
    pub fn failures_since(&self, before: &ServerCounters) -> u64 {
        (self.errors + self.sheds + self.deadline_drops)
            .saturating_sub(before.errors + before.sheds + before.deadline_drops)
    }

    /// The exact mean enqueue-to-reply time of the requests served
    /// since `before`, in microseconds.
    pub fn mean_us_since(&self, before: &ServerCounters) -> f64 {
        let n = self.requests.saturating_sub(before.requests);
        if n == 0 {
            return 0.0;
        }
        (self.mean_us * self.requests as f64 - before.mean_us * before.requests as f64) / n as f64
    }
}

/// What a closed loop did.
pub struct LoopOutcome {
    /// Every request, failed ones included; items are those of
    /// [`Requests::items_per_request`].
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Runs `connections` closed-loop clients against `addr`: each sends a
/// request, waits for the reply, checks it, and sends the next, until
/// `until` or until it has sent `max_requests`.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &Requests,
    connections: usize,
    until: Instant,
    max_requests: usize,
) -> LoopOutcome {
    let mut clients: Vec<Connection> = (0..connections)
        .map(|c| Connection::open(addr, c))
        .collect();
    let mut out = LoopOutcome {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
    };
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || client.run(requests, until, max_requests));
        }
    });
    for client in clients {
        out.samples.extend(client.samples);
        out.attempted += client.attempted;
        out.failed += client.failed;
        out.first_error = out.first_error.or(client.first_error);
    }
    out
}

/// One closed-loop client.
struct Connection {
    client: Option<Client>,
    next: usize,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Connection {
    fn open(addr: SocketAddr, index: usize) -> Connection {
        let mut conn = Connection {
            client: None,
            // Connections start at different requests so that
            // concurrent requests carry different tuples.
            next: index * 7,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            first_error: None,
        };
        match Client::connect(addr) {
            Ok(c) => conn.client = Some(c),
            Err(e) => {
                conn.attempted = 1;
                conn.failed = 1;
                conn.first_error = Some(format!("connect: {e}"));
            }
        }
        conn
    }

    fn run(&mut self, requests: &Requests, until: Instant, max_requests: usize) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        while Instant::now() < until && (self.attempted as usize) < max_requests {
            let index = self.next % requests.tuples.len();
            self.next += 1;
            let tuples = &requests.tuples[index];
            let sent = Instant::now();
            let span = trace::span("client.request", "perfbench");
            let reply = match requests.kind {
                Kind::Point => client
                    .classify(MODEL, &tuples[0])
                    .map(|(dist, label)| (dist, vec![label])),
                Kind::Batch => client
                    .classify_batch(MODEL, tuples)
                    .map(|(dists, labels)| (dists.concat(), labels)),
            };
            drop(span);
            let mut sample = Sample {
                latency_s: sent.elapsed().as_secs_f64(),
                items: 0,
            };
            self.attempted += 1;
            match reply {
                Ok((dists, labels)) if requests.reply_is_correct(index, &dists, &labels) => {
                    sample.items = requests.items_per_request();
                }
                Ok(_) => {
                    self.failed += 1;
                    self.first_error
                        .get_or_insert_with(|| format!("wrong reply to request {index}"));
                }
                Err(e) => {
                    self.failed += 1;
                    self.first_error.get_or_insert_with(|| e.to_string());
                }
            }
            self.samples.push(sample);
        }
    }
}
