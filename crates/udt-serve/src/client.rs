//! Blocking NDJSON client for a `udt-serve` endpoint.
//!
//! One TCP connection, one request line out, one response line back —
//! used by the `udt-client` CLI, the integration tests and the `serve`
//! bench. The client is deliberately synchronous: a caller that wants
//! pipelining opens more connections (the server serves each on its own
//! thread anyway).
//!
//! For multi-node deployments, [`ReplicaSet`] wraps N endpoints behind
//! one client-shaped surface: per-endpoint circuit breakers route
//! around dead or flapping replicas, transient failures fail over to
//! the next healthy endpoint, and an optional hedge delay races a
//! second replica for point classifies. Every routing decision is
//! deterministic under the configured seed.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use udt_data::Tuple;

use crate::error::ServeError;
use crate::protocol::{self, HealthReport, ModelInfo, Request, Response, StatsFormat, StatsReport};
use crate::Result;
use udt_obs::catalog::serve as obs;

/// Reconnect-and-retry policy for transient failures (sheds, deadline
/// drops, worker panics, transport errors — [`ServeError::is_transient`]
/// decides). Backoff is exponential with deterministic, seeded jitter:
/// attempt `n` sleeps a uniformly drawn fraction (half to all) of
/// `base_backoff · 2ⁿ`, capped at `max_backoff`, so a burst of shed
/// clients does not reconverge on the server in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Seed for the jitter stream (same seed, same sleep schedule).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt + 1` (0-based), advancing
    /// the caller-held jitter stream.
    pub fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_backoff);
        let draw = (rand::split_mix64(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        exp.mul_f64(0.5 + draw / 2.0)
    }

    /// Runs `op` (which gets the 0-based attempt number) until it
    /// succeeds, fails permanently, or the attempt budget is spent.
    /// Only transient errors are retried; `op` should build a fresh
    /// connection per attempt — the old one is suspect by definition.
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> Result<T>) -> Result<T> {
        let mut rng = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        rand::split_mix64(&mut rng);
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(e) if e.is_transient() && attempt + 1 < attempts => {
                    std::thread::sleep(self.backoff(attempt, &mut rng));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serving endpoint.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connects with a budget on the connect itself, and arms the same
    /// budget as the socket read/write timeout for every subsequent
    /// request — a wedged server then surfaces as a transient
    /// [`ServeError::Io`] instead of hanging the caller forever.
    pub fn connect_with_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> Result<Client> {
        let mut last: Option<std::io::Error> = None;
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(Some(timeout)).ok();
                    stream.set_write_timeout(Some(timeout)).ok();
                    let writer = stream.try_clone()?;
                    return Ok(Client {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.map(ServeError::from).unwrap_or_else(|| {
            ServeError::Io("address resolved to no socket addresses".to_string())
        }))
    }

    /// Sends one request and reads its response line.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        self.round_trip(request.to_line())
    }

    /// Sends a request line and reads the response line into the same
    /// buffer.
    fn round_trip(&mut self, mut line: String) -> Result<Response> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        line.clear();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Io("server closed the connection".into()));
        }
        // NDJSON frames end in a newline; a line that stops without one
        // means the connection died mid-response. That is a *transport*
        // failure (retryable on a fresh connection), not a protocol
        // violation — do not hand the fragment to the parser.
        if !line.ends_with('\n') {
            return Err(ServeError::Io(
                "connection severed mid-response (truncated frame)".into(),
            ));
        }
        Response::parse(&line)
    }

    /// Classifies one tuple; returns `(distribution, argmax label)`.
    pub fn classify(&mut self, model: &str, tuple: &Tuple) -> Result<(Vec<f64>, usize)> {
        match self.round_trip(protocol::classify_line(model, tuple))? {
            Response::Classify {
                distribution,
                label,
            } => Ok((distribution, label)),
            other => Err(unexpected("classify", &other)),
        }
    }

    /// Classifies a batch of tuples; returns per-tuple distributions and
    /// labels, in request order.
    pub fn classify_batch(
        &mut self,
        model: &str,
        tuples: &[Tuple],
    ) -> Result<(Vec<Vec<f64>>, Vec<usize>)> {
        match self.round_trip(protocol::classify_batch_line(model, tuples))? {
            Response::ClassifyBatch {
                distributions,
                labels,
            } => Ok((distributions, labels)),
            other => Err(unexpected("classify_batch", &other)),
        }
    }

    /// Loads a model file (server-side path) under a fresh name.
    pub fn load_model(&mut self, name: &str, path: &str) -> Result<ModelInfo> {
        match self.request(&Request::LoadModel {
            name: name.to_string(),
            path: path.to_string(),
        })? {
            Response::ModelLoaded(info) => Ok(info),
            other => Err(unexpected("load_model", &other)),
        }
    }

    /// Loads a model file and hot-swaps it into the named binding.
    pub fn swap(&mut self, name: &str, path: &str) -> Result<ModelInfo> {
        match self.request(&Request::Swap {
            name: name.to_string(),
            path: path.to_string(),
        })? {
            Response::ModelLoaded(info) => Ok(info),
            other => Err(unexpected("swap", &other)),
        }
    }

    /// Fetches the server's stats report.
    pub fn stats(&mut self) -> Result<StatsReport> {
        match self.request(&Request::Stats {
            format: StatsFormat::Json,
        })? {
            Response::Stats(report) => Ok(report),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Fetches the server's stats as a Prometheus text exposition.
    pub fn stats_prometheus(&mut self) -> Result<String> {
        match self.request(&Request::Stats {
            format: StatsFormat::Prometheus,
        })? {
            Response::StatsText { text } => Ok(text),
            other => Err(unexpected("stats (prometheus)", &other)),
        }
    }

    /// Fetches the server's health report (liveness plus readiness).
    pub fn health(&mut self) -> Result<HealthReport> {
        match self.request(&Request::Health)? {
            Response::Health(report) => Ok(report),
            other => Err(unexpected("health", &other)),
        }
    }

    /// Asks the server to shut down cleanly.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }
}

/// Circuit-breaker state for one replica endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow to the endpoint normally.
    Closed,
    /// Tripped: the endpoint is skipped until its cooldown elapses.
    Open,
    /// Cooldown elapsed: the next request is a probe. Success closes the
    /// breaker; failure re-opens it with a longer cooldown.
    HalfOpen,
}

/// When breakers trip and how long they stay open.
///
/// Cooldowns reuse the [`RetryPolicy`] backoff machinery: trip `n`
/// draws a jittered cooldown from `base_cooldown · 2ⁿ` capped at
/// `max_cooldown`, so a flapping replica is probed less and less often
/// while a one-off blip heals in roughly `base_cooldown`.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive transient failures that trip `Closed → Open`.
    pub failure_threshold: u32,
    /// Cooldown scale for the first trip.
    pub base_cooldown: Duration,
    /// Upper bound on any single cooldown.
    pub max_cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            base_cooldown: Duration::from_millis(200),
            max_cooldown: Duration::from_secs(5),
        }
    }
}

/// Configuration for a [`ReplicaSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSetOptions {
    /// Connect/read/write budget per connection (`None` = no timeouts,
    /// matching [`Client::connect`]).
    pub timeout: Option<Duration>,
    /// Hedge delay for point classifies: when `Some(d)`, a classify that
    /// has not answered within `d` races a second replica and the first
    /// reply wins (bit-for-bit identical to an unhedged reply — both
    /// replicas serve the same arena). `None` disables hedging.
    pub hedge: Option<Duration>,
    /// Breaker thresholds and cooldown bounds.
    pub breaker: BreakerPolicy,
    /// Seed for the cooldown jitter stream. Same endpoints, seed and
    /// failure sequence ⇒ identical routing decisions.
    pub seed: u64,
}

impl Default for ReplicaSetOptions {
    fn default() -> Self {
        ReplicaSetOptions {
            timeout: None,
            hedge: None,
            breaker: BreakerPolicy::default(),
            seed: 0x5eed,
        }
    }
}

/// A point-in-time view of one endpoint's breaker, for diagnostics and
/// the seeded-determinism tests.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSnapshot {
    /// The endpoint address.
    pub endpoint: String,
    /// Current breaker state.
    pub state: BreakerState,
    /// Consecutive transient failures since the last success.
    pub consecutive_failures: u32,
    /// Times the breaker has tripped open since the last success.
    pub trips: u32,
    /// Requests attempted against this endpoint (including probes).
    pub attempts: u64,
    /// The jittered cooldown drawn at the most recent trip.
    pub last_cooldown: Duration,
}

struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    trips: u32,
    attempts: u64,
    last_cooldown: Duration,
    open_until: Option<Instant>,
}

impl Breaker {
    fn new() -> Breaker {
        obs::BREAKERS_CLOSED.inc();
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            attempts: 0,
            last_cooldown: Duration::ZERO,
            open_until: None,
        }
    }

    fn set_state(&mut self, next: BreakerState) {
        if self.state == next {
            return;
        }
        state_gauge(self.state).dec();
        state_gauge(next).inc();
        self.state = next;
    }
}

impl Drop for Breaker {
    fn drop(&mut self) {
        state_gauge(self.state).dec();
    }
}

fn state_gauge(state: BreakerState) -> &'static udt_obs::Gauge {
    match state {
        BreakerState::Closed => &obs::BREAKERS_CLOSED,
        BreakerState::Open => &obs::BREAKERS_OPEN,
        BreakerState::HalfOpen => &obs::BREAKERS_HALF_OPEN,
    }
}

/// A client over N replica endpoints with per-endpoint circuit
/// breakers, transparent failover on transient failures, and optional
/// hedged point classifies.
///
/// Endpoints are tried in declaration order, skipping any whose breaker
/// is open; a transient failure (connect refused, severed connection,
/// shed, deadline drop — [`ServeError::is_transient`]) fails over to
/// the next available endpoint within the same call. Permanent errors
/// (unknown model, bad request) return immediately: the replica
/// answered, so it is healthy and retrying elsewhere only repeats the
/// mistake.
///
/// Routing is deterministic under [`ReplicaSetOptions::seed`]: the
/// candidate order is fixed and every cooldown is drawn from a seeded
/// jitter stream, so two replica sets fed the same failure sequence
/// trip, cool down and probe identically.
pub struct ReplicaSet {
    endpoints: Vec<String>,
    conns: Vec<Option<Client>>,
    breakers: Vec<Breaker>,
    /// Cooldown generator — `RetryPolicy::backoff` with trip count as
    /// the attempt number.
    cooldown: RetryPolicy,
    rng: u64,
    options: ReplicaSetOptions,
}

impl ReplicaSet {
    /// Builds a replica set over `endpoints` (at least one required).
    pub fn new(endpoints: Vec<String>, options: ReplicaSetOptions) -> Result<ReplicaSet> {
        if endpoints.is_empty() {
            return Err(ServeError::Config(
                "a replica set needs at least one endpoint".to_string(),
            ));
        }
        let cooldown = RetryPolicy {
            attempts: 1,
            base_backoff: options.breaker.base_cooldown,
            max_backoff: options.breaker.max_cooldown,
            seed: options.seed,
        };
        let mut rng = options.seed ^ 0x9e37_79b9_7f4a_7c15;
        rand::split_mix64(&mut rng);
        let n = endpoints.len();
        Ok(ReplicaSet {
            endpoints,
            conns: (0..n).map(|_| None).collect(),
            breakers: (0..n).map(|_| Breaker::new()).collect(),
            cooldown,
            rng,
            options,
        })
    }

    /// The configured endpoints, in routing order.
    pub fn endpoints(&self) -> &[String] {
        &self.endpoints
    }

    /// A snapshot of every endpoint's breaker.
    pub fn snapshot(&self) -> Vec<BreakerSnapshot> {
        self.endpoints
            .iter()
            .zip(&self.breakers)
            .map(|(endpoint, b)| BreakerSnapshot {
                endpoint: endpoint.clone(),
                state: b.state,
                consecutive_failures: b.consecutive_failures,
                trips: b.trips,
                attempts: b.attempts,
                last_cooldown: b.last_cooldown,
            })
            .collect()
    }

    /// Classifies one tuple, hedging to a second replica when
    /// configured; returns `(distribution, argmax label)`.
    pub fn classify(&mut self, model: &str, tuple: &Tuple) -> Result<(Vec<f64>, usize)> {
        if let Some(delay) = self.options.hedge {
            let now = Instant::now();
            if let Some((primary, secondary)) = self.hedge_pair(now) {
                return self.classify_hedged(model, tuple, delay, primary, secondary);
            }
        }
        self.with_failover(|c| c.classify(model, tuple))
    }

    /// Classifies a batch; returns per-tuple distributions and labels in
    /// request order. Batches are never hedged — they fail over.
    pub fn classify_batch(
        &mut self,
        model: &str,
        tuples: &[Tuple],
    ) -> Result<(Vec<Vec<f64>>, Vec<usize>)> {
        self.with_failover(|c| c.classify_batch(model, tuples))
    }

    /// Health of the first available replica that answers.
    pub fn health(&mut self) -> Result<HealthReport> {
        self.with_failover(|c| c.health())
    }

    /// Runs `op` against endpoints in order, skipping open breakers and
    /// failing over on transient errors. Each failover increments the
    /// `udt_replica_failovers_total` counter.
    fn with_failover<T>(&mut self, mut op: impl FnMut(&mut Client) -> Result<T>) -> Result<T> {
        let now = Instant::now();
        let mut last: Option<ServeError> = None;
        for i in 0..self.endpoints.len() {
            if !self.available(i, now) {
                continue;
            }
            if last.is_some() {
                obs::FAILOVERS.incr();
            }
            self.breakers[i].attempts += 1;
            match self.attempt(i, &mut op) {
                Ok(value) => {
                    self.record_success(i);
                    return Ok(value);
                }
                Err(e) if e.is_transient() => {
                    self.record_failure(i);
                    last = Some(e);
                }
                Err(e) => {
                    // The replica answered; the request itself is bad.
                    self.record_success(i);
                    return Err(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ServeError::Io("no replica available (every circuit breaker is open)".to_string())
        }))
    }

    /// Ensures a live connection to endpoint `i` and runs `op` on it.
    fn attempt<T>(&mut self, i: usize, op: &mut impl FnMut(&mut Client) -> Result<T>) -> Result<T> {
        if self.conns[i].is_none() {
            self.conns[i] = Some(connect_endpoint(&self.endpoints[i], self.options.timeout)?);
        }
        op(self.conns[i].as_mut().expect("connection just established"))
    }

    /// Whether endpoint `i` may take a request now, promoting `Open`
    /// breakers whose cooldown has elapsed to `HalfOpen`.
    fn available(&mut self, i: usize, now: Instant) -> bool {
        match self.breakers[i].state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                let elapsed = match self.breakers[i].open_until {
                    Some(t) => now >= t,
                    None => true,
                };
                if elapsed {
                    self.breakers[i].set_state(BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&mut self, i: usize) {
        let b = &mut self.breakers[i];
        b.consecutive_failures = 0;
        b.trips = 0;
        b.open_until = None;
        b.set_state(BreakerState::Closed);
    }

    fn record_failure(&mut self, i: usize) {
        // The connection is suspect by definition; rebuild it next time.
        self.conns[i] = None;
        self.breakers[i].consecutive_failures += 1;
        let trip = match self.breakers[i].state {
            // A failed probe re-opens immediately, with a longer cooldown.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => {
                self.breakers[i].consecutive_failures >= self.options.breaker.failure_threshold
            }
            BreakerState::Open => false,
        };
        if trip {
            let attempt = self.breakers[i].trips.min(20);
            let cooldown = self.cooldown.backoff(attempt, &mut self.rng);
            let b = &mut self.breakers[i];
            b.trips += 1;
            b.last_cooldown = cooldown;
            b.open_until = Some(Instant::now() + cooldown);
            b.set_state(BreakerState::Open);
        }
    }

    /// The first two available endpoints, for a hedged classify. `None`
    /// when fewer than two replicas can take the request — hedging then
    /// degrades to plain failover.
    fn hedge_pair(&mut self, now: Instant) -> Option<(usize, usize)> {
        let mut first = None;
        for i in 0..self.endpoints.len() {
            if !self.available(i, now) {
                continue;
            }
            match first {
                None => first = Some(i),
                Some(p) => return Some((p, i)),
            }
        }
        None
    }

    /// Races `primary` against `secondary` for one point classify. The
    /// secondary launches only if the primary has not answered within
    /// `delay` (a hedge) or failed transiently before it (a failover);
    /// the first successful reply wins and the loser's socket is shut
    /// down so its thread unblocks promptly.
    fn classify_hedged(
        &mut self,
        model: &str,
        tuple: &Tuple,
        delay: Duration,
        primary: usize,
        secondary: usize,
    ) -> Result<(Vec<f64>, usize)> {
        use std::sync::{Arc, Mutex};

        let (tx, rx) = mpsc::channel();
        let slots: [Arc<Mutex<Option<TcpStream>>>; 2] =
            [Arc::new(Mutex::new(None)), Arc::new(Mutex::new(None))];
        let timeout = self.options.timeout;
        let spawn = |slot: usize, endpoint: &str| {
            let endpoint = endpoint.to_string();
            let model = model.to_string();
            let tuple = tuple.clone();
            let cancel = Arc::clone(&slots[slot]);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let result = (|| {
                    let mut client = connect_endpoint(&endpoint, timeout)?;
                    *cancel.lock().expect("hedge cancel slot") = Some(client.writer.try_clone()?);
                    client.classify(&model, &tuple)
                })();
                // The race may already be decided; a dead receiver is fine.
                let _ = tx.send((slot, result));
            });
        };
        // Backstop so an unanswered race cannot hang the caller forever;
        // generous enough to never fire before the sockets' own budgets.
        let backstop = self
            .options
            .timeout
            .map(|t| t.saturating_mul(4))
            .unwrap_or(Duration::from_secs(300));

        self.breakers[primary].attempts += 1;
        spawn(0, self.endpoints[primary].as_str());

        let mut launched = 1u32;
        let mut outstanding = 1u32;
        let mut hedged = false;
        // Phase 1: give the primary `delay` to answer on its own.
        let mut next = match rx.recv_timeout(delay) {
            Ok(pair) => Some(pair),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("main thread holds a sender")
            }
        };
        if next.is_none() {
            obs::HEDGES_LAUNCHED.incr();
            hedged = true;
            self.breakers[secondary].attempts += 1;
            spawn(1, self.endpoints[secondary].as_str());
            launched = 2;
            outstanding = 2;
        }
        loop {
            let (slot, result) = match next.take() {
                Some(pair) => pair,
                None => match rx.recv_timeout(backstop) {
                    Ok(pair) => pair,
                    Err(_) => {
                        return Err(ServeError::Io(
                            "hedged classify timed out on every launched replica".to_string(),
                        ))
                    }
                },
            };
            outstanding -= 1;
            let replica = if slot == 0 { primary } else { secondary };
            match result {
                Ok(value) => {
                    self.record_success(replica);
                    if hedged && slot == 1 {
                        obs::HEDGES_WON.incr();
                    }
                    cancel_slot(&slots[1 - slot]);
                    return Ok(value);
                }
                Err(e) if e.is_transient() => {
                    self.record_failure(replica);
                    if outstanding == 0 {
                        if launched == 1 {
                            // The primary failed fast, before the hedge
                            // timer — plain failover to the secondary.
                            obs::FAILOVERS.incr();
                            self.breakers[secondary].attempts += 1;
                            spawn(1, self.endpoints[secondary].as_str());
                            launched = 2;
                            outstanding = 1;
                        } else {
                            return Err(e);
                        }
                    }
                }
                Err(e) => {
                    self.record_success(replica);
                    cancel_slot(&slots[1 - slot]);
                    return Err(e);
                }
            }
        }
    }
}

fn connect_endpoint(endpoint: &str, timeout: Option<Duration>) -> Result<Client> {
    match timeout {
        Some(t) => Client::connect_with_timeout(endpoint, t),
        None => Client::connect(endpoint),
    }
}

/// Shuts down a raced attempt's socket (if it got as far as connecting)
/// so its blocked read returns immediately instead of serving a stale
/// reply into the void.
fn cancel_slot(slot: &std::sync::Arc<std::sync::Mutex<Option<TcpStream>>>) {
    if let Some(stream) = slot.lock().expect("hedge cancel slot").take() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

fn unexpected(what: &str, response: &Response) -> ServeError {
    match response {
        // The transient overload family maps to its typed variants so
        // `is_transient` (and therefore retry policies) classify server
        // responses exactly like local failures; everything else stays a
        // `Remote` carrying the structured code.
        Response::Error { code, message } => match code.as_str() {
            "overloaded" => ServeError::Overloaded,
            "deadline_exceeded" => ServeError::DeadlineExceeded,
            "shutting_down" => ServeError::QueueClosed,
            _ => ServeError::Remote {
                code: code.clone(),
                message: message.clone(),
            },
        },
        other => ServeError::Protocol(format!("unexpected response to {what}: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_map_to_typed_variants() {
        let err = |code: &str| {
            unexpected(
                "classify",
                &Response::Error {
                    code: code.to_string(),
                    message: "m".to_string(),
                },
            )
        };
        assert_eq!(err("overloaded"), ServeError::Overloaded);
        assert_eq!(err("deadline_exceeded"), ServeError::DeadlineExceeded);
        assert_eq!(err("shutting_down"), ServeError::QueueClosed);
        assert_eq!(
            err("unknown_model"),
            ServeError::Remote {
                code: "unknown_model".to_string(),
                message: "m".to_string(),
            }
        );
    }

    #[test]
    fn backoff_is_exponential_capped_and_seed_deterministic() {
        let policy = RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(450),
            seed: 7,
        };
        let mut rng_a = 1u64;
        let mut rng_b = 1u64;
        for attempt in 0..6 {
            let exp = Duration::from_millis(100)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(450));
            let a = policy.backoff(attempt, &mut rng_a);
            assert!(a >= exp.mul_f64(0.5), "attempt {attempt}: {a:?} < half");
            assert!(a <= exp, "attempt {attempt}: {a:?} > cap");
            assert_eq!(a, policy.backoff(attempt, &mut rng_b));
        }
    }

    #[test]
    fn run_retries_transient_and_stops_on_permanent() {
        let policy = RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(2),
            seed: 0,
        };
        // Transient errors burn attempts until one succeeds.
        let mut calls = 0;
        let out = policy.run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err(ServeError::Overloaded)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);

        // Permanent errors return immediately.
        let mut calls = 0;
        let out: Result<()> = policy.run(|_| {
            calls += 1;
            Err(ServeError::UnknownModel("x".to_string()))
        });
        assert!(matches!(out, Err(ServeError::UnknownModel(_))));
        assert_eq!(calls, 1);

        // The budget is honoured when everything is transient.
        let mut calls = 0;
        let out: Result<()> = policy.run(|_| {
            calls += 1;
            Err(ServeError::Io("reset".to_string()))
        });
        assert!(matches!(out, Err(ServeError::Io(_))));
        assert_eq!(calls, 4);
    }
}
