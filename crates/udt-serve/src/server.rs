//! The NDJSON-over-TCP server.
//!
//! Plain `std::net` blocking I/O: one accept loop, one thread per
//! connection, one [`crate::batcher::Batcher`] worker pool behind them
//! all. Connection threads do the cheap work themselves (parsing,
//! registry mutations, stats snapshots) and delegate every
//! classification to the shared scheduler, where requests from all
//! connections coalesce into micro-batches.
//!
//! ## Shutdown and drain
//!
//! A `shutdown` request acknowledges on its own connection, then flips
//! the shared flag and pokes the listener with a loopback connection so
//! `accept` wakes up. Connection threads poll the flag through a short
//! socket read timeout and drain; [`Server::run`] then waits for them up
//! to the configured **drain deadline** — a connection wedged on a
//! stalled peer cannot hold shutdown hostage — and shuts the scheduler
//! down, which drains the queue before stopping, so every request
//! accepted before the shutdown is answered.
//!
//! ## Overload at the door
//!
//! At most `max_connections` connections are served concurrently.
//! Excess connections receive one structured `overloaded` error line and
//! are closed immediately — a cheap, bounded rejection instead of an
//! unbounded thread pile-up — and are counted in the
//! `rejected_connections` health counter.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use udt_tree::classify::argmax_class;

use crate::batcher::Batcher;
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::faults::{FaultInjector, FaultPoint};
use crate::metrics::ServeMetrics;
use crate::protocol::{HealthReport, Request, Response, StatsFormat, StatsReport};
use crate::registry::ModelRegistry;
use crate::Result;

/// How often an idle connection thread re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Upper bound on one request line. Large `classify_batch` payloads fit
/// comfortably; a client streaming bytes with no newline is cut off
/// instead of growing the line buffer without limit.
const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Shared state handed to every connection thread.
struct Ctx {
    registry: Arc<ModelRegistry>,
    batcher: Batcher,
    metrics: Arc<ServeMetrics>,
    faults: Arc<FaultInjector>,
    stopping: AtomicBool,
    /// Connections currently being served (the admission gate).
    active_connections: AtomicUsize,
    max_connections: usize,
    /// Disconnect after this long without a complete request.
    idle_timeout: Option<Duration>,
    /// Upper bound on one write before a stalled client is dropped.
    /// Without it, a client that stops reading while a large response is
    /// in flight would park its connection thread in `write_all` forever
    /// — past the shutdown flag, wedging the drain.
    write_timeout: Duration,
    /// How long `run` waits for connection threads after shutdown.
    drain_deadline: Duration,
}

/// Releases one admission-gate slot when the connection finishes, on
/// every exit path including panics.
struct ConnGuard {
    ctx: Arc<Ctx>,
}

impl ConnGuard {
    /// Claims a slot, or `None` at capacity. `fetch_update` makes the
    /// check-and-increment atomic so racing accepts cannot overshoot.
    fn try_claim(ctx: &Arc<Ctx>) -> Option<ConnGuard> {
        ctx.active_connections
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < ctx.max_connections).then_some(n + 1)
            })
            .ok()
            .map(|_| ConnGuard {
                ctx: Arc::clone(ctx),
            })
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.ctx.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running serving endpoint (listener bound, scheduler started).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the configured address and starts the scheduler. The
    /// registry is taken as an argument so callers can preload or train
    /// models before the first connection lands.
    pub fn bind(config: &ServeConfig, registry: Arc<ModelRegistry>) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        // One injector instance shared by the batcher and the connection
        // layer, so a plan's hit counters see every consultation.
        let faults = if config.faults.is_empty() {
            FaultInjector::disabled()
        } else {
            FaultInjector::from_plan(&config.faults)
        };
        let mut batch_options = config.batch_options();
        batch_options.faults = Arc::clone(&faults);
        let batcher = Batcher::start(Arc::clone(&registry), Arc::clone(&metrics), batch_options);
        Ok(Server {
            listener,
            addr,
            ctx: Arc::new(Ctx {
                registry,
                batcher,
                metrics,
                faults,
                stopping: AtomicBool::new(false),
                active_connections: AtomicUsize::new(0),
                max_connections: config.max_connections,
                idle_timeout: config.idle_timeout,
                write_timeout: config.write_timeout,
                drain_deadline: config.drain_deadline,
            }),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `shutdown` request arrives, then drains in-flight
    /// work and returns. Consumes the server; join the thread running
    /// this to wait for a clean stop.
    pub fn run(self) -> Result<()> {
        // Only this thread touches the handle list (pushed in the accept
        // loop, drained after it), so a plain Vec suffices.
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.ctx.stopping.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let Some(guard) = ConnGuard::try_claim(&self.ctx) else {
                        reject_connection(stream, &self.ctx);
                        continue;
                    };
                    let ctx = Arc::clone(&self.ctx);
                    let spawned = std::thread::Builder::new()
                        .name("udt-serve-conn".to_string())
                        .spawn(move || {
                            let _guard = guard;
                            handle_connection(stream, &ctx);
                        });
                    match spawned {
                        Ok(handle) => {
                            // Reap finished connections as we go
                            // (dropping a finished handle releases its
                            // thread) so a long-lived server does not
                            // accumulate one joinable thread per
                            // connection it ever served.
                            handles.retain(|h| !h.is_finished());
                            handles.push(handle);
                        }
                        // Thread exhaustion drops this one connection
                        // (the stream closed when `spawned` failed, and
                        // its guard slot freed with it); the server
                        // itself keeps accepting.
                        Err(_) => std::thread::sleep(READ_POLL),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                // Persistent accept failures (e.g. fd exhaustion) must
                // not hot-spin the loop; back off briefly and retry.
                Err(_) => std::thread::sleep(READ_POLL),
            }
        }
        // Drain: connection threads notice the flag within READ_POLL and
        // exit on their own. Wait up to the drain deadline, then abandon
        // stragglers (a peer stalled mid-write must not wedge shutdown)
        // — dropping their handles detaches the threads; the scheduler
        // below rejects anything they submit afterwards.
        let deadline = Instant::now() + self.ctx.drain_deadline;
        loop {
            handles.retain(|h| !h.is_finished());
            if handles.is_empty() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let abandoned = handles.len();
        if abandoned > 0 {
            eprintln!(
                "udt-serve: drain deadline reached with {abandoned} connection(s) still open; abandoning them"
            );
        }
        drop(handles);
        // Workers drain every job the connections submitted, then stop.
        self.ctx.batcher.shutdown();
        Ok(())
    }
}

/// Tells an over-limit connection why it is being turned away, without
/// spawning a thread for it. One short bounded write; if the peer is not
/// reading, the line is simply lost along with the connection.
fn reject_connection(mut stream: TcpStream, ctx: &Ctx) {
    ctx.metrics.record_rejected_connection();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut payload = Response::Error {
        code: ServeError::Overloaded.code().to_string(),
        message: format!(
            "connection limit reached ({}); retry with backoff",
            ctx.max_connections
        ),
    }
    .to_line();
    payload.push('\n');
    let _ = stream.write_all(payload.as_bytes());
}

fn trigger_shutdown(ctx: &Ctx, addr: SocketAddr) {
    ctx.stopping.store(true, Ordering::SeqCst);
    // Wake the accept loop; the connection is dropped immediately and
    // the loop observes the flag before handling it.
    let _ = TcpStream::connect(addr);
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    // An accepted socket's local address is the listener's address — the
    // shutdown path uses it to wake the accept loop.
    let local = stream.local_addr().ok();
    // Short read timeout so the thread notices a server-wide shutdown
    // even while its client is idle; bounded write timeout so a client
    // that stops reading cannot park this thread in `write_all`.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(ctx.write_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Byte-level framing: `read_until` keeps whatever it already
    // appended when a read times out, so a line split by the poll
    // timeout — even inside a multibyte UTF-8 sequence, where
    // `read_line` would discard the partial bytes — resumes intact on
    // the next iteration.
    let mut line: Vec<u8> = Vec::new();
    // The idle clock restarts whenever a complete request arrives.
    let mut last_request = Instant::now();
    loop {
        // Checked on every iteration — not just on read timeouts — so a
        // client that keeps requests flowing cannot keep this thread
        // (and therefore the whole server) alive past a shutdown.
        if ctx.stopping.load(Ordering::SeqCst) {
            return;
        }
        if line.len() > MAX_LINE_BYTES {
            // The buffer grows across timeout retries too, so the cap is
            // checked before every read. Oversized requests cannot be
            // re-framed reliably; report and drop the connection.
            let mut payload = Response::Error {
                code: "bad_request".to_string(),
                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            }
            .to_line();
            payload.push('\n');
            let _ = writer.write_all(payload.as_bytes());
            return;
        }
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            // A complete line that still exceeds the cap loops back into
            // the rejection branch above.
            Ok(_) if line.len() > MAX_LINE_BYTES => continue,
            Ok(_) => {
                // Borrowed from `line` unless it is not valid UTF-8.
                let text = String::from_utf8_lossy(&line);
                if text.trim().is_empty() {
                    drop(text);
                    line.clear();
                    continue;
                }
                last_request = Instant::now();
                // Fault hook: a handler that stalls before servicing its
                // request (pins this connection, ages everything queued
                // behind it on this socket).
                if let Some(delay) = ctx.faults.sleep_for(FaultPoint::StallReader) {
                    std::thread::sleep(delay);
                }
                let (response, stop) = dispatch(&text, ctx);
                drop(text);
                line.clear();
                if stop {
                    // Commit the shutdown *before* attempting the ack:
                    // an accepted shutdown must not be lost because the
                    // requester reset the connection or stalled its
                    // receive path past the write timeout.
                    if let Some(local) = local {
                        trigger_shutdown(ctx, local);
                    } else {
                        ctx.stopping.store(true, Ordering::SeqCst);
                    }
                }
                let mut payload = response.to_line();
                payload.push('\n');
                // Fault hook: sever the connection halfway through the
                // response frame (a crash mid-write, from the client's
                // side of the wire).
                if ctx.faults.fires(FaultPoint::TruncateFrame) {
                    let half = payload.len() / 2;
                    let _ = writer.write_all(&payload.as_bytes()[..half]);
                    let _ = writer.flush();
                    return;
                }
                if writer.write_all(payload.as_bytes()).is_err() || writer.flush().is_err() {
                    return;
                }
                if stop {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if ctx.stopping.load(Ordering::SeqCst) {
                    return;
                }
                // A connection with no complete request for the idle
                // budget is quietly closed: a stalled or abandoned peer
                // should not hold an admission-gate slot forever.
                if let Some(idle) = ctx.idle_timeout {
                    if last_request.elapsed() >= idle {
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Handles one request line; the bool asks the connection to close and
/// trigger server shutdown.
fn dispatch(line: &str, ctx: &Ctx) -> (Response, bool) {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => return (Response::from_error(&e), false),
    };
    match request {
        Request::Classify { model, tuple } => match ctx.batcher.classify(&model, vec![tuple]) {
            Ok(reply) => (
                Response::Classify {
                    label: argmax_class(&reply.distributions),
                    distribution: reply.distributions,
                },
                false,
            ),
            Err(e) => (Response::from_error(&e), false),
        },
        Request::ClassifyBatch { model, tuples } => match ctx.batcher.classify(&model, tuples) {
            Ok(reply) => {
                let k = reply.n_classes.max(1);
                let distributions: Vec<Vec<f64>> =
                    reply.distributions.chunks(k).map(<[f64]>::to_vec).collect();
                let labels = distributions.iter().map(|d| argmax_class(d)).collect();
                (
                    Response::ClassifyBatch {
                        distributions,
                        labels,
                    },
                    false,
                )
            }
            Err(e) => (Response::from_error(&e), false),
        },
        Request::LoadModel { name, path } => {
            // Fault hook: the model file vanished / the disk failed
            // before the registry saw the request. Whatever was serving
            // under `name` keeps serving.
            if ctx.faults.fires(FaultPoint::FailModelLoad) {
                let e = ServeError::Io("injected fault: fail_model_load".to_string());
                return (Response::from_error(&e), false);
            }
            match ctx.registry.load(&name, std::path::Path::new(&path)) {
                Ok(info) => (Response::ModelLoaded(info), false),
                Err(e) => (Response::from_error(&e), false),
            }
        }
        Request::Swap { name, path } => {
            if ctx.faults.fires(FaultPoint::FailModelLoad) {
                let e = ServeError::Io("injected fault: fail_model_load".to_string());
                return (Response::from_error(&e), false);
            }
            match ctx.registry.swap(&name, std::path::Path::new(&path)) {
                Ok(info) => (Response::ModelLoaded(info), false),
                Err(e) => (Response::from_error(&e), false),
            }
        }
        Request::Stats { format } => match format {
            StatsFormat::Json => (
                Response::Stats(StatsReport {
                    uptime_seconds: ctx.metrics.uptime_seconds(),
                    models: ctx.registry.info(),
                    metrics: ctx.metrics.snapshot(),
                    queue: ctx.batcher.queue_stats(),
                    health: ctx.metrics.health_snapshot(),
                }),
                false,
            ),
            StatsFormat::Prometheus => (
                Response::StatsText {
                    text: ctx.metrics.render_prometheus(
                        &ctx.registry.info(),
                        &ctx.batcher.queue_stats(),
                        ctx.metrics.uptime_seconds(),
                    ),
                },
                false,
            ),
        },
        Request::Health => {
            // Liveness is answering at all; readiness is the conjunction
            // an upstream router needs before sending a classify here:
            // something to serve, a scheduler that will admit it, and no
            // drain in progress. Each signal is also reported raw so a
            // probe can say *why* a replica is out.
            let models = ctx.registry.len();
            let accepting = ctx.batcher.is_accepting();
            let draining = ctx.stopping.load(Ordering::SeqCst);
            (
                Response::Health(HealthReport {
                    live: true,
                    ready: models > 0 && accepting && !draining,
                    models,
                    accepting,
                    draining,
                    quarantined: ctx.registry.quarantined(),
                }),
                false,
            )
        }
        Request::Shutdown => (Response::ShuttingDown, true),
    }
}

/// Convenience used by the binary and tests: bind, report the address
/// through `on_bound`, and serve on the current thread until shutdown.
pub fn serve_until_shutdown(
    config: &ServeConfig,
    registry: Arc<ModelRegistry>,
    on_bound: impl FnOnce(SocketAddr),
) -> Result<()> {
    let server = Server::bind(config, registry)?;
    on_bound(server.local_addr());
    server.run()
}

// `ServeError` must be able to cross the reply channels and thread
// boundaries of this module.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeError>();
    assert_send_sync::<ModelRegistry>();
    assert_send_sync::<ServeMetrics>();
};
