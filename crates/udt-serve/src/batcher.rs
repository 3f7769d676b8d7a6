//! The micro-batching scheduler.
//!
//! Classification requests from any number of connection threads enter a
//! **bounded MPSC queue** (a `Mutex<VecDeque>` + two condvars — the
//! environment is std-only) and are drained by a fixed pool of worker
//! threads. Flushing is **greedy**: a worker that picks up a job also
//! takes every job already queued behind it, up to `max_batch_tuples`
//! tuples, and serves the lot at once. It never waits for company, so a
//! lone request is served the moment a worker is free, and coalescing
//! comes only from real backlog — jobs that queued while every worker was
//! busy. The whole micro-batch is classified with **one worker-owned
//! [`BatchScratch`]** that lives as long as the worker — the scratch
//! pool. Steady-state serving therefore performs zero allocation inside
//! the classification engine, exactly the calling convention
//! [`udt_tree::classify_batch`] was built for, and a backlog of
//! single-tuple requests costs one thread wake-up instead of one per
//! request. Every flush is counted (`flushes`, `flushed_jobs` in
//! [`crate::protocol::HealthStats`]), so the mean coalescing is visible.
//!
//! Each job in a flush takes its *own* model snapshot from the registry
//! at execution time (jobs for different models can share a flush), and
//! tuples are never reordered within a job, so replies are bit-for-bit
//! what a direct `classify_batch` call would have produced.
//!
//! The worker loops run as long-lived tasks on a dedicated
//! [`udt_tree::WorkerPool`] — the same execution substrate the tree
//! builder uses — so the serving layer manages no raw `JoinHandle`s of
//! its own.
//!
//! Shutdown is graceful: [`Batcher::shutdown`] closes the queue to new
//! submissions, lets the workers drain every job already accepted, and
//! joins them (by dropping the pool) — no in-flight request is dropped.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use udt_data::{Tuple, UncertainValue};
use udt_tree::{classify_batch, BatchScratch, NodeKind, WorkerPool};

use crate::error::ServeError;
use crate::faults::{FaultInjector, FaultPoint};
use crate::metrics::ServeMetrics;
use crate::protocol::QueueStats;
use crate::registry::{ModelRegistry, ServedModel};
use crate::Result;

/// What `classify` does when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Block the submitter until a slot frees (backpressure). With a
    /// request deadline configured the wait is bounded by it; past the
    /// deadline the request is rejected as overloaded.
    #[default]
    Block,
    /// Reject immediately with [`ServeError::Overloaded`] (load
    /// shedding) — the submitter never waits.
    Shed,
}

impl QueuePolicy {
    /// The config-grammar name (`block` / `shed`).
    pub fn name(&self) -> &'static str {
        match self {
            QueuePolicy::Block => "block",
            QueuePolicy::Shed => "shed",
        }
    }
}

impl std::str::FromStr for QueuePolicy {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<QueuePolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "block" => Ok(QueuePolicy::Block),
            "shed" => Ok(QueuePolicy::Shed),
            other => Err(ServeError::Config(format!(
                "queue policy must be `block` or `shed`, got `{other}`"
            ))),
        }
    }
}

/// Scheduler tuning knobs (see [`crate::ServeConfig`] for the CLI
/// surface and defaults).
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads draining the queue (each owns one scratch).
    pub workers: usize,
    /// Cap on the tuples of one flush. A flush stops before a queued job
    /// that would take it past the cap, unless the flush is still empty
    /// (a single larger job is served alone).
    pub max_batch_tuples: usize,
    /// Inert: the scheduler never reads it, and it defaults to zero —
    /// flushes no longer wait for company. It stays only because the
    /// benchmark's run stamp reads `BatchOptions::default().max_delay`;
    /// a later benchmark change drops it from the stamp and then from
    /// this struct.
    pub max_delay: Duration,
    /// Bounded queue capacity in jobs; what happens when it is full is
    /// `queue_policy`'s call.
    pub queue_capacity: usize,
    /// Admission behaviour at capacity: block (backpressure) or shed.
    pub queue_policy: QueuePolicy,
    /// End-to-end budget for a request. Bounds the submit wait under
    /// [`QueuePolicy::Block`], and a job that has already exceeded it
    /// when a worker dequeues it is dropped with
    /// [`ServeError::DeadlineExceeded`] instead of being classified.
    /// `None` disables both.
    pub request_deadline: Option<Duration>,
    /// Fault-injection hooks (disabled injector in production).
    pub faults: Arc<FaultInjector>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 2,
            max_batch_tuples: 64,
            max_delay: Duration::ZERO,
            queue_capacity: 1024,
            queue_policy: QueuePolicy::Block,
            request_deadline: None,
            faults: FaultInjector::disabled(),
        }
    }
}

/// The metrics bucket that absorbs requests for unregistered model
/// names (one bucket, not one per client-supplied string — see
/// `serve_flush`).
pub const UNKNOWN_MODEL_BUCKET: &str = "(unknown-model)";

/// The result of one classification job: row-major distributions plus
/// the class count needed to slice them.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReply {
    /// `tuples × n_classes` row-major class distributions.
    pub distributions: Vec<f64>,
    /// Stride of `distributions`.
    pub n_classes: usize,
}

struct Job {
    model: String,
    tuples: Vec<Tuple>,
    enqueued: Instant,
    reply: mpsc::SyncSender<Result<BatchReply>>,
}

struct State {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is pushed or the queue closes.
    not_empty: Condvar,
    /// Signalled when a job is popped or the queue closes.
    not_full: Condvar,
}

impl Shared {
    /// Locks the queue, recovering from poison. Worker panics are caught
    /// per job *outside* this lock, so poison here would mean a panic in
    /// the queue plumbing itself — the jobs are still consistent (every
    /// mutation is a single push/pop), and one wedged submitter must not
    /// take the whole server down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    fn wait_timeout<'a>(
        &self,
        cv: &Condvar,
        guard: MutexGuard<'a, State>,
        dur: Duration,
    ) -> (MutexGuard<'a, State>, bool) {
        match cv.wait_timeout(guard, dur) {
            Ok((g, t)) => (g, t.timed_out()),
            Err(e) => {
                let (g, t) = e.into_inner();
                (g, t.timed_out())
            }
        }
    }
}

/// The micro-batching scheduler: bounded queue + worker pool.
pub struct Batcher {
    shared: Arc<Shared>,
    options: BatchOptions,
    /// For recording admission failures (sheds) at the submit path; the
    /// workers hold their own clone for the serving-side counters.
    metrics: Arc<ServeMetrics>,
    /// Worker loops actually running (the pool may have spawned fewer
    /// threads than requested under resource pressure); this is what
    /// `queue_stats` reports.
    workers: usize,
    /// The dedicated worker pool whose threads run the batch loops.
    /// Taken (and thereby joined) by [`Batcher::shutdown`].
    pool: Mutex<Option<WorkerPool>>,
}

impl Batcher {
    /// Starts `options.workers` worker threads serving models from
    /// `registry`, recording into `metrics`. Each worker loop runs as a
    /// long-lived task on a dedicated [`WorkerPool`] sized to exactly
    /// the worker count.
    ///
    /// # Panics
    ///
    /// Panics if not a single worker thread could be spawned — a
    /// batcher with no workers would accept requests and never answer
    /// them. A *partial* spawn failure degrades to the threads that did
    /// start (the pool logs it), and only that many loops are queued so
    /// none sits queued forever behind the others.
    pub fn start(
        registry: Arc<ModelRegistry>,
        metrics: Arc<ServeMetrics>,
        options: BatchOptions,
    ) -> Batcher {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let pool = WorkerPool::named(options.workers.max(1), "udt-serve-worker");
        let workers = pool.workers();
        assert!(
            workers > 0,
            "udt-serve: could not spawn any batch worker thread"
        );
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let options = options.clone();
            pool.spawn(move || worker_loop(&shared, &registry, &metrics, &options));
        }
        Batcher {
            shared,
            options,
            metrics,
            workers,
            pool: Mutex::new(Some(pool)),
        }
    }

    /// Classifies `tuples` with the named model, blocking until a worker
    /// has served the micro-batch containing this job.
    ///
    /// Admission at a full queue follows the configured policy:
    /// [`QueuePolicy::Shed`] rejects immediately with
    /// [`ServeError::Overloaded`]; [`QueuePolicy::Block`] waits for a
    /// slot — indefinitely without a request deadline, otherwise at most
    /// the deadline before the request is shed as overloaded too. Both
    /// rejections count in the `sheds` health counter.
    pub fn classify(&self, model: &str, tuples: Vec<Tuple>) -> Result<BatchReply> {
        let (tx, rx) = mpsc::sync_channel(1);
        let enqueued = Instant::now();
        let job = Job {
            model: model.to_string(),
            tuples,
            enqueued,
            reply: tx,
        };
        {
            let mut st = self.shared.lock();
            loop {
                if !st.open {
                    return Err(ServeError::QueueClosed);
                }
                if st.jobs.len() < self.options.queue_capacity {
                    break;
                }
                match (self.options.queue_policy, self.options.request_deadline) {
                    (QueuePolicy::Shed, _) => {
                        drop(st);
                        self.metrics.record_shed();
                        return Err(ServeError::Overloaded);
                    }
                    (QueuePolicy::Block, None) => {
                        st = self.shared.wait(&self.shared.not_full, st);
                    }
                    (QueuePolicy::Block, Some(deadline)) => {
                        let Some(remaining) = deadline.checked_sub(enqueued.elapsed()) else {
                            drop(st);
                            self.metrics.record_shed();
                            return Err(ServeError::Overloaded);
                        };
                        let (guard, _timed_out) =
                            self.shared
                                .wait_timeout(&self.shared.not_full, st, remaining);
                        st = guard;
                    }
                }
            }
            st.jobs.push_back(job);
            self.shared.not_empty.notify_one();
        }
        rx.recv().map_err(|_| ServeError::QueueClosed)?
    }

    /// Whether the queue is open to new submissions — the scheduler's
    /// contribution to the `health` readiness signal. `false` once
    /// [`Batcher::shutdown`] has begun (already-accepted jobs still
    /// drain).
    pub fn is_accepting(&self) -> bool {
        self.shared.lock().open
    }

    /// Current queue occupancy and configuration, for `stats`.
    pub fn queue_stats(&self) -> QueueStats {
        let depth = self.shared.lock().jobs.len();
        QueueStats {
            workers: self.workers,
            capacity: self.options.queue_capacity,
            depth,
            max_batch_tuples: self.options.max_batch_tuples,
            policy: self.options.queue_policy.name().to_string(),
            deadline_ms: self
                .options
                .request_deadline
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
        }
    }

    /// Closes the queue to new submissions, drains every accepted job and
    /// joins the workers (dropping the dedicated pool joins its threads
    /// once their loops return). Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.lock();
            st.open = false;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        let pool = self.pool.lock().unwrap_or_else(|e| e.into_inner()).take();
        drop(pool);
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: wait for a seed job, take every job already queued
/// behind it up to the tuple cap, serve the flush with the worker-owned
/// scratch, repeat. Exits when the queue is closed *and* empty.
fn worker_loop(
    shared: &Shared,
    registry: &ModelRegistry,
    metrics: &ServeMetrics,
    options: &BatchOptions,
) {
    let mut scratch = BatchScratch::new();
    loop {
        let mut flush: Vec<Job> = Vec::new();
        {
            let mut st = shared.lock();
            // Wait for a seed job (or a closed, drained queue).
            let seed = loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if !st.open {
                    return;
                }
                st = shared.wait(&shared.not_empty, st);
            };
            let mut total = seed.tuples.len();
            flush.push(seed);
            shared.not_full.notify_one();
            // Greedy drain: whatever queued while the workers were busy
            // rides along, up to the cap. Nothing waits for company.
            while let Some(next) = st.jobs.front() {
                if total + next.tuples.len() > options.max_batch_tuples {
                    break;
                }
                total += next.tuples.len();
                flush.extend(st.jobs.pop_front());
                shared.not_full.notify_one();
            }
        }
        metrics.record_flush(flush.len());
        // Fault hook: a slow worker (CPU contention, paging) — makes the
        // queue grow and request deadlines expire. Injected with no lock
        // held, after the flush is popped, so the waiting jobs age.
        if let Some(delay) = options.faults.sleep_for(FaultPoint::DelayInWorker) {
            std::thread::sleep(delay);
        }
        serve_flush(flush, registry, metrics, options, &mut scratch);
    }
}

/// Refuses wire input the engine would answer confidently but wrongly,
/// checked against the very snapshot that would classify it, so a hot
/// swap to a model of another shape cannot slip past the check.
/// `classify_batch` reads missing trailing attributes and values of the
/// wrong kind as unknown, and a categorical split only routes the
/// categories it has children for, so a wrong arity, a numeric value at
/// a categorical split (or the reverse) or a categorical value over a
/// different domain would otherwise get a renormalised answer.
fn check_shape(model: &ServedModel, name: &str, tuples: &[Tuple]) -> Result<()> {
    let expected = model.tree().n_attributes();
    for (i, tuple) in tuples.iter().enumerate() {
        if tuple.arity() != expected {
            return Err(ServeError::Protocol(format!(
                "tuple {i} has {} attributes but model `{name}` expects {expected}",
                tuple.arity()
            )));
        }
        for (attribute, value) in tuple.values().iter().enumerate() {
            let wanted = match model.split_kind(attribute) {
                Some(NodeKind::Split) => "numeric",
                Some(NodeKind::CategoricalSplit) => "categorical",
                Some(NodeKind::Leaf) | None => continue,
            };
            let given = match value {
                UncertainValue::Numeric(_) => "numeric",
                UncertainValue::Categorical(_) => "categorical",
            };
            if given != wanted {
                return Err(ServeError::Protocol(format!(
                    "tuple {i} attribute {attribute} is {given} but model `{name}` \
                     splits it as {wanted}"
                )));
            }
        }
        for &(attribute, categories) in model.categorical_domains() {
            let Some(value) = tuple.value(attribute).as_categorical() else {
                continue;
            };
            if value.cardinality() != categories {
                return Err(ServeError::Protocol(format!(
                    "tuple {i} attribute {attribute} has {} categories but model `{name}` \
                     splits it into {categories}",
                    value.cardinality()
                )));
            }
        }
    }
    Ok(())
}

/// Renders a panic payload for the structured error (panics carry
/// `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Classifies every job of one flush. Jobs take their model snapshots
/// here — after coalescing — so a hot swap that lands between enqueue
/// and flush is honoured, and consecutive jobs for the same model reuse
/// one snapshot.
fn serve_flush(
    flush: Vec<Job>,
    registry: &ModelRegistry,
    metrics: &ServeMetrics,
    options: &BatchOptions,
    scratch: &mut BatchScratch,
) {
    let mut snapshot: Option<(String, Arc<ServedModel>)> = None;
    for job in flush {
        let waited = job.enqueued.elapsed();
        metrics.record_queue_wait(waited);
        // A job that already blew its budget in the queue is dropped
        // here, unclassified: the client stopped waiting for the answer,
        // so computing it would only steal worker time from requests
        // that can still make their deadlines.
        if let Some(deadline) = options.request_deadline {
            if waited > deadline {
                metrics.record_deadline_drop();
                let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
                continue;
            }
        }
        let model = match &snapshot {
            Some((name, model)) if *name == job.model => Ok(Arc::clone(model)),
            _ => registry.served(&job.model),
        };
        let outcome = model.and_then(|model| {
            snapshot = Some((job.model.clone(), Arc::clone(&model)));
            check_shape(&model, &job.model, &job.tuples)?;
            let tree = model.tree();
            // The panic boundary is per *job*, not per flush: one
            // poisoned request must not take down its batch companions.
            // The queue lock is never held here, so a panic cannot
            // poison it. `AssertUnwindSafe` is sound because the only
            // state crossing the boundary — the scratch — is rebuilt
            // from scratch on the panic path.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                if options.faults.fires(FaultPoint::PanicInWorker) {
                    panic!("injected fault: panic_in_worker");
                }
                let distributions = classify_batch(tree, &job.tuples, scratch)?;
                Ok(BatchReply {
                    distributions,
                    n_classes: tree.n_classes(),
                })
            }));
            match attempt {
                Ok(outcome) => outcome,
                Err(payload) => {
                    *scratch = BatchScratch::new();
                    metrics.record_worker_panic();
                    Err(ServeError::WorkerPanic(panic_message(payload.as_ref())))
                }
            }
        });
        match &outcome {
            Ok(reply) => {
                let served = reply.distributions.len() / reply.n_classes.max(1);
                metrics.record(&job.model, served, job.enqueued.elapsed());
            }
            // Requests for names the registry does not hold share one
            // fixed bucket: keying metrics by arbitrary client-supplied
            // strings would let a misbehaving client grow the metrics
            // map (and every stats response) without bound.
            Err(ServeError::UnknownModel(_)) => metrics.record_error(UNKNOWN_MODEL_BUCKET),
            Err(_) => metrics.record_error(&job.model),
        }
        // A client that gave up (dropped receiver) is not an error.
        let _ = job.reply.send(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_data::toy;
    use udt_tree::{Algorithm, TreeBuilder, UdtConfig};

    fn registry_with_toy() -> Arc<ModelRegistry> {
        let tree = TreeBuilder::new(
            UdtConfig::new(Algorithm::UdtEs)
                .with_postprune(false)
                .with_min_node_weight(0.0),
        )
        .build(&toy::table1_dataset().unwrap())
        .unwrap()
        .tree;
        let reg = Arc::new(ModelRegistry::new());
        reg.insert_tree("toy", tree).unwrap();
        reg
    }

    fn batcher(reg: &Arc<ModelRegistry>, options: BatchOptions) -> (Batcher, Arc<ServeMetrics>) {
        let metrics = Arc::new(ServeMetrics::new());
        (
            Batcher::start(Arc::clone(reg), Arc::clone(&metrics), options),
            metrics,
        )
    }

    #[test]
    fn batched_replies_match_direct_classification() {
        let reg = registry_with_toy();
        let (batcher, metrics) = batcher(&reg, BatchOptions::default());
        let data = toy::table1_dataset().unwrap();
        let tree = reg.get("toy").unwrap();
        let mut scratch = BatchScratch::new();
        let direct = classify_batch(&tree, data.tuples(), &mut scratch).unwrap();

        let reply = batcher.classify("toy", data.tuples().to_vec()).unwrap();
        assert_eq!(reply.n_classes, 2);
        assert_eq!(reply.distributions.len(), direct.len());
        for (a, b) in reply.distributions.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].requests, 1);
        assert_eq!(snap[0].tuples, data.len() as u64);
        batcher.shutdown();
    }

    /// Polls `done` until it holds; panics with `what` if `give_up`
    /// holds first.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool, give_up: impl Fn() -> bool) {
        while !done() {
            assert!(!give_up(), "gave up waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_backlog_is_served_in_the_fewest_flushes_the_cap_allows() {
        const CAP: usize = 4;
        // Tuple counts of the ten jobs that queue, in this order, behind
        // a held one: 14 tuples. Packed in order under the cap they take
        // at least ceil(14 / 4) = 4 flushes, and greedy packing reaches
        // that: [1 1 1] [3 1] [1 1 1] [3 1]. A flush that took the
        // 3-tuple job while still under the cap would overshoot it.
        const SIZES: [usize; 10] = [1, 1, 1, 3, 1, 1, 1, 1, 3, 1];
        let reg = registry_with_toy();
        // One worker, held inside its first flush by an injected delay.
        let plan = crate::faults::FaultPlan::parse("delay_in_worker:nth=1:1000ms", 0).unwrap();
        let faults = FaultInjector::from_plan(&plan);
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                workers: 1,
                max_batch_tuples: CAP,
                faults: Arc::clone(&faults),
                ..BatchOptions::default()
            },
        );
        let table = toy::table1_dataset().unwrap();
        let jobs: Vec<Vec<Tuple>> = SIZES
            .iter()
            .enumerate()
            .map(|(j, &size)| {
                (0..size)
                    .map(|k| table.tuples()[(j + k) % table.len()].clone())
                    .collect()
            })
            .collect();
        let tree = reg.get("toy").unwrap();
        let mut scratch = BatchScratch::new();

        std::thread::scope(|scope| {
            let batcher = &batcher;
            let held = scope.spawn(|| batcher.classify("toy", jobs[0][..1].to_vec()));
            wait_until(
                "the worker to take the held job",
                || faults.counts()[0].fired == 1,
                || held.is_finished(),
            );
            // One submitter at a time, so the queue order is SIZES'
            // order. Depth j + 1 is only ever observed while the worker
            // is held: once released it drains, and the queue can no
            // longer reach the full backlog.
            let handles: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(j, job)| {
                    let handle = scope.spawn(move || batcher.classify("toy", job.clone()));
                    wait_until(
                        &format!("job {j} to queue behind the held worker"),
                        || batcher.queue_stats().depth == j + 1,
                        || held.is_finished(),
                    );
                    handle
                })
                .collect();
            held.join().unwrap().unwrap();
            for (j, handle) in handles.into_iter().enumerate() {
                let reply = handle.join().unwrap().unwrap();
                let direct = classify_batch(&tree, &jobs[j], &mut scratch).unwrap();
                assert_eq!(reply.distributions.len(), direct.len());
                for (a, b) in reply.distributions.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits(), "job {j}");
                }
            }
        });
        let health = metrics.health_snapshot();
        assert_eq!(health.flushes, 1 + 4, "the held flush, then the backlog");
        assert_eq!(health.flushed_jobs, 1 + SIZES.len() as u64);

        // A single job over the cap is still served, alone.
        assert!(table.len() > CAP);
        let reply = batcher.classify("toy", table.tuples().to_vec()).unwrap();
        assert_eq!(reply.distributions.len(), table.len() * tree.n_classes());
        let health = metrics.health_snapshot();
        assert_eq!(health.flushes, 1 + 4 + 1);
        assert_eq!(health.flushed_jobs, 1 + SIZES.len() as u64 + 1);
        batcher.shutdown();
    }

    #[test]
    fn sequential_requests_on_an_idle_batcher_flush_one_job_each() {
        const S: u64 = 25;
        let reg = registry_with_toy();
        let (batcher, metrics) = batcher(&reg, BatchOptions::default());
        let t = toy::fig1_test_tuple().unwrap();
        for _ in 0..S {
            batcher.classify("toy", vec![t.clone()]).unwrap();
        }
        // Flushes are counted before they are served, so every reply
        // above was preceded by its own flush record.
        let health = metrics.health_snapshot();
        assert_eq!(health.flushes, S);
        assert_eq!(health.flushed_jobs, S);
        batcher.shutdown();
    }

    #[test]
    fn unknown_models_error_without_poisoning_the_worker() {
        let reg = registry_with_toy();
        let (batcher, metrics) = batcher(&reg, BatchOptions::default());
        let t = toy::fig1_test_tuple().unwrap();
        assert!(matches!(
            batcher.classify("nope", vec![t.clone()]),
            Err(ServeError::UnknownModel(_))
        ));
        // The worker is still alive and serving.
        assert!(batcher.classify("toy", vec![t]).is_ok());
        // The bogus name lands in the shared unknown-model bucket, not a
        // per-name entry a client could grow without bound.
        let snap = metrics.snapshot();
        assert_eq!(snap.iter().map(|s| s.errors).sum::<u64>(), 1);
        let unknown = snap
            .iter()
            .find(|s| s.model == UNKNOWN_MODEL_BUCKET)
            .expect("unknown-model bucket exists");
        assert_eq!(unknown.errors, 1);
        assert!(snap.iter().all(|s| s.model != "nope"));
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs_and_rejects_new_ones() {
        let reg = registry_with_toy();
        let (batcher, _) = batcher(&reg, BatchOptions::default());
        let t = toy::fig1_test_tuple().unwrap();
        assert!(batcher.classify("toy", vec![t.clone()]).is_ok());
        batcher.shutdown();
        assert!(matches!(
            batcher.classify("toy", vec![t]),
            Err(ServeError::QueueClosed)
        ));
        // Idempotent.
        batcher.shutdown();
    }

    #[test]
    fn non_finite_models_are_rejected_before_they_can_serve() {
        // A model whose arena smuggles in an inf/NaN would panic the
        // argmax in serving threads; the registry's load-time validation
        // must refuse it instead (see FlatTree::validate).
        let reg = registry_with_toy();
        let tree = reg.get("toy").unwrap();
        let json = udt_tree::persist::to_json(&tree).unwrap();
        let evil = json.replacen("\"dists\":[", "\"dists\":[1e999,", 1);
        assert_ne!(evil, json);
        let path = std::env::temp_dir().join("udt-serve-evil-model.json");
        std::fs::write(&path, evil).unwrap();
        let err = reg.swap("evil", path.as_path()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "got: {err}");
        assert!(reg.get("evil").is_err(), "nothing was registered");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_tuple_lists_are_served() {
        let reg = registry_with_toy();
        let (batcher, _) = batcher(&reg, BatchOptions::default());
        let reply = batcher.classify("toy", Vec::new()).unwrap();
        assert!(reply.distributions.is_empty());
        assert_eq!(reply.n_classes, 2);
        batcher.shutdown();
    }

    #[test]
    fn queue_policy_parses_and_garbage_is_a_config_error() {
        assert_eq!("block".parse::<QueuePolicy>().unwrap(), QueuePolicy::Block);
        assert_eq!(" Shed ".parse::<QueuePolicy>().unwrap(), QueuePolicy::Shed);
        assert!(matches!(
            "drop".parse::<QueuePolicy>(),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn shed_policy_rejects_at_capacity_and_counts_the_shed() {
        let reg = registry_with_toy();
        // Capacity 0 makes every submission find a full queue — the
        // deterministic way to exercise the admission path.
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                queue_capacity: 0,
                queue_policy: QueuePolicy::Shed,
                ..BatchOptions::default()
            },
        );
        let t = toy::fig1_test_tuple().unwrap();
        assert!(matches!(
            batcher.classify("toy", vec![t.clone()]),
            Err(ServeError::Overloaded)
        ));
        assert!(matches!(
            batcher.classify("toy", vec![t]),
            Err(ServeError::Overloaded)
        ));
        let health = metrics.health_snapshot();
        assert_eq!(health.sheds, 2);
        assert_eq!(health.deadline_drops, 0);
        let stats = batcher.queue_stats();
        assert_eq!(stats.policy, "shed");
        assert_eq!(stats.deadline_ms, 0);
        batcher.shutdown();
    }

    #[test]
    fn blocked_submitters_are_shed_once_the_deadline_passes() {
        let reg = registry_with_toy();
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                queue_capacity: 0,
                queue_policy: QueuePolicy::Block,
                request_deadline: Some(Duration::from_millis(5)),
                ..BatchOptions::default()
            },
        );
        let t = toy::fig1_test_tuple().unwrap();
        let start = Instant::now();
        assert!(matches!(
            batcher.classify("toy", vec![t]),
            Err(ServeError::Overloaded)
        ));
        assert!(
            start.elapsed() >= Duration::from_millis(5),
            "the submit wait is bounded, not skipped"
        );
        assert_eq!(metrics.health_snapshot().sheds, 1);
        let stats = batcher.queue_stats();
        assert_eq!(stats.policy, "block");
        assert_eq!(stats.deadline_ms, 5);
        batcher.shutdown();
    }

    #[test]
    fn expired_jobs_are_dropped_at_dequeue_not_classified() {
        let reg = registry_with_toy();
        // Every flush sleeps 30 ms before serving (injected), and the
        // request budget is 1 ms — the job is guaranteed to be expired
        // by the time a worker looks at it.
        let plan = crate::faults::FaultPlan::parse("delay_in_worker:always:30ms", 0).unwrap();
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                workers: 1,
                request_deadline: Some(Duration::from_millis(1)),
                faults: FaultInjector::from_plan(&plan),
                ..BatchOptions::default()
            },
        );
        let t = toy::fig1_test_tuple().unwrap();
        assert!(matches!(
            batcher.classify("toy", vec![t]),
            Err(ServeError::DeadlineExceeded)
        ));
        let health = metrics.health_snapshot();
        assert_eq!(health.deadline_drops, 1);
        assert_eq!(health.queue_wait_count, 1, "queue wait is still recorded");
        // No model metrics: the job was never classified.
        assert!(metrics.snapshot().iter().all(|s| s.requests == 0));
        batcher.shutdown();
    }

    #[test]
    fn worker_panics_are_isolated_per_job_and_the_pool_survives() {
        let reg = registry_with_toy();
        let plan = crate::faults::FaultPlan::parse("panic_in_worker:nth=1", 0).unwrap();
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                workers: 1,
                faults: FaultInjector::from_plan(&plan),
                ..BatchOptions::default()
            },
        );
        let data = toy::table1_dataset().unwrap();
        let t = toy::fig1_test_tuple().unwrap();
        // First job hits the injected panic and gets a structured error.
        let err = batcher.classify("toy", vec![t.clone()]).unwrap_err();
        assert!(matches!(&err, ServeError::WorkerPanic(m) if m.contains("injected")));
        assert_eq!(err.code(), "internal");
        // The same worker (there is only one) keeps serving, and its
        // recreated scratch still produces bit-for-bit correct answers.
        let tree = reg.get("toy").unwrap();
        let mut scratch = BatchScratch::new();
        let direct = classify_batch(&tree, data.tuples(), &mut scratch).unwrap();
        let reply = batcher.classify("toy", data.tuples().to_vec()).unwrap();
        for (a, b) in reply.distributions.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let health = metrics.health_snapshot();
        assert_eq!(health.worker_panics, 1);
        batcher.shutdown();
    }
}
