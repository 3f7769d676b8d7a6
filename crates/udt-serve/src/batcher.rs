//! The classification gate.
//!
//! Classification runs on the thread that asks for it (a connection
//! thread of the server); the [`Batcher`] only decides *when*. It owns no
//! threads. It is a gate with `workers` **slots**, each owning one
//! long-lived [`BatchScratch`], so steady-state serving performs no
//! allocation inside the classification engine, which is the calling
//! convention [`udt_tree::classify_batch`] was built for. A caller takes
//! a free slot, classifies its request and hands the slot on. With no
//! slot free it joins a FIFO line of waiters, and a released slot goes
//! straight to the longest waiter: the scratch travels through that
//! waiter's own one-message channel, so each hand-off wakes exactly one
//! thread. An uncontended request takes the gate's lock twice and wakes
//! no other thread at all.
//!
//! Each request takes its *own* model snapshot from the registry once it
//! holds a slot, and its tuples are never reordered, so replies are
//! bit-for-bit what a direct `classify_batch` call would have produced.
//!
//! [`Batcher::shutdown`] only closes admission: callers already admitted
//! finish on their own threads, and the server bounds how long it waits
//! for them with its drain deadline.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use udt_data::{Tuple, UncertainValue};
use udt_tree::{classify_batch, BatchScratch, NodeKind};

use crate::error::ServeError;
use crate::faults::{FaultInjector, FaultPoint};
use crate::metrics::ServeMetrics;
use crate::protocol::QueueStats;
use crate::registry::{ModelRegistry, ServedModel};
use crate::Result;

/// What `classify` does when the line of waiting callers is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Block the caller until the line has room (backpressure). With a
    /// request deadline configured the wait is bounded by it; past the
    /// deadline the request is rejected as overloaded.
    #[default]
    Block,
    /// Reject immediately with [`ServeError::Overloaded`] (load
    /// shedding) — the caller never waits.
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

/// Gate tuning knobs (see [`crate::ServeConfig`] for the CLI surface and
/// defaults).
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Classification slots: at most this many requests classify at once,
    /// each with its slot's scratch.
    pub workers: usize,
    /// Inert: the gate never reads it. It stays only because the
    /// benchmark's run stamp reads `BatchOptions::default().max_batch_tuples`;
    /// a later benchmark change drops it from the stamp and then from
    /// this struct.
    pub max_batch_tuples: usize,
    /// Inert, and zero by default, for the same reason as
    /// `max_batch_tuples`: the run stamp reads
    /// `BatchOptions::default().max_delay`.
    pub max_delay: Duration,
    /// How many callers may wait for a slot; what happens to the next one
    /// is `queue_policy`'s call. A caller is admitted only while fewer
    /// than this many wait, even when a slot is free, so a capacity of 0
    /// admits no one.
    pub queue_capacity: usize,
    /// Admission behaviour at capacity: block (backpressure) or shed.
    pub queue_policy: QueuePolicy,
    /// End-to-end budget for a request. Bounds the admission wait under
    /// [`QueuePolicy::Block`], and a request that has already exceeded it
    /// when it gets a slot is answered [`ServeError::DeadlineExceeded`]
    /// instead of being classified. `None` disables both.
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
/// [`Batcher::classify`]).
pub const UNKNOWN_MODEL_BUCKET: &str = "(unknown-model)";

/// The result of one classification request: row-major distributions
/// plus the class count needed to slice them.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReply {
    /// `tuples × n_classes` row-major class distributions.
    pub distributions: Vec<f64>,
    /// Stride of `distributions`.
    pub n_classes: usize,
}

/// The slots and the callers waiting for one.
struct Gate {
    /// The scratches of the free slots.
    free: Vec<BatchScratch>,
    /// Callers waiting for a slot, longest first. Each receives its slot's
    /// scratch through its own channel.
    line: VecDeque<mpsc::SyncSender<BatchScratch>>,
    /// Callers blocked at admission because the line is full.
    blocked: usize,
    open: bool,
}

/// The classification gate: `workers` slots and a FIFO line of callers
/// waiting for one.
pub struct Batcher {
    gate: Mutex<Gate>,
    /// Wakes one caller blocked at admission when a waiter leaves the
    /// line, and all of them at shutdown.
    room: Condvar,
    registry: Arc<ModelRegistry>,
    metrics: Arc<ServeMetrics>,
    options: BatchOptions,
}

/// A slot held by one caller. Dropping it hands the slot on, on every
/// path out of [`Batcher::classify`], unwinding included.
struct Slot<'a> {
    batcher: &'a Batcher,
    scratch: BatchScratch,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.batcher.release(std::mem::take(&mut self.scratch));
    }
}

impl Batcher {
    /// Opens a gate of `options.workers` slots (at least one) serving
    /// models from `registry`, recording into `metrics`.
    pub fn start(
        registry: Arc<ModelRegistry>,
        metrics: Arc<ServeMetrics>,
        options: BatchOptions,
    ) -> Batcher {
        let slots = options.workers.max(1);
        Batcher {
            gate: Mutex::new(Gate {
                free: (0..slots).map(|_| BatchScratch::new()).collect(),
                line: VecDeque::new(),
                blocked: 0,
                open: true,
            }),
            room: Condvar::new(),
            registry,
            metrics,
            options,
        }
    }

    /// Classifies `tuples` with the named model on the calling thread,
    /// once a slot is free.
    ///
    /// Admission with a full line follows the configured policy:
    /// [`QueuePolicy::Shed`] rejects immediately with
    /// [`ServeError::Overloaded`]; [`QueuePolicy::Block`] waits for room
    /// — indefinitely without a request deadline, otherwise at most the
    /// deadline before the request is shed as overloaded too. Both
    /// rejections count in the `sheds` health counter. Requests for names
    /// the registry does not hold count their errors in one shared
    /// [`UNKNOWN_MODEL_BUCKET`]: keying metrics by arbitrary
    /// client-supplied strings would let a client grow the metrics map
    /// (and every stats response) without bound.
    pub fn classify(&self, model: &str, tuples: Vec<Tuple>) -> Result<BatchReply> {
        let arrived = Instant::now();
        let mut slot = self.acquire(arrived)?;
        // Fault hook: a slow classification (CPU contention, paging). It
        // holds the slot, so the line grows and deadlines expire, and it
        // counts toward this request's own wait.
        if let Some(delay) = self.options.faults.sleep_for(FaultPoint::DelayInWorker) {
            std::thread::sleep(delay);
        }
        let waited = arrived.elapsed();
        self.metrics.record_queue_wait(waited);
        // A request that already blew its budget is dropped unclassified:
        // the client stopped waiting for the answer, so computing it would
        // only take the slot from requests that can still make theirs.
        if self.options.request_deadline.is_some_and(|d| waited > d) {
            drop(slot);
            self.metrics.record_deadline_drop();
            return Err(ServeError::DeadlineExceeded);
        }
        let outcome = self.serve(model, &tuples, &mut slot.scratch);
        drop(slot);
        match &outcome {
            Ok(reply) => {
                let served = reply.distributions.len() / reply.n_classes.max(1);
                self.metrics.record(model, served, arrived.elapsed());
            }
            Err(ServeError::UnknownModel(_)) => self.metrics.record_error(UNKNOWN_MODEL_BUCKET),
            Err(_) => self.metrics.record_error(model),
        }
        outcome
    }

    /// Whether the gate admits new requests — its contribution to the
    /// `health` readiness signal. `false` once [`Batcher::shutdown`] has
    /// run (admitted callers still finish).
    pub fn is_accepting(&self) -> bool {
        self.lock().open
    }

    /// Current occupancy and configuration, for `stats`.
    pub fn queue_stats(&self) -> QueueStats {
        let depth = self.lock().line.len();
        QueueStats {
            workers: self.options.workers.max(1),
            capacity: self.options.queue_capacity,
            depth,
            policy: self.options.queue_policy.name().to_string(),
            deadline_ms: self
                .options
                .request_deadline
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
        }
    }

    /// Closes admission: later requests get [`ServeError::QueueClosed`],
    /// and so do callers blocked waiting for room in the line. Callers
    /// already in the line still get their slots. Idempotent.
    pub fn shutdown(&self) {
        self.lock().open = false;
        self.room.notify_all();
    }

    /// Locks the gate, recovering from poison: every critical section is
    /// a few pushes and pops that leave the gate consistent, and one
    /// wedged caller must not take the whole server down with it.
    fn lock(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits the caller and takes a slot: a free one, or the next one
    /// released once every caller ahead of it in the line has had one.
    fn acquire(&self, arrived: Instant) -> Result<Slot<'_>> {
        let mut gate = self.lock();
        loop {
            if !gate.open {
                return Err(ServeError::QueueClosed);
            }
            if gate.line.len() < self.options.queue_capacity {
                break;
            }
            // `Some(None)`: the deadline has passed.
            let remaining = self
                .options
                .request_deadline
                .map(|deadline| deadline.checked_sub(arrived.elapsed()));
            if self.options.queue_policy == QueuePolicy::Shed || remaining == Some(None) {
                drop(gate);
                self.metrics.record_shed();
                return Err(ServeError::Overloaded);
            }
            gate.blocked += 1;
            gate = match remaining.flatten() {
                None => self.room.wait(gate).unwrap_or_else(|e| e.into_inner()),
                Some(timeout) => match self.room.wait_timeout(gate, timeout) {
                    Ok((gate, _)) => gate,
                    Err(e) => e.into_inner().0,
                },
            };
            gate.blocked -= 1;
        }
        let ready = gate.free.pop().ok_or_else(|| {
            let (tx, rx) = mpsc::sync_channel(1);
            gate.line.push_back(tx);
            rx
        });
        // Room in the line wakes one blocked caller. One that takes a free
        // slot instead leaves the room unused, so the wake-up is passed on:
        // otherwise the next blocked caller could sleep while the line has
        // room and slots keep freeing.
        if gate.blocked > 0 && gate.line.len() < self.options.queue_capacity {
            self.room.notify_one();
        }
        drop(gate);
        let scratch = match ready {
            Ok(scratch) => scratch,
            // A waiter leaves the line only by being sent a slot.
            Err(rx) => rx.recv().map_err(|_| ServeError::QueueClosed)?,
        };
        Ok(Slot {
            batcher: self,
            scratch,
        })
    }

    /// Hands a slot to the longest waiter, or frees it when no one waits.
    fn release(&self, mut scratch: BatchScratch) {
        loop {
            let mut gate = self.lock();
            let Some(next) = gate.line.pop_front() else {
                gate.free.push(scratch);
                return;
            };
            if gate.blocked > 0 {
                self.room.notify_one();
            }
            drop(gate);
            match next.send(scratch) {
                Ok(()) => return,
                // The waiter is gone; the slot goes to the next one.
                Err(mpsc::SendError(back)) => scratch = back,
            }
        }
    }

    /// Classifies one admitted request with the slot's scratch, against
    /// the registry's snapshot of `model` taken now, so a hot swap that
    /// lands while the request waits is honoured.
    fn serve(
        &self,
        model: &str,
        tuples: &[Tuple],
        scratch: &mut BatchScratch,
    ) -> Result<BatchReply> {
        let served = self.registry.served(model)?;
        check_shape(&served, model, tuples)?;
        let tree = served.tree();
        // The panic boundary is per request: one poisoned request must not
        // cost its slot. The gate lock is never held here, so a panic
        // cannot poison it. `AssertUnwindSafe` is sound because the only
        // state crossing the boundary — the scratch — is rebuilt on the
        // panic path.
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if self.options.faults.fires(FaultPoint::PanicInWorker) {
                panic!("injected fault: panic_in_worker");
            }
            let distributions = classify_batch(tree, tuples, scratch)?;
            Ok(BatchReply {
                distributions,
                n_classes: tree.n_classes(),
            })
        }));
        attempt.unwrap_or_else(|payload| {
            *scratch = BatchScratch::new();
            self.metrics.record_worker_panic();
            Err(ServeError::WorkerPanic(panic_message(payload.as_ref())))
        })
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

    /// Holds a one-slot gate with the injected delay (fault spec 0 of
    /// `faults`, which must fire on the first slot taken), queues
    /// `waiters` callers behind it one at a time, so that their arrival
    /// order is their index, runs `while_held`, and returns every reply:
    /// the holder's first.
    fn hold_and_queue(
        batcher: &Batcher,
        faults: &FaultInjector,
        waiters: usize,
        while_held: impl FnOnce(),
    ) -> Vec<Result<BatchReply>> {
        let t = toy::fig1_test_tuple().unwrap();
        std::thread::scope(|scope| {
            let held = scope.spawn(|| batcher.classify("toy", vec![t.clone()]));
            wait_until(
                "the holder to take the slot",
                || faults.counts()[0].fired == 1,
                || held.is_finished(),
            );
            let mut handles = vec![held];
            for j in 0..waiters {
                let t = t.clone();
                handles.push(scope.spawn(move || batcher.classify("toy", vec![t])));
                wait_until(
                    &format!("waiter {j} to join the line"),
                    || batcher.queue_stats().depth == j + 1,
                    || handles[0].is_finished(),
                );
            }
            while_held();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn with_one_slot_waiting_callers_are_served_in_arrival_order() {
        const WAITERS: usize = 4;
        let reg = registry_with_toy();
        // Round r panics the (r + 2)-th classification. The holder is
        // the first, so in arrival order that is waiter r and no other:
        // over all rounds, each waiter's place in the line is pinned.
        for r in 0..WAITERS {
            let plan = crate::faults::FaultPlan::parse(
                &format!("delay_in_worker:nth=1:400ms,panic_in_worker:nth={}", r + 2),
                0,
            )
            .unwrap();
            let faults = FaultInjector::from_plan(&plan);
            let (batcher, metrics) = batcher(
                &reg,
                BatchOptions {
                    workers: 1,
                    faults: Arc::clone(&faults),
                    ..BatchOptions::default()
                },
            );
            let replies = hold_and_queue(&batcher, &faults, WAITERS, || {});
            assert!(replies[0].is_ok(), "round {r}: the holder is served");
            for (w, reply) in replies[1..].iter().enumerate() {
                let panicked = matches!(reply, Err(ServeError::WorkerPanic(_)));
                assert_eq!(panicked, w == r, "round {r}, waiter {w}: {reply:?}");
            }
            assert_eq!(metrics.health_snapshot().worker_panics, 1);
        }
    }

    #[test]
    fn at_most_workers_classifications_run_at_once() {
        const WORKERS: usize = 2;
        const CALLERS: usize = 6;
        const HOLD: Duration = Duration::from_millis(300);
        let reg = registry_with_toy();
        let plan = crate::faults::FaultPlan::parse("delay_in_worker:always:300ms", 0).unwrap();
        let faults = FaultInjector::from_plan(&plan);
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                workers: WORKERS,
                faults: Arc::clone(&faults),
                ..BatchOptions::default()
            },
        );
        let t = toy::fig1_test_tuple().unwrap();
        let start = Instant::now();
        std::thread::scope(|scope| {
            let batcher = &batcher;
            let mut handles = Vec::new();
            for c in 0..CALLERS {
                let t = t.clone();
                handles.push(scope.spawn(move || batcher.classify("toy", vec![t])));
                // The first WORKERS callers take slots; the rest wait.
                wait_until(
                    &format!("caller {c} to take a slot or join the line"),
                    || {
                        let slots = faults.counts()[0].fired as usize;
                        slots == (c + 1).min(WORKERS)
                            && batcher.queue_stats().depth == (c + 1).saturating_sub(WORKERS)
                    },
                    || handles.iter().any(|h| h.is_finished()),
                );
            }
            assert_eq!(
                faults.counts()[0].fired as usize,
                WORKERS,
                "a full gate started no further classification"
            );
            for handle in handles {
                handle.join().unwrap().unwrap();
            }
        });
        // Six requests that each hold a slot 300 ms, two at a time, take
        // three holds end to end.
        let rounds = CALLERS.div_ceil(WORKERS) as u32;
        assert!(start.elapsed() >= HOLD * rounds, "{:?}", start.elapsed());
        assert_eq!(metrics.snapshot()[0].requests, CALLERS as u64);
    }

    #[test]
    fn a_deadline_drop_happens_at_slot_acquisition() {
        let reg = registry_with_toy();
        // The holder's classification is delayed 300 ms past a 100 ms
        // budget; the waiter behind it gets the slot with its budget
        // spent, and neither is classified.
        let plan = crate::faults::FaultPlan::parse("delay_in_worker:nth=1:300ms", 0).unwrap();
        let faults = FaultInjector::from_plan(&plan);
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                workers: 1,
                request_deadline: Some(Duration::from_millis(100)),
                faults: Arc::clone(&faults),
                ..BatchOptions::default()
            },
        );
        let replies = hold_and_queue(&batcher, &faults, 1, || {});
        for reply in &replies {
            assert!(
                matches!(reply, Err(ServeError::DeadlineExceeded)),
                "{reply:?}"
            );
        }
        // The slot was handed on, not lost with the dropped requests.
        let t = toy::fig1_test_tuple().unwrap();
        assert!(batcher.classify("toy", vec![t]).is_ok());
        let health = metrics.health_snapshot();
        assert_eq!(health.deadline_drops, 2);
        assert_eq!(health.queue_wait_count, 3);
        let snap = metrics.snapshot();
        assert_eq!((snap[0].requests, snap[0].errors), (1, 0));
    }

    #[test]
    fn shed_refuses_a_caller_when_the_line_is_full() {
        let reg = registry_with_toy();
        let plan = crate::faults::FaultPlan::parse("delay_in_worker:nth=1:400ms", 0).unwrap();
        let faults = FaultInjector::from_plan(&plan);
        let (batcher, metrics) = batcher(
            &reg,
            BatchOptions {
                workers: 1,
                queue_capacity: 2,
                queue_policy: QueuePolicy::Shed,
                faults: Arc::clone(&faults),
                ..BatchOptions::default()
            },
        );
        let t = toy::fig1_test_tuple().unwrap();
        let replies = hold_and_queue(&batcher, &faults, 2, || {
            let start = Instant::now();
            assert!(matches!(
                batcher.classify("toy", vec![t.clone()]),
                Err(ServeError::Overloaded)
            ));
            assert!(
                start.elapsed() < Duration::from_millis(200),
                "shedding does not wait for the slot"
            );
        });
        // Everything admitted was answered.
        assert!(replies.iter().all(Result::is_ok), "{replies:?}");
        assert_eq!(metrics.health_snapshot().sheds, 1);
        assert_eq!(metrics.snapshot()[0].requests, 3);
    }

    #[test]
    fn callers_blocked_at_admission_are_all_answered_once_slots_free() {
        const BLOCKED: usize = 3;
        const ROUNDS: usize = 50;
        const BOUND: Duration = Duration::from_secs(5);
        let reg = registry_with_toy();
        let t = toy::fig1_test_tuple().unwrap();
        // With two slots released back to back, the caller woken for the
        // room the first release makes in the line mostly finds the
        // second slot free and takes it, leaving that room unused.
        for workers in [1, 2] {
            for round in 0..ROUNDS {
                let (batcher, _) = batcher(
                    &reg,
                    BatchOptions {
                        workers,
                        queue_capacity: 1,
                        queue_policy: QueuePolicy::Block,
                        ..BatchOptions::default()
                    },
                );
                let held: Vec<Slot<'_>> = (0..workers)
                    .map(|_| batcher.acquire(Instant::now()).unwrap())
                    .collect();
                let (tx, rx) = mpsc::channel();
                let answered = std::thread::scope(|scope| {
                    // The first caller fills the line; the rest block at
                    // admission.
                    let start = Instant::now();
                    for c in 0..=BLOCKED {
                        let (tx, t, batcher) = (tx.clone(), t.clone(), &batcher);
                        scope.spawn(move || tx.send(batcher.classify("toy", vec![t])));
                        wait_until(
                            &format!("caller {c} to wait"),
                            || {
                                let gate = batcher.lock();
                                gate.line.len() + gate.blocked == c + 1
                            },
                            || start.elapsed() > BOUND,
                        );
                    }
                    drop(held);
                    let answered = (0..=BLOCKED)
                        .filter(|_| rx.recv_timeout(BOUND).is_ok_and(|reply| reply.is_ok()))
                        .count();
                    // Wakes any caller left asleep, so the scope can end.
                    batcher.shutdown();
                    answered
                });
                assert_eq!(answered, BLOCKED + 1, "{workers} slots, round {round}");
            }
        }
    }

    #[test]
    fn shutdown_closes_admission_and_the_line_still_drains() {
        let reg = registry_with_toy();
        let plan = crate::faults::FaultPlan::parse("delay_in_worker:nth=1:400ms", 0).unwrap();
        let faults = FaultInjector::from_plan(&plan);
        let (batcher, _) = batcher(
            &reg,
            BatchOptions {
                workers: 1,
                faults: Arc::clone(&faults),
                ..BatchOptions::default()
            },
        );
        let t = toy::fig1_test_tuple().unwrap();
        let replies = hold_and_queue(&batcher, &faults, 2, || {
            batcher.shutdown();
            assert!(!batcher.is_accepting());
            assert!(matches!(
                batcher.classify("toy", vec![t.clone()]),
                Err(ServeError::QueueClosed)
            ));
        });
        assert!(replies.iter().all(Result::is_ok), "{replies:?}");
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
        // The slot is still there and serving.
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
        // Capacity 0 makes every caller find a full line — the
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
        // Every request sleeps 30 ms after taking its slot (injected),
        // and the request budget is 1 ms — the request is guaranteed to
        // be expired by the time it would classify.
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
        // No model metrics: the request was never classified.
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
        // The first request hits the injected panic and gets a
        // structured error.
        let err = batcher.classify("toy", vec![t.clone()]).unwrap_err();
        assert!(matches!(&err, ServeError::WorkerPanic(m) if m.contains("injected")));
        assert_eq!(err.code(), "internal");
        // The same slot (there is only one) keeps serving, and its
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
