//! The persistent build pool.
//!
//! Every parallel phase of tree construction — per-attribute root
//! presort, per-attribute split search, per-attribute event-structure
//! construction and the subtree work queue — runs on one reusable
//! execution substrate instead of spawning fresh `std::thread::scope`
//! threads per call. A [`WorkerPool`] owns a fixed set of long-lived
//! worker threads that pop tasks, first in first out, from one shared
//! queue. Pools are cached process-wide by concurrency
//! ([`WorkerPool::for_concurrency`]), so repeated builds reuse the same
//! threads — the pool is persistent.
//!
//! One shared queue is enough: a map issued inside pool work runs inline
//! (see below), so the build never submits a task from a worker, and a
//! per-worker queue would stay empty.
//!
//! ## The deterministic parallel map
//!
//! [`WorkerPool::map`] is the primitive every build phase uses: it runs
//! `f(0..n)` with the **calling thread participating** alongside the
//! workers and returns the results in index order. Work distribution is
//! dynamic (an atomic cursor — idle participants take the next
//! unclaimed index) but the output is positional, so the result is
//! independent of which thread computed what. Phases whose per-index
//! work is itself deterministic (everything in this crate) therefore
//! produce bit-identical output at every thread count, including 1 —
//! the contract the builder's regression tests pin.
//!
//! Maps are **top-level only**: a map issued from inside pool work (a
//! worker executing a task, or any thread executing a map item — e.g. a
//! subtree job reaching a large node) runs inline on the caller instead
//! of fanning out. Tasks therefore never wait on other tasks, which
//! rules out nested-wait deadlocks by construction and keeps the
//! builder's per-phase timers honest: a timer around a map item never
//! absorbs unrelated queued work.
//!
//! ## Panics
//!
//! A panicking task does not poison the pool: the panic is caught on the
//! worker, the map finishes draining, and the payload is re-raised on
//! the **calling** thread — a panicking subtree build fails the build,
//! not the queue. The workers survive and keep serving later maps.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use udt_obs::catalog;

/// A unit of work queued on the pool.
type Task = Box<dyn FnOnce() + Send>;

/// How long an idle worker parks before re-checking the queue. The
/// wake protocol is precise — submitters push and notify under the
/// queue lock, and workers check the queue under it before waiting — so
/// this timeout is pure insurance; it is long so that a process holding
/// cached idle pools burns effectively no background CPU.
const IDLE_PARK: Duration = Duration::from_secs(10);

/// State shared between the pool handle and its worker threads.
#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Signalled (under the queue lock) whenever a task is queued.
    wake: Condvar,
    /// Set by `Drop`; workers exit once the queue is drained.
    shutdown: AtomicBool,
}

thread_local! {
    /// Stack of pools "entered" on this thread (see [`enter`]); the
    /// innermost one is what [`current`] reports to the build phases.
    static CURRENT: RefCell<Vec<Arc<WorkerPool>>> = const { RefCell::new(Vec::new()) };
    /// How deep this thread currently is inside pool work (an executing
    /// task or a map item). Maps called at depth > 0 run inline — see
    /// [`WorkerPool::map`].
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// RAII increment of the thread's pool-work depth (panic-safe).
struct DepthGuard;

impl DepthGuard {
    fn enter() -> DepthGuard {
        DEPTH.with(|d| d.set(d.get() + 1));
        DepthGuard
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

fn worker_main(shared: Arc<Shared>) {
    let mut queue = shared.queue.lock().expect("pool queue lock");
    loop {
        if let Some(task) = queue.pop_front() {
            drop(queue);
            {
                // Tasks are panic-wrapped at submission; they never unwind.
                let _depth = DepthGuard::enter();
                task();
            }
            catalog::POOL_TASKS_EXECUTED.incr();
            queue = shared.queue.lock().expect("pool queue lock");
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // The queue and the shutdown flag were checked under the lock that
        // submitters and `Drop` notify under, so neither a task nor the
        // shutdown can slip past this wait.
        let parked = Instant::now();
        queue = shared
            .wake
            .wait_timeout(queue, IDLE_PARK)
            .expect("pool queue lock")
            .0;
        let idle_ns = parked.elapsed().as_nanos() as u64;
        catalog::POOL_IDLE_NS.add(idle_ns);
        catalog::POOL_IDLE_WAIT.record_ns(idle_ns);
    }
}

/// A persistent pool of worker threads sharing one task queue. See the
/// module docs for the execution model.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` threads named `udt-pool-{i}`. A
    /// pool with zero workers is valid: [`map`](Self::map) runs inline
    /// on the caller (the sequential degenerate case).
    ///
    /// Thread-spawn failures (process thread limits, exhausted memory)
    /// degrade gracefully: the pool keeps whatever workers it managed
    /// to start — possibly none — with a one-line warning, instead of
    /// aborting the build that asked for a generous thread count.
    pub fn with_workers(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared::default());
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let cloned = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("udt-pool-{i}"))
                .spawn(move || worker_main(cloned))
            {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    eprintln!(
                        "udt-pool: could not spawn worker {i} of {workers} ({e}); \
                         continuing with {} worker(s)",
                        handles.len()
                    );
                    break;
                }
            }
        }
        let workers = handles.len();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// Returns the process-wide shared pool for a total concurrency of
    /// `threads` (the calling thread plus `threads − 1` workers).
    /// Pools are created on first use and cached forever, so every
    /// build at a given thread count reuses the same threads.
    pub fn for_concurrency(threads: usize) -> Arc<WorkerPool> {
        static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let threads = threads.clamp(1, crate::config::ThreadCount::MAX);
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = registry.lock().expect("pool registry lock");
        Arc::clone(
            map.entry(threads)
                .or_insert_with(|| Arc::new(WorkerPool::with_workers(threads - 1))),
        )
    }

    /// Total concurrency: the worker threads plus the calling thread
    /// (which participates in every [`map`](Self::map)).
    pub fn concurrency(&self) -> usize {
        self.workers + 1
    }

    /// Number of spawned worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queues one task and wakes one parked worker for it.
    fn push_task(&self, task: Task) {
        catalog::POOL_INJECTOR_PUSHES.incr();
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        queue.push_back(task);
        self.shared.wake.notify_one();
    }

    /// Runs `f(0..n)` across the pool — the calling thread participates
    /// — and returns the results **in index order**. Work distribution
    /// is dynamic (idle participants claim the next unclaimed index);
    /// output order is positional, so the result does not depend on the
    /// thread count. If any invocation panics, the first payload is
    /// re-raised here after the map has drained.
    ///
    /// **Nested maps run inline.** A map called from inside pool work —
    /// a worker executing a task, or any thread executing a map item —
    /// runs sequentially on the caller instead of fanning out. Only
    /// top-level calls spawn helper tasks, so an executing task never
    /// waits on other queued tasks (no nested-wait deadlocks) and a
    /// phase timer around a map item measures only that item's own
    /// work.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n <= 1 || self.workers == 0 || DEPTH.with(Cell::get) > 0 {
            return (0..n).map(f).collect();
        }

        struct MapState<T, F> {
            f: F,
            n: usize,
            cursor: AtomicUsize,
            slots: Vec<Mutex<Option<T>>>,
            panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
            /// Helper tasks submitted to the pool that have not finished
            /// running yet. `map` must not return (and drop this stack
            /// state) until it reaches zero — every submitted task runs
            /// eventually, even if only to find the cursor exhausted.
            outstanding: AtomicUsize,
            done_lock: Mutex<()>,
            done: Condvar,
        }

        impl<T, F: Fn(usize) -> T + Sync> MapState<T, F> {
            /// Claims and computes indices until the cursor runs out (or
            /// a panic is recorded, which parks the cursor at the end).
            fn drain(&self) {
                loop {
                    let i = self.cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= self.n {
                        return;
                    }
                    // Mark the thread as inside pool work for the span
                    // of the item, so maps the item itself issues run
                    // inline (see `map`'s docs).
                    let _depth = DepthGuard::enter();
                    match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                        Ok(v) => {
                            *self.slots[i].lock().expect("map slot lock") = Some(v);
                        }
                        Err(payload) => {
                            let mut slot = self.panic.lock().expect("map panic lock");
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                            // Stop claiming further items everywhere.
                            self.cursor.store(self.n, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            }
        }

        let helpers = self.workers.min(n - 1);
        let state = MapState {
            f,
            n,
            cursor: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            panic: Mutex::new(None),
            outstanding: AtomicUsize::new(helpers),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        };
        {
            let state_ref: &MapState<T, F> = &state;
            for _ in 0..helpers {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    state_ref.drain();
                    // Completion handshake: decrement and notify while
                    // HOLDING the lock, and touch nothing afterwards.
                    // The caller only frees the state after observing
                    // zero and then acquiring this lock once, which
                    // cannot succeed until the decrementing task has
                    // released it — so no task can still be using the
                    // state when it is freed.
                    let _guard = state_ref.done_lock.lock().expect("map done lock");
                    state_ref.outstanding.fetch_sub(1, Ordering::AcqRel);
                    state_ref.done.notify_all();
                });
                // SAFETY: the task borrows `state`, which lives on this
                // stack frame. `map` returns only after (a) `outstanding`
                // reached zero — each task's final actions are the locked
                // decrement + notify above — and (b) the caller has then
                // acquired and released `done_lock`, which orders the
                // caller's use of the state strictly after the last
                // task's critical section. Workers always drain their
                // queues before exiting, so a queued task cannot be
                // abandoned.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
                self.push_task(task);
            }
        }
        // The caller participates through its own drain, then waits for
        // the helpers to finish. (It deliberately does not execute other
        // queued pool work while waiting: tasks never wait on tasks —
        // nested maps are inline — so the helpers always make progress
        // on the workers, and staying out of foreign work keeps phase
        // timers around map calls honest.)
        state.drain();
        loop {
            if state.outstanding.load(Ordering::Acquire) == 0 {
                // Synchronise with the last task's locked decrement (see
                // the SAFETY comment above) before freeing the state.
                drop(state.done_lock.lock().expect("map done lock"));
                break;
            }
            let guard = state.done_lock.lock().expect("map done lock");
            if state.outstanding.load(Ordering::Acquire) == 0 {
                break;
            }
            let _ = state
                .done
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("map done lock");
        }
        if let Some(payload) = state.panic.into_inner().expect("map panic lock") {
            resume_unwind(payload);
        }
        state
            .slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("map slot lock")
                    .expect("every map index was computed")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _queue = self.shared.queue.lock().expect("pool queue lock");
            self.shared.wake.notify_all();
        }
        for handle in self.handles.lock().expect("pool handle lock").drain(..) {
            let _ = handle.join();
        }
    }
}

/// Restores the previously [`enter`]ed pool when dropped.
pub struct PoolGuard {
    _private: (),
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Makes `pool` the thread's current build pool until the returned
/// guard drops. The builder enters its pool on the build thread for
/// the duration of a build, so deeply nested phases — the split-search
/// strategies in particular — can reach the pool without threading a
/// handle through every signature. Subtree tasks do **not** re-enter
/// the pool on worker threads: phases consult `fanout`, which
/// declines inside pool work anyway, so both the workers and the
/// map-participating build thread take the same sequential path there.
pub fn enter(pool: Arc<WorkerPool>) -> PoolGuard {
    CURRENT.with(|stack| stack.borrow_mut().push(pool));
    PoolGuard { _private: () }
}

/// The innermost pool [`enter`]ed on this thread, if any.
pub fn current() -> Option<Arc<WorkerPool>> {
    CURRENT.with(|stack| stack.borrow().last().map(Arc::clone))
}

/// The pool a build phase should fan out on: the innermost [`enter`]ed
/// pool, provided it has more than one thread **and** this thread is
/// not already executing pool work. Inside pool work a nested map would
/// run inline anyway (see [`WorkerPool::map`]); returning `None` there
/// lets phases skip their fan-out setup (per-task scratch loading and
/// the like) and take the plain sequential path, keeping the
/// map-participating caller thread on the same code path as the
/// workers.
pub(crate) fn fanout() -> Option<Arc<WorkerPool>> {
    if DEPTH.with(Cell::get) > 0 {
        return None;
    }
    current().filter(|pool| pool.concurrency() > 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_index_order() {
        let pool = WorkerPool::with_workers(3);
        let out = pool.map(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        // Zero and one items short-circuit inline.
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn zero_worker_pool_maps_inline() {
        let pool = WorkerPool::with_workers(0);
        assert_eq!(pool.concurrency(), 1);
        assert_eq!(pool.map(8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn work_is_actually_distributed_across_threads() {
        let pool = WorkerPool::with_workers(2);
        let seen: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        // Enough slowish items that the workers must participate.
        pool.map(32, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis(1));
        });
        // The caller always participates; with two workers and 32 × 1 ms
        // items at least one worker joins in.
        assert!(seen.lock().unwrap().len() >= 2);
    }

    #[test]
    fn panicking_task_fails_the_map_but_not_the_pool() {
        let pool = WorkerPool::with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(16, |i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        // The pool is not deadlocked or poisoned: it keeps serving maps.
        assert_eq!(pool.map(8, |i| i + 1), (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn nested_maps_complete() {
        let pool = WorkerPool::with_workers(2);
        let out = pool.map(6, |i| pool.map(5, |j| i * 10 + j).iter().sum::<usize>());
        let expect: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn registry_caches_pools_by_concurrency() {
        let a = WorkerPool::for_concurrency(3);
        let b = WorkerPool::for_concurrency(3);
        assert!(Arc::ptr_eq(&a, &b), "same concurrency → same pool");
        assert_eq!(a.concurrency(), 3);
        let c = WorkerPool::for_concurrency(1);
        assert_eq!(c.workers(), 0);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn enter_and_current_nest() {
        assert!(current().is_none());
        let a = WorkerPool::for_concurrency(1);
        let b = WorkerPool::for_concurrency(2);
        let g1 = enter(Arc::clone(&a));
        assert!(Arc::ptr_eq(&current().unwrap(), &a));
        {
            let _g2 = enter(Arc::clone(&b));
            assert!(Arc::ptr_eq(&current().unwrap(), &b));
        }
        assert!(Arc::ptr_eq(&current().unwrap(), &a));
        drop(g1);
        assert!(current().is_none());
    }
}
