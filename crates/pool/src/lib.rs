//! # fidr-pool
//!
//! A persistent worker pool for the per-socket batch pipelines: FIDR's
//! per-lane-group dedup lookups and speculative compression (its NIC
//! hashes), and the baseline's batch hashing and compression.
//!
//! Before this crate, every drained NIC batch spawned fresh scoped
//! threads for hashing, dedup lookups and speculative compression — a
//! per-batch spawn overhead that was measured pushing the 4-worker
//! pipeline to a 0.94× wall-clock *slowdown*. Here the threads
//! are spawned once, live for the life of the system, and each batch is
//! a handful of bounded-queue pushes.
//!
//! ## Architecture
//!
//! ```text
//!   submitting thread                    worker 0   worker 1   ...
//!   ─────────────────                    ────────   ────────
//!   pool.scope(|s| {          queue 0 ──▶ job        .
//!     s.spawn_on(0, job_a);   queue 1 ─────────────▶ job
//!     s.spawn_on(1, job_b);   (bounded VecDeques,
//!   })                         idle workers steal)
//!        ▲ blocks until every spawned job finished
//! ```
//!
//! * **Thread-per-shard affinity** — [`Scope::spawn_on`]`(k, job)`
//!   enqueues onto worker `k % workers`'s own queue. The batch pipeline
//!   keys `k` to its shard-group number, so the same long-lived thread
//!   serves the same `ShardedTableCache` shards batch after batch
//!   (warm per-thread state on multi-core hosts).
//! * **Bounded queues, work stealing** — each worker owns a bounded
//!   [`VecDeque`]; submission blocks when the target queue is full
//!   (backpressure, counted in [`PoolStats::submit_waits`]). An idle
//!   worker steals from the back of the longest sibling queue
//!   ([`PoolStats::jobs_stolen`]); jobs own or exclusively borrow their
//!   inputs, so *where* a job runs never changes *what* it computes.
//! * **Scoped borrows on persistent threads** — [`WorkerPool::scope`]
//!   mirrors `std::thread::scope`: jobs may borrow from the caller's
//!   stack because `scope` does not return (even by unwinding) until
//!   every spawned job has finished. This is the crate's one `unsafe`
//!   (a lifetime erasure), confined to [`Scope::spawn_on`].
//! * **Shutdown drains** — dropping the pool marks it shut down, wakes
//!   every worker, and joins them; workers exit only once **all** queues
//!   are empty, so detached in-flight jobs always complete.
//!
//! ## Determinism
//!
//! The pool never reorders observable results by itself: callers
//! scatter job outputs into pre-assigned slots and replay any shared
//! accounting in batch order on the submitting thread (see
//! `fidr-core`). Pool counters ([`PoolStats`]) are wall-clock
//! diagnostics that *do* vary with worker count and host load; they are
//! therefore exported outside the deterministic `fidr.metrics.v1`
//! snapshot — see `docs/OBSERVABILITY.md` for the contract.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A queued unit of work. Jobs created through [`Scope::spawn_on`] are
/// lifetime-erased; the scope's completion barrier keeps their borrows
/// valid for as long as they can run.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Default per-worker queue bound (jobs, not bytes). Batches submit at
/// most a few jobs per worker, so a small bound keeps memory flat while
/// never blocking the common case.
const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Everything guarded by the pool's single mutex. One lock for all
/// queues keeps stealing and the empty/full conditions race-free; jobs
/// are coarse (thousands of hash/compress/lookup operations each), so
/// the lock is held for a vanishing fraction of runtime.
struct State {
    /// One bounded queue per worker, indexed by affinity.
    queues: Vec<VecDeque<Job>>,
    /// Total queued jobs across all queues (gauge).
    queued: usize,
    /// Deepest any single queue has been.
    max_queue_depth: usize,
    /// Set by `Drop`; workers exit once this is set *and* all queues
    /// are empty (shutdown drains in-flight work).
    shutdown: bool,
    /// Jobs handed off to a worker queue so far.
    handoffs: u64,
    /// Jobs executed by a worker other than their affine one.
    stolen: u64,
    /// Jobs finished (including panicked ones).
    executed: u64,
    /// Jobs whose closure panicked (the panic is rethrown by the
    /// owning scope; detached jobs just count it).
    panicked: u64,
    /// Times a submitter blocked on a full queue.
    submit_waits: u64,
}

struct Inner {
    state: Mutex<State>,
    /// Workers sleep here when no job is runnable.
    work_cv: Condvar,
    /// Submitters sleep here when the target queue is full.
    room_cv: Condvar,
    /// Per-worker queue bound.
    depth: usize,
    /// Total worker nanoseconds spent running jobs.
    busy_ns: AtomicU64,
    /// Total worker nanoseconds spent waiting for jobs.
    idle_ns: AtomicU64,
    /// Completed `scope` calls.
    scopes: AtomicU64,
}

/// Counters and gauges describing the pool's lifetime activity, read
/// with [`WorkerPool::stats`]. All values are wall-clock diagnostics:
/// they vary with worker count, stealing luck and host load, and are
/// deliberately kept out of the deterministic metrics export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent worker threads in the pool.
    pub workers: usize,
    /// Jobs handed off to worker queues (every submission is one
    /// bounded-channel push — contrast with a thread spawn per job).
    pub handoffs: u64,
    /// Jobs an idle worker stole from a sibling's queue.
    pub jobs_stolen: u64,
    /// Jobs executed to completion (including panicked ones).
    pub jobs_executed: u64,
    /// Jobs whose closure panicked.
    pub jobs_panicked: u64,
    /// Completed [`WorkerPool::scope`] calls (≈ pipeline batches).
    pub scopes: u64,
    /// Times a submitter blocked because the target queue was full.
    pub submit_waits: u64,
    /// Jobs currently queued (gauge at sampling time).
    pub queued: usize,
    /// Deepest any single worker queue has been.
    pub max_queue_depth: usize,
    /// Total worker time spent running jobs, in nanoseconds.
    pub busy_ns: u64,
    /// Total worker time spent waiting for jobs, in nanoseconds.
    pub idle_ns: u64,
}

/// A pool of persistent worker threads; see the [crate docs](crate) for
/// the architecture.
///
/// # Examples
///
/// ```
/// use fidr_pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let mut results = vec![0u64; 4];
/// pool.scope(|s| {
///     for (k, slot) in results.iter_mut().enumerate() {
///         s.spawn_on(k, move || *slot = (k as u64 + 1) * 10);
///     }
/// });
/// assert_eq!(results, [10, 20, 30, 40]);
/// ```
pub struct WorkerPool {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.threads.len())
            .field("depth", &self.inner.depth)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` persistent threads (at least one) with
    /// the default per-worker queue bound.
    pub fn new(workers: usize) -> Self {
        Self::with_queue_depth(workers, DEFAULT_QUEUE_DEPTH)
    }

    /// Spawns a pool with an explicit per-worker queue bound (at least
    /// one slot); submission to a full queue blocks until a worker
    /// drains it.
    pub fn with_queue_depth(workers: usize, depth: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                queued: 0,
                max_queue_depth: 0,
                shutdown: false,
                handoffs: 0,
                stolen: 0,
                executed: 0,
                panicked: 0,
                submit_waits: 0,
            }),
            work_cv: Condvar::new(),
            room_cv: Condvar::new(),
            depth: depth.max(1),
            busy_ns: AtomicU64::new(0),
            idle_ns: AtomicU64::new(0),
            scopes: AtomicU64::new(0),
        });
        let threads = (0..workers)
            .map(|k| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fidr-worker-{k}"))
                    .spawn(move || worker_loop(k, &inner))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, threads }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Runs `f` with a [`Scope`] whose jobs may borrow from the caller's
    /// stack, and returns once **every** spawned job has finished — the
    /// persistent-pool analogue of `std::thread::scope`.
    ///
    /// Must not be called from inside a pool job (a worker waiting on
    /// its own pool can deadlock a fully-busy pool).
    ///
    /// # Panics
    ///
    /// If `f` or any spawned job panics, the panic is resumed on this
    /// thread — after all jobs have still been waited for.
    pub fn scope<'env, F, T>(&self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let scope = Scope {
            pool: self,
            sync: Arc::new(ScopeSync {
                pending: Mutex::new(Pending {
                    remaining: 0,
                    panic: None,
                }),
                done_cv: Condvar::new(),
            }),
            scope_lt: std::marker::PhantomData,
            env_lt: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The completion barrier runs no matter how `f` exited: borrows
        // held by queued jobs stay valid until the jobs are done.
        let job_panic = scope.wait_all();
        self.inner.scopes.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(value) => {
                if let Some(payload) = job_panic {
                    resume_unwind(payload);
                }
                value
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Enqueues a free-standing (`'static`) job on worker
    /// `affinity % workers` without waiting for it; the job is
    /// guaranteed to run even if the pool is dropped immediately after
    /// (shutdown drains the queues). Blocks while the target queue is
    /// full. Panics inside the job are caught and counted.
    pub fn submit_detached(&self, affinity: usize, job: impl FnOnce() + Send + 'static) {
        let inner = Arc::clone(&self.inner);
        self.enqueue(
            affinity,
            Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                record_outcome(&inner, outcome.is_err());
            }),
        );
    }

    /// A snapshot of the pool's diagnostic counters.
    pub fn stats(&self) -> PoolStats {
        let st = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        PoolStats {
            workers: self.threads.len(),
            handoffs: st.handoffs,
            jobs_stolen: st.stolen,
            jobs_executed: st.executed,
            jobs_panicked: st.panicked,
            scopes: self.inner.scopes.load(Ordering::Relaxed),
            submit_waits: st.submit_waits,
            queued: st.queued,
            max_queue_depth: st.max_queue_depth,
            busy_ns: self.inner.busy_ns.load(Ordering::Relaxed),
            idle_ns: self.inner.idle_ns.load(Ordering::Relaxed),
        }
    }

    /// Pushes `job` onto worker `affinity % workers`'s bounded queue,
    /// blocking while it is full.
    fn enqueue(&self, affinity: usize, job: Job) {
        let k = affinity % self.threads.len();
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        while st.queues[k].len() >= inner.depth {
            st.submit_waits += 1;
            st = inner.room_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.queues[k].push_back(job);
        st.queued += 1;
        st.handoffs += 1;
        st.max_queue_depth = st.max_queue_depth.max(st.queues[k].len());
        drop(st);
        inner.work_cv.notify_all();
    }
}

impl Drop for WorkerPool {
    /// Shuts the pool down, *draining* first: workers keep pulling jobs
    /// until every queue is empty, then exit and are joined.
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What a worker found when it asked for work.
enum Found {
    /// A job, and whether it came from a sibling's queue.
    Job(Job, bool),
    /// Shutdown with every queue empty.
    Exit,
}

fn worker_loop(k: usize, inner: &Inner) {
    loop {
        let idle_from = Instant::now();
        let found = {
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = st.queues[k].pop_front() {
                    break Found::Job(job, false);
                }
                // Steal from the back of the longest sibling queue.
                let victim = (0..st.queues.len())
                    .filter(|&i| i != k)
                    .max_by_key(|&i| st.queues[i].len())
                    .filter(|&i| !st.queues[i].is_empty());
                if let Some(v) = victim {
                    let job = st.queues[v].pop_back().expect("victim queue non-empty");
                    st.stolen += 1;
                    break Found::Job(job, true);
                }
                if st.shutdown {
                    break Found::Exit;
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let job = match found {
            Found::Job(job, _stolen) => {
                let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
                st.queued -= 1;
                drop(st);
                inner.room_cv.notify_all();
                job
            }
            Found::Exit => return,
        };
        inner
            .idle_ns
            .fetch_add(idle_from.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let busy_from = Instant::now();
        // Every queued job is a submit_detached/spawn_on wrapper that
        // catches its own panics and records its outcome *before*
        // signaling completion (so stats are current the moment a scope
        // returns); this outer catch only keeps the worker alive.
        let _ = catch_unwind(AssertUnwindSafe(job));
        inner
            .busy_ns
            .fetch_add(busy_from.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Counts one finished job (and optionally one panic) in the pool
/// stats. Called from inside the job wrappers so that counters are
/// already updated when a scope's completion barrier releases.
fn record_outcome(inner: &Inner, panicked: bool) {
    let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
    st.executed += 1;
    if panicked {
        st.panicked += 1;
    }
}

/// Barrier state shared between a [`Scope`] and its in-flight jobs.
struct ScopeSync {
    pending: Mutex<Pending>,
    done_cv: Condvar,
}

struct Pending {
    /// Jobs spawned but not yet finished.
    remaining: usize,
    /// First panic payload raised by a job (rethrown by `scope`).
    panic: Option<Box<dyn Any + Send>>,
}

/// A batch submission scope created by [`WorkerPool::scope`]; jobs
/// spawned through it may borrow anything that outlives the `scope`
/// call, exactly like `std::thread::scope`.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope WorkerPool,
    sync: Arc<ScopeSync>,
    /// Invariant over `'scope` (the same trick `std::thread::Scope`
    /// uses) so a scope cannot be smuggled into an outer region.
    scope_lt: std::marker::PhantomData<&'scope mut &'scope ()>,
    env_lt: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Enqueues `f` on worker `affinity % workers` (thread-per-shard
    /// affinity: the same worker serves the same affinity every batch).
    /// The job may borrow from the environment; the owning
    /// [`WorkerPool::scope`] call waits for it before returning. Blocks
    /// while the target worker's bounded queue is full. A panicking job
    /// is rethrown by the `scope` call after all jobs finish.
    #[allow(unsafe_code)]
    pub fn spawn_on<F>(&'scope self, affinity: usize, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let sync = Arc::clone(&self.sync);
        let inner = Arc::clone(&self.pool.inner);
        let wrapper = move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            record_outcome(&inner, outcome.is_err());
            let mut pending = sync.pending.lock().unwrap_or_else(|p| p.into_inner());
            if let Err(payload) = outcome {
                pending.panic.get_or_insert(payload);
            }
            pending.remaining -= 1;
            if pending.remaining == 0 {
                sync.done_cv.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(wrapper);
        // SAFETY: lifetime erasure only. `WorkerPool::scope` does not
        // return — on success *or* unwind — until `wait_all` has seen
        // `remaining == 0`, i.e. until this closure has run to
        // completion on a worker. Every borrow captured in `f` therefore
        // outlives every possible execution of the job, which is the
        // sole obligation `'static` would otherwise encode. The box is
        // a fat pointer whose layout does not depend on the lifetime.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        {
            let mut pending = self.sync.pending.lock().unwrap_or_else(|p| p.into_inner());
            pending.remaining += 1;
        }
        self.pool.enqueue(affinity, job);
    }

    /// Blocks until every spawned job has finished; returns the first
    /// job panic payload, if any.
    fn wait_all(&self) -> Option<Box<dyn Any + Send>> {
        let mut pending = self.sync.pending.lock().unwrap_or_else(|p| p.into_inner());
        while pending.remaining > 0 {
            pending = self
                .sync
                .done_cv
                .wait(pending)
                .unwrap_or_else(|p| p.into_inner());
        }
        pending.panic.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn scope_runs_all_jobs_with_borrows() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 10];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn_on(i, move || *slot = i * i);
            }
        });
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.handoffs, 10);
        assert_eq!(stats.jobs_executed, 10);
        assert_eq!(stats.scopes, 1);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn empty_scope_returns() {
        let pool = WorkerPool::new(2);
        let v = pool.scope(|_s| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn affinity_prefers_own_worker_but_work_completes_anyway() {
        // All jobs pinned to worker 0; with multiple workers some may be
        // stolen, but every job must run exactly once.
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn_on(0, || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_reuses_persistent_threads() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scope(|s| {
                for k in 0..2 {
                    s.spawn_on(k, || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(pool.stats().scopes, 50);
        assert_eq!(pool.stats().workers, 2);
    }

    #[test]
    fn job_panic_propagates_after_all_jobs_finish() {
        let pool = WorkerPool::new(2);
        let survivors = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&survivors);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn_on(0, || panic!("job boom"));
                for k in 0..8 {
                    let survivors = Arc::clone(&seen);
                    s.spawn_on(k, move || {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must rethrow the job panic");
        // The barrier ran: every non-panicking job still completed.
        assert_eq!(survivors.load(Ordering::Relaxed), 8);
        assert_eq!(pool.stats().jobs_panicked, 1);
    }

    #[test]
    fn shutdown_drains_in_flight_jobs() {
        // Fill the queues with slow detached jobs and drop the pool
        // immediately: every job must still run (drop drains, then
        // joins), which is what lets `FidrSystem` be dropped mid-batch
        // without losing speculative work.
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        const JOBS: usize = 24;
        for i in 0..JOBS {
            let done = Arc::clone(&done);
            pool.submit_detached(i, move || {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), JOBS);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let pool = WorkerPool::with_queue_depth(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let opened = Arc::clone(&gate);
        // Park the single worker so submissions pile into the queue.
        pool.submit_detached(0, move || {
            let (lock, cv) = &*opened;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        // Overfill from another thread, then open the gate.
        let pool = Arc::new(pool);
        let submitter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for i in 0..6 {
                    pool.submit_detached(i, || {});
                }
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        submitter.join().unwrap();
        // Wait for every job to finish before asserting.
        while pool.stats().jobs_executed < 7 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            pool.stats().submit_waits > 0,
            "a full bounded queue must block the submitter"
        );
        assert_eq!(pool.stats().queued, 0);
    }

    #[test]
    fn stats_track_busy_time() {
        let pool = WorkerPool::new(2);
        pool.scope(|s| {
            for k in 0..2 {
                s.spawn_on(k, || std::thread::sleep(Duration::from_millis(5)));
            }
        });
        assert!(pool.stats().busy_ns >= 5_000_000);
    }

    #[test]
    fn zero_workers_rounds_up_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let mut hit = false;
        pool.scope(|s| s.spawn_on(7, || hit = true));
        assert!(hit);
    }
}
