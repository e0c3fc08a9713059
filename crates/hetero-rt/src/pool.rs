//! Persistent worker pool shared by every kernel launch in the process.
//!
//! The original executor created a fresh `std::thread::scope` — and
//! therefore N fresh OS threads — on **every** kernel launch. Iterative
//! applications (FDTD2D timesteps, KMeans Lloyd iterations, CFD RK steps)
//! launch thousands of small kernels, so thread-creation cost dominated
//! exactly the way the paper's Figure 1 shows SYCL per-launch overhead
//! dominating CUDA's at small input sizes. This module replaces that with
//! one process-wide pool, lazily initialised on first use:
//!
//! * `available_parallelism() - 1` workers (overridable with the
//!   `HETERO_RT_THREADS` environment variable, read once), parked on a
//!   condvar while no job is pending;
//! * the submitting thread always participates in its own job, so a pool
//!   of size 1 degenerates to inline execution with zero handoff;
//! * the pool only gathers participants: [`run`] calls `task(i)` once
//!   for each `i` in `0..n`, every participant claiming the next index
//!   from one shared counter. Balancing uneven work is the caller's: the
//!   executor's walk hands the pool one index per participant and
//!   claims its groups from its own work-stealing spans (see
//!   [`crate::executor`]).
//!
//! # Deadlock freedom for nested launches
//!
//! A kernel running on a pool worker may itself submit launches (Altis
//! exercises CUDA nested parallelism). That is safe here because the
//! submitter claims index 0 before it publishes the job and then claims
//! from the counter like any helper, so it can, if every other thread is
//! busy or blocked, run the entire job alone. While a submitter waits,
//! it waits only for indices other threads claimed — and a claimed index
//! is being actively executed, so the wait chain always bottoms out at a
//! thread making progress.
//!
//! # Safety
//!
//! The job queue stores a lifetime-erased pointer to the caller's task
//! closure. This is sound because [`run`] does not return until every
//! index of the job has been executed or retired (`done == total`), and
//! workers only dereference the pointer for indices they claimed below
//! `total` — no claim succeeds once the counter reaches `total`, and
//! every claimed index completes before `done` reaches `total`.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Pool state stays consistent across panics because every mutation is
/// completed before the guard drops.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One submitted job: `task(i)` for each `i` in `0..total`, claimed
/// one index at a time from a shared counter.
struct Job {
    /// Lifetime-erased task; see the module-level safety argument.
    task: *const (dyn Fn(usize) + Sync),
    /// The next unclaimed index; at or past `total` none is left.
    /// Relaxed throughout: it publishes no data — the job's fields reach
    /// a helper through the job-list mutex, and an index's effects reach
    /// the submitter through `done`.
    next: AtomicUsize,
    /// Indices fully executed or retired.
    done: AtomicUsize,
    /// Total indices in the job.
    total: usize,
    /// How many pool workers may help (the submitter is always extra).
    max_helpers: usize,
    /// Pool workers currently helping.
    helpers: AtomicUsize,
    /// First panic payload caught while executing this job's indices,
    /// handed to the submitter after the job completes, so a panicking
    /// task never kills a pool worker (the worker survives and parks
    /// again) and never strands the submitter.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion flag + condvar the submitter blocks on.
    complete: Mutex<bool>,
    complete_cv: Condvar,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// thread is blocked inside `run`, which keeps the referent alive; all
// other fields are Send + Sync.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.total
    }

    /// Whether an idle worker should pick this job up.
    fn wants_help(&self) -> bool {
        self.has_unclaimed() && self.helpers.load(Ordering::Relaxed) < self.max_helpers
    }

    /// Run index `i`, then every index this thread claims after it, until
    /// the counter passes `total`. The thread that retires the last index
    /// signals completion.
    ///
    /// Panic containment: each index runs under `catch_unwind`. On panic,
    /// the first payload is kept for the submitter and the counter is
    /// swapped to `total`, so no index is claimed after it; this thread
    /// retires the unclaimed ones, and an index claimed before the swap is
    /// retired by the thread running it.
    fn run_from(&self, mut i: usize) {
        while i < self.total {
            // SAFETY: index claimed, so the submitter is still blocked in
            // `run` and the closure is alive.
            let task = unsafe { &*self.task };
            let mut retired = 1;
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                lock(&self.panic_payload).get_or_insert(payload);
                retired += self.total.saturating_sub(self.next.swap(self.total, Ordering::Relaxed));
            }
            // AcqRel: publishes this index's writes to whoever observes
            // the final count, and orders the completion signal after
            // every index's effects.
            let prev = self.done.fetch_add(retired, Ordering::AcqRel);
            if prev + retired == self.total {
                *lock(&self.complete) = true;
                self.complete_cv.notify_all();
            }
            i = self.next.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Join as a pool helper if the helper cap allows it.
    fn help(&self) {
        if self.helpers.fetch_add(1, Ordering::Relaxed) < self.max_helpers {
            self.run_from(self.next.fetch_add(1, Ordering::Relaxed));
        }
        self.helpers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Process-wide pool state.
struct Shared {
    /// Pending jobs; workers scan it for one that wants help.
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Wakes parked workers when a job is pushed.
    work_cv: Condvar,
    /// Cached thread count (`available_parallelism` or the
    /// `HETERO_RT_THREADS` override), decided once at pool init.
    threads: usize,
    /// OS threads ever spawned by the pool — must stay constant after
    /// init; tests assert this across thousands of launches.
    spawned: AtomicUsize,
    /// Jobs ever dispatched through the pool. Empty jobs (`total == 0`)
    /// return before touching the pool and are not counted.
    dispatched: AtomicUsize,
    /// `Job` allocations actually made (dispatches minus scratch-slot
    /// reuses); `launch_storm` reports the reuse ratio.
    allocated: AtomicUsize,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut jobs = lock(&shared.jobs);
            loop {
                jobs.retain(|j| j.has_unclaimed());
                if let Some(j) = jobs.iter().find(|j| j.wants_help()) {
                    break Arc::clone(j);
                }
                jobs = shared.work_cv.wait(jobs).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        job.help();
    }
}

static POOL: OnceLock<Arc<Shared>> = OnceLock::new();

fn resolve_thread_count() -> usize {
    if let Ok(v) = std::env::var("HETERO_RT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

fn global() -> &'static Arc<Shared> {
    POOL.get_or_init(|| {
        let threads = resolve_thread_count();
        let shared = Arc::new(Shared {
            jobs: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            threads,
            spawned: AtomicUsize::new(0),
            dispatched: AtomicUsize::new(0),
            allocated: AtomicUsize::new(0),
        });
        for i in 0..threads.saturating_sub(1) {
            let s = Arc::clone(&shared);
            shared.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("hetero-rt-{i}"))
                .spawn(move || worker_loop(s))
                .expect("failed to spawn hetero-rt pool worker");
        }
        shared
    })
}

/// The pool's thread count: `HETERO_RT_THREADS` if set, otherwise
/// `available_parallelism()`. Resolved once at pool initialisation and
/// cached — this is what `Parallelism::Auto` uses instead of re-querying
/// the OS on every launch.
pub fn auto_threads() -> usize {
    global().threads
}

/// Total OS threads the pool has ever spawned. Constant after first use;
/// the pool-reuse test asserts it does not grow across launches.
pub fn spawned_threads() -> usize {
    global().spawned.load(Ordering::Relaxed)
}

/// Number of non-empty jobs dispatched through the pool since process
/// start. A job with `total == 0` never reaches the pool (no workers
/// wake, no chunk is claimed) and is deliberately not counted — the
/// count answers "how many times did the pool run work", which is what
/// the launch-overhead benchmarks divide by.
pub fn jobs_dispatched() -> usize {
    global().dispatched.load(Ordering::Relaxed)
}

/// Number of `Job` structures actually allocated, as opposed to reused
/// from the submitter's scratch slot. `jobs_dispatched() -
/// jobs_allocated()` dispatches paid zero allocations.
pub fn jobs_allocated() -> usize {
    global().allocated.load(Ordering::Relaxed)
}

thread_local! {
    /// Per-submitter scratch: the previous job's allocation, reused for
    /// the next submit when no worker still holds a reference to it.
    /// Thread-local (rather than pool-global) so acquiring it is
    /// lock-free and two threads never contend for one slot.
    static JOB_SCRATCH: std::cell::RefCell<Option<Arc<Job>>> =
        const { std::cell::RefCell::new(None) };
}

/// Reuse the scratch `Job` allocation if it is exclusively ours, else
/// allocate. Exclusivity (`Arc::get_mut`) is the safety linchpin: a
/// worker that still holds a clone from the *previous* job may be about
/// to claim from its counter, and resetting the counter or swapping the
/// task pointer under it would hand it stale work. Workers obtain clones
/// only from the shared job list, which the previous `run` already
/// removed the job from, so once the count drops to one it stays one.
/// The job comes back with index 0 already claimed for the submitter.
fn acquire_job(
    pool: &Shared,
    task: *const (dyn Fn(usize) + Sync),
    total: usize,
    max_helpers: usize,
) -> Arc<Job> {
    JOB_SCRATCH.with(|s| {
        let mut slot = s.borrow_mut();
        if let Some(mut job) = slot.take() {
            if let Some(j) = Arc::get_mut(&mut job) {
                j.task = task;
                j.total = total;
                j.max_helpers = max_helpers;
                j.next.store(1, Ordering::Relaxed);
                j.done.store(0, Ordering::Relaxed);
                j.helpers.store(0, Ordering::Relaxed);
                *j.panic_payload
                    .get_mut()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
                *j.complete.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner) =
                    false;
                return job;
            }
            // A worker still holds the previous job briefly; keep the
            // scratch for a later submit and allocate fresh this time.
            *slot = Some(job);
        }
        pool.allocated.fetch_add(1, Ordering::Relaxed);
        Arc::new(Job {
            task,
            next: AtomicUsize::new(1),
            done: AtomicUsize::new(0),
            total,
            max_helpers,
            helpers: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
            complete: Mutex::new(false),
            complete_cv: Condvar::new(),
        })
    })
}

/// Park a finished job's allocation in the submitter's scratch slot for
/// the next dispatch (first-come basis; an occupied slot drops `job`).
fn stash_job(job: Arc<Job>) {
    JOB_SCRATCH.with(|s| {
        let mut slot = s.borrow_mut();
        if slot.is_none() {
            *slot = Some(job);
        }
    });
}

/// Run `task(i)` once for each `i` in `0..n` on the calling thread and
/// up to `min(n, pool width) - 1` pool workers. Which participant runs
/// which index, and when, depends on the schedule, so no task may wait
/// on another index of its own job.
///
/// Returns the dispatch duration — the time spent publishing the job to
/// the pool before the calling thread started running indices itself,
/// the "pool handoff" part of launch overhead that profiling records
/// apart from kernel time — and the first panic payload a task raised.
/// A panic is contained: it retires every index not yet claimed, the
/// workers survive it and the pool stays usable; re-raising the payload
/// is the caller's choice.
pub fn run(n: usize, task: &(dyn Fn(usize) + Sync)) -> (Duration, Option<Box<dyn Any + Send>>) {
    let pool = global();
    if n == 0 {
        // An empty job never wakes a worker or runs a task, so it is not
        // a dispatch; counting it skewed per-launch accounting (the
        // `pool_jobs_dispatched: 30001` off-by-one in early
        // BENCH_launch_storm.json runs).
        return (Duration::ZERO, None);
    }
    pool.dispatched.fetch_add(1, Ordering::Relaxed);
    let max_helpers = n.min(pool.threads) - 1;
    // SAFETY: lifetime erasure only; `run` blocks until done == n, so the
    // referent outlives every dereference (module-level argument).
    let task = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task)
    };
    let job = acquire_job(pool, task, n, max_helpers);

    let handoff = Instant::now();
    if max_helpers > 0 {
        lock(&pool.jobs).push(Arc::clone(&job));
        if max_helpers == 1 {
            pool.work_cv.notify_one();
        } else {
            pool.work_cv.notify_all();
        }
    }
    let dispatch = handoff.elapsed();

    // The submitter runs the index it claimed before publishing, then
    // claims like any helper: what makes nested submission from a pool
    // worker deadlock-free.
    job.run_from(0);

    let mut finished = lock(&job.complete);
    while !*finished {
        finished = job
            .complete_cv
            .wait(finished)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    drop(finished);

    if max_helpers > 0 {
        lock(&pool.jobs).retain(|j| !Arc::ptr_eq(j, &job));
    }
    let payload = lock(&job.panic_payload).take();
    stash_job(job);
    (dispatch, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_job_returns_immediately() {
        let (d, payload) = run(0, &|_| panic!("must not run"));
        assert_eq!(d, Duration::ZERO);
        assert!(payload.is_none());
    }

    #[test]
    fn single_thread_runs_in_ascending_order() {
        // Each participant claims from one counter, so the indices any
        // single thread runs ascend.
        let order = Mutex::new(Vec::new());
        run(1_000, &|i| lock(&order).push((std::thread::current().id(), i)));
        let order = lock(&order);
        assert_eq!(order.len(), 1_000);
        for (k, &(id, i)) in order.iter().enumerate() {
            let earlier = order[..k].iter().filter(|&&(t, _)| t == id).map(|&(_, j)| j);
            assert!(earlier.max().is_none_or(|j| j < i), "index {i} ran after a later one");
        }
    }

    #[test]
    fn chunk_ranges_partition_the_total() {
        let covered = AtomicUsize::new(0);
        run(1_000, &|i| {
            covered.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(covered.load(Ordering::Relaxed), 1_000 * 1_001 / 2);
    }

    #[test]
    fn panicking_task_is_contained_and_pool_survives() {
        // Warm the pool, then record its size.
        run(64, &|_| {});
        let before = spawned_threads();

        for round in 0..5 {
            let (_, payload) = run(10_000, &|i| {
                if i % 2 == round % 2 {
                    panic!("index boom");
                }
            });
            assert!(payload.is_some(), "round {round}: panic payload lost");

            // The pool must be immediately reusable: a clean job still
            // executes every index exactly once on the same workers.
            let hits: Vec<AtomicUsize> = (0..4096).map(|_| AtomicUsize::new(0)).collect();
            let (_, payload) = run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(payload.is_none());
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        assert_eq!(spawned_threads(), before, "panics must not cost worker threads");
    }

    #[test]
    fn run_returns_the_panic_payload_to_the_submitter() {
        let (_, payload) = run(100, &|_| panic!("to the submitter"));
        let msg = payload.unwrap().downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "to the submitter");
    }

    #[test]
    fn canceled_job_still_reaches_completion_quickly() {
        // A panic on the very first index must retire every unclaimed
        // one so the submitter returns promptly instead of hanging.
        let t0 = Instant::now();
        let ran = AtomicUsize::new(0);
        let (_, payload) = run(1_000_000, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
            panic!("first index");
        });
        assert!(payload.is_some());
        assert!(ran.load(Ordering::Relaxed) <= auto_threads(), "indices ran after the panic");
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dispatch_duration_is_small_relative_to_work() {
        // Sanity: handoff is bounded (pushing one Arc + a notify), not
        // proportional to the job size.
        let (d, _) = run(64, &|i| {
            let mut acc = 0u64;
            for k in 0..10_000 {
                acc = acc.wrapping_add((i * k) as u64);
            }
            std::hint::black_box(acc);
        });
        assert!(d < Duration::from_millis(100));
    }
}
