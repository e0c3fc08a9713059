//! Persistent work-stealing worker pool shared by every kernel launch in
//! the process.
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
//! * each participant owns a contiguous *span* of the index range and
//!   claims from its front; a participant whose span drains steals the
//!   **back half** of a victim's span (see [`SpanSet`]). This replaces
//!   the original single shared claim counter, whose
//!   `max(1, remaining / (threads * 4))` chunk sizing degenerated to a
//!   storm of one-element claims on one hot atomic near the end of every
//!   job.
//!
//! # The span deque
//!
//! A [`SpanSet`] holds one span per participant, each packed as
//! `(lo, hi)` halves of a single `AtomicU64` so both ends move with one
//! CAS. The owner pops from the *front* (`lo`) in halving chunks —
//! newest-first locality, ascending order within the span — while
//! thieves take the *back half* (`hi` side), the oldest and
//! cache-coldest work, half a span at a time. This is the Chase–Lev
//! split: owner and thieves operate on opposite ends and only collide
//! when one element remains, where the CAS arbitrates. Halving claim
//! sizes mean a job of `n` indices costs `O(parts · log n)` claims total
//! and the smallest claim is half of whatever remains — the tiny-chunk
//! floor pathology cannot occur.
//!
//! Jobs are bounded to `u32::MAX` indices so the two ends fit one
//! atomic word; every caller (group counts, item counts, part counts) is
//! orders of magnitude below that.
//!
//! # One claim mode
//!
//! Chunk boundaries and their order depend on the schedule: a thief can
//! hold chunk `t` while chunk `t - 1` is still unclaimed. So a task must
//! never wait on another index of its own job; a computation whose chunks
//! depend on each other (a scan's carry) runs as two launches instead.
//!
//! # Deadlock freedom for nested launches
//!
//! A kernel running on a pool worker may itself submit launches (Altis
//! exercises CUDA nested parallelism). That is safe here because the
//! submitter *always* helps execute its own job and can, if every other
//! thread is busy or blocked, complete the entire job alone — its own
//! span first, then everything it can steal. While a submitter waits, it
//! waits only for chunks that were already claimed by other threads —
//! and a claimed chunk is being actively executed, so the wait chain
//! always bottoms out at a thread making progress.
//!
//! # Safety
//!
//! The job queue stores a lifetime-erased pointer to the caller's task
//! closure. This is sound because [`run_job`] does not return until every
//! index of the job has been executed or retired (`done == total`), and
//! workers only dereference the pointer for chunks they successfully
//! claimed — claims are impossible once every span is empty, and all
//! claimed chunks complete before `done` reaches `total`.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Pool state stays consistent across panics because every mutation is
/// completed before the guard drops.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Pack a span's bounds into one atomic word: `lo` in the high half,
/// `hi` in the low half. Empty when `lo >= hi`.
#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Per-participant work spans with two-ended atomic claiming — the
/// work-stealing deque structure shared by [`run_job`] and the
/// executor's walk, which claims each node's groups from one (crate-internal).
pub(crate) struct SpanSet {
    /// One packed `(lo, hi)` span per participant.
    spans: Box<[AtomicU64]>,
    /// Total indices the set was initialised with.
    total: usize,
    /// Indices not yet claimed (advisory; exactness lives in the spans).
    unclaimed: AtomicUsize,
    /// Successful claims since the last reset (owner + stolen).
    claims: AtomicUsize,
    /// Claims served from a victim's span rather than the claimant's own.
    steals: AtomicUsize,
}

impl SpanSet {
    /// A zero-length set, re-initialised before use.
    pub(crate) fn empty() -> SpanSet {
        SpanSet::new(0, 1)
    }

    /// Partition `0..total` into `parts` near-equal spans.
    pub(crate) fn new(total: usize, parts: usize) -> SpanSet {
        let parts = parts.max(1);
        let mut s = SpanSet {
            spans: (0..parts).map(|_| AtomicU64::new(0)).collect(),
            total,
            unclaimed: AtomicUsize::new(0),
            claims: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        };
        s.init(total, parts);
        s
    }

    /// Re-initialise in place (job-scratch reuse path; exclusivity is
    /// guaranteed by the caller holding `&mut`).
    pub(crate) fn init(&mut self, total: usize, parts: usize) {
        assert!(
            total <= u32::MAX as usize,
            "pool jobs are bounded to u32::MAX indices (got {total})"
        );
        let parts = parts.max(1);
        if self.spans.len() != parts {
            self.spans = (0..parts).map(|_| AtomicU64::new(0)).collect();
        }
        self.total = total;
        self.reset();
    }

    /// Restore the initial partition. Callers must ensure no claimer is
    /// concurrently active (between walks / before dispatch).
    pub(crate) fn reset(&self) {
        let parts = self.spans.len();
        for (p, s) in self.spans.iter().enumerate() {
            let lo = (p * self.total / parts) as u32;
            let hi = ((p + 1) * self.total / parts) as u32;
            s.store(pack(lo, hi), Ordering::Relaxed);
        }
        self.unclaimed.store(self.total, Ordering::Relaxed);
        self.claims.store(0, Ordering::Relaxed);
        self.steals.store(0, Ordering::Relaxed);
    }

    /// Whether any index is still claimable (advisory, monotone within
    /// one run: once false it stays false until the next reset).
    pub(crate) fn has_unclaimed(&self) -> bool {
        self.unclaimed.load(Ordering::Relaxed) > 0
    }

    pub(crate) fn claim_count(&self) -> usize {
        self.claims.load(Ordering::Relaxed)
    }

    pub(crate) fn steal_count(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// Take the front half (rounded up) of span `p`.
    fn take_front(&self, p: usize) -> Option<(usize, usize)> {
        let span = &self.spans[p];
        let mut cur = span.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = (hi - lo).div_ceil(2);
            match span.compare_exchange_weak(
                cur,
                pack(lo + take, hi),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.unclaimed.fetch_sub(take as usize, Ordering::Relaxed);
                    self.claims.fetch_add(1, Ordering::Relaxed);
                    return Some((lo as usize, (lo + take) as usize));
                }
                Err(v) => cur = v,
            }
        }
    }

    /// Steal up to half the indices from the *back* of span `p`.
    fn take_back(&self, p: usize) -> Option<(usize, usize)> {
        let span = &self.spans[p];
        let mut cur = span.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = (hi - lo).div_ceil(2);
            match span.compare_exchange_weak(
                cur,
                pack(lo, hi - take),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.unclaimed.fetch_sub(take as usize, Ordering::Relaxed);
                    self.claims.fetch_add(1, Ordering::Relaxed);
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(((hi - take) as usize, hi as usize));
                }
                Err(v) => cur = v,
            }
        }
    }

    /// Claim the next chunk for participant `home`, or `None` when every
    /// span is empty: a front half of its own span (ascending,
    /// cache-warm), else a back half of the nearest nonempty victim's.
    pub(crate) fn claim(&self, home: usize) -> Option<(usize, usize)> {
        let k = self.spans.len();
        let own = home % k;
        self.take_front(own).or_else(|| (1..k).find_map(|d| self.take_back((own + d) % k)))
    }

    /// Empty every span, returning how many indices were drained.
    /// Used by job cancellation so `done` still reaches `total`.
    pub(crate) fn drain(&self) -> usize {
        let mut drained = 0usize;
        for s in &self.spans {
            let (lo, hi) = unpack(s.swap(pack(0, 0), Ordering::Relaxed));
            if lo < hi {
                drained += (hi - lo) as usize;
            }
        }
        if drained > 0 {
            self.unclaimed.fetch_sub(drained, Ordering::Relaxed);
        }
        drained
    }
}

/// Per-job claim telemetry from [`run_job_counted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Successful chunk claims (including steals).
    pub claims: usize,
    /// Claims that took work from another participant's span.
    pub steals: usize,
}

/// One submitted launch: a range `0..total` of independent indices to be
/// executed by `task`, claimed from per-participant spans.
struct Job {
    /// Lifetime-erased task; see the module-level safety argument.
    task: *const (dyn Fn(usize, usize) + Sync),
    /// Per-participant work spans.
    spans: SpanSet,
    /// Indices fully executed or retired.
    done: AtomicUsize,
    /// Total indices in the job.
    total: usize,
    /// How many pool workers may help (the submitter is always extra).
    max_helpers: usize,
    /// Pool workers currently helping.
    helpers: AtomicUsize,
    /// Monotone participant-index allocator for joining helpers.
    joiners: AtomicUsize,
    /// Job-level cancellation: set when a chunk panics, so the remaining
    /// unclaimed spans are drained and the job completes immediately.
    canceled: AtomicBool,
    /// First panic payload caught while executing this job's chunks. The
    /// submitter re-raises it on its own thread after the job drains, so a
    /// panicking task never kills a pool worker (the worker survives and
    /// parks again) and never strands the submitter.
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion flag + condvar the submitter blocks on.
    complete: Mutex<bool>,
    complete_cv: Condvar,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// thread is blocked inside `run_job`, which keeps the referent alive; all
// other fields are Send + Sync.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Whether an idle worker should pick this job up.
    fn wants_help(&self) -> bool {
        self.spans.has_unclaimed()
            && self.helpers.load(Ordering::Relaxed) < self.max_helpers
    }

    /// Execute chunks until none remain. The thread that retires the last
    /// index signals completion.
    ///
    /// Panic containment: each chunk runs under `catch_unwind`. On panic,
    /// the first payload is stored for the submitter, the job is canceled
    /// (no further claims), and **every span is drained** in one sweep so
    /// `done` still reaches `total` and the submitter wakes. Chunks
    /// already claimed by other threads retire themselves as usual.
    fn run_claimed(&self, home: usize) {
        loop {
            if self.canceled.load(Ordering::Acquire) {
                return;
            }
            let Some((start, end)) = self.spans.claim(home) else {
                return;
            };
            // SAFETY: chunk successfully claimed, so the submitter is
            // still blocked in run_job and the closure is alive.
            let task = unsafe { &*self.task };
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| task(start, end)));
            let mut retired = end - start;
            let panicked = result.is_err();
            if let Err(payload) = result {
                lock(&self.panic_payload).get_or_insert(payload);
                self.canceled.store(true, Ordering::Release);
                // Drain every deque and retire the drained indices
                // ourselves; any chunk claimed before the drain is owned
                // by a thread that will retire it on its own.
                retired += self.spans.drain();
            }
            // AcqRel: publishes this chunk's writes to whoever observes
            // the final count, and orders the completion signal after
            // every chunk's effects.
            let prev = self.done.fetch_add(retired, Ordering::AcqRel);
            if prev + retired == self.total {
                *lock(&self.complete) = true;
                self.complete_cv.notify_all();
            }
            if panicked {
                return;
            }
        }
    }

    /// Join as a pool helper if the helper cap allows it.
    fn help(&self) {
        if self.helpers.fetch_add(1, Ordering::Relaxed) >= self.max_helpers {
            self.helpers.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        // Participant indices are handed out monotonically; a worker
        // joining after another left may share a (drained) home span,
        // which only means it goes straight to stealing.
        let home = self.joiners.fetch_add(1, Ordering::Relaxed) + 1;
        self.run_claimed(home);
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
                jobs.retain(|j| j.spans.has_unclaimed());
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
/// worker that still holds a clone from the *previous* job may be inside
/// `claim`, and resetting the spans or swapping the task pointer under
/// it would hand it stale work. Workers obtain clones only from the
/// shared job list, which the previous `run_job_catch` already removed
/// the job from, so once the count drops to one it stays one.
fn acquire_job(
    pool: &Shared,
    task: *const (dyn Fn(usize, usize) + Sync),
    total: usize,
    max_helpers: usize,
) -> Arc<Job> {
    let parts = max_helpers + 1;
    JOB_SCRATCH.with(|s| {
        let mut slot = s.borrow_mut();
        if let Some(mut job) = slot.take() {
            if let Some(j) = Arc::get_mut(&mut job) {
                j.task = task;
                j.total = total;
                j.max_helpers = max_helpers;
                j.spans.init(total, parts);
                j.done.store(0, Ordering::Relaxed);
                j.helpers.store(0, Ordering::Relaxed);
                j.joiners.store(0, Ordering::Relaxed);
                j.canceled.store(false, Ordering::Relaxed);
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
            spans: SpanSet::new(total, parts),
            done: AtomicUsize::new(0),
            total,
            max_helpers,
            helpers: AtomicUsize::new(0),
            joiners: AtomicUsize::new(0),
            canceled: AtomicBool::new(false),
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

/// Run `task` over the index range `0..total` on the persistent pool,
/// using at most `threads` threads (the submitting thread plus up to
/// `threads - 1` pool workers). `task(start, end)` is invoked with
/// disjoint, collectively exhaustive sub-ranges; chunk boundaries *and
/// their order* are nondeterministic under contention (thieves run
/// back halves), so tasks must not depend on them or wait on each other.
///
/// Returns the dispatch duration: the time spent publishing the job to
/// the pool before the submitting thread started executing work itself.
/// This is the "pool handoff" component of launch overhead, recorded
/// separately from kernel time in profiling events.
pub fn run_job(total: usize, threads: usize, task: &(dyn Fn(usize, usize) + Sync)) -> Duration {
    let (dispatch, payload, _) = run_job_inner(total, threads, task);
    if let Some(p) = payload {
        // Re-raise on the submitting thread: callers keep ordinary panic
        // semantics while the pool workers stay alive and parked.
        std::panic::resume_unwind(p);
    }
    dispatch
}

/// [`run_job`] returning per-job claim telemetry (claims and steals) —
/// what the chunk-sizing tests pin and `launch_storm --steal` reports.
pub fn run_job_counted(
    total: usize,
    threads: usize,
    task: &(dyn Fn(usize, usize) + Sync),
) -> (Duration, JobStats) {
    let (dispatch, payload, stats) = run_job_inner(total, threads, task);
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
    (dispatch, stats)
}

/// Like [`run_job`], but a panicking task is *contained*: instead of the
/// panic resuming on the submitter, the first caught payload is returned
/// alongside the dispatch duration. The executor uses this to convert
/// kernel panics into typed errors. In both flavours the pool's worker
/// threads survive the panic and the pool remains fully usable.
pub fn run_job_catch(
    total: usize,
    threads: usize,
    task: &(dyn Fn(usize, usize) + Sync),
) -> (Duration, Option<Box<dyn std::any::Any + Send>>) {
    let (dispatch, payload, _) = run_job_inner(total, threads, task);
    (dispatch, payload)
}

fn run_job_inner(
    total: usize,
    threads: usize,
    task: &(dyn Fn(usize, usize) + Sync),
) -> (Duration, Option<Box<dyn std::any::Any + Send>>, JobStats) {
    let pool = global();
    if total == 0 {
        // An empty job never wakes a worker or claims a chunk, so it is
        // not a dispatch; counting it skewed per-launch accounting (the
        // `pool_jobs_dispatched: 30001` off-by-one in early
        // BENCH_launch_storm.json runs).
        return (Duration::ZERO, None, JobStats::default());
    }
    pool.dispatched.fetch_add(1, Ordering::Relaxed);
    let threads = threads.max(1).min(pool.threads.max(1));
    let max_helpers = threads.saturating_sub(1).min(total.saturating_sub(1));
    // SAFETY: lifetime erasure only; run_job blocks until done == total,
    // so the referent outlives every dereference (module-level argument).
    let task = unsafe {
        std::mem::transmute::<
            &(dyn Fn(usize, usize) + Sync),
            *const (dyn Fn(usize, usize) + Sync),
        >(task)
    };
    let job = acquire_job(pool, task, total, max_helpers);

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

    // The submitter always helps — this is what makes nested submission
    // from a pool worker deadlock-free.
    job.run_claimed(0);

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
    let stats = JobStats {
        claims: job.spans.claim_count(),
        steals: job.spans.steal_count(),
    };
    stash_job(job);
    (dispatch, payload, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        run_job(hits.len(), auto_threads(), &|s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn triangular_job_is_rebalanced_by_stealing() {
        // `launch_storm --steal`'s job: per-index cost grows with the
        // index, so the first span drains while the last still holds
        // most of the delay. Its owner must then steal, and every index
        // still runs exactly once.
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        let (_, stats) = run_job_counted(hits.len(), 2, &|s, e| {
            for (i, h) in hits.iter().enumerate().take(e).skip(s) {
                std::thread::sleep(Duration::from_micros((i as u64 + 1) * 50));
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        if auto_threads() >= 2 {
            assert!(stats.steals >= 1, "no steal on the triangular job: {stats:?}");
        }
    }

    #[test]
    fn empty_job_returns_immediately() {
        let d = run_job(0, 8, &|_, _| panic!("must not run"));
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn single_thread_runs_in_ascending_order() {
        let order = Mutex::new(Vec::new());
        run_job(100, 1, &|s, e| {
            for i in s..e {
                lock(&order).push(i);
            }
        });
        assert_eq!(*lock(&order), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_ranges_partition_the_total() {
        let covered = AtomicU64::new(0);
        run_job(1_000, 4, &|s, e| {
            covered.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(covered.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn halving_claims_bound_the_claim_count() {
        // The pre-steal pool claimed `max(1, remaining/(threads*4))`
        // chunks off one shared counter: the floor degenerated to
        // `threads*4` one-element claims at the end of every job — a
        // contended fetch_add storm. Halving front claims make the
        // smallest claim half of whatever remains, so a 10k-index job
        // costs O(parts · log total) claims and never storms.
        let t = auto_threads();
        let total = 10_000usize;
        let (_, stats) = run_job_counted(total, t, &|s, e| {
            std::hint::black_box(e - s);
        });
        let per_span = (total.div_ceil(t.max(1)) as f64).log2().ceil() as usize + 2;
        let bound = t * per_span + stats.steals * 2;
        assert!(
            stats.claims <= bound,
            "claim storm: {} claims ({} steals) for a {total}-index job on {t} threads \
             (bound {bound})",
            stats.claims,
            stats.steals,
        );
        // And the old pathology's floor: the final `threads*4` indices
        // alone used to cost `threads*4` claims; the whole job must now
        // cost fewer than that tail did.
        assert!(stats.claims < total / 16, "claims did not amortise: {}", stats.claims);
    }

    #[test]
    fn panicking_task_is_contained_and_pool_survives() {
        // Warm the pool, then record its size.
        run_job(64, auto_threads(), &|_, _| {});
        let before = spawned_threads();

        for round in 0..5 {
            let (_, payload) = run_job_catch(10_000, auto_threads(), &|s, _| {
                if s % 2 == round % 2 {
                    panic!("chunk boom");
                }
            });
            assert!(payload.is_some(), "round {round}: panic payload lost");

            // The pool must be immediately reusable: a clean job still
            // executes every index exactly once on the same workers.
            let hits: Vec<AtomicUsize> = (0..4096).map(|_| AtomicUsize::new(0)).collect();
            run_job(hits.len(), auto_threads(), &|s, e| {
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        assert_eq!(spawned_threads(), before, "panics must not cost worker threads");
    }

    #[test]
    fn run_job_resumes_panic_on_submitter() {
        let caught = std::panic::catch_unwind(|| {
            run_job(100, auto_threads(), &|_, _| panic!("to the submitter"));
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "to the submitter");
    }

    #[test]
    fn canceled_job_still_reaches_completion_quickly() {
        // A panic on the very first chunk must drain every span so the
        // submitter returns promptly instead of hanging.
        let t0 = Instant::now();
        let (_, payload) = run_job_catch(1_000_000, auto_threads(), &|_, _| {
            panic!("first chunk");
        });
        assert!(payload.is_some());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dispatch_duration_is_small_relative_to_work() {
        // Sanity: handoff is bounded (pushing one Arc + a notify), not
        // proportional to the job size.
        let d = run_job(100_000, auto_threads(), &|s, e| {
            let mut acc = 0u64;
            for i in s..e {
                acc = acc.wrapping_add(i as u64);
            }
            std::hint::black_box(acc);
        });
        assert!(d < Duration::from_millis(100));
    }

    #[test]
    fn spanset_two_ended_claims_are_disjoint_and_exhaustive() {
        let set = SpanSet::new(1_000, 4);
        let mut seen = vec![false; 1_000];
        // Interleave owner pops and steals until dry.
        let mut turn = 0usize;
        loop {
            let r = if turn.is_multiple_of(3) {
                set.claim(turn % 4)
            } else {
                set.claim((turn + 1) % 4)
            };
            let Some((s, e)) = r else { break };
            for (i, slot) in seen.iter_mut().enumerate().take(e).skip(s) {
                assert!(!*slot, "index {i} claimed twice");
                *slot = true;
            }
            turn += 1;
        }
        assert!(seen.iter().all(|&b| b), "unclaimed indices remain");
        assert!(!set.has_unclaimed());
    }

    #[test]
    fn spanset_drain_accounts_for_every_unclaimed_index() {
        let set = SpanSet::new(1_000, 4);
        let mut claimed = 0usize;
        for home in 0..4 {
            if let Some((s, e)) = set.claim(home) {
                claimed += e - s;
            }
        }
        let drained = set.drain();
        assert_eq!(claimed + drained, 1_000);
        assert_eq!(set.drain(), 0, "second drain must find nothing");
        assert!(!set.has_unclaimed());
    }
}
