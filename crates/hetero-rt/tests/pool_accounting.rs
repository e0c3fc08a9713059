//! Exact pool-accounting pins. This file deliberately holds a single
//! test: `jobs_dispatched` / `jobs_allocated` are process-global
//! counters, and the default parallel test runner would interleave other
//! tests' launches into the deltas. One `#[test]` per binary makes the
//! counts exact, which is the whole point — BENCH_launch_storm.json once
//! reported `pool_jobs_dispatched: 30001` for 30 000 expected jobs
//! because empty jobs were counted as dispatches.

use hetero_rt::pool;
use hetero_rt::executor::Parallelism;
use hetero_rt::prelude::*;

#[test]
fn dispatch_and_allocation_counts_are_exact() {
    // Warm the pool (spawns workers, may allocate the first scratch Job).
    pool::run(64, &|_| {});

    // 0. Sequential launches bypass the pool: no job is enqueued. (Lived
    //    in tests/pool.rs, where sibling tests' launches raced the
    //    process-wide counter.)
    let before = pool::jobs_dispatched();
    let q = Queue::new(Device::cpu()).with_parallelism(Parallelism::Sequential);
    let b = Buffer::<u32>::new(512);
    for _ in 0..50 {
        let v = b.view();
        q.parallel_for("seq", Range::d1(512), move |it| v.set(it.gid(0), 7));
    }
    assert_eq!(pool::jobs_dispatched(), before, "sequential launches must not enqueue pool jobs");

    // 1. Empty jobs are not dispatches: they return before touching the
    //    pool.
    let before = pool::jobs_dispatched();
    for _ in 0..10 {
        pool::run(0, &|_| panic!("must not run"));
    }
    assert_eq!(pool::jobs_dispatched(), before, "empty jobs must not count as dispatches");

    // 2. N real jobs are exactly N dispatches — no warm-up slack, no
    //    off-by-one.
    let before = pool::jobs_dispatched();
    const N: usize = 1000;
    for _ in 0..N {
        pool::run(256, &|i| {
            std::hint::black_box(i);
        });
    }
    assert_eq!(pool::jobs_dispatched() - before, N, "one dispatch per non-empty job");

    // 3. The scratch slot absorbs most Job allocations: across N
    //    single-submitter dispatches the allocator is hit only when a
    //    worker still held the previous job at submit time. Pin a
    //    conservative bound rather than an exact count (the race with
    //    helper release is real and timing-dependent).
    let alloc_delta = pool::jobs_allocated() - {
        // Re-measure over a fresh window so the bound is about steady
        // state, not pool warm-up.
        let a0 = pool::jobs_allocated();
        let d0 = pool::jobs_dispatched();
        for _ in 0..N {
            pool::run(256, &|i| {
                std::hint::black_box(i);
            });
        }
        assert_eq!(pool::jobs_dispatched() - d0, N);
        a0
    };
    assert!(
        alloc_delta <= N / 2,
        "scratch reuse should absorb most Job allocations: {alloc_delta} allocations for {N} dispatches"
    );

    // 4. A job no helper can join (one index) still counts: the
    //    submitter is a participant. A 1-index job is a real dispatch.
    let before = pool::jobs_dispatched();
    pool::run(1, &|_| {});
    assert_eq!(pool::jobs_dispatched() - before, 1);
}
