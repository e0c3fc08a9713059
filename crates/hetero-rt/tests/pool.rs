//! Persistent-pool behaviour: thread reuse across many launches and
//! deadlock freedom for nested (device-side) submission.

use std::sync::mpsc;
use std::time::Duration;

use hetero_rt::pool;
use hetero_rt::prelude::*;

/// Force a multi-threaded pool even on single-core CI boxes. Must run
/// before the first pool access in this process; every test calls it
/// first, and the `Once` makes that race-free under the parallel test
/// runner.
fn init_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("HETERO_RT_THREADS").is_none() {
            std::env::set_var("HETERO_RT_THREADS", "4");
        }
    });
}

#[test]
fn pool_reuses_threads_across_a_thousand_launches() {
    init_threads();
    let q = Queue::new(Device::cpu());

    // Force pool initialisation with one warm-up launch.
    let warm = Buffer::<u32>::new(256);
    let wv = warm.view();
    q.parallel_for("warmup", Range::d1(256), move |it| {
        wv.set(it.gid(0), 1);
    });

    let spawned_after_init = pool::spawned_threads();
    let dispatched_before = pool::jobs_dispatched();
    assert_eq!(
        spawned_after_init,
        pool::auto_threads() - 1,
        "pool should hold exactly threads-1 parked workers"
    );

    let b = Buffer::<u32>::new(4096);
    let launches = 1_000;
    for i in 0..launches {
        let v = b.view();
        q.parallel_for("storm", Range::d1(4096), move |it| {
            v.set(it.gid(0), i as u32);
        });
    }
    assert!(b.to_vec().iter().all(|&x| x == launches as u32 - 1));

    // The launch storm must not have created a single new OS thread.
    assert_eq!(
        pool::spawned_threads(),
        spawned_after_init,
        "pool grew during the launch storm"
    );
    // ... while every parallel launch actually went through the pool.
    let dispatched = pool::jobs_dispatched() - dispatched_before;
    assert!(
        dispatched >= launches,
        "only {dispatched} of {launches} launches dispatched to the pool"
    );
}

#[test]
fn nested_launch_from_a_worker_does_not_deadlock() {
    // A kernel group submitting child kernels through a cloned queue runs
    // *on a pool worker*; the child launch dispatches into the same pool.
    // The submitter-always-helps design must complete this even when
    // every worker is busy. A watchdog turns a deadlock into a failure
    // instead of a hung suite.
    init_threads();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let q = Queue::new(Device::cpu());
        let child_q = q.clone();
        let out = Buffer::<u32>::new(64 * 64);
        let ov = out.view();
        q.nd_range("parent", NdRange::d1(64, 1), move |ctx| {
            let g = ctx.group_linear();
            let v = ov.clone();
            let cq = child_q.clone();
            cq.parallel_for("child", Range::d1(64), move |it| {
                v.set(g * 64 + it.gid(0), (g * 64 + it.gid(0)) as u32);
            });
        })
        .unwrap();
        tx.send(out.to_vec()).unwrap();
    });
    let got = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("nested launches deadlocked the pool");
    for (i, &x) in got.iter().enumerate() {
        assert_eq!(x, i as u32);
    }
}

#[test]
fn deeply_nested_submission_still_completes() {
    init_threads();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let q = Queue::new(Device::cpu());
        let b = Buffer::<u32>::new(256);
        let (q1, q2) = (q.clone(), q.clone());
        let v0 = b.view();
        q.parallel_for("level0", Range::d1(4), move |it0| {
            let base0 = it0.gid(0) * 64;
            let v1 = v0.clone();
            let q2 = q2.clone();
            q1.parallel_for("level1", Range::d1(4), move |it1| {
                let base1 = base0 + it1.gid(0) * 16;
                let v2 = v1.clone();
                q2.parallel_for("level2", Range::d1(16), move |it2| {
                    v2.set(base1 + it2.gid(0), 1);
                });
            });
        });
        tx.send(b.to_vec()).unwrap();
    });
    let got = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("three-level nested launches deadlocked the pool");
    assert!(got.iter().all(|&x| x == 1));
}
