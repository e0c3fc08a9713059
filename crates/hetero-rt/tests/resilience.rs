//! End-to-end resilience tests: kernel-panic containment, typed error
//! propagation, retry/fallback policies, blocking `wait()`, and pipe
//! deadlock diagnosis under both sequential and pooled execution.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hetero_rt::executor::Parallelism;
use hetero_rt::prelude::*;
use hetero_rt::{DeviceCaps, DeviceKind, Fallback, RetryPolicy};

/// A CPU queue injecting `plan`, with `retry`.
fn injecting(plan: FaultPlan, retry: RetryPolicy) -> Queue {
    let h = Hardening { fault: Some(Arc::new(plan)), retry, ..Hardening::NONE };
    Queue::hardened(Device::cpu(), h)
}

/// `attempts` attempts with no back-off between them.
fn instant_retries(attempts: u32) -> RetryPolicy {
    RetryPolicy { max_attempts: attempts, backoff: Duration::ZERO }
}

/// A panicking kernel becomes a typed error — and the shared pool stays
/// healthy for many subsequent clean launches, on both execution modes.
#[test]
fn kernel_panic_is_contained_and_pool_stays_reusable() {
    for par in [Parallelism::Sequential, Parallelism::Auto] {
        let q = injecting(FaultPlan::panic_at("victim", 3), RetryPolicy::default())
            .with_parallelism(par);
        let e = q
            .nd_range("victim", NdRange::d1(64 * 8, 8), |_ctx| {})
            .unwrap_err();
        assert!(
            matches!(e, Error::KernelPanicked { kernel: "victim", group: 3, .. }),
            "{par:?}: {e:?}"
        );

        // The same queue (and the process-wide pool behind it) must keep
        // producing correct results afterwards.
        for round in 0..50u32 {
            let b = Buffer::<u32>::new(512);
            let v = b.view();
            q.parallel_for("clean", Range::d1(512), move |it| {
                v.set(it.gid(0), it.gid(0) as u32 + round);
            });
            let out = b.to_vec();
            assert!(out.iter().enumerate().all(|(i, &x)| x == i as u32 + round));
        }
    }
}

/// An out-of-bounds access inside a kernel surfaces as the typed
/// `AccessOutOfBounds` it raised, not a generic panic.
#[test]
fn oob_access_in_kernel_is_a_typed_launch_error() {
    let q = Queue::new(Device::cpu());
    let b = Buffer::<u32>::new(8);
    let v = b.view();
    let e = q
        .nd_range("oob", NdRange::d1(16, 8), move |ctx| {
            ctx.items(|it| v.set(it.global_linear, 1)); // runs to 15 on a len-8 view
        })
        .unwrap_err();
    assert!(matches!(e, Error::AccessOutOfBounds { buffer_len: 8, .. }), "{e:?}");
}

fn tiny_local_mem_device() -> Device {
    Device::new(
        "tiny-local accelerator",
        DeviceKind::Fpga,
        DeviceCaps { local_mem_bytes: 64, ..DeviceCaps::fpga() },
    )
}

/// A kernel whose local-memory demand exceeds the primary device's
/// capacity is re-run on the CPU when `Fallback::Cpu` is set, and the
/// detour is recorded on the event.
#[test]
fn local_mem_exceeded_falls_back_to_cpu() {
    let dev = tiny_local_mem_device();
    let b = Buffer::<u32>::new(128);
    let v = b.view();
    let kernel = move |ctx: &GroupCtx| {
        let shared = ctx.local_array::<u32>(32); // 128 B > 64 B on the tiny device
        ctx.items(|it| shared.set(it.local_linear, it.global_linear as u32));
        ctx.items(|it| v.set(it.global_linear, shared.get(it.local_linear) * 2));
    };

    // Without fallback: the typed capability error.
    let q = Queue::new(dev.clone());
    let e = q.nd_range("needs_local", NdRange::d1(128, 32), &kernel).unwrap_err();
    assert!(matches!(e, Error::LocalMemExceeded { .. }), "{e:?}");

    // With fallback: success, computed on the CPU, recorded as such.
    let q = Queue::hardened(dev, Hardening { fallback: Fallback::Cpu, ..Hardening::NONE });
    let ev = q.nd_range("needs_local", NdRange::d1(128, 32), kernel).unwrap();
    assert_eq!(
        ev.resilience().fallback_device.as_deref(),
        Some(Device::cpu().name().to_string().as_str())
    );
    let out = b.to_vec();
    assert!(out.iter().enumerate().all(|(i, &x)| x == i as u32 * 2));
}

/// A work-group too large for the FPGA runs on the CPU under fallback —
/// the paper's manual porting decision expressed as policy.
#[test]
fn oversize_work_group_falls_back_to_cpu() {
    let fallback = Hardening { fallback: Fallback::Cpu, ..Hardening::NONE };
    let q = Queue::hardened(Device::stratix10(), fallback);
    let b = Buffer::<u32>::new(512);
    let v = b.view();
    let ev = q
        .nd_range("big_groups", NdRange::d1(512, 256), move |ctx| {
            ctx.items(|it| v.set(it.global_linear, 7));
        })
        .unwrap();
    assert!(ev.resilience().fallback_device.is_some());
    assert!(b.to_vec().iter().all(|&x| x == 7));
}

/// A kernel panic is NOT retried and NOT re-run on the CPU: groups may
/// already have written global memory.
#[test]
fn kernel_panic_is_never_retried_or_fallen_back() {
    let plan = Arc::new(FaultPlan::panic_at("once", 0));
    let h = Hardening { fallback: Fallback::Cpu, ..Hardening::resilient(Some(plan.clone())) };
    let q = Queue::hardened(Device::cpu(), h);
    let e = q.nd_range("once", NdRange::d1(8, 8), |_| {}).unwrap_err();
    assert!(matches!(e, Error::KernelPanicked { .. }));
    // Exactly one injection: no retry re-executed the kernel.
    assert_eq!(plan.injected(), 1);
}

/// Transient launch failures within the retry budget are absorbed and
/// recorded; past the budget they surface as `TransientLaunchFailure`.
#[test]
fn transient_faults_respect_the_retry_budget() {
    // Burst of 2 with 3 attempts: succeeds on the third.
    let q = injecting(FaultPlan::transient_burst(2), instant_retries(3));
    let b = Buffer::<u32>::new(64);
    let v = b.view();
    let ev = q
        .try_parallel_for("flaky", Range::d1(64), move |it| v.set(it.gid(0), 1))
        .unwrap();
    assert_eq!(ev.resilience().attempts, 3);
    assert_eq!(ev.resilience().faults_absorbed, 2);
    assert!(b.to_vec().iter().all(|&x| x == 1));

    // Burst of 5 with 3 attempts: budget exhausted, typed error.
    let q = injecting(FaultPlan::transient_burst(5), instant_retries(3));
    let e = q
        .try_parallel_for("flaky", Range::d1(64), |_| {})
        .unwrap_err();
    assert_eq!(e, Error::TransientLaunchFailure { kernel: "flaky", attempts: 3 });
}

/// The retry backoff is pinned: attempt `k` sleeps exactly
/// `backoff * k`, no jitter, so a seeded chaos run replays the same
/// delay sequence every time.
#[test]
fn retry_backoff_sequence_is_deterministic() {
    // The back-off after failed attempt k is `backoff * k`, no jitter: a
    // launch that absorbs two transients must sleep at least
    // 5 ms + 10 ms — the wall clock pins that the sequence is linear
    // and actually taken in order.
    let backoff = Duration::from_millis(5);
    let q = injecting(FaultPlan::transient_burst(2), RetryPolicy { max_attempts: 3, backoff });
    let t0 = std::time::Instant::now();
    let ev = q.try_parallel_for("slow_flaky", Range::d1(8), |_| {}).unwrap();
    assert_eq!(ev.resilience().attempts, 3);
    assert!(t0.elapsed() >= Duration::from_millis(15), "5ms + 10ms of backoff");
}

/// Default queues make exactly one attempt — transient faults surface
/// immediately, preserving the pre-fault-layer behaviour.
#[test]
fn default_policy_does_not_retry() {
    let q = injecting(FaultPlan::transient_burst(1), RetryPolicy::default());
    let e = q.try_parallel_for("flaky", Range::d1(8), |_| {}).unwrap_err();
    assert_eq!(e, Error::TransientLaunchFailure { kernel: "flaky", attempts: 1 });
}

/// Two kernels blocked against each other on pipes are diagnosed as
/// `PipeDeadlock` within the timeout — under sequential and pooled
/// queue parallelism alike.
#[test]
fn pipe_deadlock_is_diagnosed_under_both_parallelism_modes() {
    for par in [Parallelism::Sequential, Parallelism::Auto] {
        let q = Queue::new(Device::stratix10()).with_parallelism(par);
        // Kernel A waits on an empty pipe that B never fills, because B
        // waits on a full pipe that A never drains.
        let empty = Pipe::<u32>::with_capacity_and_timeout(1, Duration::from_millis(100));
        let full = Pipe::<u32>::with_capacity_and_timeout(1, Duration::from_millis(100));
        full.write(0).unwrap();
        let (ea, fa) = (empty.clone(), full.clone());
        let t0 = std::time::Instant::now();
        let e = q
            .submit_concurrent(
                "deadlocked_pair",
                vec![
                    Box::new(move || {
                        let _ = ea.read()?; // blocks: nobody writes
                        Ok(())
                    }) as Box<dyn FnOnce() -> hetero_rt::Result<()> + Send>,
                    Box::new(move || {
                        fa.write(1)?; // blocks: pipe already full
                        Ok(())
                    }),
                ],
            )
            .unwrap_err();
        assert!(matches!(e, Error::PipeDeadlock { .. }), "{par:?}: {e:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "diagnosis took {:?}",
            t0.elapsed()
        );
    }
}

/// A panicking concurrent kernel is classified like a pooled one, not
/// reported as a closed pipe.
#[test]
fn concurrent_kernel_panic_is_classified() {
    let q = Queue::new(Device::stratix10());
    let e = q
        .submit_concurrent(
            "concurrent_panic",
            vec![Box::new(|| -> hetero_rt::Result<()> { panic!("stream kernel bug") })
                as Box<dyn FnOnce() -> hetero_rt::Result<()> + Send>],
        )
        .unwrap_err();
    match e {
        Error::KernelPanicked { kernel, message, .. } => {
            assert_eq!(kernel, "concurrent_panic");
            assert!(message.contains("stream kernel bug"));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

/// `Queue::wait()` blocks until launches submitted from other threads
/// through clones of the queue have drained.
#[test]
fn wait_blocks_on_outstanding_concurrent_submissions() {
    let q = Queue::new(Device::cpu());
    let worker_q = q.clone();
    let started = Arc::new(AtomicU32::new(0));
    let started2 = Arc::clone(&started);
    let b = Buffer::<u32>::new(256);
    let v = b.view();
    let t = std::thread::spawn(move || {
        worker_q.parallel_for("slow", Range::d1(256), move |it| {
            started2.store(1, Ordering::Release);
            std::thread::sleep(Duration::from_millis(2));
            v.set(it.gid(0), 1);
        });
    });
    // Spin until the launch is demonstrably in flight, then wait for it.
    while started.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    q.wait();
    // Every store of the launch must be visible once wait() returns.
    assert!(b.to_vec().iter().all(|&x| x == 1));
    t.join().unwrap();
}

/// The same seed and rate reproduce the same faults and the same final
/// outcome — the property the chaos harness's replayability rests on.
#[test]
fn chaos_outcomes_reproduce_from_the_seed() {
    let run = || -> (u64, Vec<std::result::Result<u32, Error>>) {
        let plan = Arc::new(FaultPlan::new(0xC0FFEE, 0.08));
        let retry = instant_retries(3);
        let h = Hardening { fault: Some(plan.clone()), retry, ..Hardening::NONE };
        let q = Queue::hardened(Device::cpu(), h);
        let mut outcomes = Vec::new();
        for k in 0..20u32 {
            let b = Buffer::<u32>::new(256);
            let v = b.view();
            let r = q
                .try_parallel_for("chaos_step", Range::d1(256), move |it| {
                    v.set(it.gid(0), k)
                })
                .map(|_| b.to_vec().iter().sum::<u32>());
            outcomes.push(r);
        }
        (plan.injected(), outcomes)
    };
    let (inj_a, out_a) = run();
    let (inj_b, out_b) = run();
    assert_eq!(inj_a, inj_b);
    assert_eq!(out_a, out_b);
}

/// Satellite pin: `Queue::wait()` must block across the *entire* retry
/// cycle — attempts, backoff sleeps, and the final re-submission — not
/// just the portion where a kernel is actually executing. The in-flight
/// guard is entered before the first attempt and held through every
/// `RetryPolicy` backoff, so a waiter that arrives mid-backoff still
/// sees the completed launch when `wait()` returns.
#[test]
fn wait_blocks_across_full_retry_backoff_cycle() {
    let backoff = Duration::from_millis(150);
    let q = injecting(FaultPlan::transient_burst(2), RetryPolicy { max_attempts: 3, backoff });
    let worker_q = q.clone();
    let submitted = Arc::new(AtomicU32::new(0));
    let submitted2 = Arc::clone(&submitted);
    let b = Buffer::<u32>::new(64);
    let v = b.view();
    let t = std::thread::spawn(move || {
        submitted2.store(1, Ordering::Release);
        worker_q
            .try_parallel_for("retried", Range::d1(64), move |it| v.set(it.gid(0), 1))
            .expect("two bursts fit a three-attempt budget")
    });
    while submitted.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    // Land inside the first 150 ms backoff window (attempt 1 fails
    // immediately; the kernel cannot have run yet), then wait.
    std::thread::sleep(Duration::from_millis(50));
    q.wait();
    // The snapshot taken right after wait() returns must already hold
    // the completed launch; an early return mid-backoff reads zeros.
    let snapshot = b.to_vec();
    assert!(
        snapshot.iter().all(|&x| x == 1),
        "wait() returned while a retried attempt was still backing off"
    );
    let e = t.join().unwrap();
    assert_eq!(
        e.resilience().faults_absorbed,
        2,
        "the run must actually have exercised the backoff cycle"
    );
}

/// A fired cancellation token stops an in-flight launch at the next
/// group boundary with a typed error, and the queue (and pool) stay
/// usable afterwards.
#[test]
fn cancel_token_stops_launch_mid_run_and_queue_survives() {
    let token = CancelToken::new();
    let q = Queue::new(Device::cpu())
        .with_parallelism(Parallelism::Sequential)
        .with_cancel_token(Some(token.clone()));
    let worker_q = q.clone();
    let started = Arc::new(AtomicU32::new(0));
    let started2 = Arc::clone(&started);
    let t = std::thread::spawn(move || {
        worker_q.nd_range("slow", NdRange::d1(64, 1), move |_ctx| {
            started2.store(1, Ordering::Release);
            std::thread::sleep(Duration::from_millis(5));
        })
    });
    while started.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    token.cancel();
    let e = t.join().unwrap().unwrap_err();
    assert_eq!(e, Error::Canceled { kernel: "slow" });

    // Same queue, fresh token slot: clean work still runs.
    let q = q.with_cancel_token(None);
    let b = Buffer::<u32>::new(128);
    let v = b.view();
    q.parallel_for("clean", Range::d1(128), move |it| v.set(it.gid(0), 1));
    assert!(b.to_vec().iter().all(|&x| x == 1));
}

/// Cancellation cuts a retry backoff short: a launch stuck in a long
/// deterministic backoff sequence returns `Canceled` promptly instead of
/// sleeping out its full budget.
#[test]
fn cancel_token_cuts_retry_backoff_short() {
    let token = CancelToken::new();
    let backoff = Duration::from_millis(50);
    let q = injecting(FaultPlan::transient_burst(1000), RetryPolicy { max_attempts: 1000, backoff })
        .with_cancel_token(Some(token.clone()));
    let t = std::thread::spawn(move || {
        let start = std::time::Instant::now();
        let r = q.try_parallel_for("doomed", Range::d1(16), |_| {});
        (r, start.elapsed())
    });
    std::thread::sleep(Duration::from_millis(60));
    token.cancel();
    let (r, elapsed) = t.join().unwrap();
    assert_eq!(r.unwrap_err(), Error::Canceled { kernel: "doomed" });
    // Far below the multi-second backoff budget the policy would sleep.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

/// Graph replay honours the queue's cancellation token on both the fast
/// path (pre-flight check) and stays replayable afterwards.
#[test]
fn canceled_graph_replay_is_typed_and_graph_stays_usable() {
    let q = Queue::new(Device::cpu());
    let b = Buffer::<u32>::new(64);
    let v = b.view();
    let g = Graph::record(&q, |g| {
        let v = v.clone();
        g.parallel_for("fill", Range::d1(64), &[writes(&b)], move |it| {
            v.set(it.gid(0), it.gid(0) as u32 + 1);
        });
    })
    .unwrap();

    let token = CancelToken::new();
    token.cancel();
    let canceled_q = q.clone().with_cancel_token(Some(token));
    let e = g.replay(&canceled_q).unwrap_err();
    assert!(matches!(e, Error::Canceled { .. }), "{e:?}");
    assert!(b.to_vec().iter().all(|&x| x == 0), "canceled replay must not run nodes");

    // The original (token-less) queue replays the same graph cleanly.
    g.replay(&q).unwrap();
    let out = b.to_vec();
    assert!(out.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
}

/// A resilience ledger attached to a queue accounts every launch:
/// retries and absorbed faults on success, typed failures (and
/// cancellations specifically) on error — the per-tenant accounting the
/// serving layer bills on.
#[test]
fn resilience_ledger_accounts_launches_retries_and_cancellations() {
    let ledger = Arc::new(ResilienceLedger::new());
    let retry = RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) };
    let q = injecting(FaultPlan::transient_burst(2), retry)
        .with_resilience_ledger(Some(Arc::clone(&ledger)));
    q.try_parallel_for("retried", Range::d1(16), |_| {}).unwrap();
    let s = ledger.snapshot();
    assert_eq!((s.launches, s.attempts, s.faults_absorbed), (1, 3, 2));
    assert_eq!((s.errors, s.canceled), (0, 0));

    let token = CancelToken::new();
    token.cancel();
    let q = q.with_cancel_token(Some(token));
    q.try_parallel_for("canceled", Range::d1(16), |_| {}).unwrap_err();
    let s = ledger.snapshot();
    assert_eq!(s.launches, 2);
    assert_eq!((s.errors, s.canceled), (1, 1));
}
