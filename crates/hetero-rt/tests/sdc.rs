//! Integration tests for the silent-data-corruption defense: seeded
//! bit-flip injection, page-checksum detection at the entry of the
//! launches that bind a buffer, redundant execution with digest voting,
//! and the scope of all three — a launch's bindings, never the rest of
//! the process.
//!
//! The integrity counters are process-wide, so these tests live in their
//! own integration-test binary and serialize on one mutex.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use hetero_rt::fault::FaultKind;
use hetero_rt::integrity;
use hetero_rt::{reads, reads_writes, writes, Graph};
use hetero_rt::{
    Buffer, Device, Error, FaultPlan, Hardening, Queue, Range, Redundancy, RetryPolicy,
};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
}

fn detections() -> u64 {
    integrity::stats().detections
}

/// An integrity queue injecting `plan`, with `retry`.
fn integrity_queue(plan: &Arc<FaultPlan>, retry: RetryPolicy) -> Queue {
    let fault = Some(Arc::clone(plan));
    Queue::hardened(Device::cpu(), Hardening { fault, retry, integrity: true, ..Hardening::NONE })
}

/// An integrity queue with nothing injected and one attempt.
fn protocol() -> Queue {
    Queue::hardened(Device::cpu(), Hardening { integrity: true, ..Hardening::NONE })
}

/// The SDC tier on `plan`.
fn sdc(plan: &Arc<FaultPlan>) -> Queue {
    Queue::hardened(Device::cpu(), Hardening::sdc(Some(Arc::clone(plan))))
}

/// A one-item launch on `q` that binds `b` for reading and does nothing:
/// the entry check of `b`'s region (sealing it on first use).
fn touch(q: &Queue, b: &Buffer<u32>) -> Result<(), Error> {
    q.submit(&[reads(b)]).try_parallel_for("touch", Range::d1(1), |_| {}).map(drop)
}

#[test]
fn targeted_flip_detected_at_exact_region_and_page() {
    let _g = serial();
    let b = Buffer::<u32>::new(600); // 2400 B -> pages 0..=2
    // Flip bit 2 of byte 1500: page 1 of this exact region.
    let plan = Arc::new(FaultPlan::flip_at(b.object_id(), 1500, 2));
    let q = integrity_queue(&plan, RetryPolicy::default());
    // A launch that binds another buffer leaves the flip pending.
    let other = Buffer::<u32>::new(4);
    touch(&q, &other).unwrap();
    assert_eq!(plan.injected(), 0);
    // Default policy = 1 attempt, so entry verification surfaces the
    // corruption as a typed error naming region, page, and seal epoch.
    let err = touch(&q, &b).unwrap_err();
    assert_eq!(err, Error::DataCorruption { region: b.object_id(), page: 1, epoch: 1 });
    assert_eq!(plan.injected(), 1);
    // Detect-once: the offender was resealed, so a clean retry passes.
    let e = q.submit(&[reads(&b)]).try_parallel_for("again", Range::d1(1), |_| {}).unwrap();
    assert_eq!(e.resilience().faults_absorbed, 0);
}

/// A flip in each of the four lanes of one 32-byte block (bytes 1024,
/// 1032, 1040 and 1048 open page 1) and one in the zero-padded last word
/// of a partial last page: each is found at its exact region and page,
/// and once.
#[test]
fn a_flip_in_every_lane_and_in_a_partial_tail_is_found_at_its_page_once() {
    let _g = serial();
    // 599 words are 2396 B: page 2 holds 348 B and ends in half a word.
    for (byte, page) in [(1024, 1), (1032, 1), (1040, 1), (1048, 1), (2395, 2)] {
        let b = Buffer::<u32>::new(599);
        let plan = Arc::new(FaultPlan::flip_at(b.object_id(), byte, 5));
        let q = integrity_queue(&plan, RetryPolicy::default());
        let before = detections();
        let err = touch(&q, &b).unwrap_err();
        assert_eq!(err, Error::DataCorruption { region: b.object_id(), page, epoch: 1 }, "{byte}");
        assert_eq!((plan.injected(), detections() - before), (1, 1), "byte {byte}");
        touch(&q, &b).unwrap();
        assert_eq!(detections() - before, 1, "byte {byte} reported twice");
    }
}

#[test]
fn adopted_buffers_are_protected_and_move_out_unregistered() {
    let _g = serial();
    let before = integrity::stats();
    let adopted = Buffer::from_vec(vec![7u32; 600]);
    let copied = Buffer::from_slice(&[7u32; 600]);
    assert_eq!(integrity::stats().regions, before.regions, "no hardened launch bound them yet");

    // An adopted allocation is sealed by the first launch that binds it
    // and verified at launch entry exactly like a copied one.
    for b in [&adopted, &copied] {
        let plan = Arc::new(FaultPlan::flip_at(b.object_id(), 1500, 2));
        let q = integrity_queue(&plan, RetryPolicy::default());
        let err = touch(&q, b).unwrap_err();
        assert!(
            matches!(err, Error::DataCorruption { region, page: 1, .. } if region == b.object_id()),
            "{err:?}"
        );
    }
    assert_eq!(integrity::stats().regions, before.regions + 2);
    assert!(integrity::stats().regions_verified > before.regions_verified);

    // Kernel writes through a view that dies with the launch, then the
    // sole owner moves the bytes out and its region goes with them.
    let q = protocol();
    let v = adopted.view();
    q.submit(&[reads_writes(&adopted)])
        .try_parallel_for("bump", Range::d1(600), move |it| v.update(it.gid(0), |x| x + 1))
        .unwrap();
    let out = adopted.into_vec();
    assert_eq!(integrity::stats().regions, before.regions + 1);
    assert_eq!((out.len(), out[0], out[599]), (600, 8, 8));
    touch(&q, &copied).unwrap();

    // The copy fallback leaves the region with the surviving handle.
    let view = copied.view();
    let _ = copied.into_vec();
    assert_eq!(integrity::stats().regions, before.regions + 1);
    drop(view);
    assert_eq!(integrity::stats().regions, before.regions);
}

#[test]
fn detection_is_absorbed_by_retry_budget() {
    let _g = serial();
    let b = Buffer::<f32>::new(256);
    let plan = Arc::new(FaultPlan::flip_at(b.object_id(), 100, 7));
    let q = integrity_queue(&plan, RetryPolicy::resilient());
    let before = detections();
    let v = b.view();
    let e = q
        .submit(&[writes(&b)])
        .try_parallel_for("heal", Range::d1(256), move |it| v.set(it.gid(0), 1.0))
        .unwrap();
    assert!(e.resilience().attempts >= 2);
    assert!(e.resilience().faults_absorbed >= 1);
    assert_eq!(detections() - before, 1);
    assert!(b.to_vec().iter().all(|&x| x == 1.0));
}

/// A raw store through a view between launches is reported by the next
/// launch that binds the buffer, at its region and page, once; a launch
/// that binds something else neither reports nor reseals it.
#[test]
fn a_raw_store_between_launches_is_reported_by_the_next_launch_that_binds_it() {
    let _g = serial();
    let q = protocol();
    let (b, other) = (Buffer::<u32>::new(600), Buffer::<u32>::new(4)); // b: pages 0..=2
    touch(&q, &b).unwrap();
    // Raw view writes from host code are deliberately unhooked: the
    // documented corruption primitive.
    b.view().set(400, 0xDEAD); // byte 1600 -> page 1
    touch(&q, &other).unwrap();
    assert!(
        matches!(
            touch(&q, &b),
            Err(Error::DataCorruption { region, page: 1, .. }) if region == b.object_id()
        ),
        "the next launch that binds the buffer localizes the store"
    );
    assert_eq!(touch(&q, &b), Ok(()), "reported once");
}

/// The same store is reported by an integrity queue's read-back of the
/// buffer, once; a plain queue's read-back never verifies.
#[test]
fn a_raw_store_between_launches_is_reported_by_read_back() {
    let _g = serial();
    let q = protocol();
    let b = Buffer::<u32>::new(1024);
    touch(&q, &b).unwrap();
    b.view().set(10, 77); // byte 40 -> page 0
    assert_eq!(Queue::new(Device::cpu()).read_back(&b).map(|v| v[10]), Ok(77));
    assert!(
        matches!(
            q.read_back(&b),
            Err(Error::DataCorruption { region, page: 0, .. }) if region == b.object_id()
        ),
        "the read-back names the region and page"
    );
    assert_eq!(q.read_back(&b).map(|v| v[10]), Ok(77), "reported once, then resealed");
}

/// Every bound region's finding is reported, one per launch: two buffers
/// corrupted before one launch that binds both are two errors, not one
/// error and a silent reseal of the other.
#[test]
fn each_bound_region_reports_its_own_finding_once() {
    let _g = serial();
    let q = protocol();
    let (a, b) = (Buffer::<u32>::new(300), Buffer::<u32>::new(300));
    let both = || q.submit(&[reads(&a), reads(&b)]).try_parallel_for("both", Range::d1(1), |_| {});
    both().unwrap();
    a.view().set(10, 1); // byte 40 -> page 0
    b.view().set(290, 1); // byte 1160 -> page 1
    let found: Vec<(u64, usize)> = (0..2)
        .map(|_| match both() {
            Err(Error::DataCorruption { region, page, .. }) => (region, page),
            other => panic!("expected a finding, got {other:?}"),
        })
        .collect();
    assert_eq!(found, [(a.object_id(), 0), (b.object_id(), 1)]);
    assert!(both().is_ok());
}

#[test]
fn dmr_outvotes_exit_window_flips() {
    let _g = serial();
    let mut corrected_runs = 0u32;
    for seed in 1..=30u64 {
        let q = sdc(&Arc::new(FaultPlan::new(seed, 0.7).with_kinds(&[FaultKind::BitFlip])));
        let b = Buffer::<u32>::new(512);
        let v = b.view();
        let r = q.submit(&[writes(&b)]).try_parallel_for("vote", Range::d1(512), move |it| {
            v.set(it.gid(0), it.gid(0) as u32 * 3 + 1);
        });
        match r {
            Ok(e) => {
                let res = e.resilience();
                assert!(res.replicas >= 2, "DMR must run at least two replicas");
                if res.divergences_corrected > 0 {
                    corrected_runs += 1;
                }
                // An accepted vote is the *correct* output, always: the
                // minority (flipped) digest lost.
                let out = b.to_vec();
                assert!(
                    out.iter().enumerate().all(|(i, &x)| x == i as u32 * 3 + 1),
                    "seed {seed}: accepted output must be the agreed clean run"
                );
            }
            // Exhausted budgets are loud, never silent.
            Err(Error::ReplicaDivergence { .. }) | Err(Error::DataCorruption { .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
    assert!(
        corrected_runs >= 3,
        "expected several seeds to exercise the vote-and-correct path, got {corrected_runs}"
    );
}

#[test]
fn replica_divergence_is_typed_when_digests_never_converge() {
    let _g = serial();
    // Rate 1.0: every replica takes an exit-window flip at a fresh
    // sequenced site, so digests can never reach a 2-vote agreement.
    let q = sdc(&Arc::new(FaultPlan::new(99, 1.0).with_kinds(&[FaultKind::BitFlip])));
    let b = Buffer::<u32>::new(2048);
    let v = b.view();
    let err = q
        .submit(&[writes(&b)])
        .try_parallel_for("never", Range::d1(16), move |it| v.set(it.gid(0), 1))
        .unwrap_err();
    // Budget = need (2) + retries (2) = 4 replica runs.
    assert_eq!(err, Error::ReplicaDivergence { kernel: "never", runs: 4 });
}

#[test]
fn stuck_page_survives_voting_but_never_silently() {
    let _g = serial();
    let plan = Arc::new(FaultPlan::new(5, 1.0).with_kinds(&[FaultKind::StuckPage]));
    let q = sdc(&plan);
    let b = Buffer::<u8>::new(4096);
    let v = b.view();
    q.submit(&[writes(&b)])
        .try_parallel_for("s1", Range::d1(4096), move |it| v.set(it.gid(0), 0))
        .unwrap();
    // The stuck-at page was OR-masked onto the sealed exit image.
    assert!(plan.injected() >= 1);
    assert!(b.to_vec().iter().any(|&x| x != 0));
    // The next launch's entry verification sees it — deterministic
    // corruption is detectable even though replicas agree on it.
    let before = detections();
    let v2 = b.view();
    let e = q
        .submit(&[reads(&b)])
        .try_parallel_for("s2", Range::d1(1), move |it| {
            let _ = v2.get(it.gid(0));
        })
        .unwrap();
    assert!(detections() > before);
    assert!(e.resilience().faults_absorbed >= 1);
}

#[test]
fn armed_rate_zero_launches_stay_clean() {
    let _g = serial();
    let dmr = Hardening::sdc(Some(Arc::new(FaultPlan::sdc(3, 0.0))));
    let q = Queue::hardened(Device::cpu(), Hardening { retry: RetryPolicy::default(), ..dmr });
    let b = Buffer::<f32>::new(1000);
    let before = integrity::stats();
    for round in 0..5 {
        // Coarse host writes between launches reseal; they must never
        // read as corruption.
        b.write(|s| s[0] = round as f32);
        let v = b.view();
        let e = q
            .submit(&[reads_writes(&b)])
            .try_parallel_for("clean", Range::d1(1000), move |it| {
                v.set(it.gid(0), v.get(it.gid(0)) + 1.0);
            })
            .unwrap();
        assert_eq!(e.resilience().faults_absorbed, 0);
        assert_eq!(e.resilience().divergences_corrected, 0);
        assert_eq!(e.resilience().replicas, 2);
    }
    let after = integrity::stats();
    assert_eq!(after.detections, before.detections);
    assert_eq!(after.regions_verified, before.regions_verified + 5);
}

#[test]
fn write_from_reseals_and_a_raw_view_store_is_caught() {
    let _g = serial();
    let q = protocol();
    let b = Buffer::<u32>::new(512);
    touch(&q, &b).unwrap();
    // A coarse host write reseals: no false positive, protection stays.
    b.write_from(&[7u32; 512]);
    assert!(q.read_back(&b).is_ok());
    let e = q.submit(&[reads(&b)]).try_parallel_for("touch", Range::d1(1), |_| {}).unwrap();
    assert_eq!(e.resilience().faults_absorbed, 0);
    // A raw store through a view bypasses the host-write protocol, so
    // the next launch entry reports it against the buffer's region.
    b.view().set(100, 1);
    let err = touch(&q, &b).unwrap_err();
    assert!(matches!(err, Error::DataCorruption { region, .. } if region == b.object_id()));
}

#[test]
fn host_set_reseals_its_page_and_keeps_the_rest_protected() {
    let _g = serial();
    let q = protocol();
    let b = Buffer::<u32>::new(600); // 2400 B -> pages 0..=2
    touch(&q, &b).unwrap();
    // A host store between launches is not corruption...
    b.host_set(300, 9); // byte 1200 -> page 1
    assert_eq!(q.read_back(&b).map(|v| v[300]), Ok(9));
    // ...and the other pages keep their seal: a raw write to page 2 is
    // still caught afterwards, at its exact page.
    b.view().set(599, 1);
    assert!(matches!(
        q.read_back(&b),
        Err(Error::DataCorruption { region, page: 2, .. }) if region == b.object_id()
    ));
    // A store into a page that already diverged reports it (once) and
    // writes nothing.
    b.view().set(0, 5);
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.host_set(1, 7))).unwrap_err();
    assert!(matches!(
        payload.downcast_ref::<Error>(),
        Some(Error::DataCorruption { region, page: 0, .. }) if *region == b.object_id()
    ));
    assert_eq!(b.to_vec()[1], 0);
    b.host_set(1, 7);
    assert_eq!(b.to_vec()[..2], [5, 7]);
    assert!(q.read_back(&b).is_ok());
}

/// A read-back on an integrity queue verifies the one buffer it reads,
/// whatever else is in flight: a launch half-way through writing another
/// sealed buffer is neither walked nor flagged, and the read buffer's own
/// corruption is reported at its region and page, once. A plain queue's
/// read-back never verifies.
#[test]
fn read_back_verifies_its_buffer_while_a_launch_is_in_flight() {
    let _g = serial();
    let q = protocol();
    let hot = Buffer::<u32>::new(256);
    let cold = Buffer::<u32>::new(600); // 2400 B -> pages 0..=2
    touch(&q, &cold).unwrap();
    let (started, release) = (AtomicBool::new(false), AtomicBool::new(false));
    let hv = hot.view();
    std::thread::scope(|s| {
        let launch = s.spawn(|| {
            q.submit(&[writes(&hot)]).try_parallel_for("in_flight", Range::d1(1), |_| {
                // A sealed page, half-written: to a walk over every
                // region this is indistinguishable from corruption.
                hv.set(0, 7);
                started.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !started.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "launch never started");
            std::thread::yield_now();
        }
        let before = detections();
        let clean = q.read_back(&cold);
        cold.view().set(599, 1); // a raw write behind the host APIs: page 2
        let corrupt = q.read_back(&cold);
        let again = q.read_back(&cold);
        let found = detections() - before;
        release.store(true, Ordering::Release);
        assert_eq!(clean, Ok(vec![0; 600]));
        assert!(
            matches!(
                corrupt,
                Err(Error::DataCorruption { region, page: 2, .. }) if region == cold.object_id()
            ),
            "{corrupt:?}"
        );
        assert_eq!(again.map(|v| v[599]), Ok(1), "reported once, then resealed");
        assert_eq!(found, 1, "the in-flight launch's buffer was not walked");
        launch.join().unwrap().unwrap();
    });
    cold.view().set(0, 9);
    assert_eq!(Queue::new(Device::cpu()).read_back(&cold).map(|v| v[0]), Ok(9));
    assert!(matches!(
        q.read_back(&cold),
        Err(Error::DataCorruption { region, page: 0, .. }) if region == cold.object_id()
    ));
}

/// `started` is stamped when everything that precedes execution is
/// behind the launch, so an event's `overhead()` is what the launch
/// spent before its first work-group: the integrity entry walk on an
/// armed queue, the back-off of an absorbed fault.
#[test]
fn launch_overhead_covers_the_entry_walk_and_absorbed_transients() {
    let _g = serial();
    let split = |ev: &hetero_rt::Event| {
        let p = ev.profiling().expect("profiling queue");
        (p.overhead(), p.ended.duration_since(p.started), p.ended.duration_since(p.submitted))
    };

    let plain = Queue::with_profiling(Device::cpu());
    let (_, kernel, invocation) =
        split(&plain.try_parallel_for("plain", Range::d1(64), |_| {}).unwrap());
    assert!(kernel <= invocation);

    // Armed: 8 MiB of pages are sealed and verified before the kernel runs.
    let armed = Queue::with_profiling(Device::cpu()).with_integrity(true);
    let sealed = Buffer::<u64>::new(1 << 20);
    let bound = [reads(&sealed)];
    let ev = armed.submit(&bound).try_parallel_for("armed", Range::d1(64), |_| {}).unwrap();
    let (overhead, kernel, invocation) = split(&ev);
    assert!(
        overhead > Duration::from_micros(50),
        "the entry walk is launch overhead: {overhead:?}"
    );
    assert!(kernel < invocation);

    // One absorbed fault: the retry's back-off after a detected flip lies
    // before `started`.
    let backoff = Duration::from_millis(2);
    let healing = armed.with_retry_policy(RetryPolicy { max_attempts: 2, backoff });
    sealed.view().set(7, 1); // a raw write behind the host APIs
    let ev = healing.submit(&bound).try_parallel_for("healed", Range::d1(64), |_| {}).unwrap();
    assert_eq!(ev.resilience().faults_absorbed, 1);
    let (overhead, kernel, invocation) = split(&ev);
    assert!(overhead >= backoff, "the back-off is launch overhead: {overhead:?}");
    assert!(kernel < invocation);
}

/// A recorded graph replayed on a plain queue takes the fast path
/// whatever other queues are armed with, and reseals the registered
/// regions its nodes write, so the next protocol entry does not read the
/// walk's own writes as corruption. A buffer it only reads keeps its
/// seal: a flip planted there still comes back at its region and page.
#[test]
fn a_plain_queue_graph_walk_reseals_only_what_it_writes() {
    let _g = serial();
    let n = 600; // 2400 B -> pages 0..=2
    let src = Buffer::from_slice(&vec![1u32; n]);
    let (dst, acc) = (Buffer::<u32>::new(n), Buffer::<u32>::new(n));
    let (sv, dv, dv2, av) = (src.view(), dst.view(), dst.view(), acc.view());
    let plain = Queue::new(Device::cpu());
    let g = Graph::record(&plain, |g| {
        g.parallel_for("copy", Range::d1(n), &[reads(&src), writes(&dst)], move |it| {
            dv.set(it.gid(0), sv.get(it.gid(0)) + 1);
        })
        .parallel_for("acc", Range::d1(n), &[reads(&dst), reads_writes(&acc)], move |it| {
            av.update(it.gid(0), |x| x + dv2.get(it.gid(0)));
        });
    })
    .unwrap();
    let protocol = protocol();
    let all = || {
        let bound = [reads(&src), reads(&dst), reads(&acc)];
        protocol.submit(&bound).try_parallel_for("entry", Range::d1(1), |_| {})
    };
    all().unwrap();
    let before = detections();
    g.replay(&plain).unwrap();
    assert_eq!(g.fast_replays(), 1, "a plain replay takes the fast path");
    all().unwrap();
    assert_eq!(detections(), before, "the walk's writes read as corruption");
    assert_eq!(acc.to_vec()[0], 2);

    src.view().set(n - 1, 5); // a raw write behind the host APIs: page 2
    g.replay(&plain).unwrap();
    let err = all().unwrap_err();
    assert!(
        matches!(err, Error::DataCorruption { region, page: 2, .. } if region == src.object_id()),
        "{err:?}"
    );
    assert!(all().is_ok(), "only the read buffer diverged");
}

// --- the scope is the launch's bindings ------------------------------------

/// A launch on an integrity queue that states no bindings has nothing to
/// scope the protocol to: it is refused before its kernel runs, with no
/// retry, whatever the retry budget.
#[test]
fn an_unbound_launch_on_an_integrity_queue_is_refused() {
    let _g = serial();
    let q = protocol().with_retry_policy(RetryPolicy::resilient());
    let ran = AtomicBool::new(false);
    let err = q.try_parallel_for("unbound", Range::d1(4), |_| ran.store(true, Ordering::Relaxed));
    assert_eq!(err.unwrap_err(), Error::UnboundLaunch { kernel: "unbound" });
    assert!(!ran.load(Ordering::Relaxed));
}

/// Host writes hold the region lock across the copy and the reseal:
/// 40 rounds of 4 MiB `write_from` and `write` on a buffer, beside a
/// thread verifying it through `read_back` and through a launch that
/// binds it for reading, give no finding.
#[test]
fn host_writes_never_read_as_corruption_to_a_concurrent_verifier() {
    let _g = serial();
    let q = protocol();
    let n = 1 << 20; // 4 MiB of u32
    let x = Buffer::<u32>::new(n);
    touch(&q, &x).unwrap();
    let (findings, checks) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let stop = AtomicBool::new(false);
    let sources: Vec<Vec<u32>> = (1..=2).map(|r| vec![r; n]).collect();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let read = q.read_back(&x).map(drop);
                for r in [read, touch(&q, &x)] {
                    checks.fetch_add(1, Ordering::Relaxed);
                    if r.is_err() {
                        findings.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        for round in 0..40u32 {
            x.write_from(&sources[round as usize % 2]);
            x.write(|s| s.fill(round));
        }
        stop.store(true, Ordering::Release);
    });
    assert!(checks.load(Ordering::Relaxed) > 0);
    assert_eq!(findings.load(Ordering::Relaxed), 0, "a host write read as corruption");
}

/// A plain launch on one buffer makes no integrity call, so a hardened
/// launch on another buffer has nothing to flag.
#[test]
fn a_plain_launch_on_one_buffer_never_fails_a_hardened_launch_on_another() {
    let _g = serial();
    let hard = protocol();
    let (x, y) = (Buffer::<u32>::new(256), Buffer::<u32>::new(256));
    touch(&hard, &x).unwrap();
    let xv = x.view();
    let plain = Queue::new(Device::cpu());
    plain.parallel_for("plain_x", Range::d1(256), move |it| xv.set(it.gid(0), 1));
    let yv = y.view();
    let r = hard.submit(&[writes(&y)]).try_parallel_for("hard_y", Range::d1(256), move |it| {
        yv.set(it.gid(0), 2);
    });
    assert!(r.is_ok(), "{r:?}");
}

/// DMR snapshots, restores and digests only the regions its launch
/// binds: another thread's write to another buffer while the first
/// replica runs is kept, and no divergence is booked for it.
#[test]
fn dmr_on_one_buffer_keeps_another_threads_write_to_another() {
    let _g = serial();
    let dmr = Hardening {
        integrity: true,
        redundancy: Redundancy::Dmr,
        retry: RetryPolicy::resilient(),
        ..Hardening::NONE
    };
    let dmr = Queue::hardened(Device::cpu(), dmr);
    let (x, y) = (Buffer::<u32>::new(64), Buffer::<u32>::new(64));
    touch(&dmr, &x).unwrap();
    let (started, written) = (AtomicBool::new(false), AtomicBool::new(false));
    let yv = y.view();
    let ev = std::thread::scope(|s| {
        s.spawn(|| {
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            x.write_from(&[9; 64]);
            written.store(true, Ordering::Release);
        });
        dmr.submit(&[writes(&y)]).try_parallel_for("dmr_y", Range::d1(1), |_| {
            // The first replica waits for the other thread's write.
            if !started.swap(true, Ordering::AcqRel) {
                while !written.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            yv.set(0, 3);
        })
    });
    let ev = ev.unwrap();
    assert_eq!(x.to_vec()[0], 9, "the other thread's write was reverted");
    assert_eq!(ev.resilience().divergences_corrected, 0);
    assert_eq!(touch(&dmr, &x), Ok(()), "the write resealed its region");
}

/// The fast replay path reads no global: a plain replay after another
/// queue hardened a launch is counted in `fast_replays()`.
#[test]
fn a_plain_replay_takes_the_fast_path_after_another_queue_hardens() {
    let _g = serial();
    let hardened = Buffer::<u32>::new(16);
    touch(&protocol(), &hardened).unwrap();
    assert!(integrity::armed());
    let plain = Queue::new(Device::cpu());
    let b = Buffer::<u32>::new(4096);
    let bv = b.view();
    let g = Graph::record(&plain, |g| {
        g.parallel_for("w", Range::d1(4096), &[writes(&b)], move |it| bv.set(it.gid(0), 1));
    })
    .unwrap();
    g.replay(&plain).unwrap();
    assert_eq!(g.fast_replays(), 1);
}

/// The SDC layer's cost on a plain queue is a count: in a process where
/// an SDC queue has run, a plain launch and a plain replay — on buffers
/// that carry regions — leave `integrity::stats()` unchanged.
#[test]
fn plain_launches_and_replays_make_no_integrity_call() {
    let _g = serial();
    let sdc = sdc(&Arc::new(FaultPlan::sdc(1, 0.0)));
    let b = Buffer::<u32>::new(4096);
    let bv = b.view();
    sdc.submit(&[writes(&b)])
        .try_parallel_for("sdc", Range::d1(4096), move |it| bv.set(it.gid(0), 1))
        .unwrap();
    let plain = Queue::new(Device::cpu());
    let (bv, bv2) = (b.view(), b.view());
    let g = Graph::record(&plain, |g| {
        g.parallel_for("replayed", Range::d1(4096), &[reads_writes(&b)], move |it| {
            bv2.update(it.gid(0), |v| v + 1);
        });
    })
    .unwrap();
    let before = integrity::stats();
    plain.submit(&[reads_writes(&b)]).parallel_for("plain", Range::d1(4096), move |it| {
        bv.update(it.gid(0), |v| v + 1);
    });
    g.replay(&plain).unwrap();
    assert_eq!(integrity::stats(), before);
    assert_eq!(g.fast_replays(), 1);
}
