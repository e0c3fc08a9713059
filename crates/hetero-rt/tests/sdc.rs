//! Integration tests for the silent-data-corruption defense: seeded
//! bit-flip injection, page-checksum detection at launch boundaries, the
//! idle-time scrubber, and redundant execution with digest voting.
//!
//! Arming the integrity layer is process-global, so these tests live in
//! their own integration-test binary (own process, isolated from the
//! crate's unit tests) and serialize on one mutex. Each test arms
//! through the RAII [`Armed`] guard so a panic still disarms.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use hetero_rt::executor::Parallelism;
use hetero_rt::fault::FaultKind;
use hetero_rt::integrity;
use hetero_rt::{reads, reads_writes, writes, Graph};
use hetero_rt::{Buffer, Device, Error, FaultPlan, Hardening, Queue, Range, RetryPolicy};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| {
        // The process-wide pool sizes itself once; on a single-core host
        // that means zero parked workers and no idle scrubber. Pin a
        // small fixed pool before first use (same pattern as tests/pool.rs).
        if std::env::var_os("HETERO_RT_THREADS").is_none() {
            std::env::set_var("HETERO_RT_THREADS", "4");
        }
        Mutex::new(())
    })
    .lock()
    .unwrap_or_else(PoisonError::into_inner)
}

/// Arms the integrity layer for one test; disarms on drop (even on
/// panic), which also drops parked scrubber findings.
struct Armed;

impl Armed {
    fn new() -> Self {
        integrity::arm();
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        integrity::disarm();
    }
}

/// An integrity queue injecting `plan`, with `retry`.
fn integrity_queue(plan: &Arc<FaultPlan>, retry: RetryPolicy) -> Queue {
    let fault = Some(Arc::clone(plan));
    Queue::hardened(Device::cpu(), Hardening { fault, retry, integrity: true, ..Hardening::NONE })
}

/// The SDC tier on `plan`.
fn sdc(plan: &Arc<FaultPlan>) -> Queue {
    Queue::hardened(Device::cpu(), Hardening::sdc(Some(Arc::clone(plan))))
}

#[test]
fn targeted_flip_detected_at_exact_region_and_page() {
    let _g = serial();
    let _a = Armed::new();
    let b = Buffer::<u32>::new(600); // 2400 B -> pages 0..=2
    // Flip bit 2 of byte 1500: page 1 of this exact region.
    let plan = Arc::new(FaultPlan::flip_at(b.object_id(), 1500, 2));
    let q = integrity_queue(&plan, RetryPolicy::default());
    // Default policy = 1 attempt, so entry verification surfaces the
    // corruption as a typed error naming region, page, and seal epoch.
    let err = q.try_parallel_for("probe", Range::d1(1), |_| {}).unwrap_err();
    assert_eq!(
        err,
        Error::DataCorruption { region: b.object_id(), page: 1, epoch: 1 }
    );
    assert_eq!(plan.injected(), 1);
    // Detect-once: the offender was resealed, so a clean retry passes.
    let e = q.try_parallel_for("again", Range::d1(1), |_| {}).unwrap();
    assert_eq!(e.resilience().faults_absorbed, 0);
}

#[test]
fn adopted_buffers_are_protected_and_move_out_unregistered() {
    let _g = serial();
    let _a = Armed::new();
    let before = integrity::stats();
    let adopted = Buffer::from_vec(vec![7u32; 600]);
    let copied = Buffer::from_slice(&[7u32; 600]);
    assert_eq!(integrity::stats().regions, before.regions + 2);

    // An adopted allocation is sealed at construction and verified at
    // launch entry exactly like a copied one.
    for b in [&adopted, &copied] {
        let plan = Arc::new(FaultPlan::flip_at(b.object_id(), 1500, 2));
        let q = integrity_queue(&plan, RetryPolicy::default());
        let err = q.try_parallel_for("probe", Range::d1(1), |_| {}).unwrap_err();
        assert!(
            matches!(err, Error::DataCorruption { region, page: 1, .. } if region == b.object_id()),
            "{err:?}"
        );
    }
    assert!(integrity::stats().regions_verified > before.regions_verified);

    // Kernel writes through a view that dies with the launch, then the
    // sole owner moves the bytes out and its region goes with them.
    let q = Queue::hardened(Device::cpu(), Hardening { integrity: true, ..Hardening::NONE });
    let v = adopted.view();
    q.try_parallel_for("bump", Range::d1(600), move |it| v.update(it.gid(0), |x| x + 1)).unwrap();
    let out = adopted.into_vec();
    assert_eq!(integrity::stats().regions, before.regions + 1);
    assert_eq!((out.len(), out[0], out[599]), (600, 8, 8));
    q.try_parallel_for("after", Range::d1(1), |_| {}).unwrap();

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
    let _a = Armed::new();
    let b = Buffer::<f32>::new(256);
    let plan = Arc::new(FaultPlan::flip_at(b.object_id(), 100, 7));
    let q = integrity_queue(&plan, RetryPolicy::resilient());
    let before = integrity::detections_total();
    let v = b.view();
    let e = q
        .try_parallel_for("heal", Range::d1(256), move |it| v.set(it.gid(0), 1.0))
        .unwrap();
    assert!(e.resilience().attempts >= 2);
    assert!(e.resilience().faults_absorbed >= 1);
    assert_eq!(integrity::detections_total() - before, 1);
    assert!(b.to_vec().iter().all(|&x| x == 1.0));
}

#[test]
fn scrubber_finds_host_corruption_between_launches() {
    let _g = serial();
    let _a = Armed::new();
    let b = Buffer::<u64>::new(300); // 2400 B, sealed at registration
    // Raw view writes from host code are deliberately unhooked: the
    // documented corruption primitive.
    b.view().set(200, 0xDEAD); // byte 1600 -> page 1
    let before = integrity::detections_total();
    let deadline = Instant::now() + Duration::from_secs(10);
    while integrity::detections_total() == before {
        assert!(Instant::now() < deadline, "a scrub sweep never found the write");
        integrity::scrub_step();
    }
    // The finding is parked and localized, then reported once.
    assert!(
        matches!(
            integrity::verify_all(),
            Err(Error::DataCorruption { region, page: 1, .. }) if region == b.object_id()
        ),
        "the scrubber should localize the flip"
    );
    assert_eq!(integrity::verify_all(), Ok(()));
}

#[test]
fn parked_pool_workers_scrub_while_idle() {
    let _g = serial();
    let _a = Armed::new();
    // Spin up pool workers with a parallel launch, then corrupt a sealed
    // region and wait for an idle worker to park a violation.
    let q = Queue::new(Device::cpu()).with_parallelism(Parallelism::Threads(2));
    q.try_parallel_for("warm", Range::d1(2048), |_| {}).unwrap();
    let b = Buffer::<u32>::new(1024);
    let before = integrity::detections_total();
    b.view().set(10, 77);
    let deadline = Instant::now() + Duration::from_secs(10);
    while integrity::detections_total() == before {
        assert!(
            Instant::now() < deadline,
            "idle scrubber should find the flip within its park cadence"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        matches!(
            integrity::verify_all(),
            Err(Error::DataCorruption { region, page: 0, .. }) if region == b.object_id()
        ),
        "the parked finding names the region and page"
    );
}

#[test]
fn dmr_outvotes_exit_window_flips() {
    let _g = serial();
    let _a = Armed::new();
    let mut corrected_runs = 0u32;
    for seed in 1..=30u64 {
        let q = sdc(&Arc::new(FaultPlan::new(seed, 0.7).with_kinds(&[FaultKind::BitFlip])));
        let b = Buffer::<u32>::new(512);
        let v = b.view();
        let r = q.try_parallel_for("vote", Range::d1(512), move |it| {
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
    let _a = Armed::new();
    // Rate 1.0: every replica takes an exit-window flip at a fresh
    // sequenced site, so digests can never reach a 2-vote agreement.
    let q = sdc(&Arc::new(FaultPlan::new(99, 1.0).with_kinds(&[FaultKind::BitFlip])));
    let b = Buffer::<u32>::new(2048);
    let v = b.view();
    let err = q
        .try_parallel_for("never", Range::d1(16), move |it| v.set(it.gid(0), 1))
        .unwrap_err();
    // Budget = need (2) + retries (2) = 4 replica runs.
    assert_eq!(err, Error::ReplicaDivergence { kernel: "never", runs: 4 });
}

#[test]
fn stuck_page_survives_voting_but_never_silently() {
    let _g = serial();
    let _a = Armed::new();
    let plan = Arc::new(FaultPlan::new(5, 1.0).with_kinds(&[FaultKind::StuckPage]));
    let q = sdc(&plan);
    let b = Buffer::<u8>::new(4096);
    let v = b.view();
    q.try_parallel_for("s1", Range::d1(4096), move |it| v.set(it.gid(0), 0))
        .unwrap();
    // The stuck-at page was OR-masked onto the sealed exit image.
    assert!(plan.injected() >= 1);
    assert!(b.to_vec().iter().any(|&x| x != 0));
    // The next launch's entry verification sees it — deterministic
    // corruption is detectable even though replicas agree on it.
    let before = integrity::detections_total();
    let v2 = b.view();
    let e = q
        .try_parallel_for("s2", Range::d1(1), move |it| {
            let _ = v2.get(it.gid(0));
        })
        .unwrap();
    assert!(integrity::detections_total() > before);
    assert!(e.resilience().faults_absorbed >= 1);
}

#[test]
fn armed_rate_zero_launches_stay_clean() {
    let _g = serial();
    let _a = Armed::new();
    let dmr = Hardening::sdc(Some(Arc::new(FaultPlan::sdc(3, 0.0))));
    let q = Queue::hardened(Device::cpu(), Hardening { retry: RetryPolicy::default(), ..dmr });
    let b = Buffer::<f32>::new(1000);
    let before = integrity::detections_total();
    for round in 0..5 {
        // Coarse host writes between launches reseal; they must never
        // read as corruption.
        b.write(|s| s[0] = round as f32);
        let v = b.view();
        let e = q
            .try_parallel_for("clean", Range::d1(1000), move |it| {
                v.set(it.gid(0), v.get(it.gid(0)) + 1.0);
            })
            .unwrap();
        assert_eq!(e.resilience().faults_absorbed, 0);
        assert_eq!(e.resilience().divergences_corrected, 0);
        assert_eq!(e.resilience().replicas, 2);
    }
    assert_eq!(integrity::detections_total(), before);
    let stats = integrity::stats();
    assert!(stats.regions_verified > 0);
}

#[test]
fn write_from_reseals_and_a_raw_view_store_is_caught() {
    let _g = serial();
    let _a = Armed::new();
    let q = Queue::hardened(Device::cpu(), Hardening { integrity: true, ..Hardening::NONE });
    let b = Buffer::<u32>::new(512);
    // A coarse host write reseals: no false positive, protection stays.
    b.write_from(&vec![7u32; 512]);
    assert!(integrity::verify_all().is_ok());
    let e = q.try_parallel_for("touch", Range::d1(1), |_| {}).unwrap();
    assert_eq!(e.resilience().faults_absorbed, 0);
    // A raw store through a view bypasses the host-write protocol, so
    // the next launch entry reports it against the buffer's region.
    b.view().set(100, 1);
    let err = q.try_parallel_for("catch", Range::d1(1), |_| {}).unwrap_err();
    assert!(matches!(err, Error::DataCorruption { region, .. } if region == b.object_id()));
}

#[test]
fn host_set_reseals_its_page_and_keeps_the_rest_protected() {
    let _g = serial();
    let _a = Armed::new();
    let b = Buffer::<u32>::new(600); // 2400 B -> pages 0..=2
    // A host store between launches is not corruption...
    b.host_set(300, 9); // byte 1200 -> page 1
    assert!(integrity::verify_all().is_ok());
    assert_eq!(b.to_vec()[300], 9);
    // ...and the other pages keep their seal: a raw write to page 2 is
    // still caught afterwards, at its exact page.
    b.view().set(599, 1);
    assert!(matches!(
        integrity::verify_all(),
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
    assert!(integrity::verify_all().is_ok());
}

/// A read-back on an integrity queue verifies the one buffer it reads,
/// whatever else is in flight: a launch half-way through writing another
/// sealed buffer is neither walked nor flagged, and the read buffer's own
/// corruption is reported at its region and page, once. A plain queue's
/// read-back never verifies.
#[test]
fn read_back_verifies_its_buffer_while_a_launch_is_in_flight() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let _g = serial();
    let _a = Armed::new();
    let q = Queue::hardened(Device::cpu(), Hardening { integrity: true, ..Hardening::NONE });
    let hot = Buffer::<u32>::new(256);
    let cold = Buffer::<u32>::new(600); // 2400 B -> pages 0..=2
    let (started, release) = (AtomicBool::new(false), AtomicBool::new(false));
    let hv = hot.view();
    std::thread::scope(|s| {
        let launch = s.spawn(|| {
            q.try_parallel_for("in_flight", Range::d1(1), |_| {
                // A sealed page, half-written: to a global walk this is
                // indistinguishable from corruption.
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
        let before = integrity::detections_total();
        let clean = q.read_back(&cold);
        cold.view().set(599, 1); // a raw write behind the host APIs: page 2
        let corrupt = q.read_back(&cold);
        let again = q.read_back(&cold);
        let detections = integrity::detections_total() - before;
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
        assert_eq!(detections, 1, "the in-flight launch's buffer was not walked");
        launch.join().unwrap().unwrap();
    });
    cold.view().set(0, 9);
    assert_eq!(Queue::new(Device::cpu()).read_back(&cold).map(|v| v[0]), Ok(9));
    assert!(matches!(
        q.read_back(&cold),
        Err(Error::DataCorruption { region, page: 0, .. }) if region == cold.object_id()
    ));
}

/// Every parked scrubber finding is reported, one per verification: two
/// buffers corrupted before one sweep are two errors, not one error and a
/// silent reseal of the other.
#[test]
fn verify_all_reports_every_parked_finding_one_per_call() {
    let _g = serial();
    let _a = Armed::new();
    let (a, b) = (Buffer::<u32>::new(300), Buffer::<u32>::new(300));
    a.view().set(10, 1); // byte 40 -> page 0
    b.view().set(290, 1); // byte 1160 -> page 1
    let before = integrity::detections_total();
    let deadline = Instant::now() + Duration::from_secs(10);
    while integrity::detections_total() - before < 2 {
        assert!(Instant::now() < deadline, "the scrubber never found both writes");
        integrity::scrub_step();
    }
    let mut found: Vec<(u64, usize)> = (0..2)
        .map(|_| match integrity::verify_all() {
            Err(Error::DataCorruption { region, page, .. }) => (region, page),
            other => panic!("expected a parked finding, got {other:?}"),
        })
        .collect();
    found.sort();
    assert_eq!(found, [(a.object_id(), 0), (b.object_id(), 1)]);
    assert_eq!(integrity::verify_all(), Ok(()));
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

    // Armed: 8 MiB of sealed pages are verified before the kernel runs.
    let _a = Armed::new();
    let armed = Queue::with_profiling(Device::cpu()).with_integrity(true);
    let sealed = Buffer::<u64>::new(1 << 20);
    let ev = armed.try_parallel_for("armed", Range::d1(64), |_| {}).unwrap();
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
    let ev = healing.try_parallel_for("healed", Range::d1(64), |_| {}).unwrap();
    assert_eq!(ev.resilience().faults_absorbed, 1);
    let (overhead, kernel, invocation) = split(&ev);
    assert!(overhead >= backoff, "the back-off is launch overhead: {overhead:?}");
    assert!(kernel < invocation);
}

/// A recorded graph walked on a plain queue while the layer is armed
/// reseals the buffers its nodes write, so the next protocol entry does
/// not read the walk's own writes as corruption. A buffer it only reads
/// keeps its seal: a flip planted there still comes back at its region
/// and page.
#[test]
fn a_plain_queue_graph_walk_reseals_only_what_it_writes() {
    let _g = serial();
    let _a = Armed::new();
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
    let protocol = Queue::hardened(Device::cpu(), Hardening { integrity: true, ..Hardening::NONE });
    let before = integrity::detections_total();
    g.replay(&plain).unwrap();
    assert_eq!(g.fast_replays(), 0, "an armed process walks the graph launch by launch");
    protocol.try_parallel_for("entry", Range::d1(1), |_| {}).unwrap();
    assert_eq!(integrity::detections_total(), before, "the walk's writes read as corruption");
    assert_eq!(acc.to_vec()[0], 2);

    src.view().set(n - 1, 5); // a raw write behind the host APIs: page 2
    g.replay(&plain).unwrap();
    let err = protocol.try_parallel_for("entry", Range::d1(1), |_| {}).unwrap_err();
    assert!(
        matches!(err, Error::DataCorruption { region, page: 2, .. } if region == src.object_id()),
        "{err:?}"
    );
    assert_eq!(integrity::verify_all(), Ok(()), "only the read buffer diverged");
}
