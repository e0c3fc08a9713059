//! Compose tests: the recorded-graph executor crossed with every
//! hardening layer. The fast replay path is only legal on a fully
//! disarmed queue; these tests pin the contract that an *armed* queue
//! (fault injection, retry, sanitizer, integrity, redundancy) degrades
//! replay to the hardened per-launch path with every check still active
//! — same typed errors, same voting, same detection — and that the fast
//! path re-engages the moment the queue is disarmed.
//!
//! The integrity counters are process-wide, so the tests serialize on
//! one mutex.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use hetero_rt::executor::Parallelism;
use hetero_rt::prelude::*;
use hetero_rt::{Redundancy, RetryPolicy};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| {
        if std::env::var_os("HETERO_RT_THREADS").is_none() {
            std::env::set_var("HETERO_RT_THREADS", "4");
        }
        Mutex::new(())
    })
    .lock()
    .unwrap_or_else(PoisonError::into_inner)
}

fn disarmed() -> Queue {
    Queue::new(Device::cpu())
}

/// A CPU queue armed with `h`.
fn armed(h: Hardening) -> Queue {
    Queue::hardened(Device::cpu(), h)
}

/// `h` with fault plan `plan`.
fn with_plan(plan: FaultPlan, h: Hardening) -> Hardening {
    Hardening { fault: Some(Arc::new(plan)), ..h }
}

/// A two-node graph: `mid = src * 2`, then `out = mid + 1`.
fn doubling_graph(src: &Buffer<u32>, mid: &Buffer<u32>, out: &Buffer<u32>, q: &Queue) -> Graph {
    let n = src.len();
    let (sv, mv) = (src.view(), mid.view());
    let (mv2, ov) = (mid.view(), out.view());
    Graph::record(q, |g| {
        g.parallel_for("g_double", Range::d1(n), &[reads(src), writes(mid)], move |it| {
            mv.set(it.gid(0), sv.get(it.gid(0)) * 2);
        })
        .parallel_for("g_inc", Range::d1(n), &[reads(mid), writes(out)], move |it| {
            ov.set(it.gid(0), mv2.get(it.gid(0)) + 1);
        });
    })
    .unwrap()
}

/// An injected kernel panic fires through `replay` exactly as it does
/// through a live launch: same typed error, zero fast replays — and the
/// shared pool stays healthy for the disarmed fast path afterwards.
#[test]
fn fault_panic_through_replay_is_typed_and_pool_survives() {
    let _s = serial();
    let n = 256;
    let src = Buffer::from_slice(&vec![1u32; n]);
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);
    let q = disarmed();
    let g = doubling_graph(&src, &mid, &out, &q);

    let panicking = armed(with_plan(FaultPlan::panic_at("g_inc", 0), Hardening::NONE));
    let e = g.replay(&panicking).unwrap_err();
    assert!(
        matches!(e, Error::KernelPanicked { kernel: "g_inc", group: 0, .. }),
        "{e:?}"
    );
    assert_eq!(g.fast_replays(), 0, "armed queue must not take the fast path");

    // Same graph, disarmed queue: fast path, correct results, many times.
    for round in 1..=20u64 {
        g.replay(&q).unwrap();
        assert_eq!(g.fast_replays(), round);
    }
    assert!(out.to_vec().iter().all(|&v| v == 3));
}

/// A node can run four ways: launched directly, walked by `submit_each`,
/// or replayed fast, pooled or inline. Each reports a panic with the
/// exact group that raised it and stops on a deadline that fires inside
/// a group; run sequentially, it stops right after that group.
#[test]
fn every_route_reports_the_panicking_group_and_a_fired_deadline() {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Route {
        Direct,
        SubmitEach,
        Replay,
    }
    const GROUPS: usize = 64;
    let _s = serial();
    let out = Buffer::<u32>::new(GROUPS);
    let nd = NdRange::d1(GROUPS, 1);
    let mut wrong = Vec::new();
    let rows = [
        (Route::Direct, Parallelism::Sequential),
        (Route::Direct, Parallelism::Threads(2)),
        (Route::SubmitEach, Parallelism::Sequential),
        (Route::SubmitEach, Parallelism::Threads(2)),
        (Route::Replay, Parallelism::Threads(2)),
        (Route::Replay, Parallelism::Sequential),
    ];
    for (route, par) in rows {
        for deadline in [false, true] {
            let ran = Arc::new(AtomicUsize::new(0));
            let token = CancelToken::new();
            let q = disarmed().with_parallelism(par).with_cancel_token(Some(token.clone()));
            let (counter, view) = (Arc::clone(&ran), out.view());
            let kernel = move |ctx: &GroupCtx| {
                let g = ctx.group_linear();
                counter.fetch_add(1, Ordering::SeqCst);
                view.set(g, 1);
                match (deadline, g) {
                    (false, 5) => panic!("group five"),
                    (true, 3) => token.cancel(),
                    _ => {}
                }
            };
            let r = if route == Route::Direct {
                q.submit(&[writes(&out)]).nd_range("t", nd, kernel).map(drop)
            } else {
                let g = Graph::record(&q, |g| {
                    g.nd_range("t", nd, &[writes(&out)], kernel);
                })
                .unwrap();
                if route == Route::Replay {
                    g.replay(&q)
                } else {
                    g.submit_each(&q)
                }
            };
            let ran = ran.load(Ordering::SeqCst);
            let ok = match (&r, deadline) {
                (Err(Error::Canceled { kernel: "t" }), true) => {
                    par != Parallelism::Sequential || ran == 4
                }
                (Err(Error::KernelPanicked { kernel: "t", group: 5, .. }), false) => true,
                _ => false,
            };
            if !ok {
                let what = if deadline { "deadline in group 3" } else { "panic in group 5" };
                wrong.push(format!("{route:?} on {par:?}, {what}: {r:?} after {ran} groups"));
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

/// Transient launch failures inside a replay are absorbed by the
/// queue's retry budget (slow path) and surface immediately without
/// one — the same contract live launches have.
#[test]
fn transient_faults_compose_with_retry_through_replay() {
    let _s = serial();
    let n = 128;
    let src = Buffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);
    let q = disarmed();
    let g = doubling_graph(&src, &mid, &out, &q);

    // No retry budget: the first transient fault is a typed error.
    let fragile = armed(with_plan(FaultPlan::transient_burst(1), Hardening::NONE));
    let e = g.replay(&fragile).unwrap_err();
    assert!(matches!(e, Error::TransientLaunchFailure { attempts: 1, .. }), "{e:?}");

    // Resilient policy: a two-fault burst is absorbed and the replay
    // completes with correct results.
    let sturdy = armed(Hardening::resilient(Some(Arc::new(FaultPlan::transient_burst(2)))));
    g.replay(&sturdy).unwrap();
    assert!(out.to_vec().iter().enumerate().all(|(i, &v)| v == i as u32 * 2 + 1));
    assert_eq!(g.fast_replays(), 0);
}

/// The race sanitizer sees kernels executed via replay: a same-element
/// write race in a recorded node is reported as the typed `DataRace`.
#[test]
fn sanitizer_detects_race_through_replay() {
    let _s = serial();
    let n = 64;
    let b = Buffer::<u32>::new(n);
    let bv = b.view();
    let q = disarmed();
    let g = Graph::record(&q, |g| {
        g.parallel_for("g_racy", Range::d1(n), &[writes(&b)], move |it| {
            bv.set(0, it.gid(0) as u32); // every item writes element 0
        });
    })
    .unwrap();

    let watched = armed(Hardening::sanitizer());
    let e = g.replay(&watched).unwrap_err();
    assert!(matches!(e, Error::DataRace { kernel: "g_racy", element: 0, .. }), "{e:?}");
    assert_eq!(g.fast_replays(), 0);
}

/// A seeded bit-flip between replays is caught by the integrity layer's
/// launch-boundary verification inside the replayed plan, with the same
/// typed localisation a live launch produces; a retry budget heals it.
#[test]
fn integrity_detects_flip_through_replay_and_retry_heals() {
    let _s = serial();
    let n = 600; // 2400 B -> pages 0..=2
    let src = Buffer::from_slice(&vec![5u32; n]);
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);
    let q = disarmed();
    let g = doubling_graph(&src, &mid, &out, &q);

    let plan = Arc::new(FaultPlan::flip_at(src.object_id(), 1500, 2));
    let integrity = Hardening { integrity: true, ..Hardening::NONE };
    let flipped = armed(Hardening { fault: Some(Arc::clone(&plan)), ..integrity.clone() });
    let e = g.replay(&flipped).unwrap_err();
    assert_eq!(e, Error::DataCorruption { region: src.object_id(), page: 1, epoch: 1 });
    assert_eq!(plan.injected(), 1);

    // Detection resealed the region; with a retry budget a fresh flip
    // is absorbed and the replay completes.
    let plan2 = Arc::new(FaultPlan::flip_at(mid.object_id(), 100, 7));
    let retry = RetryPolicy::resilient();
    let healing = armed(Hardening { fault: Some(plan2), retry, ..integrity });
    g.replay(&healing).unwrap();
    assert_eq!(g.fast_replays(), 0);
}

/// DMR applies to replayed nodes: the slow path votes and accounts the
/// replica runs of both nodes to the queue's ledger, exactly like live
/// launches.
/// (Voting runs under the integrity protocol, as the SDC tier does.)
#[test]
fn redundancy_votes_on_replayed_nodes() {
    let _s = serial();
    let n = 128;
    let src = Buffer::from_slice(&vec![3u32; n]);
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);
    let q = disarmed();
    let g = doubling_graph(&src, &mid, &out, &q);

    let ledger = Arc::new(ResilienceLedger::new());
    let dmr = Hardening { integrity: true, redundancy: Redundancy::Dmr, ..Hardening::NONE };
    let voting = armed(dmr).with_resilience_ledger(Some(Arc::clone(&ledger)));
    g.replay(&voting).unwrap();
    assert_eq!(ledger.snapshot().replicas, 2 * 2);
    assert!(out.to_vec().iter().all(|&v| v == 7));
    assert_eq!(g.fast_replays(), 0);

    // A disarmed replay runs each node once.
    let ledger = Arc::new(ResilienceLedger::new());
    g.replay(&q.with_resilience_ledger(Some(Arc::clone(&ledger)))).unwrap();
    assert_eq!(ledger.snapshot().replicas, 2);
    assert_eq!(g.fast_replays(), 1);
}

/// Record once, mutate inputs, replay again: the graph pins structure
/// (nodes, ranges, chunks), not contents — each replay reads the
/// buffers as they are now. This is the contract the app timestep loops
/// (SRAD's q0 parameter buffer, ParticleFilter's frame parameters)
/// build on.
#[test]
fn record_mutate_replay_reads_current_contents() {
    let _s = serial();
    let n = 100;
    let src = Buffer::from_slice(&vec![1u32; n]);
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);
    let q = disarmed();
    let g = doubling_graph(&src, &mid, &out, &q);

    g.replay(&q).unwrap();
    assert!(out.to_vec().iter().all(|&v| v == 3));

    src.write_from(&vec![10u32; n]);
    g.replay(&q).unwrap();
    assert!(out.to_vec().iter().all(|&v| v == 21));

    // Host-side writes between replays follow the same rule.
    src.write(|s| s[..50].copy_from_slice(&[100; 50]));
    g.replay(&q).unwrap();
    let o = out.to_vec();
    assert!(o[..50].iter().all(|&v| v == 201));
    assert!(o[50..].iter().all(|&v| v == 21));
}

/// The same graph object flips between slow and fast path replay by
/// replay, tracking each queue's arming state — and both paths compute
/// the same bytes on both queue parallelism modes.
#[test]
fn fast_path_engages_exactly_when_disarmed() {
    let _s = serial();
    let n = 512;
    let src = Buffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);
    let q = disarmed();
    let g = doubling_graph(&src, &mid, &out, &q);

    g.replay(&armed(Hardening::sanitizer())).unwrap(); // clean kernels: sanitizer passes, slow path
    let slow = out.to_vec();
    assert_eq!(g.fast_replays(), 0);

    g.replay(&q).unwrap();
    let fast = out.to_vec();
    assert_eq!(g.fast_replays(), 1);
    assert_eq!(slow, fast);

    let seq = disarmed().with_parallelism(Parallelism::Sequential);
    g.replay(&seq).unwrap(); // inline, still the fast path
    assert_eq!(out.to_vec(), fast);
    assert_eq!(g.fast_replays(), 2);
}

/// The fast-path predicate field by field: a value with nothing armed, or
/// with only a retry budget, replays on the fast path; each other field
/// armed alone walks the recording launch by launch.
#[test]
fn each_hardening_field_alone_decides_the_route() {
    let _s = serial();
    let n = 64;
    let src = Buffer::from_slice(&vec![2u32; n]);
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);
    let g = doubling_graph(&src, &mid, &out, &disarmed());
    let retry_only = Hardening { retry: RetryPolicy::resilient(), ..Hardening::NONE };
    for (what, h) in [("NONE", Hardening::NONE), ("retry only", retry_only)] {
        let before = g.fast_replays();
        g.replay(&armed(h)).unwrap();
        assert_eq!(g.fast_replays(), before + 1, "{what} must replay fast");
    }
    let slow = [
        ("a rate-0 plan", with_plan(FaultPlan::new(1, 0.0), Hardening::NONE)),
        ("the sanitizer", Hardening::sanitizer()),
        ("DMR", Hardening { redundancy: Redundancy::Dmr, ..Hardening::NONE }),
        ("CPU fallback", Hardening { fallback: Fallback::Cpu, ..Hardening::NONE }),
        ("integrity", Hardening { integrity: true, ..Hardening::NONE }),
    ];
    for (what, h) in slow {
        let before = g.fast_replays();
        g.replay(&armed(h)).unwrap();
        assert_eq!(g.fast_replays(), before, "{what} alone must walk launch by launch");
    }
    assert!(out.to_vec().iter().all(|&v| v == 5));
}
