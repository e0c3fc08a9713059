//! Composition tests for the work-stealing data path: stealing must not
//! weaken any contract the shared-counter pool upheld. A panicking index
//! still cancels the whole pool job (done-accounting stays exact, the
//! pool survives); the race sanitizer reports the same
//! `(kernel, element, kind)` triple no matter which worker stole which
//! span — including through the lane accessors, which record the same
//! per-element accesses as the scalar path; and graph replay's stealable
//! node sweeps stay bit-equal to the per-launch execution of the same
//! kernels across many fast-path replays.

use std::sync::atomic::{AtomicUsize, Ordering};

use hetero_rt::executor::Parallelism;
use hetero_rt::prelude::*;
use hetero_rt::sanitize::take_last_reports;
use hetero_rt::{pool, RaceKind};

/// A panicking index mid-job cancels the rest of the job: the payload
/// comes back promptly, the done-accounting still completes the job
/// exactly once, and the pool keeps scheduling clean jobs afterwards.
/// Repeated so the panicking index lands on the submitter and on
/// helpers in different interleavings.
#[test]
fn chunk_panic_under_stealing_drains_every_deque_and_pool_survives() {
    for round in 0..25 {
        let trip = 397 * (round + 1); // a different index each round
        let (_, payload) = pool::run(10_000, &|i| {
            if i == trip {
                panic!("boom");
            }
            std::hint::black_box(i);
        });
        let payload = payload.expect("the panicking index must surface its payload");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));

        // The pool must be fully reusable with exact coverage: every
        // index of a follow-up job runs exactly once.
        let hits = AtomicUsize::new(0);
        let (_, payload) = pool::run(10_000, &|i| {
            hits.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert!(payload.is_none());
        assert_eq!(hits.load(Ordering::Relaxed), 10_000 * 10_001 / 2, "round {round}");
    }
}

/// The canonical write/write race must be reported with the identical
/// stable triple on every run under the stealing scheduler — which
/// spans were stolen by whom must not leak into the report.
#[test]
fn race_report_is_identical_across_stolen_schedules() {
    let mut triples = Vec::new();
    for _ in 0..10 {
        let q = Queue::hardened(Device::cpu(), Hardening::sanitizer())
            .with_parallelism(Parallelism::Auto);
        let b = Buffer::<u32>::new(16);
        let v = b.view();
        let e = q
            .nd_range("steal_racy", NdRange::d1(64 * 16, 16), move |ctx| {
                v.set(3, ctx.group_linear() as u32);
            })
            .unwrap_err();
        assert!(matches!(
            e,
            Error::DataRace { kernel: "steal_racy", element: 3, kind: RaceKind::WriteWrite, .. }
        ));
        let reports = take_last_reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        triples.push((r.kernel, r.element, r.kind, r.group, r.other_group));
    }
    assert!(
        triples.windows(2).all(|w| w[0] == w[1]),
        "race triple must not depend on the steal schedule: {triples:?}"
    );
}

/// Lane accessors record the same per-element sanitizer accesses as the
/// scalar path: the same conflicting write reported through one
/// `set_lanes::<LANES>`, through eight `set_lanes::<1>` and through
/// eight scalar `set`s must yield the same stable triple.
#[test]
fn lane_accessors_report_races_identically_to_scalar_writes() {
    use hetero_rt::{Lanes, LANES};
    let run = |name: &'static str| {
        let q = Queue::hardened(Device::cpu(), Hardening::sanitizer());
        let b = Buffer::<u32>::new(LANES * 2);
        let v = b.view();
        // Every group writes the same 8-element block.
        let e = q
            .nd_range(name, NdRange::d1(8 * 4, 4), move |ctx| {
                let g = ctx.group_linear() as u32;
                match name {
                    "wide" => v.set_lanes(0, Lanes([g; LANES])),
                    "narrow" => (0..LANES).for_each(|k| v.set_lanes(k, Lanes([g]))),
                    _ => (0..LANES).for_each(|k| v.set(k, g)),
                }
            })
            .unwrap_err();
        assert!(matches!(e, Error::DataRace { kind: RaceKind::WriteWrite, .. }), "{name}: {e:?}");
        let reports = take_last_reports();
        assert!(!reports.is_empty());
        reports.iter().map(|r| (r.element, r.kind, r.group, r.other_group)).collect::<Vec<_>>()
    };
    let scalar = run("scalar");
    assert_eq!(run("wide"), scalar, "W = LANES and scalar writes must report identically");
    assert_eq!(run("narrow"), scalar, "W = 1 and scalar writes must report identically");
}

/// Graph replay's per-node span sweeps are stealable; the fast path must
/// still be bit-equal to launching the same kernels per-launch, replay
/// after replay. The kernel mixes index-sensitive integer state so any
/// dropped, duplicated, or misattributed chunk changes the output.
#[test]
fn replay_with_stealable_spans_stays_bit_equal_to_per_launch() {
    let n = 4096;
    let q = Queue::new(Device::cpu());

    let src = Buffer::<u32>::from_slice(
        &(0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect::<Vec<_>>(),
    );
    let mid = Buffer::<u32>::new(n);
    let out = Buffer::<u32>::new(n);

    let mix = |x: u32, i: u32| x.rotate_left(7).wrapping_add(i).wrapping_mul(0x85EB_CA6B);
    let (sv, mv) = (src.view(), mid.view());
    let (mv2, ov) = (mid.view(), out.view());
    let graph = Graph::record(&q, |g| {
        g.parallel_for("sc_mix", Range::d1(n), &[reads(&src), writes(&mid)], move |it| {
            let i = it.gid(0);
            mv.set(i, mix(sv.get(i), i as u32));
        })
        .parallel_for("sc_fold", Range::d1(n), &[reads(&mid), writes(&out)], move |it| {
            let i = it.gid(0);
            let left = if i == 0 { 0 } else { mv2.get(i - 1) };
            ov.set(i, mv2.get(i).wrapping_add(left.rotate_right(3)));
        });
    })
    .unwrap();

    // Per-launch reference, computed once on the host.
    let host_src: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let host_mid: Vec<u32> =
        host_src.iter().enumerate().map(|(i, &x)| mix(x, i as u32)).collect();
    let expect: Vec<u32> = (0..n)
        .map(|i| {
            let left = if i == 0 { 0 } else { host_mid[i - 1] };
            host_mid[i].wrapping_add(left.rotate_right(3))
        })
        .collect();

    for round in 1..=20 {
        graph.replay(&q).unwrap();
        let got: Vec<u32> = (0..n).map(|i| out.view().get(i)).collect();
        assert_eq!(got, expect, "replay {round} diverged from the per-launch reference");
    }
    assert!(graph.fast_replays() > 0, "disarmed queue should take the fast path");
}
