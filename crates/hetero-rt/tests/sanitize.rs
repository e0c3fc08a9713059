//! End-to-end tests of the hetero-san dynamic race detector: seeded
//! true-positive kernels (cross-group write/write and read/write races,
//! a missed intra-group barrier, an uninitialised local read) must be
//! detected with the exact same `(kernel, element, kind)` triple on
//! every run, and representative clean kernels — including a
//! leader-only fold in uniform context — must stay silent.

use hetero_rt::executor::Parallelism;
use hetero_rt::ndrange::FenceSpace;
use hetero_rt::prelude::*;
use hetero_rt::sanitize::take_last_reports;

fn sanitized_queue() -> Queue {
    Queue::hardened(Device::cpu(), Hardening::sanitizer())
}

/// Stable projection of a report: everything except the process-global
/// allocation id (a fresh buffer per run gets a fresh id).
fn triple(r: &hetero_rt::RaceReport) -> (&'static str, usize, RaceKind, usize, Option<usize>) {
    (r.kernel, r.element, r.kind, r.group, r.other_group)
}

/// Two work-groups writing the same global element is the canonical
/// unsynchronised race. The detector must name the exact element and
/// the two *smallest* involved groups, independent of pool scheduling.
#[test]
fn seeded_write_write_race_is_detected_deterministically() {
    let mut runs = Vec::new();
    for _ in 0..2 {
        for par in [Parallelism::Sequential, Parallelism::Auto] {
            let q = sanitized_queue().with_parallelism(par);
            let b = Buffer::<u32>::new(8);
            let v = b.view();
            let e = q
                .nd_range("racy", NdRange::d1(64 * 16, 16), move |ctx| {
                    // Every group writes element 0 — 64-way conflict.
                    v.set(0, ctx.group_linear() as u32);
                })
                .unwrap_err();
            assert!(
                matches!(
                    e,
                    Error::DataRace { kernel: "racy", element: 0, kind: RaceKind::WriteWrite, .. }
                ),
                "{par:?}: {e:?}"
            );
            let reports = take_last_reports();
            assert_eq!(reports.len(), 1, "one racy element → one report: {reports:?}");
            runs.push(triple(&reports[0]));
        }
    }
    // Identical triple on every run and both execution modes: the two
    // smallest of the 64 racing groups.
    assert!(runs.iter().all(|t| *t == ("racy", 0, RaceKind::WriteWrite, 0, Some(1))), "{runs:?}");
}

/// One group writes an element other groups read: a read/write conflict
/// (groups are unordered, so the readers may observe either value).
#[test]
fn seeded_read_write_race_is_detected() {
    let q = sanitized_queue();
    let b = Buffer::<u32>::new(8);
    let v = b.view();
    let e = q
        .nd_range("rw_racy", NdRange::d1(4 * 8, 8), move |ctx| {
            if ctx.group_linear() == 3 {
                v.set(5, 7);
            } else {
                std::hint::black_box(v.get(5));
            }
        })
        .unwrap_err();
    assert!(
        matches!(
            e,
            Error::DataRace { kernel: "rw_racy", element: 5, kind: RaceKind::ReadWrite, .. }
        ),
        "{e:?}"
    );
    let reports = take_last_reports();
    assert_eq!(triple(&reports[0]), ("rw_racy", 5, RaceKind::ReadWrite, 0, Some(3)));
}

/// All work-items of one group store to the same local slot within a
/// single barrier phase — concurrent on real hardware, silently
/// serialised here. The detector reports the missed barrier once.
#[test]
fn seeded_missed_barrier_is_detected_deterministically() {
    for _ in 0..2 {
        let q = sanitized_queue();
        let e = q
            .nd_range("no_barrier", NdRange::d1(32, 32), move |ctx| {
                let l = ctx.local_array::<u32>(4);
                ctx.items(|it| l.set(0, it.lid(0) as u32));
            })
            .unwrap_err();
        assert!(
            matches!(
                e,
                Error::DataRace {
                    kernel: "no_barrier",
                    element: 0,
                    kind: RaceKind::MissedBarrier,
                    ..
                }
            ),
            "{e:?}"
        );
        let reports = take_last_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(triple(&reports[0]), ("no_barrier", 0, RaceKind::MissedBarrier, 0, None));
        assert_eq!(reports[0].space, MemSpace::Local);
        assert_eq!(reports[0].phase, Some(0));
    }
}

/// The same intra-group race — the items of each 8-item neighbourhood
/// store to one global element inside a phase — through `nd_range`'s
/// item loop, through `parallel_for`'s flat-range adapter, and through
/// a recorded `parallel_for` on the armed replay route: the typed error
/// and the full report list must not depend on which loop ran the
/// items. Both loops read the sanitizer's armed flag once per phase; a
/// loop that lost the current item would report nothing here.
#[test]
fn intra_group_race_reads_the_same_through_every_item_loop() {
    let n = 600; // three 256-item chunks, the last one padded
    let q = sanitized_queue();
    let b = Buffer::<u32>::new(n);
    let racy = {
        let v = b.view();
        move |it: Item| v.set(it.global_linear / 8 * 8, it.local_linear as u32)
    };
    let observe = |r: Result<()>| {
        let Err(Error::DataRace { kernel, element, kind, .. }) = r else {
            panic!("expected a DataRace, got {r:?}")
        };
        let reports: Vec<_> = take_last_reports()
            .iter()
            .map(|r| (triple(r), r.space, r.object, r.phase))
            .collect();
        ((kernel, element, kind), reports)
    };

    let k = racy.clone();
    let grouped = observe(
        q.nd_range("racy_items", NdRange::d1(768, 256), move |ctx| {
            ctx.items(|it| {
                if it.global_linear < n {
                    k(it)
                }
            })
        })
        .map(drop),
    );
    assert_eq!(grouped.0, ("racy_items", 0, RaceKind::MissedBarrier));
    assert_eq!(grouped.1.len(), n / 8, "one report per raced element");

    let flat = observe(q.try_parallel_for("racy_items", Range::d1(n), racy.clone()).map(drop));
    assert_eq!(flat, grouped, "queue parallel_for");

    let graph = Graph::record(&q, |g| {
        g.parallel_for("racy_items", Range::d1(n), &[reads_writes(&b)], racy);
    })
    .unwrap();
    assert_eq!(observe(graph.replay(&q)), grouped, "recorded parallel_for");
}

/// The classic tree reduction is exactly the seeded missed-barrier
/// kernel *fixed*: distinct slots per item, a barrier between write and
/// read phases. It must run clean under the sanitizer.
#[test]
fn barrier_separated_tree_reduction_is_clean() {
    let q = sanitized_queue();
    let b = Buffer::<u32>::new(4);
    let v = b.view();
    q.nd_range("tree_reduce", NdRange::d1(4 * 8, 8), move |ctx| {
        let l = ctx.local_array::<u32>(8);
        ctx.items(|it| l.set(it.lid(0), it.gid(0) as u32));
        let mut stride = 4;
        while stride > 0 {
            ctx.barrier(FenceSpace::Local);
            ctx.items(|it| {
                let lid = it.lid(0);
                if lid < stride {
                    l.set(lid, l.get(lid) + l.get(lid + stride));
                }
            });
            stride /= 2;
        }
        v.set(ctx.group_linear(), l.get(0));
    })
    .expect("barrier-separated reduction must be race-free");
    assert_eq!(b.to_vec(), vec![28, 92, 156, 220]);
}

/// Local (shared) memory is not zero-initialised by SYCL; reading a
/// never-written element is a portability bug this runtime would
/// otherwise mask by zero-filling.
#[test]
fn seeded_uninitialised_local_read_is_detected() {
    let q = sanitized_queue();
    let e = q
        .nd_range("uninit", NdRange::d1(8, 8), move |ctx| {
            let l = ctx.local_array::<u32>(4);
            ctx.items(|it| {
                if it.lid(0) == 0 {
                    std::hint::black_box(l.get(3));
                }
            });
        })
        .unwrap_err();
    assert!(
        matches!(
            e,
            Error::DataRace { kernel: "uninit", element: 3, kind: RaceKind::UninitRead, .. }
        ),
        "{e:?}"
    );
    assert_eq!(triple(&take_last_reports()[0]), ("uninit", 3, RaceKind::UninitRead, 0, None));
}

/// Atomic accumulation across groups is the sanctioned way to share a
/// global element; atomics must never be flagged against each other.
#[test]
fn cross_group_atomics_are_not_a_race() {
    let q = sanitized_queue();
    let b = Buffer::<u32>::new(1);
    let v = b.view();
    q.nd_range("atomic_acc", NdRange::d1(16 * 8, 8), move |ctx| {
        ctx.items(|it| {
            std::hint::black_box(it);
            v.atomic_add_u32(0, 1);
        });
    })
    .expect("atomic-only sharing is race-free");
    assert_eq!(b.to_vec()[0], 128);
}

/// ...but a plain write racing another group's atomics is still a
/// write/write conflict.
#[test]
fn plain_write_vs_atomic_is_detected() {
    let q = sanitized_queue();
    let b = Buffer::<u32>::new(1);
    let v = b.view();
    let e = q
        .nd_range("mixed", NdRange::d1(4 * 4, 4), move |ctx| {
            if ctx.group_linear() == 2 {
                v.set(0, 0);
            } else {
                v.atomic_add_u32(0, 1);
            }
        })
        .unwrap_err();
    assert!(
        matches!(
            e,
            Error::DataRace { kernel: "mixed", element: 0, kind: RaceKind::WriteWrite, .. }
        ),
        "{e:?}"
    );
}

/// Leader-only code runs in uniform context (one thread legitimately
/// walks every item's private slot and writes the group's result, as
/// LavaMD's per-box fold does); it must be race-free under the
/// sanitizer, pinning the uniform-context exemption.
#[test]
fn uniform_context_reads_run_clean_under_sanitizer() {
    let q = sanitized_queue();
    let out = Buffer::<u32>::new(4 * 3);
    let ov = out.view();
    q.nd_range("leader_fold", NdRange::d1(4 * 16, 16), move |ctx| {
        let vals = ctx.private_array::<u32>();
        let flags = ctx.private_array::<bool>();
        ctx.items(|it| {
            vals.set(it.lid(0), it.lid(0) as u32);
            flags.set(it.lid(0), true);
        });
        ctx.barrier(FenceSpace::Local);
        // Outside `items()`: sum, one item's value, the prefix below the
        // last item, and an all-of, each a plain loop over the slots.
        let g = ctx.group_linear();
        let sum: u32 = (0..ctx.group_size()).map(|lid| vals.get(lid)).sum();
        let prefix_15: u32 = (0..15).map(|lid| vals.get(lid)).sum();
        let all = (0..ctx.group_size()).all(|lid| flags.get(lid));
        ov.set(g * 3, sum);
        ov.set(g * 3 + 1, vals.get(5));
        ov.set(g * 3 + 2, prefix_15 + u32::from(all));
    })
    .expect("leader-only folds must be race-free under the sanitizer");
    let got = out.to_vec();
    for g in 0..4 {
        assert_eq!(&got[g * 3..g * 3 + 3], &[120, 5, 106]);
    }
}

/// The sanitizer runs only where a queue's hardening asks for it.
#[test]
fn sanitizer_toggle_is_explicit_and_introspectable() {
    // With the sanitizer off, the seeded racy kernel is (wrongly but
    // silently) accepted — demonstrating the detector is the only thing
    // standing between this bug class and a clean exit code.
    let q = Queue::new(Device::cpu());
    let b = Buffer::<u32>::new(1);
    let v = b.view();
    q.nd_range("racy_unchecked", NdRange::d1(8 * 4, 4), move |ctx| {
        v.set(0, ctx.group_linear() as u32);
    })
    .expect("without the sanitizer the race is silent");
}

/// A launch that states bindings is checked against them: touching a
/// buffer it does not bind, or storing through a `reads` binding, fails
/// with the typed error naming the kernel and the object, at the
/// object's smallest offending element. A launch that states none is not
/// checked.
#[test]
fn a_launch_is_checked_against_its_bindings() {
    let q = sanitized_queue();
    let (src, dst) = (Buffer::<u32>::new(64), Buffer::<u32>::new(64));
    let (sv, dv) = (src.view(), dst.view());
    let copy = move |it: Item| dv.set(it.gid(0), sv.get(it.gid(0)) + 1);

    let e = q.submit(&[reads(&src)]).try_parallel_for("unbound", Range::d1(64), copy.clone());
    let object = dst.object_id();
    assert_eq!(
        e.unwrap_err(),
        Error::DataRace { kernel: "unbound", object, element: 0, kind: RaceKind::Unbound }
    );
    let read_only = [reads(&src), reads(&dst)];
    let e = q.submit(&read_only).try_parallel_for("mode", Range::d1(64), copy.clone());
    assert_eq!(
        e.unwrap_err(),
        Error::DataRace { kernel: "mode", object, element: 0, kind: RaceKind::ReadOnlyStore }
    );
    let reports = take_last_reports();
    assert_eq!(reports.len(), 1, "one report per object: {reports:?}");

    let bound = [reads(&src), writes(&dst)];
    q.submit(&bound).try_parallel_for("bound", Range::d1(64), copy.clone()).unwrap();
    q.try_parallel_for("unstated", Range::d1(64), copy).unwrap();
    assert!(dst.to_vec().iter().all(|&v| v == 1));
}

/// Group 3 of a sanitized launch writes elements 5, 13 and 21 of a
/// 64-element buffer while every other group runs `access`: the launch's
/// typed race and its report list, element by element.
type Races = ((&'static str, usize, RaceKind), Vec<(Triple, MemSpace, Option<u64>)>);
type Triple = (&'static str, usize, RaceKind, usize, Option<usize>);

type Access = fn(&GlobalView<u32>);

fn races_against(access: Access) -> Races {
    let q = sanitized_queue();
    let b = Buffer::<u32>::new(64);
    let v = b.view();
    let e = q
        .submit(&[reads_writes(&b)])
        .nd_range("lane_access", NdRange::d1(4 * 8, 8), move |ctx| {
            if ctx.group_linear() == 3 {
                (5..64).step_by(8).take(3).for_each(|i| v.set(i, 1));
            } else {
                access(&v);
            }
        })
        .unwrap_err();
    let Error::DataRace { kernel, element, kind, .. } = e else { panic!("{e:?}") };
    let reports: Vec<_> =
        take_last_reports().iter().map(|r| (triple(r), r.space, r.phase)).collect();
    ((kernel, element, kind), reports)
}

/// Each wide access against the scalar accesses it replaces: the same
/// typed error and the same report list, one report for each of the
/// `raced` elements.
fn same_races(raced: usize, cases: &[(&str, Access, Access)]) {
    for &(what, wide, scalar) in cases {
        let got = races_against(wide);
        assert_eq!(got.1.len(), raced, "{what}: one report per raced element: {:?}", got.1);
        assert_eq!(got, races_against(scalar), "{what}");
    }
}

/// A lane or slice accessor records each element it reads (out of line,
/// while armed), so a race reads the same through one wide load,
/// strided load or slice copy as through the scalar `get`s it replaces.
#[test]
fn strided_and_slice_reads_report_as_their_scalar_gets() {
    fn gets(v: &GlobalView<u32>, from: usize, step: usize, n: usize) {
        (from..).step_by(step).take(n).for_each(|i| {
            std::hint::black_box(v.get(i));
        });
    }
    same_races(3, &[
        ("get_strided vs four gets", |v| {
            std::hint::black_box(v.get_strided::<4>(5, 8));
        }, |v| gets(v, 5, 8, 4)),
        ("get_lanes vs twenty gets", |v| {
            std::hint::black_box(v.get_lanes::<20>(2));
        }, |v| gets(v, 2, 1, 20)),
        ("copy_to_slice vs twenty gets", |v| v.copy_to_slice(2, &mut [0; 20]), |v| gets(v, 2, 1, 20)),
    ]);
}

/// The store side: one wide store or one slice copy into the view
/// races as the scalar `set`s it replaces. Groups 0–2 all store
/// elements 2..22, so each of the twenty is raced.
#[test]
fn lane_and_slice_writes_report_as_their_scalar_sets() {
    fn sets(v: &GlobalView<u32>) {
        (2..22).for_each(|i| v.set(i, 0));
    }
    same_races(20, &[
        ("set_lanes vs twenty sets", |v| v.set_lanes(2, Lanes([0; 20])), sets),
        ("copy_from_slice vs twenty sets", |v| v.copy_from_slice(2, &[0; 20]), sets),
    ]);
}
