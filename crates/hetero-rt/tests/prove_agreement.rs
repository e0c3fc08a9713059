//! Static/dynamic agreement suite for binding-contract verification.
//!
//! Each seeded misdeclaration is a *true positive* twice over: the
//! static prover rejects it at `Graph::record` time with a typed,
//! deterministically worded [`Error::BindingContract`], and — when the
//! same kernel is recorded *without* a contract, so nothing stops the
//! recording — the dynamic race sanitizer catches the resulting
//! conflict at replay with the exact same `(kernel, element, kind)`
//! triple on every run. The suite also pins the elision-certificate
//! degradation rules: gates arm only on fully disarmed fast-path
//! replays, fall back to checked accessors on armed queues, and are
//! always disarmed again before `replay` returns.
//!
//! Arming state (gates, the elision kill switch, prove counters) is
//! process-global, so tests that observe it serialize on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use hetero_rt::prelude::*;
use hetero_rt::prove::{self, at, LaunchSpec};
use hetero_rt::{elide, RaceKind, LANES};

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
    Queue::new(Device::cpu()).with_fault_plan(None).with_sanitizer(false)
}

fn binding_contract(e: Error) -> (String, Vec<String>) {
    match e {
        Error::BindingContract { kernel, violations } => (kernel, violations),
        other => panic!("expected BindingContract, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Seeded true positives: static rejection at record time
// ---------------------------------------------------------------------------

/// Every item writes element 0, but the binding claims a per-item
/// footprint. The interpreter infers a Whole footprint (the constant
/// index has no item term), so the declared `Item` is over-narrow.
#[test]
fn over_narrow_footprint_caught_statically_at_record() {
    let _s = serial();
    let n = 1024;
    let dst = Buffer::<u32>::new(n);
    let v = dst.view();
    let err = Graph::record(&disarmed(), |g| {
        g.parallel_for("scatter0", Range::d1(n), &[writes_item(&dst)], move |it| {
            v.set(0, it.gid(0) as u32);
        })
        .contract(LaunchSpec::new().slot("dst", n, vec![], vec![at(0).into()]));
    })
    .unwrap_err();
    let (kernel, violations) = binding_contract(err);
    assert_eq!(kernel, "scatter0");
    assert_eq!(
        violations,
        vec!["'scatter0' slot 'dst': declared item footprint but accesses escape the item slice"]
    );
    assert!(prove::violations_found() >= 1);
}

/// The same scatter recorded *without* a contract sails through record —
/// and the sanitizer catches the resulting cross-group write/write race
/// at replay, deterministically naming element 0.
#[test]
fn over_narrow_scatter_race_caught_dynamically_at_replay() {
    let _s = serial();
    let n = 1024; // 4 implicit groups of 256 — a 4-way conflict on elem 0
    let dst = Buffer::<u32>::new(n);
    let v = dst.view();
    let graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("scatter0", Range::d1(n), &[writes_item(&dst)], move |it| {
            v.set(0, it.gid(0) as u32);
        });
    })
    .unwrap();
    for _ in 0..2 {
        let q = Queue::new(Device::cpu()).with_sanitizer(true);
        let e = graph.replay(&q).unwrap_err();
        assert!(
            matches!(
                e,
                Error::DataRace { kernel: "scatter0", element: 0, kind: RaceKind::WriteWrite }
            ),
            "{e:?}"
        );
    }
}

/// Item 0 reads element 256 (owned by the second implicit group) while
/// declaring the buffer write-only. Statically: the contract's read
/// index has no matching read access in the binding.
#[test]
fn undeclared_read_caught_statically_at_record() {
    let _s = serial();
    let n = 512;
    let buf = Buffer::<u32>::new(n);
    let v = buf.view();
    let err = Graph::record(&disarmed(), |g| {
        g.parallel_for("peek_far", Range::d1(n), &[writes_item(&buf)], move |it| {
            let i = it.gid(0);
            if i == 0 {
                v.set(0, v.get(256));
            } else {
                v.set(i, i as u32);
            }
        })
        .contract(LaunchSpec::new().slot(
            "buf",
            n,
            vec![at(256).guard(1).into()],
            vec![at(0).item(0, 1).into()],
        ));
    })
    .unwrap_err();
    let (kernel, violations) = binding_contract(err);
    assert_eq!(kernel, "peek_far");
    // Two independent violations, deterministically ordered: the read
    // is undeclared, and the far element also escapes the declared
    // per-item footprint.
    assert_eq!(
        violations,
        vec![
            "'peek_far' slot 'buf': kernel reads it but the binding declares write-only",
            "'peek_far' slot 'buf': declared item footprint but accesses escape the item slice",
        ]
    );
}

/// The same undeclared read, recorded without a contract: group 0 reads
/// element 256 while group 1 writes it — a deterministic read/write
/// race at sanitized replay.
#[test]
fn undeclared_read_race_caught_dynamically_at_replay() {
    let _s = serial();
    let n = 512;
    let buf = Buffer::<u32>::new(n);
    let v = buf.view();
    let graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("peek_far", Range::d1(n), &[writes_item(&buf)], move |it| {
            let i = it.gid(0);
            if i == 0 {
                v.set(0, v.get(256));
            } else {
                v.set(i, i as u32);
            }
        });
    })
    .unwrap();
    for _ in 0..2 {
        let q = Queue::new(Device::cpu()).with_sanitizer(true);
        let e = graph.replay(&q).unwrap_err();
        assert!(
            matches!(
                e,
                Error::DataRace { kernel: "peek_far", element: 256, kind: RaceKind::ReadWrite }
            ),
            "{e:?}"
        );
    }
}

/// Writing stride-2 slices of a double-length buffer covers only the
/// even elements: a per-item-disjoint map, but not dense coverage — so
/// a `writes_dense` binding is a false dense claim.
#[test]
fn false_dense_claim_caught_statically_at_record() {
    let _s = serial();
    let n = 256;
    let dst = Buffer::<u32>::new(2 * n);
    let v = dst.view();
    let err = Graph::record(&disarmed(), |g| {
        g.parallel_for("evens", Range::d1(n), &[writes_dense(&dst)], move |it| {
            v.set(it.gid(0) * 2, 7);
        })
        .contract(LaunchSpec::new().slot("dst", 2 * n, vec![], vec![at(0).item(0, 2).into()]));
    })
    .unwrap_err();
    let (kernel, violations) = binding_contract(err);
    assert_eq!(kernel, "evens");
    assert_eq!(
        violations,
        vec!["'evens' slot 'dst': declared dense coverage but writes do not provably cover the object"]
    );
}

/// A declared graph output no recorded node ever writes is stale: the
/// caller would replay the graph and read garbage that the schedule
/// never produced. Caught at `finish` once any contract is attached.
#[test]
fn stale_output_declaration_caught_statically_at_record() {
    let _s = serial();
    let n = 64;
    let src = Buffer::from_slice(&vec![1u32; n]);
    let dst = Buffer::<u32>::new(n);
    let orphan = Buffer::<u32>::new(n);
    let (sv, dv) = (src.view(), dst.view());
    let err = Graph::record(&disarmed(), |g| {
        g.parallel_for(
            "double",
            Range::d1(n),
            &[reads(&src), writes_dense(&dst)],
            move |it| {
                dv.set(it.gid(0), sv.get(it.gid(0)) * 2);
            },
        )
        .contract(
            LaunchSpec::new()
                .slot("src", n, vec![at(0).item(0, 1).into()], vec![])
                .slot("dst", n, vec![], vec![at(0).item(0, 1).into()]),
        )
        .output(&dst)
        .output(&orphan);
    })
    .unwrap_err();
    let (kernel, violations) = binding_contract(err);
    assert_eq!(kernel, "<outputs>");
    assert_eq!(
        violations,
        vec![format!(
            "graph output object #{} is never written by any recorded node",
            orphan.object_id()
        )]
    );
}

/// A contract whose slot list does not line up positionally with the
/// launch bindings is rejected outright — no partial checking.
#[test]
fn slot_count_mismatch_caught_statically_at_record() {
    let _s = serial();
    let n = 64;
    let src = Buffer::from_slice(&vec![1u32; n]);
    let dst = Buffer::<u32>::new(n);
    let (sv, dv) = (src.view(), dst.view());
    let err = Graph::record(&disarmed(), |g| {
        g.parallel_for(
            "double",
            Range::d1(n),
            &[reads(&src), writes_dense(&dst)],
            move |it| {
                dv.set(it.gid(0), sv.get(it.gid(0)) * 2);
            },
        )
        .contract(LaunchSpec::new().slot("dst", n, vec![], vec![at(0).item(0, 1).into()]));
    })
    .unwrap_err();
    let (kernel, violations) = binding_contract(err);
    assert_eq!(kernel, "double");
    assert_eq!(
        violations,
        vec!["'double': contract has 1 slots but the launch declares 2 bindings"]
    );
}

// ---------------------------------------------------------------------------
// Certificate arming and degradation
// ---------------------------------------------------------------------------

/// Record a one-kernel graph whose proof closes, with a probe that
/// stores the gate's armed state into a flag buffer from inside the
/// kernel. Returns `(graph, gate, data, flags)`.
fn probed_graph(
    q: &Queue,
    n: usize,
) -> (Graph, elide::Gate, Buffer<u32>, Buffer<u32>) {
    let data = Buffer::from_slice(&vec![1u32; n]);
    let flags = Buffer::<u32>::new(n);
    let gate = elide::Gate::new();
    let (dv, fv) = (gate.view(data.view()), gate.view(flags.view()));
    let probe = gate.clone();
    let graph = Graph::record(q, |g| {
        g.parallel_for(
            "probe",
            Range::d1(n),
            &[reads_writes_item(&data), writes_dense(&flags)],
            move |it| {
                let i = it.gid(0);
                fv.set(i, probe.is_armed() as u32);
                dv.update(i, |x| x + 1);
            },
        )
        .contract_gated(
            LaunchSpec::new()
                .slot("data", n, vec![at(0).item(0, 1).into()], vec![at(0).item(0, 1).into()])
                .slot("flags", n, vec![], vec![at(0).item(0, 1).into()]),
            &gate,
        )
        .output(&data)
        .output(&flags);
    })
    .unwrap();
    (graph, gate, data, flags)
}

/// A closed proof issues a certificate, the fast path replays the
/// kernel with the gate armed (observed from inside the kernel), and
/// the drop guard disarms it again before `replay` returns.
#[test]
fn certificate_arms_gate_exactly_for_fast_path_replay() {
    let _s = serial();
    let n = 256;
    let q = disarmed();
    let before = prove::certificates_issued();
    let (graph, gate, data, flags) = probed_graph(&q, n);
    assert!(prove::certificates_issued() > before, "closed proof must certify");
    assert!(!gate.is_armed(), "gates stay disarmed outside replay");
    graph.replay(&q).unwrap();
    assert!(!gate.is_armed(), "drop guard must disarm before replay returns");
    assert!(flags.to_vec().iter().all(|&f| f == 1), "fast path replays armed");
    assert_eq!(data.to_vec(), vec![2u32; n]);
}

/// An armed queue (sanitizer on) degrades to the hardened per-launch
/// path: same results, but the gate never arms — every access runs
/// through the fully checked accessors under the sanitizer's watch.
#[test]
fn armed_queue_falls_back_to_checked_accessors() {
    let _s = serial();
    let n = 256;
    let (graph, gate, data, flags) = probed_graph(&disarmed(), n);
    let sanitized = Queue::new(Device::cpu()).with_sanitizer(true);
    graph.replay(&sanitized).unwrap();
    assert!(!gate.is_armed());
    assert!(flags.to_vec().iter().all(|&f| f == 0), "armed queue must not elide");
    assert_eq!(data.to_vec(), vec![2u32; n]);
}

/// The global kill switch forces certified graphs back onto checked
/// accessors even on the fast path, without changing results.
#[test]
fn kill_switch_disables_arming_on_fast_path() {
    let _s = serial();
    let n = 256;
    let q = disarmed();
    let (graph, gate, data, flags) = probed_graph(&q, n);
    elide::set_enabled(false);
    let r = graph.replay(&q);
    elide::set_enabled(true);
    r.unwrap();
    assert!(!gate.is_armed());
    assert!(flags.to_vec().iter().all(|&f| f == 0), "kill switch must suppress arming");
    assert_eq!(data.to_vec(), vec![2u32; n]);
}

/// Record a row kernel — one work-item per row of `w` elements, swept
/// in lane windows `x < sweep` — with the honest contract of that sweep
/// and a probe of the gate. Returns `(graph, data, flags)`.
fn lane_row_graph(q: &Queue, rows: usize, w: usize, sweep: usize) -> (Graph, Buffer<u32>, Buffer<u32>) {
    let data = Buffer::from_slice(&vec![1u32; rows * w]);
    let flags = Buffer::<u32>::new(rows);
    let gate = elide::Gate::new();
    let (dv, fv) = (gate.view(data.view()), gate.view(flags.view()));
    let probe = gate.clone();
    let graph = Graph::record(q, |g| {
        g.parallel_for(
            "lane_rows",
            Range::d1(rows),
            &[reads_writes(&data), writes_dense(&flags)],
            move |it| {
                fv.set(it.gid(0), probe.is_armed() as u32);
                for x in (0..sweep).step_by(LANES) {
                    let i = it.gid(0) * w + x;
                    dv.set_lanes(i, dv.get_lanes(i).map(|e| e + 1));
                }
            },
        )
        .contract_gated(
            LaunchSpec::new()
                .slot(
                    "data",
                    rows * w,
                    vec![at(0).item(0, w).aux(1, sweep).into()],
                    vec![at(0).item(0, w).aux(1, sweep).into()],
                )
                .slot("flags", rows, vec![], vec![at(0).item(0, 1).into()]),
            &gate,
        )
        .output(&data)
        .output(&flags);
    })
    .unwrap();
    (graph, data, flags)
}

/// A gated row kernel built on `ProvenView::get_lanes`/`set_lanes`
/// certifies and replays armed on the fast path (the lane accessors
/// themselves stay checked; the gate elides the scalar accessors only),
/// and degrades to a disarmed, sanitized walk on an armed queue.
#[test]
fn gated_lane_rows_certify_and_replay_on_both_paths() {
    let _s = serial();
    let (rows, w) = (8, 2 * LANES);
    let q = disarmed();
    let (graph, data, flags) = lane_row_graph(&q, rows, w, w);
    graph.replay(&q).unwrap();
    assert!(flags.to_vec().iter().all(|&f| f == 1), "fast path replays the lane rows armed");
    assert_eq!(data.to_vec(), vec![2u32; rows * w]);
    graph.replay(&Queue::new(Device::cpu()).with_sanitizer(true)).unwrap();
    assert!(flags.to_vec().iter().all(|&f| f == 0), "armed queue must not elide");
    assert_eq!(data.to_vec(), vec![3u32; rows * w]);
}

/// A lane sweep that runs one window past the last row: the proof stays
/// open, no certificate is issued, and the lane load raises the typed
/// out-of-bounds payload instead of reading past the buffer.
#[test]
fn unproven_lane_sweep_stays_checked_and_raises_typed_oob() {
    let _s = serial();
    let (rows, w) = (4, 2 * LANES);
    let q = disarmed();
    let before = prove::certificates_issued();
    let (graph, _data, flags) = lane_row_graph(&q, rows, w, w + LANES);
    assert_eq!(prove::certificates_issued(), before, "an open proof must not certify");
    let err = graph.replay(&q).unwrap_err();
    assert_eq!(
        err,
        Error::AccessOutOfBounds { offset: rows * w, len: LANES, buffer_len: rows * w }
    );
    assert!(flags.to_vec().iter().all(|&f| f == 0), "gate never armed");
}

/// Contracts are load-bearing in this build: the prove counters move
/// when recordings check contracts, so a CI sweep asserting
/// `contracts_checked() > 0 && violations_found() == 0` is meaningful.
#[test]
fn prove_counters_track_checked_contracts() {
    let _s = serial();
    let n = 64;
    let before = prove::contracts_checked();
    let q = disarmed();
    let (_graph, _gate, _data, _flags) = probed_graph(&q, n);
    assert!(prove::contracts_checked() > before);
}
