//! Agreement suite for recorded graphs: the safety net under the
//! bindings.
//!
//! A binding is a statement about the kernel body that nothing checks
//! statically. The first half pins what catches a wrong one: a kernel
//! that touches what its bindings do not say sails through
//! `Graph::record`, and the dynamic race sanitizer reports the resulting
//! conflict at replay with the exact same `(kernel, element, kind)`
//! triple on every run; an access past the object raises the typed
//! out-of-bounds error on the fast path too.
//!
//! The second half runs the generated launch graphs of `graph_cases`. A
//! brute-force enumeration over all work-items is the oracle for the
//! schedule — every element conflict between two launches must be a
//! dependency edge — and five routes through one recording (per-launch,
//! pooled replay, sequential replay, sanitized, and a window stream whose
//! primary queue drops launches) must agree bit for bit. The sixth route,
//! an integrity queue, is in `graph_agreement_armed.rs`.

mod graph_cases;

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use graph_cases::{affine_values, cases, generate, initial, pool_of_four, record, Case, Index};
use hetero_rt::executor::Parallelism;
use hetero_rt::prelude::*;
use hetero_rt::{Access, RaceKind, StreamStage, LANES};

fn disarmed() -> Queue {
    pool_of_four();
    Queue::new(Device::cpu())
}

fn sanitized() -> Queue {
    pool_of_four();
    Queue::hardened(Device::cpu(), Hardening::sanitizer())
}

// ---------------------------------------------------------------------------
// A kernel that disagrees with its bindings: caught dynamically at replay
// ---------------------------------------------------------------------------

/// The kernel is recorded as a plain writer of `dst`, but every item
/// writes element 0. Nothing checks a binding against the kernel body
/// statically, so the recording succeeds — and the sanitizer catches the
/// cross-group write/write race at replay, deterministically naming
/// element 0.
#[test]
fn over_narrow_scatter_race_caught_dynamically_at_replay() {
    let n = 1024; // 4 implicit groups of 256 — a 4-way conflict on elem 0
    let dst = Buffer::<u32>::new(n);
    let v = dst.view();
    let graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("scatter0", Range::d1(n), &[writes(&dst)], move |it| {
            v.set(0, it.gid(0) as u32);
        });
    })
    .unwrap();
    assert_eq!(graph.node_bindings(0)[0].access, Access::Write);
    for _ in 0..2 {
        let e = graph.replay(&sanitized()).unwrap_err();
        assert!(
            matches!(
                e,
                Error::DataRace { kernel: "scatter0", element: 0, kind: RaceKind::WriteWrite, .. }
            ),
            "{e:?}"
        );
    }
}

/// Item 0 reads element 256 (owned by the second implicit group) while
/// the binding states a write only: group 0 reads what group 1 writes —
/// a deterministic read/write race at sanitized replay.
#[test]
fn undeclared_read_race_caught_dynamically_at_replay() {
    let n = 512;
    let buf = Buffer::<u32>::new(n);
    let v = buf.view();
    let graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("peek_far", Range::d1(n), &[writes(&buf)], move |it| {
            let i = it.gid(0);
            if i == 0 {
                v.set(0, v.get(256));
            } else {
                v.set(i, i as u32);
            }
        });
    })
    .unwrap();
    assert_eq!(graph.node_bindings(0)[0].access, Access::Write);
    for _ in 0..2 {
        let e = graph.replay(&sanitized()).unwrap_err();
        assert!(
            matches!(
                e,
                Error::DataRace { kernel: "peek_far", element: 256, kind: RaceKind::ReadWrite, .. }
            ),
            "{e:?}"
        );
    }
}

/// A sweep that runs one block past the last row, at width `W`: views
/// are checked on the fast replay path too, and the load raises the
/// typed out-of-bounds payload instead of reading past the buffer.
fn sweep_past_the_last_row<const W: usize>() -> Error {
    let (rows, w) = (4, 2 * LANES);
    let q = disarmed();
    let data = Buffer::from_slice(&vec![1u32; rows * w]);
    let dv = data.view();
    let graph = Graph::record(&q, |g| {
        g.parallel_for("lane_rows", Range::d1(rows), &[reads_writes(&data)], move |it| {
            for x in (0..w + W).step_by(W) {
                let i = it.gid(0) * w + x;
                dv.set_lanes(i, Lanes(dv.get_lanes::<W>(i).0.map(|e| e + 1)));
            }
        });
    })
    .unwrap();
    graph.replay(&q).unwrap_err()
}

#[test]
fn lane_sweep_past_the_last_row_raises_typed_oob() {
    let len = 4 * 2 * LANES;
    assert_eq!(
        sweep_past_the_last_row::<LANES>(),
        Error::AccessOutOfBounds { offset: len, len: LANES, buffer_len: len }
    );
    assert_eq!(
        sweep_past_the_last_row::<1>(),
        Error::AccessOutOfBounds { offset: len, len: 1, buffer_len: len }
    );
}

// ---------------------------------------------------------------------------
// Generated launch graphs, checked against enumeration and five routes
// ---------------------------------------------------------------------------

/// Everything the item *may* touch through `idx`: a bounded index may
/// land anywhere below its bound.
fn may_touch(idx: &Index, gid: [usize; 3]) -> Vec<usize> {
    match idx {
        Index::Affine(e) => affine_values(e, gid),
        Index::Bounded(lt) => (0..*lt).collect(),
    }
}

/// What the generated cases exercised, so the test can insist the
/// generator reaches every corner it claims to.
#[derive(Default, Debug)]
struct Coverage {
    read: usize,
    write: usize,
    read_write: usize,
    edges: usize,
    rollbacks: u64,
}

/// Every element of one object a node may read, and may write.
type Reach = (BTreeSet<usize>, BTreeSet<usize>);

/// Every element any item of `dims` may touch through `list`, by
/// enumeration.
fn reach(list: &[Index], dims: [usize; 3]) -> BTreeSet<usize> {
    let mut all = BTreeSet::new();
    for y in 0..dims[1] {
        for x in 0..dims[0] {
            all.extend(list.iter().flat_map(|i| may_touch(i, [x, y, 0])));
        }
    }
    all
}

/// Per node, the reach on each object it touches.
fn node_touches(case: &Case) -> Vec<BTreeMap<usize, Reach>> {
    case.steps
        .iter()
        .map(|step| {
            let dims = step.shape.dims();
            step.slots
                .iter()
                .map(|s| (s.object, (reach(&s.reads, dims), reach(&s.writes, dims))))
                .collect()
        })
        .collect()
}

/// A recording as a stream stage: the carried state is every object's
/// contents, and a window writes them in, replays once on the queue the
/// runner hands it and reads them back.
struct Replayed<'a> {
    graph: &'a Graph,
    bufs: &'a [Buffer<u32>],
}

impl StreamStage for Replayed<'_> {
    type State = Vec<Vec<u32>>;

    fn advance(&mut self, q: &Queue, state: &mut Vec<Vec<u32>>, _window: u64) -> Result<()> {
        for (b, v) in self.bufs.iter().zip(state.iter()) {
            b.write_from(v);
        }
        self.graph.replay(q)?;
        *state = self.bufs.iter().map(|b| q.read_back(b)).collect::<Result<_>>()?;
        Ok(())
    }

    fn digest(&self, state: &Vec<Vec<u32>>) -> u64 {
        let mut h = DefaultHasher::new();
        state.hash(&mut h);
        h.finish()
    }
}

fn check_case(seed: u64, cov: &mut Coverage) {
    let case = generate(seed);
    let q = disarmed();
    let init = initial(&case);
    let bufs: Vec<Buffer<u32>> = init.iter().map(|v| Buffer::from_slice(v)).collect();
    let graph = record(&q, &case, &bufs);

    // --- Oracle 1: every enumerated element conflict is an edge ---------
    for (node, step) in case.steps.iter().enumerate() {
        let stated: Vec<Binding> = step.slots.iter().map(|s| s.binding(&bufs)).collect();
        assert_eq!(graph.node_bindings(node), stated, "seed {seed}: node {node}");
        for b in &stated {
            match b.access {
                Access::Read => cov.read += 1,
                Access::Write => cov.write += 1,
                Access::ReadWrite => cov.read_write += 1,
            }
        }
    }
    let touches = node_touches(&case);
    for j in 0..touches.len() {
        for i in 0..j {
            let conflict = touches[i].iter().any(|(o, (ri, wi))| {
                touches[j].get(o).is_some_and(|(rj, wj)| {
                    !wi.is_disjoint(rj) || !wi.is_disjoint(wj) || !ri.is_disjoint(wj)
                })
            });
            if conflict {
                cov.edges += 1;
                assert!(graph.depends_on(j, i), "seed {seed}: node {j} must wait for node {i}");
            }
        }
    }

    // --- Oracle 2: five routes through one recording --------------------
    let (seq, armed) = (disarmed().with_parallelism(Parallelism::Sequential), sanitized());
    let run = |what: &str, step: &dyn Fn() -> hetero_rt::Result<()>| -> Vec<Vec<u32>> {
        for (b, v) in bufs.iter().zip(&init) {
            b.write_from(v);
        }
        for _ in 0..2 {
            step().unwrap_or_else(|e| panic!("seed {seed}: {what}: {e:?}"));
        }
        bufs.iter().map(Buffer::to_vec).collect()
    };
    let want = run("submit_each", &|| graph.submit_each(&q));
    assert_eq!(run("replay", &|| graph.replay(&q)), want, "seed {seed}: replay");
    // Both pooled replays took the fast path: nothing in this process
    // armed integrity, which would turn them into the per-launch walk.
    assert_eq!(graph.fast_replays(), 2, "seed {seed}: pooled replay walked launch by launch");
    assert_eq!(run("sequential", &|| graph.replay(&seq)), want, "seed {seed}: sequential");
    assert_eq!(run("sanitized", &|| graph.replay(&armed)), want, "seed {seed}: sanitized");

    // The stream: the primary queue fails launches and the window has no
    // retry budget, so every hit window rolls back and replays on the
    // clean queue — and the two windows still end where two replays do.
    let plan = FaultPlan::new(seed, 0.3).with_kinds(&[FaultKind::LaunchTransient]);
    pool_of_four();
    let primary = Queue::hardened(
        Device::cpu(),
        Hardening { fault: Some(Arc::new(plan)), ..Hardening::NONE },
    );
    let cfg = StreamConfig { max_retries: 0, ..StreamConfig::default() };
    let stage = Replayed { graph: &graph, bufs: &bufs };
    let mut stream = StreamRunner::new(primary, q.clone(), stage, init.clone(), cfg);
    let stats = stream.run(2, |_| {}).unwrap_or_else(|e| panic!("seed {seed}: stream: {e:?}"));
    assert_eq!(stats.dropped, 0, "seed {seed}: stream");
    cov.rollbacks += stats.rollbacks;
    assert_eq!(stream.into_state(), want, "seed {seed}: stream");
}

#[test]
fn generated_graphs_agree_with_enumeration_and_across_executors() {
    let mut cov = Coverage::default();
    for seed in 0..cases(600) {
        check_case(0x19_0000 + seed, &mut cov);
    }
    println!("{cov:?}");
    // The generator must reach what it claims to: every access mode,
    // dependency edges, and streamed windows that rolled back.
    for (what, count) in [
        ("read", cov.read),
        ("write", cov.write),
        ("read-write", cov.read_write),
        ("edges", cov.edges),
        ("rollbacks", cov.rollbacks as usize),
    ] {
        assert!(count >= 10, "{what}: {count} of {cov:?}");
    }
}
