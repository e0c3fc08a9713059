//! Static/dynamic agreement suite for derived bindings.
//!
//! A recorded launch states its index sets once and its bindings are
//! inferred from them, so a binding can no longer disagree with the
//! index sets — but the index sets can still disagree with the kernel
//! body. The first half pins that side: each seeded lie sails through
//! `Graph::record` and the dynamic race sanitizer catches the resulting
//! conflict at replay with the exact same `(kernel, element, kind)`
//! triple on every run; and an index set whose proof stays open changes
//! nothing about the checked accessors.
//!
//! The second half generates launch graphs whose kernel bodies are
//! *interpreted from the same index lists* they state, and checks them
//! two ways: a brute-force enumeration over all work-items is the oracle
//! for every derived binding and every dependency edge, and four
//! executors of one recording (per-launch, pooled replay, sequential
//! replay, sanitized) must agree bit for bit.
//!
//! The prove counters are process-global, so tests serialize on one
//! mutex.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use hetero_rt::executor::Parallelism;
use hetero_rt::prelude::*;
use hetero_rt::prove::{self, at, bounded, AffineVar, Index, IndexExpr, LaunchSpec, SlotSpec};
use hetero_rt::{Access, RaceKind, LANES};

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

fn sanitized() -> Queue {
    Queue::new(Device::cpu()).with_sanitizer(true)
}

fn own() -> [IndexExpr; 1] {
    [at(0).item(0, 1)]
}

// ---------------------------------------------------------------------------
// Lies in the index set: caught dynamically at replay
// ---------------------------------------------------------------------------

/// The index set claims each item writes its own element, but every
/// item writes element 0. Nothing checks an index set
/// against the kernel body statically, so the recording succeeds — and
/// the sanitizer catches the cross-group write/write race at replay,
/// deterministically naming element 0.
#[test]
fn over_narrow_scatter_race_caught_dynamically_at_replay() {
    let _s = serial();
    let n = 1024; // 4 implicit groups of 256 — a 4-way conflict on elem 0
    let dst = Buffer::<u32>::new(n);
    let v = dst.view();
    let graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("scatter0", Range::d1(n), &[writes_at(&dst, own())], move |it| {
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
                Error::DataRace { kernel: "scatter0", element: 0, kind: RaceKind::WriteWrite }
            ),
            "{e:?}"
        );
    }
}

/// Item 0 reads element 256 (owned by the second implicit group) while
/// the index set states only the own-element write: group 0 reads what
/// group 1 writes — a deterministic read/write race at sanitized replay.
#[test]
fn undeclared_read_race_caught_dynamically_at_replay() {
    let _s = serial();
    let n = 512;
    let buf = Buffer::<u32>::new(n);
    let v = buf.view();
    let graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("peek_far", Range::d1(n), &[writes_at(&buf, own())], move |it| {
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
                Error::DataRace { kernel: "peek_far", element: 256, kind: RaceKind::ReadWrite }
            ),
            "{e:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// What record time derives, and what it leaves alone
// ---------------------------------------------------------------------------

/// The rule for an object no stated access of which can execute for the
/// recorded range (a zero-trip loop, a zero guard): it derives no
/// binding. The launch neither orders against the object's other users
/// nor counts as a writer of it.
#[test]
fn an_object_no_stated_access_can_reach_derives_no_binding() {
    let _s = serial();
    let n = 16;
    let (a, b) = (Buffer::<u32>::new(n), Buffer::<u32>::new(n));
    let (av, bv) = (a.view(), b.view());
    let graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("fill_a", Range::d1(n), &[writes_at(&a, own())], move |it| {
            av.set(it.gid(0), 1);
        })
        .parallel_for(
            "fill_b",
            Range::d1(n),
            &[
                reads_at(&a, [at(0).item(0, 1).aux(1, 0)]),
                reads_writes_at(&b, [bounded(0)], own()),
            ],
            move |it| bv.set(it.gid(0), 2),
        );
    })
    .unwrap();
    // `a` is gone from the second launch, `b`'s unreachable read with it.
    let second = graph.node_bindings(1);
    assert_eq!(second.len(), 1);
    assert_eq!((second[0].object, second[0].access), (b.object_id(), Access::Write));
    assert!(!graph.depends_on(1, 0));
    assert_eq!(graph.phase_count(), 1);
}

/// A lane sweep that runs one window past the last row: the proof stays
/// open, which changes nothing — views are checked whatever inference
/// says, and the lane load raises the typed out-of-bounds payload
/// instead of reading past the buffer.
#[test]
fn unproven_lane_sweep_stays_checked_and_raises_typed_oob() {
    let _s = serial();
    let (rows, w) = (4, 2 * LANES);
    let sweep = w + LANES;
    let q = disarmed();
    let data = Buffer::from_slice(&vec![1u32; rows * w]);
    let dv = data.view();
    let (inferred, proven) = (prove::contracts_inferred(), prove::contracts_proven_in_bounds());
    let row = || [at(0).item(0, w).aux(1, sweep)];
    let graph = Graph::record(&q, |g| {
        g.parallel_for(
            "lane_rows",
            Range::d1(rows),
            &[reads_writes_at(&data, row(), row())],
            move |it| {
                for x in (0..sweep).step_by(LANES) {
                    let i = it.gid(0) * w + x;
                    dv.set_lanes(i, dv.get_lanes(i).map(|e| e + 1));
                }
            },
        );
    })
    .unwrap();
    assert_eq!(prove::contracts_inferred(), inferred + 1);
    assert_eq!(prove::contracts_proven_in_bounds(), proven, "an open proof must not count");
    let err = graph.replay(&q).unwrap_err();
    assert_eq!(
        err,
        Error::AccessOutOfBounds { offset: rows * w, len: LANES, buffer_len: rows * w }
    );
}

/// Inference is load-bearing in every build: the prove counters move
/// when recordings state index sets, so a CI sweep asserting exact
/// counts is meaningful.
#[test]
fn prove_counters_track_checked_contracts() {
    let _s = serial();
    let n = 64;
    let (inferred, proven) = (prove::contracts_inferred(), prove::contracts_proven_in_bounds());
    let data = Buffer::<u32>::new(n);
    let dv = data.view();
    let _graph = Graph::record(&disarmed(), |g| {
        g.parallel_for("bump", Range::d1(n), &[reads_writes_at(&data, own(), own())], move |it| {
            dv.update(it.gid(0), |x| x + 1)
        });
    })
    .unwrap();
    assert_eq!(prove::contracts_inferred(), inferred + 1);
    assert_eq!(prove::contracts_proven_in_bounds(), proven + 1);
}

// ---------------------------------------------------------------------------
// Generated launch graphs, checked against enumeration and four executors
// ---------------------------------------------------------------------------

/// Deterministic test-input generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }
}

/// How a launch is issued: a flat `parallel_for` over a 1-D or 2-D
/// range, or an `nd_range` whose small work-groups give the sanitizer
/// cross-group accesses to compare.
#[derive(Clone, Copy)]
enum Shape {
    Flat(Range),
    Nd(NdRange),
}

impl Shape {
    fn dims(self) -> [usize; 3] {
        match self {
            Shape::Flat(r) => r.dims,
            Shape::Nd(nd) => nd.global.dims,
        }
    }
}

/// One object a launch touches: the index lists are both what the
/// binding states and what the kernel body is interpreted from. A
/// `whole` slot states the bare `reads` form instead (read-only slots).
struct Slot {
    object: usize,
    reads: Vec<Index>,
    writes: Vec<Index>,
    whole: bool,
}

struct Launch {
    name: &'static str,
    shape: Shape,
    slots: Vec<Slot>,
}

struct Case {
    lens: Vec<usize>,
    steps: Vec<Launch>,
    /// False when some stated access reaches past its object: inference
    /// is still checked, nothing is run.
    runnable: bool,
}

const NAMES: [&str; 4] = ["k0", "k1", "k2", "k3"];

/// Every value an affine index takes for work-item `gid` — the test's
/// own reading of [`IndexExpr`], independent of the prover's folding.
fn affine_values(e: &IndexExpr, gid: [usize; 3]) -> Vec<usize> {
    let mut vals = vec![e.offset];
    for &(var, c) in &e.terms {
        vals = match var {
            AffineVar::Item(d) => vals.into_iter().map(|v| v + c * gid[d]).collect(),
            AffineVar::Aux { extent } => {
                vals.into_iter().flat_map(|v| (0..extent).map(move |a| v + c * a)).collect()
            }
        };
    }
    vals.retain(|&v| e.guard_lt.is_none_or(|g| v < g));
    vals
}

/// Everything the item *may* touch through `idx`: a bounded index may
/// land anywhere below its bound.
fn may_touch(idx: &Index, gid: [usize; 3]) -> Vec<usize> {
    match idx {
        Index::Affine(e) => affine_values(e, gid),
        Index::Bounded { lt } => (0..*lt).collect(),
    }
}

fn mix(a: usize, b: usize) -> usize {
    let mut g = Gen((a as u64) << 32 | b as u64);
    g.next() as usize
}

/// What the interpreted kernel body does for `idx`: a bounded index is
/// one data-dependent element.
fn executed(idx: &Index, gid: [usize; 3], lin: usize, salt: usize) -> Vec<usize> {
    match idx {
        Index::Affine(e) => affine_values(e, gid),
        Index::Bounded { lt } => vec![mix(lin, salt) % lt],
    }
}

type BoundSlot = (GlobalView<u32>, Vec<Index>, Vec<Index>);

/// The kernel body of a generated launch: fold every stated read into a
/// value, then store a function of it at every stated write.
fn interpret(slots: &[BoundSlot], dims: [usize; 3], it: Item) {
    let gid = it.global;
    let lin = gid[0] + dims[0] * gid[1];
    let mut acc = lin as u32 + 1;
    for (s, (view, reads, _)) in slots.iter().enumerate() {
        for (k, idx) in reads.iter().enumerate() {
            for v in executed(idx, gid, lin, s * 16 + k) {
                acc = acc.wrapping_mul(31).wrapping_add(view.get(v));
            }
        }
    }
    for (s, (view, _, writes)) in slots.iter().enumerate() {
        for (k, idx) in writes.iter().enumerate() {
            for v in executed(idx, gid, lin, 8 + s * 16 + k) {
                view.set(v, acc.wrapping_add(v as u32));
            }
        }
    }
}

/// `e + c · lin`, `lin` the row-major linear item id of `dims`.
fn lin(e: IndexExpr, c: usize, dims: [usize; 3]) -> IndexExpr {
    if dims[1] == 1 {
        e.item(0, c)
    } else {
        e.item(0, c).item(1, c * dims[0])
    }
}

/// A write family over an object of `len` elements that keeps the `n`
/// items of `dims` on disjoint elements (so the launch is race-free by
/// construction), or `None` when the object fits none.
fn write_family(g: &mut Gen, len: usize, dims: [usize; 3]) -> Option<Vec<Index>> {
    let n = dims[0] * dims[1];
    let slice = |s: usize, e: IndexExpr| if s == 1 { e } else { e.aux(1, s) };
    if n == 1 {
        // A single item may write anything: a constant cell, or all of it.
        return Some(match g.below(2) {
            0 => vec![at(g.below(len)).into()],
            _ => vec![at(0).aux(1, len).into()],
        });
    }
    if len < n {
        // More items than elements: guarded to the object.
        return Some(vec![lin(at(0), 1, dims).guard(len).into()]);
    }
    let s = len / n;
    if !len.is_multiple_of(n) || s > 3 || g.one_in(6) {
        // One own cell, shifted wherever a padded object has room.
        return Some(vec![lin(at(g.below(len - n + 1)), 1, dims).into()]);
    }
    Some(match g.below(6) {
        // Own slice: one aux sweep, or one index per unrolled word.
        0 | 1 => vec![slice(s, lin(at(0), s, dims)).into()],
        2 => (0..s).map(|f| lin(at(f), s, dims).into()).collect(),
        // Strided: one word of each slice.
        3 => vec![lin(at(g.below(s)), s, dims).into()],
        // The same slice written only below a guard.
        4 => vec![slice(s, lin(at(0), s, dims)).guard(1 + g.below(len)).into()],
        // Column-major over a 2-D range: a bijection that is not the
        // canonical tiling.
        _ if dims[1] > 1 && s == 1 => vec![at(0).item(0, dims[1]).item(1, 1).into()],
        _ => vec![slice(s, lin(at(0), s, dims)).into()],
    })
}

/// A read family over an object of `len` elements; anything goes, items
/// may overlap. Returns the indices and whether every one stays inside
/// the object.
fn read_family(g: &mut Gen, len: usize, dims: [usize; 3]) -> (Vec<Index>, bool) {
    let n = dims[0] * dims[1];
    let mut out = Vec::new();
    let mut inside = true;
    for _ in 0..1 + g.below(2) {
        match g.below(8) {
            // A constant cell every item reads (a parameter buffer).
            0 => out.push(at(g.below(len)).into()),
            // A data-dependent gather clamped to the object.
            1 => out.push(bounded(len)),
            // A loop that never trips.
            2 => out.push(lin(at(0), 1, dims).aux(1, 0).into()),
            // A random affine sweep: own slices, shifted rows, strided
            // and overlapping gathers. One that would leave the object
            // is clipped by a guard (a ragged last block) — or, rarely,
            // left to overreach.
            _ => {
                let c = g.pick(&[0, 1, 1, 2, 3, dims[0]]);
                let (a, extent) = (g.pick(&[1, 1, 2, c.max(1)]), 1 + g.below(4));
                let mut e = lin(at(g.below(3)), c, dims).aux(a, extent);
                let max = e.offset + c * (n - 1) + a * (extent - 1);
                if max >= len {
                    if g.one_in(8) {
                        inside = false;
                    } else {
                        e = at(0).aux(a, extent);
                        e = lin(e, c, dims).guard(len);
                    }
                }
                out.push(e.into());
            }
        }
    }
    (out, inside)
}

fn shape(g: &mut Gen, n: usize) -> Shape {
    let divisors = |m: usize| (1..=m).filter(|&d| m.is_multiple_of(d)).collect::<Vec<_>>();
    let w = g.pick(&divisors(n));
    let (w, h) = if g.one_in(2) { (n, 1) } else { (w, n / w) };
    if g.one_in(2) {
        Shape::Flat(Range::d2(w, h))
    } else {
        let (lw, lh) = (g.pick(&divisors(w)), g.pick(&divisors(h)));
        Shape::Nd(NdRange::d2(w, h, lw, lh))
    }
}

fn launch(g: &mut Gen, name: &'static str, n: usize, lens: &[usize], case: &mut Case) -> Launch {
    let shape = shape(g, n);
    let dims = shape.dims();
    let mut objects: Vec<usize> = (0..lens.len()).collect();
    let mut slots = Vec::new();
    for _ in 0..1 + g.below(3) {
        let object = objects.swap_remove(g.below(objects.len()));
        let len = lens[object];
        let written = if g.one_in(2) { write_family(g, len, dims) } else { None };
        slots.push(match written {
            Some(writes) => {
                // Optionally read-modify-write: an item reads only what
                // it alone writes.
                let reads = if g.one_in(2) { writes.clone() } else { Vec::new() };
                Slot { object, reads, writes, whole: false }
            }
            None => {
                let (reads, inside) = read_family(g, len, dims);
                case.runnable &= inside;
                Slot { object, reads, writes: Vec::new(), whole: inside && g.one_in(6) }
            }
        });
    }
    Launch { name, shape, slots }
}

fn generate(seed: u64) -> Case {
    let g = &mut Gen(seed);
    let n: usize = g.pick(&[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]);
    let lens: Vec<usize> = (0..4 + g.below(3))
        .map(|_| g.pick(&[n, n, 2 * n, 3 * n, n + 1, n + 3, n.div_ceil(2), 1, 3]))
        .collect();
    let mut case = Case { lens: lens.clone(), steps: Vec::new(), runnable: true };
    for &name in &NAMES[..1 + g.below(4)] {
        let step = launch(g, name, n, &lens, &mut case);
        case.steps.push(step);
    }
    case
}

fn record(q: &Queue, case: &Case, bufs: &[Buffer<u32>]) -> Graph {
    Graph::record(q, |g| {
        for Launch { name, shape, slots } in &case.steps {
            let bindings: Vec<Binding> = slots
                .iter()
                .map(|s| match s.whole {
                    true => reads(&bufs[s.object]),
                    false => reads_writes_at(&bufs[s.object], s.reads.clone(), s.writes.clone()),
                })
                .collect();
            let bound: Vec<BoundSlot> = slots
                .iter()
                .map(|s| (bufs[s.object].view(), s.reads.clone(), s.writes.clone()))
                .collect();
            let dims = shape.dims();
            match *shape {
                Shape::Flat(range) => {
                    g.parallel_for(name, range, &bindings, move |it| interpret(&bound, dims, it));
                }
                Shape::Nd(nd) => {
                    g.nd_range(name, nd, &bindings, move |ctx: &GroupCtx| {
                        ctx.items(|it| interpret(&bound, dims, it))
                    });
                }
            }
        }
    })
    .expect("generated recordings are well-formed")
}

/// Per-item may-read and may-write sets of one slot, by enumeration.
struct Touched {
    reads: Vec<BTreeSet<usize>>,
    writes: Vec<BTreeSet<usize>>,
}

impl Touched {
    fn of(reads: &[Index], writes: &[Index], dims: [usize; 3]) -> Touched {
        let mut t = Touched { reads: Vec::new(), writes: Vec::new() };
        for y in 0..dims[1] {
            for x in 0..dims[0] {
                let all = |list: &[Index]| {
                    list.iter().flat_map(|i| may_touch(i, [x, y, 0])).collect::<BTreeSet<_>>()
                };
                t.reads.push(all(reads));
                t.writes.push(all(writes));
            }
        }
        t
    }

    fn union(sets: &[BTreeSet<usize>]) -> BTreeSet<usize> {
        sets.iter().flatten().copied().collect()
    }
}

/// What the generated cases exercised, so the test can insist the
/// generator reaches every corner it claims to.
#[derive(Default, Debug)]
struct Coverage {
    launches: u64,
    read: usize,
    write: usize,
    read_write: usize,
    dropped: usize,
    open_proofs: usize,
    edges: usize,
}

/// The brute-force oracle for one recorded launch: every derived binding
/// against the enumerated per-item sets.
fn check_launch(
    seed: u64,
    graph: &Graph,
    node: usize,
    shape: Shape,
    slots: &[Slot],
    bufs: &[Buffer<u32>],
    cov: &mut Coverage,
) {
    let dims = shape.dims();
    let name = graph.node_name(node);
    let derived = graph.node_bindings(node);
    // The prover's own report for the indexed slots, for what a binding
    // does not carry: the bound and whether the proof closed.
    let spec = LaunchSpec {
        slots: slots
            .iter()
            .filter(|s| !s.whole)
            .map(|s| SlotSpec {
                len: bufs[s.object].len(),
                reads: s.reads.clone(),
                writes: s.writes.clone(),
            })
            .collect(),
    };
    let report = prove::infer_contract(name, dims, &spec);
    cov.launches += u64::from(!report.slots.is_empty());
    cov.open_proofs += usize::from(!report.proven_in_bounds());
    let mut reports = report.slots.iter();

    let mut expected = 0;
    for slot in slots {
        let at = format!("seed {seed} launch '{name}' object {}", slot.object);
        let len = bufs[slot.object].len();
        let t = Touched::of(&slot.reads, &slot.writes, dims);
        let (all_r, all_w) = (Touched::union(&t.reads), Touched::union(&t.writes));
        let access = match (!all_r.is_empty(), !all_w.is_empty()) {
            (false, false) => None,
            (true, false) => Some(Access::Read),
            (false, true) => Some(Access::Write),
            (true, true) => Some(Access::ReadWrite),
        };
        let bound = derived.iter().find(|b| b.object == bufs[slot.object].object_id());
        if slot.whole {
            let b = bound.unwrap_or_else(|| panic!("{at}: stated binding lost"));
            assert_eq!(b.access, Access::Read, "{at}");
            expected += 1;
            continue;
        }
        let inferred = reports.next().expect("one report per indexed slot");

        // Access: exactly what can execute; nothing at all derives no
        // binding.
        assert_eq!(bound.map(|b| b.access), access, "{at}: access");
        assert_eq!(inferred.access, access, "{at}: inferred access");
        match access {
            None => {
                cov.dropped += 1;
                continue;
            }
            Some(Access::Read) => cov.read += 1,
            Some(Access::Write) => cov.write += 1,
            Some(Access::ReadWrite) => cov.read_write += 1,
        }
        expected += 1;

        // Bounds: the folded maximum covers every enumerated index, is
        // exact without a guard, and the proof closes iff it is inside.
        let max = all_r.iter().chain(&all_w).max().copied();
        let folded = inferred.max_index.unwrap_or_else(|| panic!("{at}: no max index"));
        assert!(max.is_some_and(|m| m <= folded), "{at}: max {max:?} > folded {folded}");
        let guarded = slot.reads.iter().chain(&slot.writes).any(
            |i| matches!(i, Index::Affine(e) if e.guard_lt.is_some()),
        );
        if !guarded {
            assert_eq!(max, Some(folded), "{at}: max index");
        }
        assert_eq!(inferred.bounds_proven, folded < len, "{at}: bounds");
    }
    assert_eq!(derived.len(), expected, "seed {seed} launch '{name}': binding count");
}

/// Every element of one object a node may read, and may write.
type Reach = (BTreeSet<usize>, BTreeSet<usize>);

/// Per node, the reach on each object it touches.
fn node_touches(case: &Case) -> Vec<BTreeMap<usize, Reach>> {
    case.steps
        .iter()
        .map(|step| {
            let mut m = BTreeMap::new();
            for s in &step.slots {
                let t = Touched::of(&s.reads, &s.writes, step.shape.dims());
                m.insert(s.object, (Touched::union(&t.reads), Touched::union(&t.writes)));
            }
            m
        })
        .collect()
}

fn check_case(seed: u64, cov: &mut Coverage) {
    let case = generate(seed);
    let q = disarmed();
    let init: Vec<Vec<u32>> = case
        .lens
        .iter()
        .enumerate()
        .map(|(o, &len)| (0..len).map(|i| mix(o, i) as u32).collect())
        .collect();
    let bufs: Vec<Buffer<u32>> = init.iter().map(|v| Buffer::from_slice(v)).collect();
    let before = prove::contracts_inferred();
    let graph = record(&q, &case, &bufs);

    // --- Oracle 1: derived bindings and edges against enumeration -----
    let launches = cov.launches;
    for (node, step) in case.steps.iter().enumerate() {
        check_launch(seed, &graph, node, step.shape, &step.slots, &bufs, cov);
    }
    assert_eq!(prove::contracts_inferred() - before, cov.launches - launches, "seed {seed}");
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
    if !case.runnable {
        return;
    }

    // --- Oracle 2: four executors of one recording ---------------------
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
    assert_eq!(run("sequential", &|| graph.replay(&seq)), want, "seed {seed}: sequential");
    assert_eq!(run("sanitized", &|| graph.replay(&armed)), want, "seed {seed}: sanitized");
}

fn cases(base: u64) -> u64 {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

#[test]
fn generated_graphs_agree_with_enumeration_and_across_executors() {
    let _s = serial();
    let mut cov = Coverage::default();
    for seed in 0..cases(600) {
        check_case(0x19_0000 + seed, &mut cov);
    }
    println!("{cov:?}");
    // The generator must reach what it claims to: every access mode,
    // the no-binding rule, open proofs and dependency edges.
    for (what, count) in [
        ("read", cov.read),
        ("write", cov.write),
        ("read-write", cov.read_write),
        ("dropped", cov.dropped),
        ("open proofs", cov.open_proofs),
        ("edges", cov.edges),
    ] {
        assert!(count >= 10, "{what}: {count} of {cov:?}");
    }
}
