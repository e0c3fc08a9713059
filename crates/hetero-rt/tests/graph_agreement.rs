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
//! The second half generates launch graphs whose kernel bodies are
//! *interpreted from index lists* (the generator's own types, below) and
//! whose bindings say which of a slot's lists is non-empty. A brute-force
//! enumeration over all work-items is the oracle for the schedule — every
//! element conflict between two launches must be a dependency edge — and
//! four executors of one recording (per-launch, pooled replay, sequential
//! replay, sanitized) must agree bit for bit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Once;

use hetero_rt::executor::Parallelism;
use hetero_rt::prelude::*;
use hetero_rt::{Access, RaceKind, LANES};

/// A pooled replay differs from the sequential one only with more than
/// one participant; the pool reads the variable once, at first use.
fn pool_of_four() {
    static SET: Once = Once::new();
    SET.call_once(|| {
        if std::env::var_os("HETERO_RT_THREADS").is_none() {
            std::env::set_var("HETERO_RT_THREADS", "4");
        }
    });
}

fn disarmed() -> Queue {
    pool_of_four();
    Queue::new(Device::cpu()).with_fault_plan(None).with_sanitizer(false)
}

fn sanitized() -> Queue {
    pool_of_four();
    Queue::new(Device::cpu()).with_sanitizer(true)
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
                Error::DataRace { kernel: "scatter0", element: 0, kind: RaceKind::WriteWrite }
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
                Error::DataRace { kernel: "peek_far", element: 256, kind: RaceKind::ReadWrite }
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

/// A symbolic variable an affine index may mention.
#[derive(Clone, Copy)]
enum Var {
    /// The global item id in launch dimension `d`.
    Item(usize),
    /// A kernel-local counted loop variable ranging over `0..extent`.
    Aux(usize),
}

/// `offset + Σ coeff·var`; with a guard, the access only executes when
/// the value is below it.
#[derive(Clone)]
struct Affine {
    terms: Vec<(Var, usize)>,
    offset: usize,
    guard_lt: Option<usize>,
}

fn at(offset: usize) -> Affine {
    Affine { terms: Vec::new(), offset, guard_lt: None }
}

impl Affine {
    fn item(mut self, d: usize, coeff: usize) -> Self {
        self.terms.push((Var::Item(d), coeff));
        self
    }

    fn aux(mut self, coeff: usize, extent: usize) -> Self {
        self.terms.push((Var::Aux(extent), coeff));
        self
    }

    fn guard(mut self, g: usize) -> Self {
        self.guard_lt = Some(g);
        self
    }
}

/// One access of the interpreted kernel body.
#[derive(Clone)]
enum Index {
    Affine(Affine),
    /// A data-dependent index the kernel clamps below `lt`.
    Bounded(usize),
}

impl From<Affine> for Index {
    fn from(e: Affine) -> Self {
        Index::Affine(e)
    }
}

fn bounded(lt: usize) -> Index {
    Index::Bounded(lt)
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

/// One object a launch touches: the kernel body is interpreted from the
/// index lists, the binding says which of them is non-empty.
struct Slot {
    object: usize,
    reads: Vec<Index>,
    writes: Vec<Index>,
}

impl Slot {
    fn binding(&self, bufs: &[Buffer<u32>]) -> Binding {
        let buf = &bufs[self.object];
        match (self.reads.is_empty(), self.writes.is_empty()) {
            (false, true) => reads(buf),
            (true, false) => writes(buf),
            _ => reads_writes(buf),
        }
    }
}

struct Launch {
    name: &'static str,
    shape: Shape,
    slots: Vec<Slot>,
}

struct Case {
    lens: Vec<usize>,
    steps: Vec<Launch>,
}

const NAMES: [&str; 4] = ["k0", "k1", "k2", "k3"];

/// Every value an affine index takes for work-item `gid`.
fn affine_values(e: &Affine, gid: [usize; 3]) -> Vec<usize> {
    let mut vals = vec![e.offset];
    for &(var, c) in &e.terms {
        vals = match var {
            Var::Item(d) => vals.into_iter().map(|v| v + c * gid[d]).collect(),
            Var::Aux(extent) => {
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
        Index::Bounded(lt) => (0..*lt).collect(),
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
        Index::Bounded(lt) => vec![mix(lin, salt) % lt],
    }
}

type BoundSlot = (GlobalView<u32>, Vec<Index>, Vec<Index>);

/// The kernel body of a generated launch: fold every listed read into a
/// value, then store a function of it at every listed write.
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
fn lin(e: Affine, c: usize, dims: [usize; 3]) -> Affine {
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
    let slice = |s: usize, e: Affine| if s == 1 { e } else { e.aux(1, s) };
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
/// may overlap.
fn read_family(g: &mut Gen, len: usize, dims: [usize; 3]) -> Vec<Index> {
    let n = dims[0] * dims[1];
    let mut out = Vec::new();
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
            // is clipped by a guard (a ragged last block).
            _ => {
                let c = g.pick(&[0, 1, 1, 2, 3, dims[0]]);
                let (a, extent) = (g.pick(&[1, 1, 2, c.max(1)]), 1 + g.below(4));
                let mut e = lin(at(g.below(3)), c, dims).aux(a, extent);
                let max = e.offset + c * (n - 1) + a * (extent - 1);
                if max >= len {
                    e = lin(at(0).aux(a, extent), c, dims).guard(len);
                }
                out.push(e.into());
            }
        }
    }
    out
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

fn launch(g: &mut Gen, name: &'static str, n: usize, lens: &[usize]) -> Launch {
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
                Slot { object, reads, writes }
            }
            None => Slot { object, reads: read_family(g, len, dims), writes: Vec::new() },
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
    let steps = NAMES[..1 + g.below(4)].iter().map(|&name| launch(g, name, n, &lens)).collect();
    Case { lens, steps }
}

fn record(q: &Queue, case: &Case, bufs: &[Buffer<u32>]) -> Graph {
    Graph::record(q, |g| {
        for Launch { name, shape, slots } in &case.steps {
            let bindings: Vec<Binding> = slots.iter().map(|s| s.binding(bufs)).collect();
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

/// What the generated cases exercised, so the test can insist the
/// generator reaches every corner it claims to.
#[derive(Default, Debug)]
struct Coverage {
    read: usize,
    write: usize,
    read_write: usize,
    edges: usize,
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
    let mut cov = Coverage::default();
    for seed in 0..cases(600) {
        check_case(0x19_0000 + seed, &mut cov);
    }
    println!("{cov:?}");
    // The generator must reach what it claims to: every access mode
    // and dependency edges.
    for (what, count) in [
        ("read", cov.read),
        ("write", cov.write),
        ("read-write", cov.read_write),
        ("edges", cov.edges),
    ] {
        assert!(count >= 10, "{what}: {count} of {cov:?}");
    }
}
