//! Generated launch graphs shared by the agreement binaries: a
//! deterministic generator of small recordings whose kernel bodies are
//! *interpreted from index lists* and whose bindings say which of a
//! slot's lists is non-empty, plus the pieces every executor route needs
//! (the recording, its initial contents, the case count).

use std::sync::Once;

use hetero_rt::prelude::*;

/// A pooled replay differs from the sequential one only with more than
/// one participant; the pool reads the variable once, at first use.
pub fn pool_of_four() {
    static SET: Once = Once::new();
    SET.call_once(|| {
        if std::env::var_os("HETERO_RT_THREADS").is_none() {
            std::env::set_var("HETERO_RT_THREADS", "4");
        }
    });
}

/// How many generated cases a route runs: `base`, or eight times as
/// many under the `heavy-tests` feature.
pub fn cases(base: u64) -> u64 {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

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
pub struct Affine {
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
pub enum Index {
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
pub enum Shape {
    Flat(Range),
    Nd(NdRange),
}

impl Shape {
    pub fn dims(self) -> [usize; 3] {
        match self {
            Shape::Flat(r) => r.dims,
            Shape::Nd(nd) => nd.global.dims,
        }
    }
}

/// One object a launch touches: the kernel body is interpreted from the
/// index lists, the binding says which of them is non-empty.
pub struct Slot {
    pub object: usize,
    pub reads: Vec<Index>,
    pub writes: Vec<Index>,
}

impl Slot {
    pub fn binding(&self, bufs: &[Buffer<u32>]) -> Binding {
        let buf = &bufs[self.object];
        match (self.reads.is_empty(), self.writes.is_empty()) {
            (false, true) => reads(buf),
            (true, false) => writes(buf),
            _ => reads_writes(buf),
        }
    }
}

pub struct Launch {
    pub name: &'static str,
    pub shape: Shape,
    pub slots: Vec<Slot>,
}

pub struct Case {
    pub lens: Vec<usize>,
    pub steps: Vec<Launch>,
}

const NAMES: [&str; 4] = ["k0", "k1", "k2", "k3"];

/// Every value an affine index takes for work-item `gid`.
pub fn affine_values(e: &Affine, gid: [usize; 3]) -> Vec<usize> {
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

pub fn generate(seed: u64) -> Case {
    let g = &mut Gen(seed);
    let n: usize = g.pick(&[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]);
    let lens: Vec<usize> = (0..4 + g.below(3))
        .map(|_| g.pick(&[n, n, 2 * n, 3 * n, n + 1, n + 3, n.div_ceil(2), 1, 3]))
        .collect();
    let steps = NAMES[..1 + g.below(4)].iter().map(|&name| launch(g, name, n, &lens)).collect();
    Case { lens, steps }
}

/// Record `case`'s launches over `bufs` on `q`'s device.
pub fn record(q: &Queue, case: &Case, bufs: &[Buffer<u32>]) -> Graph {
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

/// Seeded initial contents of every object of `case`.
pub fn initial(case: &Case) -> Vec<Vec<u32>> {
    let object = |(o, &len): (usize, &usize)| (0..len).map(|i| mix(o, i) as u32).collect();
    case.lens.iter().enumerate().map(object).collect()
}
