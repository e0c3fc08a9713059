//! hetero-prove: static binding-contract inference and optimizer
//! translation validation.
//!
//! Two provers live here, both pure functions over plain data so every
//! rule is unit-testable without touching kernels:
//!
//! 1. **Binding-contract inference** ([`infer_contract`]): a recorded
//!    launch states, per bound object, the index sets its kernel body
//!    may read and write — affine index expressions ([`IndexExpr`]) over
//!    the item id and bounded loop counters, collected in a
//!    [`LaunchSpec`]. An interval/stride abstract interpreter infers the
//!    strongest sound [`PlanAccess`] + [`PlanFootprint`] per object and
//!    proves (or fails to prove) that every access stays in bounds for
//!    the recorded range. The runtime records the inferred pair as the
//!    launch's binding, so the graph optimizer — which trusts bindings
//!    blindly: a false dense footprint legalizes an illegal ping-pong
//!    swap — never sees a hand-written claim.
//!
//!    The contract lattice per object is `Whole < Item < ItemDense`
//!    (weakest claim first); each step up needs a proof over the index
//!    structure, and whatever the interpreter cannot prove stays at the
//!    weaker claim.
//!
//! 2. **Translation validation** ([`validate_translation`]): the pass
//!    pipeline's [`OptReport`] is a machine-checkable *justification* —
//!    per pass it claims exactly what was rewritten (`dle` →
//!    `eliminated`, `hoist` → `hoisted`, `ping-pong` → `swapped`).
//!    An independent checker re-derives, from the
//!    original [`PlanGraph`] and the produced [`OptimizedPlan`] alone,
//!    that every claim is legal and that nothing unclaimed happened:
//!    node accounting, genuine deadness of eliminated launches, hoist
//!    and swap legality, and happens-before preservation between every
//!    pair of conflicting scheduled nodes.
//!    The checker shares no code with the passes; `hetero-rt` gates
//!    `OptimizedGraph::compile` on its verdict.
//!
//! What closes a bounds proof: an access is proven in bounds when its
//! statically evaluated maximum index — affine terms folded over the
//! launch range and loop extents with checked arithmetic, clamped by an
//! explicit guard — is below the object length. Data-dependent indices
//! participate only through [`Index::Bounded`], which records the bound
//! the kernel enforces by construction (a clamp or an explicit guard in
//! the source); everything else falls back to *unproven*, never to an
//! optimistic assumption. Arithmetic overflow during folding also
//! degrades to unproven.

use std::fmt;

use crate::analysis::{OptReport, OptimizedPlan, PlanAccess, PlanFootprint, PlanGraph, PlanStep};

// ---------------------------------------------------------------------------
// Contract language
// ---------------------------------------------------------------------------

/// A symbolic variable an affine index expression may mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffineVar {
    /// The global item id in launch dimension `d` (`0 ≤ gid(d) < dims[d]`).
    Item(usize),
    /// A kernel-local counted loop variable ranging over `0..extent`.
    Aux {
        /// Static iteration count of the loop.
        extent: usize,
    },
}

/// An affine index expression: `offset + Σ coeff·var`, optionally
/// guarded so the access only executes when the value is `< guard_lt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexExpr {
    /// Affine terms as `(variable, coefficient)` pairs.
    pub terms: Vec<(AffineVar, usize)>,
    /// Constant offset.
    pub offset: usize,
    /// `Some(g)`: the kernel performs the access only when the
    /// expression value is `< g` (an explicit guard in the source).
    pub guard_lt: Option<usize>,
    /// The kernel performs the access only under a condition on *data*
    /// (KMeans' `finalize` writes a centre only for a non-empty
    /// cluster). Such an access may be skipped for any item, so it
    /// never counts toward dense coverage; for bounds and for the access
    /// direction it counts as if it always executed.
    pub conditional: bool,
}

/// Start an affine index expression with constant `offset`.
pub fn at(offset: usize) -> IndexExpr {
    IndexExpr { terms: Vec::new(), offset, guard_lt: None, conditional: false }
}

impl IndexExpr {
    /// Add `coeff · gid(d)`.
    pub fn item(mut self, d: usize, coeff: usize) -> Self {
        self.terms.push((AffineVar::Item(d), coeff));
        self
    }

    /// Add `coeff · v` for a counted loop variable `v` in `0..extent`.
    pub fn aux(mut self, coeff: usize, extent: usize) -> Self {
        self.terms.push((AffineVar::Aux { extent }, coeff));
        self
    }

    /// Guard the access: it only executes when the value is `< g`.
    pub fn guard(mut self, g: usize) -> Self {
        self.guard_lt = Some(g);
        self
    }

    /// Mark the access data-conditional: some items may skip it.
    pub fn conditional(mut self) -> Self {
        self.conditional = true;
        self
    }

    /// Shift the constant offset by `d`.
    pub fn off(mut self, d: usize) -> Self {
        self.offset += d;
        self
    }
}

/// One access's index, either affine or data-dependent-but-bounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Index {
    /// A statically analyzable affine expression.
    Affine(IndexExpr),
    /// A data-dependent index the kernel bounds by construction
    /// (a clamp, a CDF walk capped at the array length, …): the only
    /// static fact is `index < lt`.
    Bounded {
        /// Exclusive upper bound enforced in the kernel source.
        lt: usize,
    },
}

impl From<IndexExpr> for Index {
    fn from(e: IndexExpr) -> Self {
        Index::Affine(e)
    }
}

/// A data-dependent index proven `< lt` by construction.
pub fn bounded(lt: usize) -> Index {
    Index::Bounded { lt }
}

/// The index sets of one launch on one bound object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSpec {
    /// Object length in elements.
    pub len: usize,
    /// Every read index the kernel body may evaluate.
    pub reads: Vec<Index>,
    /// Every write index the kernel body may evaluate.
    pub writes: Vec<Index>,
}

/// The access contract of one recorded launch: one [`SlotSpec`] per
/// bound object. Reports name a slot by its position here (object ids
/// are deliberately absent: reports must be deterministic across
/// processes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchSpec {
    /// Per-object slot specs.
    pub slots: Vec<SlotSpec>,
}

impl LaunchSpec {
    /// Empty spec.
    pub fn new() -> Self {
        LaunchSpec::default()
    }

    /// Append the spec for the next bound object.
    pub fn slot(mut self, len: usize, reads: Vec<Index>, writes: Vec<Index>) -> Self {
        self.slots.push(SlotSpec { len, reads, writes });
        self
    }
}

// ---------------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------------

/// What the abstract interpreter concluded about one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotReport {
    /// Object length the bounds proof is against.
    pub len: usize,
    /// Inferred access direction; `None` when no declared access can
    /// execute for the recorded range (the slot is effectively unused).
    pub access: Option<PlanAccess>,
    /// Strongest footprint the interpreter could prove.
    pub footprint: PlanFootprint,
    /// Whether every access is statically proven `< len`.
    pub bounds_proven: bool,
    /// Largest index any access can reach (`None` when nothing executes
    /// or folding overflowed).
    pub max_index: Option<usize>,
}

/// Deterministic result of inferring one launch's contract. Identical
/// spec + range always produce an identical report (and identical
/// `Display` text — tests pin it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractReport {
    /// Kernel (launch) name.
    pub kernel: String,
    /// The launch range the proof is relative to.
    pub range: [usize; 3],
    /// Per-slot conclusions, in spec order.
    pub slots: Vec<SlotReport>,
}

impl ContractReport {
    /// Whether every slot's every access is statically proven in
    /// bounds.
    pub fn proven_in_bounds(&self) -> bool {
        self.slots.iter().all(|s| s.bounds_proven)
    }
}

impl fmt::Display for ContractReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "contract '{}' over {}x{}x{}: {}",
            self.kernel,
            self.range[0],
            self.range[1],
            self.range[2],
            if self.proven_in_bounds() { "proven" } else { "unproven" }
        )?;
        for (i, s) in self.slots.iter().enumerate() {
            let access = match s.access {
                None => "unused",
                Some(PlanAccess::Read) => "read",
                Some(PlanAccess::Write) => "write",
                Some(PlanAccess::ReadWrite) => "read-write",
            };
            let fp = match s.footprint {
                PlanFootprint::Whole => "whole",
                PlanFootprint::Item => "item",
                PlanFootprint::ItemDense => "item-dense",
            };
            match s.max_index {
                Some(m) => writeln!(
                    f,
                    "  #{i}: {} {} max {} / len {} ({})",
                    access,
                    fp,
                    m,
                    s.len,
                    if s.bounds_proven { "in bounds" } else { "NOT PROVEN" }
                )?,
                None => writeln!(f, "  #{i}: {access} {fp} (no executing access)")?,
            }
        }
        Ok(())
    }
}

/// Decomposition of one affine access: per-dimension item
/// coefficients plus a residual interval `[lo, hi]` contributed by the
/// offset and the bounded loop variables. `covers` is `Some(w)` when
/// the residual provably takes *every* value in `[lo, lo + w)` (the
/// aux coefficients telescope), which is what dense coverage needs.
struct Decomp {
    item_coeff: [usize; 3],
    lo: usize,
    hi: usize,
    covers: Option<usize>,
    guarded: bool,
}

fn decompose(e: &IndexExpr) -> Option<Decomp> {
    let mut item_coeff = [0usize; 3];
    let mut aux: Vec<(usize, usize)> = Vec::new(); // (coeff, extent)
    for &(var, c) in &e.terms {
        match var {
            AffineVar::Item(d) => {
                if d >= 3 {
                    return None;
                }
                item_coeff[d] = item_coeff[d].checked_add(c)?;
            }
            AffineVar::Aux { extent } => aux.push((c, extent)),
        }
    }
    let mut hi = e.offset;
    for &(c, extent) in &aux {
        // Zero-trip loops never execute; callers filter those accesses
        // out before decomposing.
        if extent == 0 {
            return None;
        }
        hi = hi.checked_add(c.checked_mul(extent - 1)?)?;
    }
    // Dense residual coverage: sorted by coefficient, the aux terms
    // telescope ([offset, offset+w) is covered) iff each coefficient
    // equals the width accumulated so far.
    aux.sort_unstable_by_key(|&(c, _)| c);
    let mut w = Some(1usize);
    for &(c, extent) in &aux {
        w = match w {
            Some(w) if c == w => w.checked_mul(extent),
            _ => None,
        };
    }
    Some(Decomp {
        item_coeff,
        lo: e.offset,
        hi,
        covers: w,
        guarded: e.guard_lt.is_some() || e.conditional,
    })
}

/// Whether items with distinct ids touch provably disjoint index sets:
/// each item reaches `[base + lo, base + hi]` around its affine base,
/// so disjointness holds when, taking the per-dimension coefficients in
/// ascending order, every coefficient is at least the total span the
/// smaller dimensions (plus the residual width) can produce — the
/// mixed-radix gap argument. Dimensions of extent <= 1 contribute a
/// constant and are ignored; an extent > 1 dimension with coefficient 0
/// maps different items to identical sets and defeats disjointness.
fn item_disjoint(coeffs: [usize; 3], range: [usize; 3], width: usize) -> bool {
    let mut dims: Vec<(usize, usize)> = (0..3)
        .filter(|&d| range[d] > 1)
        .map(|d| (coeffs[d], range[d]))
        .collect();
    if dims.iter().any(|&(c, _)| c == 0) {
        return false;
    }
    dims.sort_unstable();
    let mut reach = width;
    for &(c, n) in &dims {
        if c < reach {
            return false;
        }
        reach = match c.checked_mul(n - 1).and_then(|t| t.checked_add(reach)) {
            Some(r) => r,
            None => return false,
        };
    }
    true
}

/// Row-major linearization strides of a launch range (`x` fastest).
fn strides(range: [usize; 3]) -> [usize; 3] {
    [1, range[0], range[0] * range[1]]
}

/// The strict canonical slice size `s` such that the access base equals
/// `lin(item)*s` for the row-major linear item id — the tiling shape
/// dense coverage requires. Single-item launches get the whole object
/// as their slice.
fn dense_slice(coeffs: [usize; 3], range: [usize; 3], len: usize) -> Option<usize> {
    let st = strides(range);
    let mut s = None;
    for d in 0..3 {
        if range[d] <= 1 {
            continue;
        }
        if coeffs[d] == 0 || !coeffs[d].is_multiple_of(st[d]) {
            return None;
        }
        let sd = coeffs[d] / st[d];
        match s {
            None => s = Some(sd),
            Some(prev) if prev == sd => {}
            Some(_) => return None,
        }
    }
    Some(s.unwrap_or(len.max(1)))
}

/// Statically evaluated maximum value of one index for the range;
/// `None` when the access can never execute (zero-extent variable or a
/// zero guard); `Some(None)` when the checked fold overflowed.
fn max_value(idx: &Index, range: [usize; 3]) -> Option<Option<usize>> {
    match idx {
        Index::Bounded { lt } => {
            if *lt == 0 {
                None
            } else {
                Some(Some(lt - 1))
            }
        }
        Index::Affine(e) => {
            if let Some(0) = e.guard_lt {
                return None;
            }
            let mut m = Some(e.offset);
            for &(var, c) in &e.terms {
                let extent = match var {
                    AffineVar::Item(d) => {
                        if d >= 3 {
                            m = None;
                            break;
                        }
                        range[d]
                    }
                    AffineVar::Aux { extent } => extent,
                };
                if extent == 0 {
                    return None;
                }
                m = m.and_then(|m| c.checked_mul(extent - 1).and_then(|t| m.checked_add(t)));
                if m.is_none() {
                    break;
                }
            }
            let m = m.map(|m| match e.guard_lt {
                Some(g) => m.min(g - 1),
                None => m,
            });
            Some(m)
        }
    }
}

/// Run the interval/stride abstract interpreter over one launch's spec,
/// producing the strongest contract it can prove for each slot.
pub fn infer_contract(kernel: &str, range: [usize; 3], spec: &LaunchSpec) -> ContractReport {
    let items = range[0].checked_mul(range[1]).and_then(|p| p.checked_mul(range[2]));
    let mut slots = Vec::with_capacity(spec.slots.len());
    for slot in &spec.slots {
        // Keep only accesses that can execute; fold each one's maximum.
        let mut maxes: Vec<Option<usize>> = Vec::new();
        let mut exec_reads = 0usize;
        let mut exec_writes = 0usize;
        let mut all_affine = true;
        let mut decomps: Vec<(bool, Decomp)> = Vec::new();
        for (is_write, idx) in slot
            .reads
            .iter()
            .map(|i| (false, i))
            .chain(slot.writes.iter().map(|i| (true, i)))
        {
            let Some(m) = max_value(idx, range) else { continue };
            maxes.push(m);
            if is_write {
                exec_writes += 1;
            } else {
                exec_reads += 1;
            }
            match idx {
                Index::Affine(e) => match decompose(e) {
                    Some(d) => decomps.push((is_write, d)),
                    None => all_affine = false,
                },
                Index::Bounded { .. } => all_affine = false,
            }
        }
        let access = match (exec_reads > 0, exec_writes > 0) {
            (false, false) => None,
            (true, false) => Some(PlanAccess::Read),
            (false, true) => Some(PlanAccess::Write),
            (true, true) => Some(PlanAccess::ReadWrite),
        };
        let footprint =
            infer_footprint(access, all_affine, &decomps, range, items, slot.len, exec_writes);
        let max_index = maxes
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(0));
        let bounds_proven = match (maxes.is_empty(), &max_index) {
            (true, _) => true,
            (false, Some(m)) => *m < slot.len,
            (false, None) => false, // an access overflowed the fold
        };
        slots.push(SlotReport {
            len: slot.len,
            access,
            footprint,
            bounds_proven,
            max_index: if maxes.is_empty() { None } else { max_index },
        });
    }
    ContractReport { kernel: kernel.to_string(), range, slots }
}

/// Footprint meet over one slot's decomposed accesses: Item requires a
/// single shared item-coefficient vector whose map is injective with
/// gaps wider than the combined residual interval; ItemDense requires
/// in addition the strict `lin*s` tiling of the whole object and
/// unguarded writes whose residuals cover `[0, s)`.
fn infer_footprint(
    access: Option<PlanAccess>,
    all_affine: bool,
    decomps: &[(bool, Decomp)],
    range: [usize; 3],
    items: Option<usize>,
    len: usize,
    exec_writes: usize,
) -> PlanFootprint {
    if access.is_none() || !all_affine || decomps.is_empty() {
        return PlanFootprint::Whole;
    }
    let coeffs = decomps[0].1.item_coeff;
    if decomps.iter().any(|(_, d)| d.item_coeff != coeffs) {
        return PlanFootprint::Whole;
    }
    let lo = decomps.iter().map(|(_, d)| d.lo).min().unwrap_or(0);
    let hi = decomps.iter().map(|(_, d)| d.hi).max().unwrap_or(0);
    let width = hi - lo + 1;
    if !item_disjoint(coeffs, range, width) {
        return PlanFootprint::Whole;
    }
    let dense = exec_writes > 0
        && dense_slice(coeffs, range, len).is_some_and(|s| {
            let tiles = items.and_then(|n| n.checked_mul(s)) == Some(len);
            let mut cover: Vec<(usize, usize)> = decomps
                .iter()
                .filter(|(w, d)| *w && !d.guarded)
                .filter_map(|(_, d)| d.covers.map(|w| (d.lo, d.lo + w)))
                .collect();
            tiles && covers_interval(&mut cover, s)
        });
    if dense {
        PlanFootprint::ItemDense
    } else {
        PlanFootprint::Item
    }
}

/// Whether the half-open intervals union-cover `[0, s)`.
fn covers_interval(iv: &mut [(usize, usize)], s: usize) -> bool {
    iv.sort_unstable();
    let mut reach = 0usize;
    for &(lo, end) in iv.iter() {
        if lo > reach {
            return false;
        }
        reach = reach.max(end);
    }
    reach >= s
}

// ---------------------------------------------------------------------------
// Recording-level violations
// ---------------------------------------------------------------------------

/// What a recording that states index sets can still get wrong. A
/// launch's bindings are derived from its index sets, so a binding
/// cannot disagree with them; what inference cannot see is a
/// declaration about the *graph*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractViolation {
    /// A declared graph output is never written by any recorded node.
    StaleOutput {
        /// Diagnostic identity of the output object.
        object: u64,
    },
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractViolation::StaleOutput { object } => {
                write!(f, "graph output object #{object} is never written by any recorded node")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Translation validation of the pass pipeline
// ---------------------------------------------------------------------------

/// A way an optimized schedule fails independent re-derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TvError {
    /// A schedule step references a node index outside the plan.
    UnknownNode {
        /// Offending index.
        node: usize,
    },
    /// A node is scheduled more than once per replay.
    DuplicatedNode {
        /// Node name.
        name: String,
    },
    /// A node missing from the schedule is not provably dead.
    EliminatedNotDead {
        /// Node name.
        name: String,
    },
    /// A prologue (hoisted) node fails independent hoist legality.
    IllegalHoist {
        /// Node name.
        name: String,
    },
    /// A swap step fails independent ping-pong legality.
    IllegalSwap {
        /// Node name.
        name: String,
    },
    /// Two conflicting nodes execute in a different order than recorded.
    OrderViolation {
        /// Earlier-recorded node.
        first: String,
        /// Later-recorded node scheduled before it.
        second: String,
    },
    /// The pass report's claims do not match the schedule.
    ReportMismatch {
        /// What disagreed.
        what: &'static str,
    },
}

impl fmt::Display for TvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TvError::UnknownNode { node } => write!(f, "schedule references unknown node #{node}"),
            TvError::DuplicatedNode { name } => write!(f, "node '{name}' scheduled more than once"),
            TvError::EliminatedNotDead { name } => {
                write!(f, "node '{name}' was eliminated but is not provably dead")
            }
            TvError::IllegalHoist { name } => write!(f, "node '{name}' illegally hoisted"),
            TvError::IllegalSwap { name } => write!(f, "copy '{name}' illegally swapped"),
            TvError::OrderViolation { first, second } => {
                write!(f, "conflicting nodes reordered: '{second}' now runs before '{first}'")
            }
            TvError::ReportMismatch { what } => write!(f, "pass report mismatch: {what}"),
        }
    }
}

/// Effective object touch-set of a scheduled node for the conflict
/// relation: swap steps clobber *both* buffers, so a swapped copy node
/// is treated as reading and writing src and dst regardless of its
/// declared copy bindings.
fn touches(plan: &PlanGraph, i: usize, swapped: bool) -> Vec<(u64, bool)> {
    if swapped {
        if let Some((s, d)) = plan.nodes[i].copy {
            return vec![(s, true), (d, true)];
        }
    }
    plan.nodes[i]
        .bindings
        .iter()
        .map(|b| (b.object, matches!(b.access, PlanAccess::Write | PlanAccess::ReadWrite)))
        .collect()
}

fn conflict(a: &[(u64, bool)], b: &[(u64, bool)]) -> bool {
    a.iter().any(|&(oa, wa)| b.iter().any(|&(ob, wb)| oa == ob && (wa || wb)))
}

/// Independently re-derive that `sched` is a behavior-preserving
/// rewrite of `plan` and that `report` claims exactly what happened.
/// Shares no code with the passes: every legality rule is re-stated
/// here from the plan and the schedule alone.
pub fn validate_translation(
    plan: &PlanGraph,
    sched: &OptimizedPlan,
    report: &OptReport,
) -> Result<(), Vec<TvError>> {
    let n = plan.nodes.len();
    let mut errors = Vec::new();

    // -- Accounting: every node appears at most once; absentees form
    // the eliminated set.
    let mut occur = vec![0usize; n];
    let mut bump = |i: usize, errors: &mut Vec<TvError>| {
        if i >= n {
            errors.push(TvError::UnknownNode { node: i });
        } else {
            occur[i] += 1;
        }
    };
    for &i in &sched.prologue {
        bump(i, &mut errors);
    }
    for step in &sched.steady {
        match step {
            PlanStep::Launch(node) | PlanStep::Swap { node } => bump(*node, &mut errors),
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    for (i, &c) in occur.iter().enumerate() {
        if c > 1 {
            errors.push(TvError::DuplicatedNode { name: plan.nodes[i].name.clone() });
        }
    }
    let eliminated: Vec<usize> = (0..n).filter(|&i| occur[i] == 0).collect();
    let live: Vec<usize> = (0..n).filter(|&i| occur[i] > 0).collect();

    // -- Eliminated nodes must be genuinely dead against the final live
    // set: opaque (binding-less) nodes can never be removed, and every
    // written object must be neither an output nor read by a live node.
    for &i in &eliminated {
        let node = &plan.nodes[i];
        let dead = !node.bindings.is_empty()
            && node.bindings.iter().filter(|b| writes_b(b.access)).all(|b| {
                !plan.outputs.contains(&b.object)
                    && live.iter().all(|&j| !reads_object(plan, j, b.object))
            });
        if !dead {
            errors.push(TvError::EliminatedNotDead { name: node.name.clone() });
        }
    }
    {
        let mut claimed: Vec<&str> = report.eliminated.iter().map(|s| s.as_str()).collect();
        let mut actual: Vec<&str> =
            eliminated.iter().map(|&i| plan.nodes[i].name.as_str()).collect();
        claimed.sort_unstable();
        actual.sort_unstable();
        if claimed != actual {
            errors.push(TvError::ReportMismatch { what: "eliminated" });
        }
    }

    // -- Hoisted (prologue) nodes: pure writes, sole writer of their
    // objects among live nodes, and no earlier-recorded live node reads
    // what they write (moving the write before such a reader would
    // change what the reader observes on the first replay).
    for &i in &sched.prologue {
        let node = &plan.nodes[i];
        let pure_write = !node.bindings.is_empty()
            && node.copy.is_none()
            && node.bindings.iter().all(|b| b.access == PlanAccess::Write);
        let legal = pure_write
            && node.bindings.iter().all(|b| {
                live.iter().all(|&j| {
                    (j == i || !writes_object(plan, j, b.object))
                        && (j >= i || !reads_object(plan, j, b.object))
                })
            });
        if !legal {
            errors.push(TvError::IllegalHoist { name: node.name.clone() });
        }
    }
    {
        let hoisted: Vec<&str> = sched.prologue.iter().map(|&i| plan.nodes[i].name.as_str()).collect();
        let claimed: Vec<&str> = report.hoisted.iter().map(|s| s.as_str()).collect();
        if hoisted != claimed {
            errors.push(TvError::ReportMismatch { what: "hoisted" });
        }
    }

    // -- Swap steps: the node must be a copy, and walking the steady
    // schedule forward (wrapping, since replays loop) the first step
    // touching src must densely overwrite it without reading — with the
    // overwrite unwrapped whenever src is observable output.
    let steps = sched.steady.len();
    let mut swapped_names = Vec::new();
    for (p, step) in sched.steady.iter().enumerate() {
        let PlanStep::Swap { node } = step else { continue };
        let name = plan.nodes[*node].name.clone();
        swapped_names.push(name.clone());
        let Some((src, _dst)) = plan.nodes[*node].copy else {
            errors.push(TvError::IllegalSwap { name });
            continue;
        };
        let mut verdict = false;
        let mut decided = false;
        for k in 1..steps {
            let q = (p + k) % steps;
            let wrapped = p + k >= steps;
            match &sched.steady[q] {
                PlanStep::Swap { node: other } => {
                    let t = match plan.nodes[*other].copy {
                        Some((s, d)) => s == src || d == src,
                        None => true,
                    };
                    if t {
                        decided = true;
                        verdict = false;
                        break;
                    }
                }
                PlanStep::Launch(j) => {
                    let on_src: Vec<_> =
                        plan.nodes[*j].bindings.iter().filter(|b| b.object == src).collect();
                    if on_src.is_empty() {
                        continue;
                    }
                    decided = true;
                    verdict = on_src.iter().all(|b| {
                        b.access == PlanAccess::Write && b.footprint == PlanFootprint::ItemDense
                    }) && (!wrapped || !plan.outputs.contains(&src));
                    break;
                }
            }
        }
        if !decided || !verdict {
            errors.push(TvError::IllegalSwap { name });
        }
    }
    if swapped_names != report.swapped {
        errors.push(TvError::ReportMismatch { what: "swapped" });
    }

    // -- Happens-before preservation: every pair of conflicting nodes
    // scheduled in the steady sequence must run in recorded order.
    let mut pos: Vec<Option<usize>> = vec![None; n];
    let mut swapped_at: Vec<bool> = vec![false; n];
    for (p, step) in sched.steady.iter().enumerate() {
        match step {
            PlanStep::Launch(i) => pos[*i] = Some(p),
            PlanStep::Swap { node } => {
                pos[*node] = Some(p);
                swapped_at[*node] = true;
            }
        }
    }
    for i in 0..n {
        let Some(pi) = pos[i] else { continue };
        let ti = touches(plan, i, swapped_at[i]);
        for j in (i + 1)..n {
            let Some(pj) = pos[j] else { continue };
            let tj = touches(plan, j, swapped_at[j]);
            if conflict(&ti, &tj) && pj < pi {
                errors.push(TvError::OrderViolation {
                    first: plan.nodes[i].name.clone(),
                    second: plan.nodes[j].name.clone(),
                });
            }
        }
    }

    // -- Launch accounting in the report.
    if report.launches_before != n {
        errors.push(TvError::ReportMismatch { what: "launches_before" });
    }
    let after = sched.steady.iter().filter(|s| matches!(s, PlanStep::Launch(_))).count();
    if report.launches_after != after {
        errors.push(TvError::ReportMismatch { what: "launches_after" });
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn writes_b(a: PlanAccess) -> bool {
    matches!(a, PlanAccess::Write | PlanAccess::ReadWrite)
}

fn reads_object(plan: &PlanGraph, j: usize, obj: u64) -> bool {
    plan.nodes[j].bindings.iter().any(|b| {
        b.object == obj && matches!(b.access, PlanAccess::Read | PlanAccess::ReadWrite)
    })
}

fn writes_object(plan: &PlanGraph, j: usize, obj: u64) -> bool {
    plan.nodes[j].bindings.iter().any(|b| b.object == obj && writes_b(b.access))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{optimize_plan, PlanBinding, PlanNode};

    fn bind(object: u64, access: PlanAccess, footprint: PlanFootprint) -> PlanBinding {
        PlanBinding { object, access, footprint }
    }

    fn node(name: &str, bindings: Vec<PlanBinding>) -> PlanNode {
        PlanNode { name: name.to_string(), bindings, copy: None }
    }

    fn copy_node(name: &str, src: u64, dst: u64) -> PlanNode {
        PlanNode {
            name: name.to_string(),
            bindings: vec![
                bind(src, PlanAccess::Read, PlanFootprint::Item),
                bind(dst, PlanAccess::Write, PlanFootprint::ItemDense),
            ],
            copy: Some((src, dst)),
        }
    }

    // --- inference ---

    #[test]
    fn stencil_gather_is_whole_and_own_cell_is_item() {
        // The FDTD2D hx shape: i = gid1*n + gid0 over (n-1)x(n-1);
        // reads ez at i and i+n (cross-item), RMW hx at i.
        let n = 64usize;
        let i = at(0).item(0, 1).item(1, n);
        let spec = LaunchSpec::new()
            .slot(n * n, vec![i.clone().into(), i.clone().off(n).into()], vec![])
            .slot(n * n, vec![i.clone().into()], vec![i.into()]);
        let r = infer_contract("fdtd_hx", [n - 1, n - 1, 1], &spec);
        assert_eq!(r.slots[0].access, Some(PlanAccess::Read));
        assert_eq!(r.slots[0].footprint, PlanFootprint::Whole);
        assert_eq!(r.slots[1].access, Some(PlanAccess::ReadWrite));
        assert_eq!(r.slots[1].footprint, PlanFootprint::Item);
        // max ez index: (n-2)*n + (n-2) + n < n*n; all proven.
        assert!(r.proven_in_bounds());
        assert_eq!(r.slots[0].max_index, Some((n - 2) * n + (n - 2) + n));
    }

    #[test]
    fn own_cell_write_over_full_range_is_dense() {
        // The SRAD-1 shape: write c at own i over n x n, len n*n.
        let n = 16usize;
        let i = at(0).item(0, 1).item(1, n);
        let spec = LaunchSpec::new().slot(n * n, vec![], vec![i.into()]);
        let r = infer_contract("srad_1", [n, n, 1], &spec);
        assert_eq!(r.slots[0].footprint, PlanFootprint::ItemDense);
        assert!(r.proven_in_bounds());
    }

    #[test]
    fn row_sweeps_infer_item_and_full_rows_dense() {
        // The FDTD2D hx row shape: one item per row, x in 0..n-1 of the
        // n columns; reads ez on the row and the row below, RMW hx.
        let n = 64usize;
        let row = |off: usize, w: usize| -> Index { at(off).item(0, n).aux(1, w).into() };
        let spec = LaunchSpec::new()
            .slot(n * n, vec![row(n, n - 1), row(0, n - 1)], vec![])
            .slot(n * n, vec![row(0, n - 1)], vec![row(0, n - 1)]);
        let r = infer_contract("fdtd_hx", [n - 1, 1, 1], &spec);
        // ez spans two rows per item (width 2n-1 > stride n): a gather.
        assert_eq!(r.slots[0].footprint, PlanFootprint::Whole);
        // hx leaves the last column (and row) unwritten: Item, not dense.
        assert_eq!(r.slots[1].access, Some(PlanAccess::ReadWrite));
        assert_eq!(r.slots[1].footprint, PlanFootprint::Item);
        assert!(r.proven_in_bounds());
        assert_eq!(r.slots[0].max_index, Some(n * n - 2));

        // The SRAD-1 row shape: every row written full width over n rows.
        let spec = LaunchSpec::new().slot(n * n, vec![], vec![row(0, n)]);
        let r = infer_contract("srad_1", [n, 1, 1], &spec);
        assert_eq!(r.slots[0].footprint, PlanFootprint::ItemDense);
        assert!(r.proven_in_bounds());
    }

    #[test]
    fn guarded_block_read_proves_a_ragged_tail_in_bounds() {
        // The KMeans accumulate shape: item b reads the nf words of
        // points b*B..(b+1)*B, the last block clipped to n.
        let (n, nf, b) = (1000usize, 16usize, 256usize);
        let blocks = n.div_ceil(b);
        let block = |w: usize| -> Index { at(0).item(0, b * w).aux(1, b * w).guard(n * w).into() };
        let spec = LaunchSpec::new()
            .slot(n * nf, vec![block(nf)], vec![])
            .slot(n, vec![block(1)], vec![]);
        let r = infer_contract("accumulate", [blocks, 1, 1], &spec);
        assert!(blocks * b > n, "the last block is ragged");
        assert!(r.proven_in_bounds());
        assert_eq!(r.slots[0].max_index, Some(n * nf - 1));
        assert_eq!(r.slots[1].max_index, Some(n - 1));
        assert_eq!(r.slots[1].footprint, PlanFootprint::Item);
        // Without the guard the same sweep runs past the cloud.
        let open = LaunchSpec::new()
            .slot(n, vec![at(0).item(0, b).aux(1, b).into()], vec![]);
        assert!(!infer_contract("accumulate", [blocks, 1, 1], &open).proven_in_bounds());
    }

    #[test]
    fn aux_loop_slices_infer_item_and_dense() {
        // The CFD time_step shape: write vars[e*NVAR + v], v in 0..NVAR.
        let (n, nvar) = (32usize, 4usize);
        let e = at(0).item(0, nvar).aux(1, nvar);
        let spec = LaunchSpec::new().slot(n * nvar, vec![], vec![e.into()]);
        let r = infer_contract("time_step", [n, 1, 1], &spec);
        assert_eq!(r.slots[0].footprint, PlanFootprint::ItemDense);
        assert!(r.proven_in_bounds());

        // The KMeans finalize shape: the same slices, written only for a
        // non-empty cluster. The index structure alone would tile
        // densely; the data-conditional marker keeps the footprint Item.
        let k = 8usize;
        let c = at(0).item(0, nvar).aux(1, nvar).conditional();
        let spec = LaunchSpec::new().slot(k * nvar, vec![], vec![c.into()]);
        let r = infer_contract("finalize", [k, 1, 1], &spec);
        assert_eq!(r.slots[0].footprint, PlanFootprint::Item);
        assert!(r.proven_in_bounds());
    }

    #[test]
    fn a_conditional_access_blocks_dense_coverage_and_nothing_else() {
        let n = 12usize;
        let own = || at(0).item(0, 1);
        let infer = |reads: Vec<Index>, writes: Vec<Index>| {
            let spec = LaunchSpec::new().slot(n, reads, writes);
            infer_contract("k", [n, 1, 1], &spec).slots.remove(0)
        };
        // Unmarked, the own-cell write is dense; marked, it is Item with
        // the same access, bound and proof.
        let plain = infer(vec![], vec![own().into()]);
        let cond = infer(vec![], vec![own().conditional().into()]);
        assert_eq!(plain.footprint, PlanFootprint::ItemDense);
        assert_eq!(cond.footprint, PlanFootprint::Item);
        assert_eq!((cond.access, cond.max_index, cond.bounds_proven),
                   (plain.access, plain.max_index, plain.bounds_proven));
        // It still counts as an access: a conditional read beside a
        // write makes the slot read-write, and one that reaches past the
        // object leaves the proof open.
        let rw = infer(vec![own().conditional().into()], vec![own().into()]);
        assert_eq!(rw.access, Some(PlanAccess::ReadWrite));
        assert_eq!(rw.footprint, PlanFootprint::ItemDense);
        assert!(!infer(vec![], vec![own().off(1).conditional().into()]).bounds_proven);
        // An unconditional write of the same cells beside it restores
        // the cover.
        let both = infer(vec![], vec![own().conditional().into(), own().into()]);
        assert_eq!(both.footprint, PlanFootprint::ItemDense);
    }

    #[test]
    fn a_slot_no_access_of_which_can_execute_has_no_access() {
        // A zero-trip loop, a zero guard and an empty `bounded` range
        // never execute: the slot reports no access (the runtime derives
        // no binding from it), trivially in bounds.
        let spec = LaunchSpec::new().slot(
            8,
            vec![at(0).item(0, 1).aux(1, 0).into(), bounded(0)],
            vec![at(0).item(0, 1).guard(0).into()],
        );
        let r = infer_contract("idle", [8, 1, 1], &spec);
        assert_eq!(r.slots[0].access, None);
        assert_eq!(r.slots[0].footprint, PlanFootprint::Whole);
        assert_eq!(r.slots[0].max_index, None);
        assert!(r.proven_in_bounds());
        assert_eq!(
            r.to_string(),
            "contract 'idle' over 8x1x1: proven\n\x20 #0: unused whole (no executing access)\n"
        );
    }

    #[test]
    fn guarded_identity_write_is_item_and_proven() {
        // The KMeans reset shape: range k*nf but counts has len k; the
        // kernel writes counts[i] only when i < k.
        let (k, nf) = (8usize, 4usize);
        let i = at(0).item(0, 1).guard(k);
        let spec = LaunchSpec::new().slot(k, vec![], vec![i.into()]);
        let r = infer_contract("reset", [k * nf, 1, 1], &spec);
        assert_eq!(r.slots[0].footprint, PlanFootprint::Item);
        assert!(r.proven_in_bounds());
        assert_eq!(r.slots[0].max_index, Some(k - 1));
    }

    #[test]
    fn bounded_gather_is_whole_with_bounds_from_the_clamp() {
        let spec = LaunchSpec::new()
            .slot(100, vec![bounded(100)], vec![])
            .slot(100, vec![], vec![at(0).item(0, 1).into()]);
        let r = infer_contract("srad_like", [100, 1, 1], &spec);
        assert_eq!(r.slots[0].footprint, PlanFootprint::Whole);
        assert!(r.proven_in_bounds());
        // A looser clamp does not close the proof.
        let spec = LaunchSpec::new().slot(100, vec![bounded(101)], vec![]);
        let r = infer_contract("loose", [100, 1, 1], &spec);
        assert!(!r.proven_in_bounds());
    }

    #[test]
    fn cross_item_offset_defeats_density_and_bounds() {
        // Writing i+1 over the full range: still a per-item-disjoint
        // map (Item), but the shifted residual defeats dense coverage
        // (element 0 is never written) and the last item goes out of
        // bounds, so the proof does not close.
        let n = 10usize;
        let spec =
            LaunchSpec::new().slot(n, vec![], vec![at(1).item(0, 1).into()]);
        let r = infer_contract("shift", [n, 1, 1], &spec);
        assert_eq!(r.slots[0].footprint, PlanFootprint::Item);
        assert!(!r.proven_in_bounds());
    }

    #[test]
    fn report_display_is_deterministic_and_pinned() {
        let spec = LaunchSpec::new()
            .slot(8, vec![at(0).item(0, 1).into()], vec![])
            .slot(8, vec![], vec![at(0).item(0, 1).into()]);
        let r1 = infer_contract("scale", [8, 1, 1], &spec);
        let r2 = infer_contract("scale", [8, 1, 1], &spec);
        assert_eq!(r1, r2);
        assert_eq!(
            r1.to_string(),
            "contract 'scale' over 8x1x1: proven\n\
             \x20 #0: read item max 7 / len 8 (in bounds)\n\
             \x20 #1: write item-dense max 7 / len 8 (in bounds)\n"
        );
    }

    // --- translation validation ---

    fn fdtd_like_plan() -> PlanGraph {
        PlanGraph {
            nodes: vec![
                node(
                    "hx",
                    vec![
                        bind(1, PlanAccess::Read, PlanFootprint::Whole),
                        bind(2, PlanAccess::ReadWrite, PlanFootprint::Item),
                    ],
                ),
                node(
                    "hy",
                    vec![
                        bind(1, PlanAccess::Read, PlanFootprint::Whole),
                        bind(3, PlanAccess::ReadWrite, PlanFootprint::Item),
                    ],
                ),
                node(
                    "ez",
                    vec![
                        bind(2, PlanAccess::Read, PlanFootprint::Whole),
                        bind(3, PlanAccess::Read, PlanFootprint::Whole),
                        bind(1, PlanAccess::ReadWrite, PlanFootprint::Item),
                    ],
                ),
            ],
            outputs: vec![1, 2, 3],
        }
    }

    #[test]
    fn optimizer_outputs_validate() {
        // Nothing to rewrite (FDTD2D shape).
        let plan = fdtd_like_plan();
        let (sched, report) = optimize_plan(&plan);
        assert_eq!(sched, OptimizedPlan::verbatim(3));
        assert!(validate_translation(&plan, &sched, &report).is_ok());

        // Ping-pong (CFD shape).
        let plan = PlanGraph {
            nodes: vec![
                copy_node("save", 1, 2),
                node(
                    "step",
                    vec![
                        bind(2, PlanAccess::Read, PlanFootprint::Item),
                        bind(1, PlanAccess::Write, PlanFootprint::ItemDense),
                    ],
                ),
            ],
            outputs: vec![1],
        };
        let (sched, report) = optimize_plan(&plan);
        assert_eq!(report.swapped, vec!["save".to_string()]);
        assert!(validate_translation(&plan, &sched, &report).is_ok());

        // DLE + hoist.
        let plan = PlanGraph {
            nodes: vec![
                node("init", vec![bind(1, PlanAccess::Write, PlanFootprint::ItemDense)]),
                node(
                    "use",
                    vec![
                        bind(1, PlanAccess::Read, PlanFootprint::Whole),
                        bind(2, PlanAccess::Write, PlanFootprint::ItemDense),
                    ],
                ),
                node("dead", vec![bind(7, PlanAccess::Write, PlanFootprint::ItemDense)]),
            ],
            outputs: vec![2],
        };
        let (sched, report) = optimize_plan(&plan);
        assert_eq!(report.hoisted, vec!["init".to_string()]);
        assert_eq!(report.eliminated, vec!["dead".to_string()]);
        assert!(validate_translation(&plan, &sched, &report).is_ok());
    }

    #[test]
    fn hand_mutated_illegal_rewrites_are_rejected() {
        let plan = fdtd_like_plan();
        let (sched, report) = optimize_plan(&plan);

        // Reordering conflicting launches: run ez before hx and hy (ez
        // reads hx's and hy's fields).
        let mut bad = sched.clone();
        bad.steady.rotate_right(1);
        let errs = validate_translation(&plan, &bad, &report).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, TvError::OrderViolation { .. })));

        // Dropping a live node claims an elimination that is not dead.
        let mut bad = sched.clone();
        bad.steady.pop();
        let errs = validate_translation(&plan, &bad, &report).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, TvError::EliminatedNotDead { .. })));
        assert!(errs.iter().any(|e| matches!(e, TvError::ReportMismatch { .. })));

        // Duplicating a node.
        let mut bad = sched.clone();
        bad.steady.push(PlanStep::Launch(2));
        let errs = validate_translation(&plan, &bad, &report).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, TvError::DuplicatedNode { .. })));

        // A swap whose source is never densely rewritten.
        let plan = PlanGraph {
            nodes: vec![
                copy_node("save", 1, 2),
                node("use", vec![bind(2, PlanAccess::Read, PlanFootprint::Whole)]),
            ],
            outputs: vec![1],
        };
        let (sched, mut report) = optimize_plan(&plan);
        assert_eq!(sched, OptimizedPlan::verbatim(2));
        let mut bad = sched.clone();
        bad.steady[0] = PlanStep::Swap { node: 0 };
        report.swapped.push("save".to_string());
        report.launches_after = 1;
        let errs = validate_translation(&plan, &bad, &report).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, TvError::IllegalSwap { .. })));

        // An illegal hoist: hoisting a node a conflicting earlier node
        // reads from would change the first replay.
        let plan = PlanGraph {
            nodes: vec![
                node("reader", vec![bind(1, PlanAccess::Read, PlanFootprint::Whole)]),
                node("writer", vec![bind(1, PlanAccess::Write, PlanFootprint::ItemDense)]),
            ],
            outputs: vec![1],
        };
        let bad = OptimizedPlan { prologue: vec![1], steady: vec![PlanStep::Launch(0)] };
        let report = OptReport {
            hoisted: vec!["writer".to_string()],
            launches_before: 2,
            launches_after: 1,
            ..OptReport::default()
        };
        let errs = validate_translation(&plan, &bad, &report).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, TvError::IllegalHoist { .. })));
    }

    #[test]
    fn tv_errors_display() {
        let e = TvError::OrderViolation { first: "a".into(), second: "b".into() };
        assert!(e.to_string().contains("'b' now runs before 'a'"));
        let e = TvError::IllegalSwap { name: "save".into() };
        assert!(e.to_string().contains("'save' illegally swapped"));
    }

    #[test]
    fn known_deviation_covers_by_app_rule_and_optimization() {
        use crate::verify::{KnownDeviation, VerifyError};
        let d = KnownDeviation {
            app: "SRAD",
            rule: "work-group-over-capacity",
            baseline_only: true,
            why: "DPCT baseline keeps the CUDA block size",
        };
        let e = VerifyError::WorkGroupOverCapacity {
            kernel: "k".into(),
            device: "fpga",
            size: 256,
            limit: 128,
        };
        assert!(d.covers("SRAD", false, &e));
        assert!(!d.covers("SRAD", true, &e)); // optimized designs must be clean
        assert!(!d.covers("CFD", false, &e));
        let other = VerifyError::WorkOverflow { kernel: "k".into(), loop_name: "l".into() };
        assert!(!d.covers("SRAD", false, &other));
        let any = KnownDeviation { app: "*", ..d };
        assert!(any.covers("CFD", false, &e));
    }
}
