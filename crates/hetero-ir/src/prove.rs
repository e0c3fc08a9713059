//! hetero-prove: static binding-contract inference.
//!
//! A recorded launch states, per bound object, the index sets its kernel
//! body may read and write — affine index expressions ([`IndexExpr`])
//! over the item id and bounded loop counters, collected in a
//! [`LaunchSpec`]. [`infer_contract`] is a pure function over that plain
//! data, so every rule is unit-testable without touching kernels: it
//! infers each object's access direction ([`PlanAccess`]; none when no
//! stated access can execute for the recorded range) and proves (or
//! fails to prove) that every access stays in bounds. The runtime
//! records the inferred direction as the launch's binding, which is what
//! its scheduler derives dependency phases from.
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

// ---------------------------------------------------------------------------
// Contract language
// ---------------------------------------------------------------------------

/// Access direction of one launch on one object: what the runtime's
/// scheduler reads to order conflicting launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAccess {
    /// The launch only reads the object.
    Read,
    /// The launch only writes the object.
    Write,
    /// The launch both reads and writes the object.
    ReadWrite,
}

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
}

/// Start an affine index expression with constant `offset`.
pub fn at(offset: usize) -> IndexExpr {
    IndexExpr { terms: Vec::new(), offset, guard_lt: None }
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
            match s.max_index {
                Some(m) => writeln!(
                    f,
                    "  #{i}: {} max {} / len {} ({})",
                    access,
                    m,
                    s.len,
                    if s.bounds_proven { "in bounds" } else { "NOT PROVEN" }
                )?,
                None => writeln!(f, "  #{i}: {access} (no executing access)")?,
            }
        }
        Ok(())
    }
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

/// Fold every stated access of one launch's spec over the recorded
/// range: per slot, which directions can execute and whether every
/// access that can is proven in bounds.
pub fn infer_contract(kernel: &str, range: [usize; 3], spec: &LaunchSpec) -> ContractReport {
    let mut slots = Vec::with_capacity(spec.slots.len());
    for slot in &spec.slots {
        // Keep only accesses that can execute; fold each one's maximum.
        let mut maxes: Vec<Option<usize>> = Vec::new();
        let mut exec_reads = 0usize;
        let mut exec_writes = 0usize;
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
        }
        let access = match (exec_reads > 0, exec_writes > 0) {
            (false, false) => None,
            (true, false) => Some(PlanAccess::Read),
            (false, true) => Some(PlanAccess::Write),
            (true, true) => Some(PlanAccess::ReadWrite),
        };
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
            bounds_proven,
            max_index: if maxes.is_empty() { None } else { max_index },
        });
    }
    ContractReport { kernel: kernel.to_string(), range, slots }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stencil_reads_its_neighbours_and_read_writes_its_own_cell() {
        // The FDTD2D hx shape: i = gid1*n + gid0 over (n-1)x(n-1);
        // reads ez at i and i+n (cross-item), RMW hx at i.
        let n = 64usize;
        let i = at(0).item(0, 1).item(1, n);
        let spec = LaunchSpec::new()
            .slot(n * n, vec![i.clone().into(), i.clone().off(n).into()], vec![])
            .slot(n * n, vec![i.clone().into()], vec![i.into()]);
        let r = infer_contract("fdtd_hx", [n - 1, n - 1, 1], &spec);
        assert_eq!(r.slots[0].access, Some(PlanAccess::Read));
        assert_eq!(r.slots[1].access, Some(PlanAccess::ReadWrite));
        // max ez index: (n-2)*n + (n-2) + n < n*n; all proven.
        assert!(r.proven_in_bounds());
        assert_eq!(r.slots[0].max_index, Some((n - 2) * n + (n - 2) + n));
    }

    #[test]
    fn row_sweeps_fold_the_loop_extent_into_the_bound() {
        // The FDTD2D hx row shape: one item per row, x in 0..n-1 of the
        // n columns; reads ez on the row and the row below, RMW hx.
        let n = 64usize;
        let row = |off: usize, w: usize| -> Index { at(off).item(0, n).aux(1, w).into() };
        let spec = LaunchSpec::new()
            .slot(n * n, vec![row(n, n - 1), row(0, n - 1)], vec![])
            .slot(n * n, vec![row(0, n - 1)], vec![row(0, n - 1)]);
        let r = infer_contract("fdtd_hx", [n - 1, 1, 1], &spec);
        assert_eq!(r.slots[1].access, Some(PlanAccess::ReadWrite));
        assert!(r.proven_in_bounds());
        assert_eq!(r.slots[0].max_index, Some(n * n - 2));

        // The SRAD-1 row shape: every row written full width over n rows
        // ends exactly on the last element.
        let spec = LaunchSpec::new().slot(n * n, vec![], vec![row(0, n)]);
        let r = infer_contract("srad_1", [n, 1, 1], &spec);
        assert_eq!(r.slots[0].access, Some(PlanAccess::Write));
        assert_eq!(r.slots[0].max_index, Some(n * n - 1));
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
        // Without the guard the same sweep runs past the cloud.
        let open = LaunchSpec::new()
            .slot(n, vec![at(0).item(0, b).aux(1, b).into()], vec![]);
        assert!(!infer_contract("accumulate", [blocks, 1, 1], &open).proven_in_bounds());
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
        assert_eq!(r.slots[0].max_index, None);
        assert!(r.proven_in_bounds());
        assert_eq!(
            r.to_string(),
            "contract 'idle' over 8x1x1: proven\n\x20 #0: unused (no executing access)\n"
        );
    }

    #[test]
    fn guarded_identity_write_is_proven_by_its_guard() {
        // The KMeans reset shape: range k*nf but counts has len k; the
        // kernel writes counts[i] only when i < k.
        let (k, nf) = (8usize, 4usize);
        let i = at(0).item(0, 1).guard(k);
        let spec = LaunchSpec::new().slot(k, vec![], vec![i.into()]);
        let r = infer_contract("reset", [k * nf, 1, 1], &spec);
        assert!(r.proven_in_bounds());
        assert_eq!(r.slots[0].max_index, Some(k - 1));
    }

    #[test]
    fn a_bounded_gather_takes_its_bound_from_the_clamp() {
        let spec = LaunchSpec::new()
            .slot(100, vec![bounded(100)], vec![])
            .slot(100, vec![], vec![at(0).item(0, 1).into()]);
        let r = infer_contract("srad_like", [100, 1, 1], &spec);
        assert_eq!(r.slots[0].access, Some(PlanAccess::Read));
        assert!(r.proven_in_bounds());
        // A looser clamp does not close the proof.
        let spec = LaunchSpec::new().slot(100, vec![bounded(101)], vec![]);
        let r = infer_contract("loose", [100, 1, 1], &spec);
        assert!(!r.proven_in_bounds());
    }

    #[test]
    fn a_shifted_write_over_the_full_range_is_not_proven() {
        // Writing i+1 over the full range: the last item goes out of
        // bounds, so the proof does not close.
        let n = 10usize;
        let spec =
            LaunchSpec::new().slot(n, vec![], vec![at(1).item(0, 1).into()]);
        let r = infer_contract("shift", [n, 1, 1], &spec);
        assert_eq!(r.slots[0].max_index, Some(n));
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
             \x20 #0: read max 7 / len 8 (in bounds)\n\
             \x20 #1: write max 7 / len 8 (in bounds)\n"
        );
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
