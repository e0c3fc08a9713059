//! ND-Range index space, work-groups, and work-items.
//!
//! SYCL's `nd_range<3>` is reproduced by [`NdRange`]: a global range
//! partitioned into work-groups of a fixed local range. Kernels are
//! written *group-wise*: the runtime hands the kernel a [`GroupCtx`] and
//! the kernel iterates its work-items in phases, with
//! [`GroupCtx::barrier`] separating phases — the standard way of giving
//! SIMT barrier semantics on a CPU. This mirrors the paper's porting
//! direction, where ND-Range structure is kept explicit so it can later be
//! refactored for FPGA consumption.

use std::cell::RefCell;

use crate::local::{LocalArena, LocalArray, PrivateArray};

/// An up-to-3-dimensional index range (like `sycl::range<3>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Extent per dimension; unused dimensions are 1.
    pub dims: [usize; 3],
}

impl Range {
    /// 1-D range.
    pub fn d1(x: usize) -> Self {
        Range { dims: [x, 1, 1] }
    }

    /// 2-D range (`x` is the fastest-varying dimension).
    pub fn d2(x: usize, y: usize) -> Self {
        Range { dims: [x, y, 1] }
    }

    /// Total number of indices (product of extents).
    pub fn size(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Convert a linear index into (x, y, z) coordinates.
    pub fn delinearize(&self, lin: usize) -> [usize; 3] {
        let x = lin % self.dims[0];
        let y = (lin / self.dims[0]) % self.dims[1];
        let z = lin / (self.dims[0] * self.dims[1]);
        [x, y, z]
    }

    /// Convert (x, y, z) coordinates into a linear index.
    pub(crate) fn linearize(&self, idx: [usize; 3]) -> usize {
        idx[0] + self.dims[0] * (idx[1] + self.dims[1] * idx[2])
    }
}

/// A global range partitioned into work-groups (like `sycl::nd_range<3>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    /// Total global index space.
    pub global: Range,
    /// Work-group (local) extent; must divide `global` per dimension.
    pub local: Range,
}

impl NdRange {
    /// 1-D ND-range.
    pub fn d1(global: usize, local: usize) -> Self {
        NdRange { global: Range::d1(global), local: Range::d1(local) }
    }

    /// 2-D ND-range.
    pub fn d2(gx: usize, gy: usize, lx: usize, ly: usize) -> Self {
        NdRange { global: Range::d2(gx, gy), local: Range::d2(lx, ly) }
    }

    /// The ND-range a flat `parallel_for` over `total` indices runs as:
    /// implicit 1-D chunks of up to 256 work-items, the last one padded
    /// ([`GroupCtx::flat_items`] skips the padding). The chunk is an
    /// implementation detail, not a user-requested group size, so it is
    /// clamped to the device's limit rather than rejected by it.
    pub(crate) fn flat(total: usize, max_work_group_size: usize) -> Self {
        let chunk = 256.min(max_work_group_size).min(total.max(1));
        NdRange::d1(total.div_ceil(chunk) * chunk, chunk)
    }

    /// Number of work-groups per dimension.
    pub fn groups(&self) -> Range {
        Range {
            dims: [
                self.global.dims[0] / self.local.dims[0],
                self.global.dims[1] / self.local.dims[1],
                self.global.dims[2] / self.local.dims[2],
            ],
        }
    }

    /// Total number of work-groups.
    pub fn num_groups(&self) -> usize {
        self.groups().size()
    }

    /// Work-items per work-group.
    pub fn group_size(&self) -> usize {
        self.local.size()
    }

    /// Check divisibility of global by local per dimension.
    pub fn validate(&self) -> crate::error::Result<()> {
        for d in 0..3 {
            if self.local.dims[d] == 0 || !self.global.dims[d].is_multiple_of(self.local.dims[d]) {
                return Err(crate::error::Error::IndivisibleRange {
                    global: self.global.dims[d],
                    local: self.local.dims[d],
                    dim: d,
                });
            }
        }
        Ok(())
    }
}

/// One work-item's identity within a kernel launch
/// (like `sycl::nd_item<3>`).
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Global id per dimension.
    pub global: [usize; 3],
    /// Local id within the work-group per dimension.
    pub local: [usize; 3],
    /// Work-group id per dimension.
    pub group: [usize; 3],
    /// Linear local id (0..group_size).
    pub local_linear: usize,
    /// Linear global id.
    pub global_linear: usize,
}

impl Item {
    /// Global id in dimension `d` (like `item.get_global_id(d)`).
    #[inline]
    pub fn gid(&self, d: usize) -> usize {
        self.global[d]
    }

    /// Local id in dimension `d`.
    #[inline]
    pub fn lid(&self, d: usize) -> usize {
        self.local[d]
    }
}

/// Barrier memory scope, mirroring
/// `sycl::access::fence_space`. The paper's Section 3.2.1 narrows DPCT's
/// conservative global-scope barriers to local scope where safe; the
/// migration-pass crate (`hetero-ir`'s dpct model) observes the
/// distinction, and every phase boundary executes the same here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceSpace {
    /// Fence local (shared) memory only — the cheap barrier.
    Local,
    /// Fence local and global memory — DPCT's conservative default.
    Global,
}

/// Execution context for one work-group.
///
/// A group kernel receives `&mut GroupCtx` and expresses SIMT code as
/// *phases*: `ctx.items(|item| ...)` runs the closure once per work-item;
/// `ctx.barrier(..)` ends a phase. Because phases run to completion before
/// the next phase starts, all barrier orderings of the original SIMT
/// program are preserved.
pub struct GroupCtx {
    group_id: [usize; 3],
    nd: NdRange,
    arena: RefCell<LocalArena>,
}

impl GroupCtx {
    pub(crate) fn new(
        group_id: [usize; 3],
        nd: NdRange,
        local_mem_limit: usize,
        local_fault: Option<crate::fault::LocalFaultCtx>,
    ) -> Self {
        GroupCtx {
            group_id,
            nd,
            arena: RefCell::new(LocalArena::new(local_mem_limit, local_fault)),
        }
    }

    /// Linear group id.
    pub fn group_linear(&self) -> usize {
        self.nd.groups().linearize(self.group_id)
    }

    /// Work-items per group.
    pub fn group_size(&self) -> usize {
        self.nd.group_size()
    }

    /// The launch's ND-range.
    pub fn nd_range(&self) -> NdRange {
        self.nd
    }

    /// Allocate a zero-initialised local (shared) array of `len` elements,
    /// the equivalent of a `sycl::local_accessor` /
    /// `group_local_memory_for_overwrite` allocation. Panics if the
    /// device's local-memory capacity would be exceeded, which is how we
    /// surface the paper's FPGA local-memory sizing issues in tests.
    pub fn local_array<T: Copy + Default + 'static>(&self, len: usize) -> LocalArray<T> {
        self.arena.borrow_mut().alloc::<T>(len)
    }

    /// Allocate a per-work-item private array: one `T` slot per work-item
    /// in the group, used to carry "register" state across barrier phases.
    pub fn private_array<T: Copy + Default + 'static>(&self) -> PrivateArray<T> {
        PrivateArray::new(self.group_size())
    }

    /// Run `f` once per work-item of this group (one *phase*), local
    /// linear ids ascending.
    ///
    /// The ids are carried, not recomputed: the group's base ids are
    /// taken once and every further id is an increment, so an item costs
    /// no division. The sanitizer's armed flag is read once per phase —
    /// a sanitized launch holds it for its whole duration, so a phase
    /// that belongs to one never sees it clear.
    #[inline]
    pub fn items(&self, mut f: impl FnMut(Item)) {
        let (ls, gs) = (self.nd.local.dims, self.nd.global.dims);
        let base = [
            self.group_id[0] * ls[0],
            self.group_id[1] * ls[1],
            self.group_id[2] * ls[2],
        ];
        let armed = crate::sanitize::hooks_armed();
        let mut local_linear = 0;
        for z in 0..ls[2] {
            for y in 0..ls[1] {
                let (gy, gz) = (base[1] + y, base[2] + z);
                let row = gs[0] * (gy + gs[1] * gz);
                for x in 0..ls[0] {
                    if armed {
                        crate::sanitize::set_current_item(Some(local_linear));
                    }
                    let gx = base[0] + x;
                    f(Item {
                        global: [gx, gy, gz],
                        local: [x, y, z],
                        group: self.group_id,
                        local_linear,
                        global_linear: row + gx,
                    });
                    local_linear += 1;
                }
            }
        }
        self.end_phase(armed);
    }

    /// The flat-range adapter behind every `parallel_for`: this group is
    /// one chunk of [`NdRange::flat`] over `range` (`total` indices), and
    /// `f` runs once per index of the chunk that lies inside the range —
    /// the padding tail of the last chunk is skipped. `global` is the
    /// index's position in `range` (delinearized once per group, then
    /// carried), `global_linear` its flat index; `local`/`group` are the
    /// chunk's own 1-D ids.
    #[inline]
    pub(crate) fn flat_items(&self, range: Range, total: usize, mut f: impl FnMut(Item)) {
        let chunk = self.nd.local.dims[0];
        let base = self.group_id[0] * chunk;
        let armed = crate::sanitize::hooks_armed();
        if base < total {
            let [mut x, mut y, mut z] = range.delinearize(base);
            for local_linear in 0..chunk.min(total - base) {
                if armed {
                    crate::sanitize::set_current_item(Some(local_linear));
                }
                f(Item {
                    global: [x, y, z],
                    local: [local_linear, 0, 0],
                    group: self.group_id,
                    local_linear,
                    global_linear: base + local_linear,
                });
                x += 1;
                if x == range.dims[0] {
                    x = 0;
                    y += 1;
                    if y == range.dims[1] {
                        y = 0;
                        z += 1;
                    }
                }
            }
        }
        self.end_phase(armed);
    }

    /// Leave per-item context.
    #[inline]
    fn end_phase(&self, armed: bool) {
        if armed {
            crate::sanitize::set_current_item(None);
        }
    }

    /// End the current phase. Since phases already run to completion this
    /// only advances the race detector's phase; the *scope* is kept so
    /// the kernels read like their SYCL sources, whose barrier narrowing
    /// the paper's Section 3.2.1 describes.
    pub fn barrier(&self, _space: FenceSpace) {
        crate::sanitize::phase_bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_size_and_linearize_roundtrip() {
        let r = Range { dims: [4, 3, 2] };
        assert_eq!(r.size(), 24);
        for lin in 0..r.size() {
            assert_eq!(r.linearize(r.delinearize(lin)), lin);
        }
    }

    #[test]
    fn nd_range_group_partitioning() {
        let nd = NdRange::d2(64, 32, 16, 8);
        assert_eq!(nd.num_groups(), (64 / 16) * (32 / 8));
        assert_eq!(nd.group_size(), 128);
        assert!(nd.validate().is_ok());
    }

    #[test]
    fn indivisible_range_rejected() {
        let nd = NdRange::d1(100, 32);
        let e = nd.validate().unwrap_err();
        assert!(matches!(e, crate::error::Error::IndivisibleRange { dim: 0, .. }));
    }

    #[test]
    fn group_ctx_iterates_all_items_with_correct_ids() {
        let nd = NdRange::d2(8, 4, 4, 2);
        let ctx = GroupCtx::new([1, 0, 0], nd, 1 << 20, None);
        let mut seen = Vec::new();
        ctx.items(|it| seen.push((it.gid(0), it.gid(1), it.local_linear)));
        assert_eq!(seen.len(), 8);
        // Group (1,0) covers global x in [4,8), y in [0,2).
        assert!(seen.iter().all(|&(gx, gy, _)| (4..8).contains(&gx) && gy < 2));
        // Local linear ids are 0..8 in order.
        assert_eq!(seen.iter().map(|s| s.2).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn carried_ids_equal_their_definition_in_every_dimensionality() {
        // The ids `items` carries by increment against what they are
        // defined as, over every group of ranges with non-square locals.
        for nd in [
            NdRange::d1(60, 12),
            NdRange::d2(12, 10, 3, 5),
            NdRange { global: Range { dims: [6, 8, 6] }, local: Range { dims: [3, 2, 6] } },
        ] {
            nd.validate().unwrap();
            let groups = nd.groups();
            for g in 0..nd.num_groups() {
                let group = groups.delinearize(g);
                let ctx = GroupCtx::new(group, nd, 1 << 20, None);
                let mut next = 0;
                ctx.items(|it| {
                    let local = nd.local.delinearize(next);
                    let global: [usize; 3] =
                        std::array::from_fn(|d| group[d] * nd.local.dims[d] + local[d]);
                    assert_eq!(it.local_linear, next, "{nd:?}: local_linear ascends");
                    assert_eq!(it.local, local, "{nd:?}");
                    assert_eq!(it.group, group, "{nd:?}");
                    assert_eq!(it.global, global, "{nd:?}");
                    assert_eq!(it.global_linear, nd.global.linearize(global), "{nd:?}");
                    next += 1;
                });
                assert_eq!(next, nd.group_size());
            }
        }
    }

    #[test]
    fn phase_ordering_preserves_barrier_semantics() {
        // Classic SIMT pattern: every item writes its slot in phase 1,
        // then every item reads its neighbour's slot in phase 2. Correct
        // iff the barrier separates the phases.
        let nd = NdRange::d1(8, 8);
        let ctx = GroupCtx::new([0, 0, 0], nd, 1 << 20, None);
        let shared = ctx.local_array::<u32>(8);
        let out = ctx.private_array::<u32>();
        ctx.items(|it| shared.set(it.local_linear, it.local_linear as u32 * 10));
        ctx.barrier(FenceSpace::Local);
        ctx.items(|it| {
            let n = (it.local_linear + 1) % 8;
            out.set(it.local_linear, shared.get(n));
        });
        for i in 0..8 {
            assert_eq!(out.get(i), (((i + 1) % 8) as u32) * 10);
        }
    }
}
