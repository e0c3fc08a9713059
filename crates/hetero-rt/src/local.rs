//! Local (shared) memory and per-item private state.
//!
//! [`LocalArray`] models a work-group-shared array, the analogue of CUDA
//! `__shared__` / SYCL `local_accessor`. Because our runtime executes the
//! work-items of one group on a single thread (phase-wise), local arrays
//! need no synchronisation: both array types are one `Rc<[Cell<T>]>`
//! allocation, an access is a bounds check and a plain load or store.
//!
//! [`PrivateArray`] carries per-work-item "register" state across barrier
//! phases (one slot per local id), a standard device-to-CPU porting tool.
//!
//! The arena enforces a per-group capacity limit so that Altis kernels
//! whose shared usage would not fit a device surface the problem in tests
//! — the CPU-side stand-in for the paper's observation that DPCT's
//! dynamically-sized accessors force the FPGA compiler to assume 16 kB per
//! shared variable.

use std::cell::Cell;
use std::rc::Rc;

use crate::fault::LocalFaultCtx;
use crate::sanitize::{self, AccessKind};

/// A work-group-shared array of `T`.
///
/// Cloning shares the underlying storage (all work-items of the group see
/// the same memory).
pub struct LocalArray<T> {
    data: Rc<[Cell<T>]>,
    // Per-group allocation index under the race sanitizer; `None` when
    // the owning launch is not sanitized, making the accessor hooks a
    // single never-taken branch.
    san_id: Option<u64>,
    // One-shot SDC flip site (element, bit): the first plain load of that
    // element returns a bit-flipped value and clears the cell. `None`
    // (the default) keeps the accessor a single never-taken branch;
    // shared via Rc so clones consume the same one-shot event.
    flip: Option<FlipCell>,
}

/// One-shot SDC flip site `(element, bit)`, shared across clones so the
/// whole group consumes the same single event.
type FlipCell = Rc<Cell<Option<(usize, u8)>>>;

impl<T> Clone for LocalArray<T> {
    fn clone(&self) -> Self {
        LocalArray {
            data: Rc::clone(&self.data),
            san_id: self.san_id,
            flip: self.flip.clone(),
        }
    }
}

/// `len` default-initialised cells in one allocation.
fn default_cells<T: Default>(len: usize) -> Rc<[Cell<T>]> {
    (0..len).map(|_| Cell::new(T::default())).collect()
}

/// Flip `bit` of the value's first storage byte. Callers only request
/// flips for element types where every bit pattern is a valid value
/// (see `integrity::bit_safe`).
fn flip_first_byte<T: Copy>(v: T, bit: u8) -> T {
    if std::mem::size_of::<T>() == 0 {
        return v;
    }
    let mut out = v;
    // SAFETY: T is at least one byte; the result is a valid T by the
    // caller's bit-safety gate.
    unsafe {
        *(&mut out as *mut T as *mut u8) ^= 1 << (bit & 7);
    }
    out
}

impl<T: Copy + Default> LocalArray<T> {
    pub(crate) fn new(len: usize, san_id: Option<u64>) -> Self {
        LocalArray { data: default_cells(len), san_id, flip: None }
    }

    pub(crate) fn with_flip(mut self, site: Option<(usize, u8)>) -> Self {
        if let Some(site) = site {
            self.flip = Some(Rc::new(Cell::new(Some(site))));
        }
        self
    }

    #[inline]
    fn record(&self, i: usize, kind: AccessKind) {
        if let Some(id) = self.san_id {
            sanitize::record_local(id, i, kind);
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.record(i, AccessKind::Read);
        let v = self.data[i].get();
        if let Some(flip) = &self.flip {
            if let Some((fi, bit)) = flip.get() {
                if fi == i {
                    flip.set(None);
                    return flip_first_byte(v, bit);
                }
            }
        }
        v
    }

    /// Store `v` at element `i`.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        self.record(i, AccessKind::Write);
        self.data[i].set(v);
    }

    /// Read-modify-write element `i`. The closure may freely read other
    /// elements of the same array (common in tree reductions).
    #[inline]
    pub fn update(&self, i: usize, f: impl FnOnce(T) -> T) {
        self.record(i, AccessKind::Read);
        let new = f(self.data[i].get());
        self.record(i, AccessKind::Write);
        self.data[i].set(new);
    }

    /// Fill the whole array with `v`.
    pub fn fill(&self, v: T) {
        if self.san_id.is_some() {
            for i in 0..self.len() {
                self.record(i, AccessKind::Write);
            }
        }
        self.data.iter().for_each(|x| x.set(v));
    }

    /// Snapshot the contents into a `Vec` (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<T> {
        self.data.iter().map(Cell::get).collect()
    }
}

/// Per-work-item private state that survives across barrier phases: one
/// slot per local linear id.
pub struct PrivateArray<T> {
    data: Rc<[Cell<T>]>,
}

impl<T> Clone for PrivateArray<T> {
    fn clone(&self) -> Self {
        PrivateArray { data: Rc::clone(&self.data) }
    }
}

impl<T: Copy + Default> PrivateArray<T> {
    pub(crate) fn new(group_size: usize) -> Self {
        PrivateArray { data: default_cells(group_size) }
    }

    /// Load the slot of local id `lid`.
    #[inline]
    pub fn get(&self, lid: usize) -> T {
        self.data[lid].get()
    }

    /// Store into the slot of local id `lid`.
    #[inline]
    pub fn set(&self, lid: usize, v: T) {
        self.data[lid].set(v);
    }

    /// Read-modify-write the slot of local id `lid`. As with
    /// [`LocalArray::update`], the closure may read other slots.
    #[inline]
    pub fn update(&self, lid: usize, f: impl FnOnce(T) -> T) {
        self.data[lid].set(f(self.data[lid].get()));
    }
}

/// Per-group local-memory arena tracking allocated bytes against the
/// device capacity.
pub(crate) struct LocalArena {
    limit: usize,
    bytes: usize,
    // Stateless local-flip decisions for this (kernel, group); `None`
    // unless the launch runs under an SDC fault plan.
    fault: Option<LocalFaultCtx>,
    allocs: u32,
}

impl LocalArena {
    pub(crate) fn new(limit: usize, fault: Option<LocalFaultCtx>) -> Self {
        LocalArena { limit, bytes: 0, fault, allocs: 0 }
    }

    pub(crate) fn alloc<T: Copy + Default + 'static>(&mut self, len: usize) -> LocalArray<T> {
        let req = len * std::mem::size_of::<T>();
        if self.bytes + req > self.limit {
            // Typed payload: kernel containment reports this launch as
            // Error::LocalMemExceeded (a fallback-eligible capability
            // error) rather than a generic kernel panic.
            std::panic::panic_any(crate::error::Error::LocalMemExceeded {
                requested: self.bytes + req,
                limit: self.limit,
            });
        }
        self.bytes += req;
        let alloc_index = self.allocs;
        self.allocs += 1;
        let arr = LocalArray::new(len, sanitize::next_local_array_id());
        match &self.fault {
            Some(ctx) if crate::integrity::bit_safe::<T>() => {
                arr.with_flip(ctx.flip_for_alloc(alloc_index, len))
            }
            _ => arr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_array_shared_between_clones() {
        let a = LocalArray::<f32>::new(4, None);
        let b = a.clone();
        a.set(2, 5.5);
        assert_eq!(b.get(2), 5.5);
    }

    #[test]
    fn fill_and_snapshot() {
        let a = LocalArray::<i32>::new(3, None);
        a.fill(-1);
        assert_eq!(a.to_vec(), vec![-1, -1, -1]);
    }

    #[test]
    fn arena_tracks_bytes_and_enforces_limit() {
        let mut arena = LocalArena::new(64, None);
        let _a = arena.alloc::<f64>(4); // 32 B
        assert_eq!(arena.bytes, 32);
        let _b = arena.alloc::<u8>(32); // 32 B more, exactly at limit
        assert_eq!(arena.bytes, 64);
    }

    #[test]
    fn arena_over_limit_panics_with_typed_payload() {
        crate::fault::install_quiet_hook();
        let payload = std::panic::catch_unwind(|| {
            let mut arena = LocalArena::new(16, None);
            let _a = arena.alloc::<f64>(3); // 24 B > 16 B
        })
        .unwrap_err();
        let e = payload
            .downcast::<crate::error::Error>()
            .expect("payload should be a typed Error");
        assert_eq!(
            *e,
            crate::error::Error::LocalMemExceeded { requested: 24, limit: 16 }
        );
    }

    #[test]
    fn one_shot_flip_corrupts_exactly_one_load() {
        let a = LocalArray::<u32>::new(4, None).with_flip(Some((2, 3)));
        a.set(2, 0);
        // First load of the flipped element returns the corrupted value…
        assert_eq!(a.get(2), 1 << 3);
        // …and the event is consumed: later loads see the real contents.
        assert_eq!(a.get(2), 0);
        // Other elements were never affected.
        assert_eq!(a.get(0), 0);
        // `with_flip(None)` is inert.
        let b = LocalArray::<u32>::new(2, None).with_flip(None);
        assert_eq!(b.get(0), 0);
    }

    #[test]
    fn private_array_update() {
        let p = PrivateArray::<u64>::new(2);
        p.set(1, 10);
        p.update(1, |v| v * 3);
        assert_eq!(p.get(1), 30);
        assert_eq!(p.get(0), 0);
    }
}
