//! Buffers and device-side views.
//!
//! [`Buffer<T>`] plays the role of `sycl::buffer`: a host-managed array
//! that kernels access through views. Inside a kernel, a [`GlobalView`]
//! behaves like a raw global-memory pointer: concurrent work-groups may
//! read and write it without the runtime serialising them, exactly like
//! global memory on a GPU. Synchronisation discipline is therefore the
//! kernel author's responsibility (as on real devices); atomics are
//! available through [`GlobalView::atomic_add_u32`] and friends.
//!
//! # Safety architecture
//!
//! All `unsafe` in this crate is concentrated here. A `GlobalView`
//! holds a raw pointer into the storage's allocation, which is held
//! alive by an `Arc` and never reallocated. Data races between
//! work-items are possible *by design* (they are possible on the
//! modelled hardware too); the Altis kernels are written, like their
//! CUDA originals, so that concurrent writes target disjoint elements or
//! go through the provided atomics.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::error::{Error, Result};
use crate::integrity;
use crate::lanes::Lanes;
use crate::sanitize::{self, AccessKind};

struct Storage<T> {
    // Box<[T]> kept alive for the lifetime of every view; never
    // reallocated after construction, so raw pointers into it stay valid.
    data: Mutex<Box<[T]>>,
    // Base pointer of `data`'s allocation, handed to views.
    base: *mut T,
    len: usize,
    // Process-unique id for the race sanitizer's shadow tracking;
    // allocation order is program order, so ids are deterministic. The
    // integrity layer reuses the same id as its region id.
    id: u64,
    // Checksummed integrity region, set the first time a launch on an
    // integrity queue binds the buffer.
    region: OnceLock<integrity::Region>,
}

impl<T> Storage<T> {
    /// Host-side access; recovers from poisoning (a panicking kernel on
    /// another thread must not wedge the host data).
    fn host(&self) -> MutexGuard<'_, Box<[T]>> {
        self.data.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a [`crate::Binding`] holds of the buffer it names: the storage,
/// reached through its integrity region.
pub(crate) trait Bound: Send + Sync {
    /// The buffer's region, registered and sealed on first use.
    fn region(&self) -> &integrity::Region;
    /// The buffer's region, if a hardened launch has registered it.
    fn registered(&self) -> Option<&integrity::Region>;
}

impl<T: Send + 'static> Bound for Storage<T> {
    fn region(&self) -> &integrity::Region {
        self.region.get_or_init(|| {
            // Under the host lock, so a concurrent host write lands
            // wholly before or after the first seal.
            let guard = self.host();
            let (ptr, bytes) = (guard.as_ptr().cast(), std::mem::size_of_val::<[T]>(&guard));
            integrity::Region::sealed(self.id, ptr, bytes, integrity::bit_safe::<T>())
        })
    }

    fn registered(&self) -> Option<&integrity::Region> {
        self.region.get()
    }
}

/// A host-managed device buffer of `len` elements of `T`.
///
/// Cloning a `Buffer` clones the *handle*; both handles refer to the same
/// storage, as with `sycl::buffer` copies.
pub struct Buffer<T> {
    storage: Arc<Storage<T>>,
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer { storage: Arc::clone(&self.storage) }
    }
}

impl<T: Copy + Default + Send + 'static> Buffer<T> {
    /// Create a zero-initialised (`T::default()`) buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        Buffer::build((0..len).map(|_| T::default()).collect())
    }

    /// Create a buffer initialised from a host slice (one copy). For data
    /// the caller generated only to stage it, [`Buffer::from_vec`] adopts
    /// the allocation instead.
    pub fn from_slice(src: &[T]) -> Self {
        Buffer::build(src.to_vec().into_boxed_slice())
    }

    /// Adopt a host `Vec` as the buffer's storage: no copy (spare
    /// capacity, if any, is shrunk away first). Identity is as fresh as
    /// [`Buffer::from_slice`]'s: a new object id.
    pub fn from_vec(src: Vec<T>) -> Self {
        Buffer::build(src.into_boxed_slice())
    }

    /// Construct over `data` with a fresh identity: a new object id,
    /// and no integrity region until a hardened launch binds it.
    fn build(mut data: Box<[T]>) -> Self {
        let (len, base) = (data.len(), data.as_mut_ptr());
        let id = sanitize::next_object_id();
        let region = OnceLock::new();
        Buffer { storage: Arc::new(Storage { data: Mutex::new(data), base, len, id, region }) }
    }

    /// The storage, as a binding holds it.
    pub(crate) fn bound(&self) -> Arc<dyn Bound> {
        Arc::clone(&self.storage) as Arc<dyn Bound>
    }

    /// Whether this handle is the only owner of the storage: no clones
    /// and no outstanding [`GlobalView`]s (each view, and so each kernel
    /// closure or recorded graph holding one, keeps the storage alive).
    pub fn is_sole_owner(&self) -> bool {
        Arc::strong_count(&self.storage) == 1
    }

    /// The buffer's process-unique object id (shared between the race
    /// sanitizer and the integrity layer's region ids). Deterministic
    /// creation order, so targeted SDC tests can address a region.
    pub fn object_id(&self) -> u64 {
        self.storage.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.storage.len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.storage.len == 0
    }

    /// Copy the buffer contents back to a host `Vec` (like a host
    /// accessor read or `queue.memcpy` to host).
    pub fn to_vec(&self) -> Vec<T> {
        self.storage.host().to_vec()
    }

    /// [`Buffer::to_vec`] after verifying the buffer's integrity region
    /// against its seal ([`crate::Queue::read_back`]), under the same
    /// host lock as the copy.
    pub(crate) fn to_vec_verified(&self) -> Result<Vec<T>> {
        let guard = self.storage.host();
        if let Some(region) = self.storage.region.get() {
            region.verify()?;
        }
        Ok(guard.to_vec())
    }

    /// Move the contents out as a host `Vec`, consuming the handle. The
    /// sole owner gets the allocation itself — no copy, and the integrity
    /// region, if any, goes with the storage. While clones or views
    /// are still alive the allocation cannot move from under them, so
    /// this falls back to the [`Buffer::to_vec`] copy: the result is the
    /// same either way, only its cost depends on what was dropped first.
    pub fn into_vec(self) -> Vec<T> {
        match Arc::try_unwrap(self.storage) {
            Ok(storage) => {
                let data = std::mem::take(&mut *storage.host());
                // `storage` drops here, and its integrity region with it.
                data.into_vec()
            }
            Err(shared) => Buffer { storage: shared }.to_vec(),
        }
    }

    /// Overwrite the buffer from a host slice. Lengths must match; a
    /// mismatch raises a typed [`Error::AccessOutOfBounds`] panic (see
    /// [`Buffer::try_write_from`] for the fallible form).
    pub fn write_from(&self, src: &[T]) {
        self.try_write_from(src)
            .unwrap_or_else(|e| std::panic::panic_any(e));
    }

    /// Fallible [`Buffer::write_from`]: `Err(Error::AccessOutOfBounds)`
    /// when the source slice length differs from the buffer length.
    pub(crate) fn try_write_from(&self, src: &[T]) -> Result<()> {
        let mut guard = self.storage.host();
        if src.len() != guard.len() {
            return Err(Error::AccessOutOfBounds {
                offset: 0,
                len: src.len(),
                buffer_len: guard.len(),
            });
        }
        // Coarse host write: copy and reseal under the region's lock, so
        // verification keeps protecting the region instead of flagging
        // this write, and never sees it half-done.
        match self.storage.region.get() {
            Some(region) => region.host_write(|| guard.copy_from_slice(src)),
            None => guard.copy_from_slice(src),
        }
        Ok(())
    }

    /// Run `f` with read access to the host data.
    pub fn read<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.storage.host())
    }

    /// Run `f` with mutable host access (host-side initialisation),
    /// resealed as [`Buffer::write_from`] is before the host lock drops.
    pub fn write<R>(&self, f: impl FnOnce(&mut [T]) -> R) -> R {
        let mut guard = self.storage.host();
        match self.storage.region.get() {
            Some(region) => region.host_write(|| f(&mut guard)),
            None => f(&mut guard),
        }
    }

    /// Host-side store of element `i` between launches (a point-source
    /// injection, one scalar of a larger parameter block). Unlike a
    /// store through a [`GlobalView`], it keeps an integrity seal
    /// truthful: the element's page is verified, written and resealed
    /// alone, so the next launch neither flags this write as corruption
    /// nor loses protection of the rest of the buffer. An out-of-range
    /// `i` or a page found corrupted raises the typed [`Error`] payload
    /// ([`Error::AccessOutOfBounds`] / [`Error::DataCorruption`]). To
    /// replace a whole buffer use [`Buffer::write_from`], which has
    /// nothing old to verify.
    pub fn host_set(&self, i: usize, v: T) {
        let mut guard = self.storage.host();
        if i >= guard.len() {
            let len = guard.len();
            drop(guard);
            oob(i, 1, len);
        }
        let stored = match self.storage.region.get() {
            Some(region) => {
                let size = std::mem::size_of::<T>();
                region.host_store(i * size, size, || guard[i] = v)
            }
            None => {
                guard[i] = v;
                Ok(())
            }
        };
        drop(guard);
        stored.unwrap_or_else(|e| std::panic::panic_any(e));
    }

    /// Create a device-side view over the whole buffer for use inside a
    /// kernel. The view is `Copy + Send + Sync` so it can be captured by
    /// kernel closures running on multiple threads.
    pub fn view(&self) -> GlobalView<T> {
        GlobalView {
            ptr: self.storage.base,
            len: self.storage.len,
            object: self.storage.id,
            _keepalive: Arc::clone(&self.storage) as Arc<dyn Send + Sync>,
        }
    }
}

// SAFETY: Storage is only accessed through the Mutex on the host side and
// through GlobalView raw pointers on the device side; T: Send suffices for
// moving values across threads.
unsafe impl<T: Send> Send for Storage<T> {}
unsafe impl<T: Send> Sync for Storage<T> {}

/// A device-side "global memory pointer" over a buffer.
///
/// Semantically this is `T* __restrict__`-less CUDA global memory: any
/// work-item may load or store any element concurrently. Element access is
/// bounds-checked (indexing past the view panics, the debug behaviour of a
/// GPU with compute-sanitizer).
pub struct GlobalView<T> {
    // Element 0 of the storage's allocation.
    ptr: *mut T,
    len: usize,
    // Sanitizer identity: the owning buffer's id.
    object: u64,
    _keepalive: Arc<dyn Send + Sync>,
}

impl<T> std::fmt::Debug for GlobalView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalView").field("len", &self.len).finish()
    }
}

impl<T> Clone for GlobalView<T> {
    fn clone(&self) -> Self {
        GlobalView {
            ptr: self.ptr,
            len: self.len,
            object: self.object,
            _keepalive: Arc::clone(&self._keepalive),
        }
    }
}

// SAFETY: concurrent access through the raw pointer is the documented
// global-memory semantics of this view; the pointed-to allocation is kept
// alive by `_keepalive` and never moves.
unsafe impl<T: Send> Send for GlobalView<T> {}
unsafe impl<T: Send> Sync for GlobalView<T> {}

/// Raise a typed out-of-bounds panic. Inside a kernel, the executor's
/// containment layer converts the payload into an
/// [`Error::AccessOutOfBounds`] return from the launch; on the host it
/// unwinds with the same typed payload (printed as one concise line by
/// the runtime's panic hook). Cold and out-of-line so the bounds check in
/// the accessors stays a single predictable branch.
#[cold]
#[inline(never)]
fn oob(offset: usize, len: usize, buffer_len: usize) -> ! {
    std::panic::panic_any(Error::AccessOutOfBounds { offset, len, buffer_len })
}

/// Whether `[offset, offset + len)` lies inside `total` elements, written
/// so that no sum of caller-supplied values can wrap: release builds carry
/// no overflow checks, and `offset` may come from an underflowed `i - 1`.
#[inline]
fn fits(offset: usize, len: usize, total: usize) -> bool {
    offset <= total && total - offset >= len
}

impl<T: Copy> GlobalView<T> {
    /// Address of element `i` of this view. Callers bounds-check `i`
    /// first; the result is then within the allocation.
    #[inline]
    fn elem(&self, i: usize) -> *mut T {
        // SAFETY: in-bounds offset from the view's first element.
        unsafe { self.ptr.add(i) }
    }

    /// Number of elements visible through this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Load element `i`.
    ///
    /// An out-of-bounds index raises a typed [`Error::AccessOutOfBounds`]
    /// panic that kernel containment turns into an error return from the
    /// launch (the debug behaviour of a GPU under compute-sanitizer,
    /// minus the process abort).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        if i >= self.len {
            oob(i, 1, self.len);
        }
        sanitize::record_global(self.object, i, AccessKind::Read);
        // SAFETY: bounds checked above; allocation alive via _keepalive.
        unsafe { self.elem(i).read() }
    }

    /// Store `v` into element `i`. Out-of-bounds behaves as in
    /// [`GlobalView::get`].
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        if i >= self.len {
            oob(i, 1, self.len);
        }
        sanitize::record_global(self.object, i, AccessKind::Write);
        // SAFETY: bounds checked above; allocation alive via _keepalive.
        unsafe { self.elem(i).write(v) }
    }

    /// Store without the sanitizer hook (bounds check still applies).
    /// Exists solely so `hook_overhead` can measure the hook's cost
    /// against an otherwise identical accessor; not part of the public
    /// API surface.
    #[doc(hidden)]
    #[inline]
    pub fn set_unhooked(&self, i: usize, v: T) {
        if i >= self.len {
            oob(i, 1, self.len);
        }
        // SAFETY: bounds checked above; allocation alive via _keepalive.
        unsafe { self.elem(i).write(v) }
    }

    /// Read-modify-write of element `i` on a single thread. Not atomic —
    /// only valid when no other work-item touches `i` concurrently.
    #[inline]
    pub fn update(&self, i: usize, f: impl FnOnce(T) -> T) {
        self.set(i, f(self.get(i)));
    }

    /// The one bounds check and the per-element sanitizer records of a
    /// `W`-wide access at `i`.
    #[inline]
    fn span<const W: usize>(&self, i: usize, kind: AccessKind) {
        if !fits(i, W, self.len) {
            oob(i, W, self.len);
        }
        if sanitize::hooks_armed() {
            for k in 0..W {
                sanitize::record_global(self.object, i + k, kind);
            }
        }
    }

    /// Load `W` consecutive elements starting at `i` with **one** bounds
    /// check — the vector-load shape of a [`crate::lanes::Body`], and at
    /// `W = 1` the scalar load. While a sanitized launch is armed every
    /// element is still recorded individually, so race reports do not
    /// depend on the width.
    #[inline]
    pub fn get_lanes<const W: usize>(&self, i: usize) -> Lanes<T, W> {
        self.span::<W>(i, AccessKind::Read);
        // SAFETY: bounds checked above; allocation alive via _keepalive.
        // Unaligned because `i` is an arbitrary element offset.
        Lanes(unsafe { (self.elem(i) as *const [T; W]).read_unaligned() })
    }

    /// Store `W` consecutive elements starting at `i`; the vector-store
    /// counterpart of [`GlobalView::get_lanes`].
    #[inline]
    pub fn set_lanes<const W: usize>(&self, i: usize, v: Lanes<T, W>) {
        self.span::<W>(i, AccessKind::Write);
        // SAFETY: bounds checked above; allocation alive via _keepalive.
        unsafe { (self.elem(i) as *mut [T; W]).write_unaligned(v.0) }
    }

    /// Load `W` elements `stride` apart starting at `i` (lane `k` is
    /// element `i + k·stride`, a column of a row-major table) with **one**
    /// bounds check on the last lane's index. An index whose last lane
    /// would wrap raises the typed payload with `len` saturated. While a
    /// sanitized launch is armed every element is recorded, as by `W`
    /// [`GlobalView::get`]s.
    #[inline]
    pub fn get_strided<const W: usize>(&self, i: usize, stride: usize) -> Lanes<T, W> {
        let span = W.saturating_sub(1).saturating_mul(stride).saturating_add(1);
        if W > 0 && !fits(i, span, self.len) {
            oob(i, span, self.len);
        }
        if sanitize::hooks_armed() {
            for k in 0..W {
                sanitize::record_global(self.object, i + k * stride, AccessKind::Read);
            }
        }
        // SAFETY: every lane's index lies in `i..i + span`, checked above;
        // allocation alive via _keepalive.
        Lanes(std::array::from_fn(|k| unsafe { self.elem(i + k * stride).read() }))
    }

    /// Copy `dst.len()` elements starting at `offset` out of the view with
    /// **one** bounds check; the mirror of [`GlobalView::copy_from_slice`].
    /// While a sanitized launch is armed every element is recorded, as by
    /// one [`GlobalView::get`] each.
    #[inline]
    pub fn copy_to_slice(&self, offset: usize, dst: &mut [T]) {
        if !fits(offset, dst.len(), self.len) {
            oob(offset, dst.len(), self.len);
        }
        if sanitize::hooks_armed() {
            for k in 0..dst.len() {
                sanitize::record_global(self.object, offset + k, AccessKind::Read);
            }
        }
        // SAFETY: `offset..offset + dst.len()` checked above; a `&mut`
        // destination cannot overlap the view's shared allocation.
        unsafe { std::ptr::copy_nonoverlapping(self.elem(offset), dst.as_mut_ptr(), dst.len()) }
    }

    /// Copy `src` into the view starting at `offset`. Out-of-bounds
    /// ranges raise the same typed payload as [`GlobalView::get`].
    pub fn copy_from_slice(&self, offset: usize, src: &[T]) {
        if !fits(offset, src.len(), self.len) {
            oob(offset, src.len(), self.len);
        }
        for (k, &v) in src.iter().enumerate() {
            self.set(offset + k, v);
        }
    }
}

impl GlobalView<u32> {
    /// Atomic fetch-add on a `u32` element, returning the previous value.
    /// Mirrors `sycl::atomic_ref<uint32_t>::fetch_add`.
    #[inline]
    pub fn atomic_add_u32(&self, i: usize, v: u32) -> u32 {
        if i >= self.len {
            oob(i, 1, self.len);
        }
        sanitize::record_global(self.object, i, AccessKind::Atomic);
        // SAFETY: element is within the allocation; AtomicU32 has the same
        // layout as u32 and all concurrent accesses to this element in
        // kernels using atomics go through this method.
        let a = unsafe { &*(self.elem(i) as *const std::sync::atomic::AtomicU32) };
        a.fetch_add(v, std::sync::atomic::Ordering::Relaxed)
    }
}

impl GlobalView<f32> {
    /// Atomic fetch-add on an `f32` element via compare-exchange, the
    /// same technique SYCL uses on devices without native float atomics.
    #[inline]
    pub fn atomic_add_f32(&self, i: usize, v: f32) -> f32 {
        if i >= self.len {
            oob(i, 1, self.len);
        }
        sanitize::record_global(self.object, i, AccessKind::Atomic);
        // SAFETY: as in atomic_add_u32; f32 is reinterpreted bitwise.
        let a = unsafe { &*(self.elem(i) as *const std::sync::atomic::AtomicU32) };
        let mut cur = a.load(std::sync::atomic::Ordering::Relaxed);
        loop {
            let new = f32::from_bits(cur) + v;
            match a.compare_exchange_weak(
                cur,
                new.to_bits(),
                std::sync::atomic::Ordering::Relaxed,
                std::sync::atomic::Ordering::Relaxed,
            ) {
                Ok(prev) => return f32::from_bits(prev),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_host_data() {
        let b = Buffer::from_slice(&[1.0f32, 2.0, 3.0]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0]);
        b.write_from(&[4.0, 5.0, 6.0]);
        assert_eq!(b.to_vec(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_vec_into_vec_moves_the_allocation() {
        let v: Vec<u32> = (0..1000).collect();
        let ptr = v.as_ptr();
        let b = Buffer::from_vec(v);
        assert_eq!(b.len(), 1000);
        {
            // A view that died before the egress does not cost the move.
            let view = b.view();
            view.set(3, 99);
            assert!(!b.is_sole_owner());
        }
        assert!(b.is_sole_owner());
        let out = b.into_vec();
        assert_eq!(out.as_ptr(), ptr, "sole owner: same allocation, no copy");
        assert_eq!(out[3], 99);
        assert!(out.iter().enumerate().all(|(i, &x)| i == 3 || x == i as u32));
    }

    #[test]
    fn into_vec_copies_while_a_view_or_clone_is_alive() {
        let v = vec![1.5f32, 2.5, 3.5];
        let ptr = v.as_ptr();
        let b = Buffer::from_vec(v);
        let view = b.view();
        let out = b.into_vec();
        assert_eq!(out, vec![1.5, 2.5, 3.5]);
        assert_ne!(out.as_ptr(), ptr, "the view still owns the original allocation");
        // The surviving view stays valid and independent of the copy.
        view.set(0, -1.0);
        assert_eq!(view.get(0), -1.0);
        assert_eq!(out[0], 1.5);

        let b = Buffer::from_slice(&[4u8, 5]);
        let other = b.clone();
        assert_eq!(b.into_vec(), vec![4, 5]);
        assert!(other.is_sole_owner());
        assert_eq!(other.into_vec(), vec![4, 5]);
    }

    #[test]
    fn from_vec_takes_empty_and_over_allocated_vectors() {
        let b = Buffer::from_vec(Vec::<f64>::new());
        assert!(b.is_empty());
        assert!(b.into_vec().is_empty());

        let mut v = Vec::with_capacity(64);
        v.extend([1u16, 2, 3]);
        let b = Buffer::from_vec(v);
        assert_eq!(b.len(), 3);
        assert_eq!(b.view().get(2), 3);
        assert_eq!(b.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn view_reads_and_writes_reflect_in_buffer() {
        let b = Buffer::<i32>::new(4);
        {
            let v = b.view();
            v.set(0, 10);
            v.set(3, 40);
            assert_eq!(v.get(0), 10);
        }
        assert_eq!(b.to_vec(), vec![10, 0, 0, 40]);
    }

    #[test]
    fn oob_load_panics_with_typed_payload() {
        crate::fault::install_quiet_hook();
        let b = Buffer::<u8>::new(1);
        let v = b.view();
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || v.get(1))).unwrap_err();
        let e = payload.downcast::<Error>().expect("payload should be a typed Error");
        assert_eq!(*e, Error::AccessOutOfBounds { offset: 1, len: 1, buffer_len: 1 });
    }

    /// An index from an underflowed `i - 1`: `i + LANES` wraps past a
    /// summed check in a release build and the raw access lands before
    /// the allocation.
    #[test]
    fn oob_lane_access_at_a_wrapping_index_panics_with_typed_payload() {
        use crate::lanes::LANES;
        crate::fault::install_quiet_hook();
        let i = usize::MAX - 3;
        let b = Buffer::<f32>::new(64);
        let (load, store) = (b.view(), b.view());
        let accesses: [Box<dyn FnOnce()>; 2] = [
            Box::new(move || {
                load.get_lanes::<LANES>(i);
            }),
            Box::new(move || store.set_lanes(i, Lanes([1.0; LANES]))),
        ];
        for access in accesses {
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(access)).unwrap_err();
            let e = payload.downcast::<Error>().expect("payload should be a typed Error");
            assert_eq!(*e, Error::AccessOutOfBounds { offset: i, len: LANES, buffer_len: 64 });
        }
        assert_eq!(b.to_vec(), vec![0.0; 64]);
    }

    /// The strided load checks its last lane and the slice copy its
    /// whole range, each without a sum that can wrap: a stride large
    /// enough that `i + (W - 1)·stride` wraps must not land before the
    /// allocation.
    #[test]
    fn oob_strided_load_and_slice_copy_panic_with_typed_payload() {
        use crate::lanes::LANES;
        crate::fault::install_quiet_hook();
        let b = Buffer::<f32>::new(64);
        let expect = |offset, len| Error::AccessOutOfBounds { offset, len, buffer_len: 64 };
        let wrap = usize::MAX / 4;
        let cases: [(Box<dyn FnOnce()>, Error); 6] = [
            (Box::new(|| { b.view().get_strided::<LANES>(8, 8); }), expect(8, 57)),
            (Box::new(|| { b.view().get_strided::<LANES>(64, 0); }), expect(64, 1)),
            (Box::new(|| { b.view().get_strided::<LANES>(3, wrap); }), expect(3, usize::MAX)),
            // 10 + (usize::MAX - 5) wraps to 4, inside the buffer.
            (Box::new(|| { b.view().get_strided::<2>(10, usize::MAX - 5); }), expect(10, usize::MAX - 4)),
            (Box::new(|| b.view().copy_to_slice(60, &mut [0.0; 5])), expect(60, 5)),
            (Box::new(|| b.view().copy_to_slice(usize::MAX - 1, &mut [0.0; 3])), expect(usize::MAX - 1, 3)),
        ];
        for (access, want) in cases {
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(access)).unwrap_err();
            let e = payload.downcast::<Error>().expect("payload should be a typed Error");
            assert_eq!(*e, want);
        }
        // In bounds: the last lane and the last element exactly.
        let data: Vec<f32> = (0..64).map(|x| x as f32).collect();
        let b = Buffer::from_vec(data);
        let col = b.view().get_strided::<LANES>(7, 8);
        assert_eq!(col.0, std::array::from_fn(|k| (7 + 8 * k) as f32));
        assert_eq!(b.view().get_strided::<LANES>(63, 0).0, [63.0; LANES]);
        let mut tail = [0.0; 4];
        b.view().copy_to_slice(60, &mut tail);
        assert_eq!(tail, [60.0, 61.0, 62.0, 63.0]);
        b.view().copy_to_slice(64, &mut []);
    }

    #[test]
    fn try_accessors_report_bounds_without_panicking() {
        let b = Buffer::from_slice(&[5u32, 6]);
        assert!(matches!(
            b.try_write_from(&[1, 2, 3]),
            Err(Error::AccessOutOfBounds { buffer_len: 2, .. })
        ));
        assert_eq!(b.to_vec(), vec![5, 6]);
    }

    #[test]
    fn atomic_add_u32_accumulates_across_threads() {
        let b = Buffer::<u32>::new(1);
        let v = b.view();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        v.atomic_add_u32(0, 1);
                    }
                });
            }
        });
        assert_eq!(b.to_vec()[0], 8000);
    }

    #[test]
    fn atomic_add_f32_accumulates_across_threads() {
        let b = Buffer::<f32>::new(1);
        let v = b.view();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let v = v.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        v.atomic_add_f32(0, 0.5);
                    }
                });
            }
        });
        assert!((b.to_vec()[0] - 2000.0).abs() < 1e-3);
    }

    #[test]
    fn view_outlives_buffer_handle() {
        let v = {
            let b = Buffer::from_slice(&[7i64; 8]);
            b.view()
        };
        // The storage must be kept alive by the view alone.
        assert_eq!(v.get(7), 7);
    }

    #[test]
    fn copy_from_slice_places_data() {
        let b = Buffer::<u16>::new(5);
        b.view().copy_from_slice(1, &[9, 8, 7]);
        assert_eq!(b.to_vec(), vec![0, 9, 8, 7, 0]);
    }
}
