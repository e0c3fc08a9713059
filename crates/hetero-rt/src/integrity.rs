//! Silent-data-corruption detection: region-granular page checksums,
//! scoped to what a launch binds.
//!
//! The chaos layer (see [`crate::fault`]) defends against *fail-stop*
//! faults — panics and transient launches. A bit that silently flips
//! inside a [`crate::Buffer`] produces no panic at all: the wrong answer
//! sails straight through to the benchmark report. This module is the
//! detection half of the SDC defense. Its scope is a launch's accessors
//! ([`crate::Binding`]), as a SYCL command group's accessors are what it
//! touches:
//!
//! * a buffer's [`Region`] — per-page (1 KiB) checksums of its contents
//!   — is registered and sealed the first time a launch on an integrity
//!   queue binds the buffer, and lives as long as the buffer;
//! * a launch on an integrity queue verifies the regions it binds at
//!   entry — a mutation since their last seal that did not go through a
//!   host write API surfaces as [`Error::DataCorruption`] naming the
//!   exact region and page — and reseals at exit the regions it binds
//!   `writes` / `reads_writes`;
//! * a host read-back on an integrity queue (`Queue::read_back`) verifies
//!   the one region it reads, so a flip landing after a buffer's last
//!   seal fails the read instead of reaching host state;
//! * redundant execution (see `Redundancy` in [`crate::queue`]) snapshots,
//!   restores and digests the launch's bound regions to vote across
//!   replica runs, and seeded flips and stuck pages land in them only.
//!
//! A buffer no hardened launch has bound carries no region, and a launch
//! on a plain queue makes no call into this module; a plain graph walk
//! reseals the registered regions it binds for writing (see
//! [`crate::Graph`]).
//!
//! # Host-write protocol
//!
//! Coarse host mutations (`Buffer::write_from`, `Buffer::write`) hold
//! their region's lock across the copy and the reseal, so ordinary
//! host-side initialization between launches never trips verification,
//! and a verification on another thread sees the bytes before or after
//! the write, never half of it. A store of one element of a larger
//! buffer between replays (a point source) goes through
//! `Buffer::host_set`, which verifies and reseals only the page it
//! touches. Raw [`crate::GlobalView`] writes from host code outside a
//! kernel are **not** hooked — to a sealed region they are
//! indistinguishable from corruption, which is exactly why the SDC tests
//! use them as the corruption primitive. Application code keeps host
//! writes on the coarse APIs; the rate-0 clean run of the whole suite on
//! an integrity queue pins that.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::Error;
use crate::fault::FaultPlan;
use crate::fold::Fold;

/// Checksum granularity. Small enough to localize a flip to a useful
/// page index, large enough that sealing large buffers stays cheap.
pub(crate) const PAGE_BYTES: usize = 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Regions alive in the process.
static LIVE_REGIONS: AtomicUsize = AtomicUsize::new(0);
static DETECTIONS: AtomicU64 = AtomicU64::new(0);
static REGIONS_VERIFIED: AtomicU64 = AtomicU64::new(0);

/// Does any buffer in the process carry a sealed region — has a launch
/// on an integrity queue bound a buffer that is still alive?
pub fn armed() -> bool {
    LIVE_REGIONS.load(Ordering::Relaxed) != 0
}

/// One checksummed backing allocation: a `Buffer`'s storage, from the
/// first hardened launch that binds it to the buffer's drop.
#[derive(Debug)]
pub(crate) struct Region {
    /// The buffer's object id (deterministic program-creation order).
    id: u64,
    ptr: usize,
    bytes: usize,
    /// Faults are only injected into regions whose element type tolerates
    /// arbitrary bit patterns (primitive numerics). Detection and voting
    /// still cover non-injectable regions.
    injectable: bool,
    state: Mutex<RegionState>,
}

#[derive(Debug)]
struct RegionState {
    /// Per-page checksums from the last seal.
    seal: Vec<u64>,
    /// Bumped on every reseal; reported in [`Error::DataCorruption`] so a
    /// violation names *which* seal the contents diverged from.
    epoch: u64,
}

impl Region {
    /// Register the `bytes` bytes at `ptr` as region `id`, sealed to
    /// their current contents. The owner keeps the allocation alive and
    /// unmoved for the region's life, and holds its host lock here.
    pub(crate) fn sealed(id: u64, ptr: *const u8, bytes: usize, injectable: bool) -> Region {
        LIVE_REGIONS.fetch_add(1, Ordering::Relaxed);
        let region = Region {
            id,
            ptr: ptr as usize,
            bytes,
            injectable,
            state: Mutex::new(RegionState { seal: Vec::new(), epoch: 0 }),
        };
        region.reseal();
        region
    }

    /// The region's bytes. Callers hold `state`.
    fn bytes_slice(&self) -> &[u8] {
        // SAFETY: `ptr`/`bytes` describe the owning buffer's allocation,
        // which outlives the region (the region is a field of the
        // buffer's storage) and never moves.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.bytes) }
    }

    fn reseal_locked(&self, st: &mut RegionState) {
        st.seal = self.bytes_slice().chunks(PAGE_BYTES).map(page_checksum).collect();
        st.epoch += 1;
    }

    /// Seal the region to its current contents.
    pub(crate) fn reseal(&self) {
        self.reseal_locked(&mut lock(&self.state));
    }

    /// A coarse host write: `write` runs and the region is resealed under
    /// one hold of the region's lock, so no verification sees the bytes
    /// half-written or the seal stale.
    pub(crate) fn host_write<R>(&self, write: impl FnOnce() -> R) -> R {
        let mut st = lock(&self.state);
        let r = write();
        self.reseal_locked(&mut st);
        r
    }

    /// Host store of `len` bytes at byte `offset`, between launches:
    /// the pages it touches are verified against the seal, `write` runs,
    /// and only those pages are resealed — the rest of the region keeps
    /// the protection of its last seal. A page that already diverged is
    /// reported once as [`Error::DataCorruption`] (region resealed to its
    /// current contents, `write` not run).
    pub(crate) fn host_store(
        &self,
        offset: usize,
        len: usize,
        write: impl FnOnce(),
    ) -> Result<(), Error> {
        let mut st = lock(&self.state);
        let pages = offset / PAGE_BYTES..(offset + len).div_ceil(PAGE_BYTES);
        let page = |p: usize| &self.bytes_slice()[p * PAGE_BYTES..((p + 1) * PAGE_BYTES).min(self.bytes)];
        let stale = |p: usize, seal: &[u64]| seal.get(p).copied() != Some(page_checksum(page(p)));
        if let Some(p) = pages.clone().find(|&p| stale(p, &st.seal)) {
            return Err(self.detected(&mut st, p));
        }
        write();
        for (p, sum) in st.seal.iter_mut().enumerate().take(pages.end).skip(pages.start) {
            *sum = page_checksum(page(p));
        }
        Ok(())
    }

    /// Check the region against its seal (a launch entry, a host
    /// read-back). A mismatch is reported as [`Error::DataCorruption`]
    /// and the region resealed to its current contents, so one fault is
    /// reported once.
    pub(crate) fn verify(&self) -> Result<(), Error> {
        let mut st = lock(&self.state);
        REGIONS_VERIFIED.fetch_add(1, Ordering::Relaxed);
        let diverged = self.bytes_slice().chunks(PAGE_BYTES).enumerate().find(|&(page, chunk)| {
            st.seal.get(page).copied() != Some(page_checksum(chunk))
        });
        match diverged {
            Some((page, _)) => Err(self.detected(&mut st, page)),
            None => Ok(()),
        }
    }

    /// Count a finding at `page`, reseal, and name it.
    fn detected(&self, st: &mut RegionState, page: usize) -> Error {
        let epoch = st.epoch;
        DETECTIONS.fetch_add(1, Ordering::Relaxed);
        self.reseal_locked(st);
        Error::DataCorruption { region: self.id, page, epoch }
    }

    /// XOR `mask` into byte `byte`, if the region tolerates injection.
    fn flip(&self, byte: usize, mask: u8) -> bool {
        let _st = lock(&self.state);
        if !self.injectable || byte >= self.bytes {
            return false;
        }
        // SAFETY: in-bounds byte of a bit-safe region, at a launch
        // boundary of a launch that binds it.
        unsafe {
            *(self.ptr as *mut u8).add(byte) ^= mask;
        }
        true
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        LIVE_REGIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Checksum of one page through the shared four-lane [`Fold`]: 7.1–8.5 GB/s
/// on 1 KiB pages of a 2-vCPU Xeon (a one-chain fold: 3.2–4.0), and certain
/// to change under any flip confined to one 8-byte word.
fn page_checksum(bytes: &[u8]) -> u64 {
    Fold::new(0).bytes(bytes).finish()
}

/// Is `T` a primitive numeric type for which any bit pattern is a valid
/// value? Bit-flip injection is restricted to such regions; flipping a
/// bit of, say, an enum could forge an invalid discriminant (UB), while
/// detection via checksums is type-oblivious and covers everything.
pub(crate) fn bit_safe<T: 'static>() -> bool {
    use std::any::TypeId;
    let t = TypeId::of::<T>();
    t == TypeId::of::<u8>()
        || t == TypeId::of::<i8>()
        || t == TypeId::of::<u16>()
        || t == TypeId::of::<i16>()
        || t == TypeId::of::<u32>()
        || t == TypeId::of::<i32>()
        || t == TypeId::of::<u64>()
        || t == TypeId::of::<i64>()
        || t == TypeId::of::<usize>()
        || t == TypeId::of::<isize>()
        || t == TypeId::of::<f32>()
        || t == TypeId::of::<f64>()
}

// --- a launch's bound regions ----------------------------------------------

/// Verify every region a launch binds (launch entry). One finding per
/// call: the first region whose bytes diverged from their seal, resealed
/// so one fault is reported once.
pub(crate) fn verify(regions: &[&Region]) -> Result<(), Error> {
    regions.iter().try_for_each(|r| r.verify())
}

/// A full copy of a launch's bound regions, for replica restore.
pub(crate) struct Snapshot<'a> {
    entries: Vec<(&'a Region, Vec<u8>)>,
}

pub(crate) fn snapshot<'a>(regions: &[&'a Region]) -> Snapshot<'a> {
    let copy = |r: &Region| {
        let _st = lock(&r.state);
        r.bytes_slice().to_vec()
    };
    Snapshot { entries: regions.iter().map(|&r| (r, copy(r))).collect() }
}

/// Write every snapshotted region's bytes back (between replica runs).
pub(crate) fn restore(snap: &Snapshot<'_>) {
    for (region, bytes) in &snap.entries {
        let _st = lock(&region.state);
        // SAFETY: restoring bytes previously read from this same
        // allocation; every value written was a valid value of the
        // element type. No replica of the launch is running.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), region.ptr as *mut u8, bytes.len());
        }
    }
}

/// Digest of a launch's bound regions' contents, in binding order.
/// Replica voting compares these.
pub(crate) fn digest(regions: &[&Region]) -> u64 {
    regions.iter().fold(Fold::new(1), |f, r| {
        let _st = lock(&r.state);
        f.words(1, |_| r.id).bytes(r.bytes_slice())
    }).finish()
}

/// Aggregate counters for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Live registered regions.
    pub regions: usize,
    /// Region verifications at launch entries and read-backs.
    pub regions_verified: u64,
    /// Corruptions detected.
    pub detections: u64,
}

/// Current aggregate counters (process-wide).
pub fn stats() -> IntegrityStats {
    IntegrityStats {
        regions: LIVE_REGIONS.load(Ordering::Relaxed),
        regions_verified: REGIONS_VERIFIED.load(Ordering::Relaxed),
        detections: DETECTIONS.load(Ordering::Relaxed),
    }
}

// --- injection (driven by a FaultPlan at launch boundaries) ---------------

/// The bound regions a seeded flip or stuck page may land in.
fn injectable<'a>(regions: &[&'a Region]) -> Vec<&'a Region> {
    regions.iter().copied().filter(|r| r.injectable && r.bytes > 0).collect()
}

/// Launch-entry injection: targeted one-shot flips into the launch's
/// bound regions first (exact deterministic true-positive tests), then
/// the seeded at-rest flip the entry verification must catch.
pub(crate) fn inject_entry(plan: &FaultPlan, regions: &[&Region]) {
    let targets = plan.take_flip_targets(|id| regions.iter().any(|r| r.id == id));
    for (rid, byte, bit) in targets {
        let region = regions.iter().find(|r| r.id == rid);
        if region.is_some_and(|r| r.flip(byte, 1 << (bit & 7))) {
            plan.note_silent(1);
        }
    }
    if plan.wants_flip(false) {
        flip_random(plan, regions);
    }
}

/// Launch-exit injection: an in-flight flip landing after the kernel ran
/// but before the reseal — the case only redundant execution can vote
/// away (the corrupt bytes get sealed otherwise).
pub(crate) fn inject_exit(plan: &FaultPlan, regions: &[&Region]) {
    if plan.wants_flip(true) {
        flip_random(plan, regions);
    }
}

fn flip_random(plan: &FaultPlan, regions: &[&Region]) {
    let regions = injectable(regions);
    if regions.is_empty() {
        return;
    }
    let region = regions[plan.pick(regions.len())];
    // Single or multi-bit event (1–3 flips), all sites sequenced draws.
    let flips = 1 + plan.pick(3) as u64;
    for _ in 0..flips {
        let byte = plan.pick(region.bytes);
        let bit = plan.pick(8) as u8;
        region.flip(byte, 1 << bit);
    }
    plan.note_silent(flips);
}

/// Apply the plan's stuck-at page, choosing the site on first
/// application (stateless seed-derived draws over the launch's bound
/// regions). The same page gets the same OR-mask at the exit of every
/// launch that binds its region, so the corruption is deterministic
/// across replicas — it survives voting by design and must be caught by
/// the suite's output validators.
pub(crate) fn apply_stuck(plan: &FaultPlan, regions: &[&Region]) {
    let (rid, page, bit) = {
        let mut slot = plan.stuck_slot();
        if slot.is_none() {
            let candidates = injectable(regions);
            if !plan.stuck_wanted() || candidates.is_empty() {
                return;
            }
            let (ri, pi, bit) = plan.stuck_draws();
            let region = candidates[ri % candidates.len()];
            let pages = region.bytes.div_ceil(PAGE_BYTES);
            *slot = Some((region.id, pi % pages.max(1), bit & 7));
        }
        match *slot {
            Some(s) => s,
            None => return,
        }
    };
    let Some(region) = regions.iter().find(|r| r.id == rid) else { return };
    let _st = lock(&region.state);
    let start = page * PAGE_BYTES;
    let end = (start + PAGE_BYTES).min(region.bytes);
    let mask = 1u8 << bit;
    let mut changed = false;
    for off in start..end {
        // SAFETY: in-bounds bytes of a bit-safe region at the exit of a
        // launch that binds it.
        unsafe {
            let p = (region.ptr as *mut u8).add(off);
            if *p & mask == 0 {
                *p |= mask;
                changed = true;
            }
        }
    }
    if changed {
        plan.note_silent(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_checksum_is_deterministic_and_sensitive() {
        let a = vec![7u8; 1024];
        let mut b = a.clone();
        assert_eq!(page_checksum(&a), page_checksum(&a));
        b[511] ^= 0x10;
        assert_ne!(page_checksum(&a), page_checksum(&b));
        // Trailing partial pages fold their length, so a page of three
        // zero bytes differs from one of four.
        assert_ne!(page_checksum(&[0, 0, 0]), page_checksum(&[0, 0, 0, 0]));
    }

    /// A flip lands in one 8-byte word, and the fold is a bijection of
    /// that word's lane: every single-bit flip of a full page and of a
    /// 37-byte partial page changes the checksum.
    #[test]
    fn every_single_bit_flip_changes_the_page_checksum() {
        for len in [PAGE_BYTES, 37] {
            let mut page: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
            let sum = page_checksum(&page);
            for bit in 0..len * 8 {
                page[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&page), sum, "{len}-byte page, bit {bit}");
                page[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn zero_filled_inputs_of_every_length_differ() {
        let sums: Vec<u64> = (0..=40).map(|n| page_checksum(&vec![0; n])).collect();
        let distinct: std::collections::HashSet<_> = sums.iter().collect();
        assert_eq!(distinct.len(), sums.len());
    }

    #[test]
    fn swapping_unequal_words_across_lanes_changes_the_checksum() {
        let page: Vec<u8> = (0..PAGE_BYTES).map(|i| (i * 7 + 3) as u8).collect();
        let word = |p: &[u8], w: usize| p[8 * w..8 * w + 8].to_vec();
        for (a, b) in [(0, 1), (0, 3), (1, 2), (2, 7), (5, 126), (0, 127)] {
            assert!(a % 4 != b % 4 && word(&page, a) != word(&page, b));
            let mut swapped = page.clone();
            (0..8).for_each(|k| swapped.swap(8 * a + k, 8 * b + k));
            assert_ne!(page_checksum(&swapped), page_checksum(&page), "words {a} and {b}");
        }
    }

    #[test]
    fn digest_sees_every_bit_of_every_region_and_their_order() {
        let (mut a, mut b): (Vec<u8>, Vec<u8>) = ((0..45).collect(), vec![0; 40]);
        let ra = Region::sealed(1, a.as_mut_ptr(), a.len(), true);
        let rb = Region::sealed(2, b.as_mut_ptr(), b.len(), true);
        let d0 = digest(&[&ra, &rb]);
        assert_ne!(digest(&[&rb, &ra]), d0, "binding order");
        for r in [&ra, &rb] {
            for bit in 0..r.bytes * 8 {
                assert!(r.flip(bit / 8, 1 << (bit % 8)));
                assert_ne!(digest(&[&ra, &rb]), d0, "region {} bit {bit}", r.id);
                r.flip(bit / 8, 1 << (bit % 8));
            }
        }
        assert_eq!(digest(&[&ra, &rb]), d0);
    }

    #[test]
    fn bit_safe_admits_numerics_only() {
        assert!(bit_safe::<f32>());
        assert!(bit_safe::<u64>());
        assert!(bit_safe::<i8>());
        assert!(!bit_safe::<bool>());
        assert!(!bit_safe::<char>());
        assert!(!bit_safe::<(f32, f32)>());
    }

    #[test]
    fn empty_page_checksum_is_stable() {
        assert_eq!(page_checksum(&[]), page_checksum(&[]));
    }
}
