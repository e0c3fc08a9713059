//! Silent-data-corruption detection: region-granular page checksums.
//!
//! The chaos layer (see [`crate::fault`]) defends against *fail-stop*
//! faults — panics and transient launches. A bit that silently flips
//! inside a [`crate::Buffer`] produces no panic at all: the wrong answer
//! sails straight through to the benchmark report. This module is the
//! detection half of the SDC defense:
//!
//! * every `Buffer` backing allocation registers a [`Region`]
//!   while the layer is armed ([`arm`]), carrying per-page (1 KiB)
//!   checksums of its contents;
//! * regions are **sealed** (checksummed) after every kernel launch on an
//!   integrity queue and **verified** at the next launch entry — any
//!   mutation between those boundaries that did not go through a host
//!   write API surfaces as [`Error::DataCorruption`] naming the exact
//!   region and page;
//! * a host read-back on an integrity queue (`Queue::read_back`) verifies
//!   the one region it reads, so a flip landing after a buffer's last
//!   seal fails the read instead of reaching host state;
//! * parked pool workers run an idle-time **scrubber**
//!   ([`scrub_step`], called from `pool.rs`) that sweeps one region per
//!   idle tick, so corruption in cold data is found before the next
//!   launch consumes it;
//! * redundant execution (see `Redundancy` in [`crate::queue`]) uses
//!   [`digest_all`]/[`snapshot_all`]/[`restore`] to vote on whole-memory
//!   digests across replica runs.
//!
//! # Host-write protocol
//!
//! Coarse host mutations (`Buffer::write_from`, `Buffer::write`) reseal
//! their region, so ordinary host-side initialization between launches
//! never trips verification; a store of one element of a larger buffer between
//! replays (a point source) goes through `Buffer::host_set`, which
//! verifies and reseals only the page it touches. Raw
//! [`crate::GlobalView`] writes from host code outside
//! a kernel are **not** hooked — while armed they are indistinguishable
//! from corruption, which is exactly why the SDC tests use them as the
//! corruption primitive. Application code keeps host writes on the
//! coarse APIs; the rate-0 armed clean-run of the whole suite pins that.
//!
//! # Concurrency contract
//!
//! Verify/seal/snapshot walks read region bytes through raw pointers.
//! The launch protocol only runs them when no kernel is in flight
//! (a global active-launch count guards both boundaries and the
//! scrubber), matching the runtime's existing single-host-thread driving
//! model. Nested or concurrent launches skip the protocol at the inner
//! boundaries and reseal once at the outermost exit. A read-back touches
//! only the buffer it copies, under that buffer's host lock — the same
//! bytes, at the same moment, as the copy itself.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::error::Error;
use crate::fault::FaultPlan;

/// Checksum granularity. Small enough to localize a flip to a useful
/// page index, large enough that sealing large buffers stays cheap.
pub(crate) const PAGE_BYTES: usize = 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether the integrity layer is armed process-wide. Disarmed (the
/// default), registration is skipped entirely and every hook is a single
/// relaxed atomic load — the configuration `hook_overhead` pins <2%.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Launches currently in flight (counted only while armed). Boundary
/// verification and the scrubber only touch memory when they hold the
/// only active slot / no slot at all.
static ACTIVE_LAUNCHES: AtomicUsize = AtomicUsize::new(0);

static DETECTIONS: AtomicU64 = AtomicU64::new(0);
static CORRECTED: AtomicU64 = AtomicU64::new(0);
static SCRUB_PASSES: AtomicU64 = AtomicU64::new(0);
static REGIONS_VERIFIED: AtomicU64 = AtomicU64::new(0);
static SCRUB_CURSOR: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Region>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Region>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn pending() -> &'static Mutex<Vec<Violation>> {
    static PENDING: OnceLock<Mutex<Vec<Violation>>> = OnceLock::new();
    PENDING.get_or_init(|| Mutex::new(Vec::new()))
}

/// Arm the integrity layer process-wide. Buffers created from now on
/// register checksummed regions; integrity queues start verifying at
/// launch boundaries; parked pool workers scrub.
pub fn arm() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm the layer (tests and overhead benchmarks). Existing regions
/// stay registered but are no longer verified, injected into, or
/// scrubbed until re-armed; findings the scrubber parked are dropped.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    lock(pending()).clear();
}

/// Is the layer armed?
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// One checksummed backing allocation: a `Buffer`'s storage.
#[derive(Debug)]
pub struct Region {
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
    alive: bool,
    /// Per-page checksums from the last seal; `None` once unregistered.
    seal: Option<Vec<u64>>,
    /// Bumped on every reseal; reported in [`Error::DataCorruption`] so a
    /// violation names *which* seal the contents diverged from.
    epoch: u64,
}

/// A corruption found by the idle scrubber, parked until the next
/// verification surfaces it as [`Error::DataCorruption`].
struct Violation {
    /// Region id (sanitizer object-id namespace).
    region: u64,
    /// Index of the first mismatching [`PAGE_BYTES`] page.
    page: usize,
    /// Seal epoch the contents diverged from.
    epoch: u64,
}

impl Region {
    /// Stable region id (shared namespace with the sanitizer's object
    /// ids: deterministic program-creation order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The region's bytes. Caller must hold `state` and honor the
    /// concurrency contract (no kernel in flight).
    fn bytes_slice(&self) -> &[u8] {
        // SAFETY: `ptr`/`bytes` come from a live allocation registered by
        // its owner, which unregisters (under the state lock) before
        // freeing; callers check `alive` under that same lock.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.bytes) }
    }

    fn checksums(&self) -> Vec<u64> {
        self.bytes_slice().chunks(PAGE_BYTES).map(page_checksum).collect()
    }

    fn reseal_locked(&self, st: &mut RegionState) {
        st.seal = Some(self.checksums());
        st.epoch += 1;
    }

    /// Recompute checksums after a coarse host write (keeps protection
    /// active across host-side initialization).
    pub(crate) fn reseal_now(&self) {
        let mut st = lock(&self.state);
        if st.alive {
            self.reseal_locked(&mut st);
        }
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
        if let Some(seal) = &st.seal {
            if let Some(p) = pages.clone().find(|&p| seal.get(p).copied() != Some(page_checksum(page(p)))) {
                let epoch = st.epoch;
                DETECTIONS.fetch_add(1, Ordering::Relaxed);
                self.reseal_locked(&mut st);
                return Err(Error::DataCorruption { region: self.id, page: p, epoch });
            }
        }
        write();
        if let Some(seal) = &mut st.seal {
            for (p, sum) in seal.iter_mut().enumerate().take(pages.end).skip(pages.start) {
                *sum = page_checksum(page(p));
            }
        }
        Ok(())
    }

    /// Verify this region alone between launches (a host read-back): a
    /// finding the idle scrubber parked for it is reported first, then
    /// the live bytes are checked against the seal, as at a launch entry.
    pub(crate) fn verify_now(&self) -> Result<(), Error> {
        take_parked(Some(self.id))?;
        self.check_locked(&mut lock(&self.state))
    }

    /// Check a live region against its seal. A mismatch is reported as
    /// [`Error::DataCorruption`] and the region resealed to its current
    /// contents, so one fault is reported once.
    fn check_locked(&self, st: &mut RegionState) -> Result<(), Error> {
        if !st.alive {
            return Ok(());
        }
        REGIONS_VERIFIED.fetch_add(1, Ordering::Relaxed);
        let Some(page) = self.verify_locked(st) else { return Ok(()) };
        let epoch = st.epoch;
        DETECTIONS.fetch_add(1, Ordering::Relaxed);
        self.reseal_locked(st);
        Err(Error::DataCorruption { region: self.id, page, epoch })
    }

    /// First page whose checksum no longer matches the seal, if any.
    fn verify_locked(&self, st: &RegionState) -> Option<usize> {
        let seal = st.seal.as_ref()?;
        for (page, chunk) in self.bytes_slice().chunks(PAGE_BYTES).enumerate() {
            if seal.get(page).copied() != Some(page_checksum(chunk)) {
                return Some(page);
            }
        }
        None
    }
}

#[inline]
fn fold_word(h: u64, w: u64) -> u64 {
    let mut x = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Checksum of one page: a word-folded multiply-xor hash (a few GB/s,
/// so sealing whole suites of buffers stays off the profile).
fn page_checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        h = fold_word(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = fold_word(h, u64::from_le_bytes(w));
        h = fold_word(h, rem.len() as u64);
    }
    h
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

/// Register a backing allocation. Returns `None` while disarmed (the
/// overhead-free default). The region is sealed immediately.
pub(crate) fn register(
    id: u64,
    ptr: *const u8,
    bytes: usize,
    injectable: bool,
) -> Option<Arc<Region>> {
    if !armed() {
        return None;
    }
    let region = Arc::new(Region {
        id,
        ptr: ptr as usize,
        bytes,
        injectable,
        state: Mutex::new(RegionState { alive: true, seal: None, epoch: 0 }),
    });
    region.reseal_now();
    lock(registry()).push(Arc::clone(&region));
    Some(region)
}

/// Unregister a region before its allocation is freed. Taking the state
/// lock here synchronizes with any in-flight verify/scrub touching it.
pub(crate) fn unregister(region: &Arc<Region>) {
    {
        let mut st = lock(&region.state);
        st.alive = false;
        st.seal = None;
    }
    lock(registry()).retain(|r| r.id != region.id);
}

fn live_regions() -> Vec<Arc<Region>> {
    lock(registry()).clone()
}

/// Execute exactly the per-launch work the defense performs when it is
/// disarmed — the launch-scope enter/exit and the armed/exclusive
/// branch loads — and report whether the boundary protocol would run.
/// Exists so the `hook_overhead` benchmark can time the dormant hook
/// sequence directly; it is not part of the defense API.
pub fn disarmed_hook_probe() -> bool {
    let scope = LaunchScope::enter();
    scope.exclusive() && armed()
}

/// RAII active-launch accounting. Counted only while armed, so the
/// disarmed cost is one relaxed load.
pub(crate) struct LaunchScope {
    counted: bool,
    depth: usize,
}

impl LaunchScope {
    pub(crate) fn enter() -> Self {
        if armed() {
            let prev = ACTIVE_LAUNCHES.fetch_add(1, Ordering::SeqCst);
            LaunchScope { counted: true, depth: prev + 1 }
        } else {
            LaunchScope { counted: false, depth: 0 }
        }
    }

    /// Was this the outermost (only) launch at entry? Boundary
    /// verification and redundancy only run in that exclusive position.
    pub(crate) fn exclusive(&self) -> bool {
        self.counted && self.depth == 1
    }

    /// Is this now the only launch still in flight? The exit reseal runs
    /// at the last launch out, so concurrent launches cannot seal each
    /// other's in-flux writes.
    pub(crate) fn sole_remaining(&self) -> bool {
        self.counted && ACTIVE_LAUNCHES.load(Ordering::SeqCst) == 1
    }
}

impl Drop for LaunchScope {
    fn drop(&mut self) {
        if self.counted {
            ACTIVE_LAUNCHES.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Report the oldest parked scrubber finding — for `region` only, when
/// given — and leave the rest parked for the next check.
fn take_parked(region: Option<u64>) -> Result<(), Error> {
    let mut parked = lock(pending());
    match parked.iter().position(|v| region.is_none_or(|r| v.region == r)) {
        Some(i) => {
            let v = parked.remove(i);
            Err(Error::DataCorruption { region: v.region, page: v.page, epoch: v.epoch })
        }
        None => Ok(()),
    }
}

/// Verify every sealed live region (launch entry). One finding per call:
/// a parked scrubber finding first, the rest staying parked, else the
/// first region whose bytes diverged from their seal, resealed so one
/// fault is reported once.
pub fn verify_all() -> Result<(), Error> {
    take_parked(None)?;
    for region in live_regions() {
        region.check_locked(&mut lock(&region.state))?;
    }
    Ok(())
}

/// Reseal every live region to its current contents (launch exit).
pub fn reseal_all() {
    for region in live_regions() {
        region.reseal_now();
    }
}

/// Reseal the live regions named in `ids` to their current contents —
/// what a recorded walk on a queue that runs no protocol wrote. Every
/// other region keeps its seal, so a flip there still surfaces.
pub(crate) fn reseal_regions(ids: impl Iterator<Item = u64>) {
    let ids: Vec<u64> = ids.collect();
    for region in live_regions() {
        if ids.contains(&region.id) {
            region.reseal_now();
        }
    }
}

/// A full copy of every live region's bytes, for replica restore.
pub(crate) struct Snapshot {
    entries: Vec<(Arc<Region>, Vec<u8>)>,
}

pub(crate) fn snapshot_all() -> Snapshot {
    let mut entries = Vec::new();
    for region in live_regions() {
        let st = lock(&region.state);
        if st.alive {
            entries.push((Arc::clone(&region), region.bytes_slice().to_vec()));
        }
    }
    Snapshot { entries }
}

/// Write every snapshotted region's bytes back (between replica runs).
pub(crate) fn restore(snap: &Snapshot) {
    for (region, bytes) in &snap.entries {
        let st = lock(&region.state);
        if st.alive && bytes.len() == region.bytes {
            // SAFETY: restoring bytes previously read from this same live
            // allocation; every value written was a valid value of the
            // element type. No kernel is in flight (caller holds the
            // exclusive launch slot).
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), region.ptr as *mut u8, bytes.len());
            }
        }
    }
}

/// Order-insensitive-free digest over all live regions' contents, in
/// deterministic (creation-order) region order. Replica voting compares
/// these.
pub(crate) fn digest_all() -> u64 {
    let mut h = 0x5DEE_CE66_D47A_11E5u64;
    for region in live_regions() {
        let st = lock(&region.state);
        if !st.alive {
            continue;
        }
        h = fold_word(h, region.id);
        h = fold_word(h, page_checksum(region.bytes_slice()));
    }
    h
}

/// One idle-scrubber tick (called from parked pool workers): verify the
/// next region in cursor order if armed and no launch is in flight.
/// A mismatch is parked (surfaced at the next launch entry or
/// [`verify_all`]) and the region is resealed.
/// Returns whether a region was actually verified.
pub fn scrub_step() -> bool {
    if !armed() || ACTIVE_LAUNCHES.load(Ordering::SeqCst) != 0 {
        return false;
    }
    let regions = live_regions();
    if regions.is_empty() {
        return false;
    }
    let region = &regions[SCRUB_CURSOR.fetch_add(1, Ordering::Relaxed) % regions.len()];
    let mut st = lock(&region.state);
    // Re-check under the lock: a launch that started meanwhile blocks in
    // verify_all on this same lock, so contents are still stable, but a
    // finding while kernels queue up is better re-discovered at the
    // boundary itself.
    if !st.alive || ACTIVE_LAUNCHES.load(Ordering::SeqCst) != 0 {
        return false;
    }
    match region.verify_locked(&st) {
        None => {
            SCRUB_PASSES.fetch_add(1, Ordering::Relaxed);
            true
        }
        Some(page) => {
            DETECTIONS.fetch_add(1, Ordering::Relaxed);
            lock(pending()).push(Violation { region: region.id, page, epoch: st.epoch });
            region.reseal_locked(&mut st);
            true
        }
    }
}

/// Aggregate counters for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Live registered regions.
    pub regions: usize,
    /// Region verifications at launch boundaries.
    pub regions_verified: u64,
    /// Corruptions detected (boundary + scrubber).
    pub detections: u64,
    /// Clean idle-scrubber region sweeps.
    pub scrub_passes: u64,
    /// Divergent replica digests outvoted by redundancy.
    pub corrected: u64,
}

/// Current aggregate counters (process-wide).
pub fn stats() -> IntegrityStats {
    IntegrityStats {
        regions: lock(registry()).len(),
        regions_verified: REGIONS_VERIFIED.load(Ordering::Relaxed),
        detections: DETECTIONS.load(Ordering::Relaxed),
        scrub_passes: SCRUB_PASSES.load(Ordering::Relaxed),
        corrected: CORRECTED.load(Ordering::Relaxed),
    }
}

/// Record `n` outvoted divergences. Called by the queue's redundant
/// launch path when voting rejects a minority digest; public so
/// out-of-tree recovery layers (and harness tests) can report
/// corrections into the same counter the suite harness diffs.
pub fn record_corrected(n: u64) {
    CORRECTED.fetch_add(n, Ordering::Relaxed);
}

/// Total divergences outvoted by redundant execution since process
/// start. The suite harness diffs this around a run to distinguish
/// `Corrected` from `Correct`.
pub fn corrected_total() -> u64 {
    CORRECTED.load(Ordering::Relaxed)
}

/// Total corruptions detected since process start.
pub fn detections_total() -> u64 {
    DETECTIONS.load(Ordering::Relaxed)
}

// --- injection (driven by a FaultPlan at launch boundaries) ---------------

/// Launch-entry injection: targeted one-shot flips first (exact
/// deterministic true-positive tests), then the seeded at-rest flip the
/// entry verification must catch.
pub(crate) fn inject_entry(plan: &FaultPlan) {
    apply_flip_targets(plan);
    if plan.wants_flip(false) {
        flip_random(plan);
    }
}

/// Launch-exit injection: an in-flight flip landing after the kernel ran
/// but before the reseal — the case only redundant execution can vote
/// away (the corrupt bytes get sealed otherwise).
pub(crate) fn inject_exit(plan: &FaultPlan) {
    if plan.wants_flip(true) {
        flip_random(plan);
    }
}

fn apply_flip_targets(plan: &FaultPlan) {
    let targets = plan.take_flip_targets();
    if targets.is_empty() {
        return;
    }
    let regions = live_regions();
    for (rid, byte, bit) in targets {
        if let Some(region) = regions.iter().find(|r| r.id == rid) {
            let st = lock(&region.state);
            if st.alive && region.injectable && byte < region.bytes {
                // SAFETY: in-bounds byte of a live, bit-safe region; no
                // kernel in flight at a launch boundary.
                unsafe {
                    *(region.ptr as *mut u8).add(byte) ^= 1 << (bit & 7);
                }
                plan.note_silent(1);
            }
        }
    }
}

fn flip_random(plan: &FaultPlan) {
    let regions: Vec<Arc<Region>> = live_regions()
        .into_iter()
        .filter(|r| r.injectable && r.bytes > 0)
        .collect();
    if regions.is_empty() {
        return;
    }
    let region = &regions[plan.pick(regions.len())];
    let st = lock(&region.state);
    if !st.alive {
        return;
    }
    // Single or multi-bit event (1–3 flips), all sites sequenced draws.
    let flips = 1 + plan.pick(3) as u64;
    for _ in 0..flips {
        let byte = plan.pick(region.bytes);
        let bit = plan.pick(8) as u8;
        // SAFETY: as in apply_flip_targets.
        unsafe {
            *(region.ptr as *mut u8).add(byte) ^= 1 << bit;
        }
    }
    plan.note_silent(flips);
}

/// Apply the plan's stuck-at page, choosing the site on first
/// application (stateless seed-derived draws over the then-live
/// regions). The same page gets the same OR-mask every launch, so the
/// corruption is deterministic across replicas — it survives voting by
/// design and must be caught by the suite's output validators.
pub(crate) fn apply_stuck(plan: &FaultPlan) {
    let site = {
        let mut slot = plan.stuck_slot();
        if slot.is_none() {
            if !plan.stuck_wanted() {
                return;
            }
            let regions: Vec<Arc<Region>> = live_regions()
                .into_iter()
                .filter(|r| r.injectable && r.bytes > 0)
                .collect();
            if regions.is_empty() {
                return;
            }
            let (ri, pi, bit) = plan.stuck_draws();
            let region = &regions[ri % regions.len()];
            let pages = region.bytes.div_ceil(PAGE_BYTES);
            *slot = Some((region.id, pi % pages.max(1), bit & 7));
        }
        match *slot {
            Some(s) => s,
            None => return,
        }
    };
    let (rid, page, bit) = site;
    let Some(region) = live_regions().into_iter().find(|r| r.id == rid) else {
        return;
    };
    let st = lock(&region.state);
    if !st.alive {
        return;
    }
    let start = page * PAGE_BYTES;
    if start >= region.bytes {
        return;
    }
    let end = (start + PAGE_BYTES).min(region.bytes);
    let mask = 1u8 << bit;
    let mut changed = false;
    for off in start..end {
        // SAFETY: in-bounds bytes of a live, bit-safe region at a launch
        // boundary.
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
