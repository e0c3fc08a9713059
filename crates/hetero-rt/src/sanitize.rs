//! hetero-san layer 1: the dynamic data-race sanitizer.
//!
//! The whole runtime rests on one claim: work-groups are independent in
//! SYCL, so distributing them over the worker pool is
//! semantics-preserving. Nothing in the *type system* enforces that the
//! application kernels actually obey the SYCL memory model, and the CCL
//! porting literature (CRK-HACC, Reguly's portability study) reports
//! silent memory-model divergence as the dominant source of wrong-answer
//! ports. This module checks the claim at runtime.
//!
//! # What is checked
//!
//! On a queue built with [`crate::Hardening::sanitize`] (the
//! [`crate::Hardening::sanitizer`] tier), every [`crate::GlobalView`]
//! and [`crate::LocalArray`] element access inside a launch records
//! `(kernel, group, phase, element, read|write)` into a per-worker log.
//! Per-group logs are merged when the launch ends and analysed for:
//!
//! * **cross-group conflicts** — two different work-groups touch the same
//!   global element and at least one access is a non-atomic write
//!   ([`RaceKind::WriteWrite`] / [`RaceKind::ReadWrite`]). Work-groups
//!   may run concurrently on any device, so these are unsynchronised by
//!   construction. Atomic-vs-atomic accesses never conflict.
//! * **intra-group conflicts not separated by a barrier** — two
//!   *different work-items* of one group touch the same element within
//!   the same barrier phase, at least one a write
//!   ([`RaceKind::MissedBarrier`]). On real hardware the items of a group
//!   run concurrently between barriers; this runtime happens to serialise
//!   them, which is exactly why the bug class is silent here and loud on
//!   a GPU.
//! * **reads of never-written local elements**
//!   ([`RaceKind::UninitRead`]) — local (shared) memory is *not*
//!   guaranteed zero-initialised by SYCL; this runtime zero-fills, so an
//!   uninitialised read is another silently-masked portability bug.
//! * **accesses the launch's bindings do not allow** — when a launch
//!   states bindings ([`crate::Queue::submit`], a recorded node), a
//!   buffer it touches without binding it ([`RaceKind::Unbound`]) or
//!   stores to through a `reads` binding ([`RaceKind::ReadOnlyStore`]).
//!   In SYCL an accessor of the wrong mode does not compile; here the
//!   bindings are checked facts at run time. One report per object, at
//!   its smallest offending element.
//!
//! Leader-only code (LavaMD's per-group fold) runs in *uniform* context
//! — outside `ctx.items(..)` — where a single thread legitimately reads
//! every item's slot; uniform accesses therefore participate only in the
//! cross-group analysis, never the intra-group one.
//! [`crate::PrivateArray`] is per-item by construction and is not
//! tracked.
//!
//! # Determinism
//!
//! Reports are independent of worker-pool scheduling: per-element merge
//! state keeps the *minimum* two distinct group ids per access class, and
//! the final report list is sorted by (space, object, element). The first
//! report becomes the launch's typed [`crate::Error::DataRace`], surfaced
//! through the existing `try_*` APIs; the full list is retrievable with
//! [`take_last_reports`] on the submitting thread.
//!
//! # Cost when disabled
//!
//! Every accessor hook first checks one process-wide relaxed atomic
//! ([`hooks_armed`]): with no sanitized launch in flight the hook is a
//! single predictable branch, bounded <2% on the `launch_storm`
//! microbenchmark (`BENCH_hook_overhead.json`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Conflict classes the sanitizer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    /// Two work-groups (or a work-group and another's atomic) wrote the
    /// same element non-atomically.
    WriteWrite,
    /// One work-group read an element another work-group wrote.
    ReadWrite,
    /// Two work-items of the same group touched the same element in the
    /// same barrier phase, at least one writing.
    MissedBarrier,
    /// A local (shared) element was read before any work-item wrote it.
    UninitRead,
    /// A buffer the launch touched without binding it.
    Unbound,
    /// A store (plain or atomic) through a `reads` binding.
    ReadOnlyStore,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "write-write"),
            RaceKind::ReadWrite => write!(f, "read-write"),
            RaceKind::MissedBarrier => write!(f, "missed-barrier"),
            RaceKind::UninitRead => write!(f, "uninit-read"),
            RaceKind::Unbound => write!(f, "unbound access"),
            RaceKind::ReadOnlyStore => write!(f, "store through a reads binding"),
        }
    }
}

/// Which memory space a report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSpace {
    /// Buffer memory ([`crate::GlobalView`]), identified by the
    /// allocation's process-unique id.
    Global,
    /// A group-local shared array, identified by its per-group
    /// allocation index.
    Local,
}

/// One sanitizer finding. The launch's findings are sorted by
/// `(space, object, element, kind)`, which is stable across runs and
/// worker schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Kernel name of the launch.
    pub kernel: &'static str,
    /// Conflict class.
    pub kind: RaceKind,
    /// Memory space of the racing object.
    pub space: MemSpace,
    /// Buffer allocation id, or local-array index within the group.
    pub object: u64,
    /// Element index within the object.
    pub element: usize,
    /// Smallest involved work-group id.
    pub group: usize,
    /// Second involved work-group (cross-group conflicts only).
    pub other_group: Option<usize>,
    /// Barrier phase of the conflict (intra-group findings only).
    pub phase: Option<u64>,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel '{}': {} on {} object {} element {} (group {}",
            self.kernel,
            self.kind,
            match self.space {
                MemSpace::Global => "global",
                MemSpace::Local => "local",
            },
            self.object,
            self.element,
            self.group,
        )?;
        if let Some(o) = self.other_group {
            write!(f, " vs group {o}")?;
        }
        if let Some(p) = self.phase {
            write!(f, ", phase {p}")?;
        }
        write!(f, ")")
    }
}

// ---------------------------------------------------------------------------
// Process-wide state: the fast-path gate and object ids.
// ---------------------------------------------------------------------------

/// Count of sanitized launches currently in flight. The accessor hooks
/// reduce to `load(Relaxed) != 0` when this is zero, which is the entire
/// disabled-mode cost.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Monotonic id source for buffers. Host-side
/// allocation order is program order, so ids are deterministic.
static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique id for a trackable allocation.
pub(crate) fn next_object_id() -> u64 {
    NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Whether any sanitized launch is in flight (the accessor fast path).
#[inline(always)]
pub(crate) fn hooks_armed() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

// ---------------------------------------------------------------------------
// Hashing: accessor hooks sit on the per-element hot path, so the maps
// use a cheap multiply-xor hasher instead of SipHash (no external crates
// in the offline workspace).
// ---------------------------------------------------------------------------

#[derive(Default)]
struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // splitmix64-style mix; plenty for small integer keys.
        let mut x = self.0 ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.0 = x ^ (x >> 27);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

// ---------------------------------------------------------------------------
// Per-group recorder (thread-local while a group executes).
// ---------------------------------------------------------------------------

/// Access class of one recorded element touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write (never conflicts with other atomics).
    Atomic,
}

const BIT_READ: u8 = 1;
const BIT_WRITE: u8 = 2;
const BIT_ATOMIC: u8 = 4;

/// Intra-phase state of one element: the first writing / reading item.
#[derive(Default)]
struct PhaseState {
    writer_item: Option<usize>,
    reader_item: Option<usize>,
    reported: bool,
}

pub(crate) struct GroupRecorder {
    kernel: &'static str,
    group: usize,
    phase: u64,
    current_item: Option<usize>,
    /// Per-element access-class bits for the cross-group merge, keyed by
    /// (allocation id, element). Global space only.
    global: FastMap<(u64, usize), u8>,
    /// Per-element intra-phase conflict state, keyed by
    /// (space, object, element); cleared at every barrier.
    phase_state: FastMap<(MemSpace, u64, usize), PhaseState>,
    /// Local elements written at least once this group (uninit-read
    /// tracking); local arrays are per-group, so this never merges.
    local_written: FastMap<(u64, usize), ()>,
    /// Local-array findings (missed barrier, uninit read) and
    /// global-space missed-barrier findings, complete at group end.
    reports: Vec<RaceReport>,
    /// Ids handed to this group's local arrays, in allocation order.
    next_local_id: u64,
}

impl GroupRecorder {
    fn new(kernel: &'static str, group: usize) -> Self {
        GroupRecorder {
            kernel,
            group,
            phase: 0,
            current_item: None,
            global: FastMap::default(),
            phase_state: FastMap::default(),
            local_written: FastMap::default(),
            reports: Vec::new(),
            next_local_id: 0,
        }
    }

    /// Intra-group same-phase conflict detection, shared by all spaces.
    fn check_phase(&mut self, space: MemSpace, object: u64, element: usize, kind: AccessKind) {
        // Uniform-context accesses (leader-only code outside
        // `items()`) are inherently single-threaded per group.
        let Some(item) = self.current_item else { return };
        if kind == AccessKind::Atomic {
            return;
        }
        let st = self.phase_state.entry((space, object, element)).or_default();
        let conflict = !st.reported
            && match kind {
                AccessKind::Write => {
                    st.writer_item.is_some_and(|w| w != item)
                        || st.reader_item.is_some_and(|r| r != item)
                }
                AccessKind::Read => st.writer_item.is_some_and(|w| w != item),
                AccessKind::Atomic => false,
            };
        if conflict {
            st.reported = true;
        }
        match kind {
            AccessKind::Write => {
                st.writer_item = Some(st.writer_item.map_or(item, |w| w.min(item)));
            }
            AccessKind::Read => {
                st.reader_item = Some(st.reader_item.map_or(item, |r| r.min(item)));
            }
            AccessKind::Atomic => {}
        }
        if conflict {
            self.reports.push(RaceReport {
                kernel: self.kernel,
                kind: RaceKind::MissedBarrier,
                space,
                object,
                element,
                group: self.group,
                other_group: None,
                phase: Some(self.phase),
            });
        }
    }

    fn record_global(&mut self, object: u64, element: usize, kind: AccessKind) {
        let bits = self.global.entry((object, element)).or_insert(0);
        *bits |= match kind {
            AccessKind::Read => BIT_READ,
            AccessKind::Write => BIT_WRITE,
            AccessKind::Atomic => BIT_ATOMIC,
        };
        self.check_phase(MemSpace::Global, object, element, kind);
    }

    fn record_local(&mut self, object: u64, element: usize, kind: AccessKind) {
        match kind {
            AccessKind::Write | AccessKind::Atomic => {
                self.local_written.insert((object, element), ());
            }
            AccessKind::Read => {
                // Report each uninitialised element once per group.
                if self.local_written.insert((object, element), ()).is_none() {
                    self.reports.push(RaceReport {
                        kernel: self.kernel,
                        kind: RaceKind::UninitRead,
                        space: MemSpace::Local,
                        object,
                        element,
                        group: self.group,
                        other_group: None,
                        phase: Some(self.phase),
                    });
                }
            }
        }
        self.check_phase(MemSpace::Local, object, element, kind);
    }

    fn barrier(&mut self) {
        self.phase += 1;
        self.phase_state.clear();
    }
}

thread_local! {
    static RECORDER: RefCell<Option<GroupRecorder>> = const { RefCell::new(None) };
}

// ---------------------------------------------------------------------------
// Hook entry points (called from buffer/local/ndrange).
// ---------------------------------------------------------------------------

/// Record a global-space (buffer) element access. No-op unless a
/// sanitized launch is in flight *and* this thread is executing one of
/// its groups.
#[inline(always)]
pub(crate) fn record_global(object: u64, element: usize, kind: AccessKind) {
    if !hooks_armed() {
        return;
    }
    record_global_cold(object, element, kind);
}

#[cold]
fn record_global_cold(object: u64, element: usize, kind: AccessKind) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.record_global(object, element, kind);
        }
    });
}

/// Record a local-array element access (see [`record_global`]).
#[inline(always)]
pub(crate) fn record_local(object: u64, element: usize, kind: AccessKind) {
    if !hooks_armed() {
        return;
    }
    record_local_cold(object, element, kind);
}

#[cold]
fn record_local_cold(object: u64, element: usize, kind: AccessKind) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.record_local(object, element, kind);
        }
    });
}

/// Advance the recorder's barrier phase (called by
/// [`crate::GroupCtx::barrier`]).
#[inline(always)]
pub(crate) fn phase_bump() {
    if !hooks_armed() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.barrier();
        }
    });
}

/// Mark the work-item the current thread is executing (or `None` when
/// leaving per-item context). Called by [`crate::GroupCtx::items`].
#[inline(always)]
pub(crate) fn set_current_item(item: Option<usize>) {
    if !hooks_armed() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.current_item = item;
        }
    });
}

/// Hand out the next local-array id for the recording group, if any.
/// Local ids count up from zero per group in allocation order, which is
/// deterministic because a group runs on one thread.
#[inline(always)]
pub(crate) fn next_local_array_id() -> Option<u64> {
    if !hooks_armed() {
        return None;
    }
    RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.next_local_id;
            rec.next_local_id += 1;
            id
        })
    })
}

// ---------------------------------------------------------------------------
// Launch session: created by the executor per sanitized launch.
// ---------------------------------------------------------------------------

/// Minimum two *distinct* group ids that performed some access class on
/// an element. Min-based, so merging is independent of group completion
/// order — the backbone of report determinism under pooled execution.
#[derive(Debug, Clone, Copy, Default)]
struct MinTwo {
    a: Option<usize>,
    b: Option<usize>,
}

impl MinTwo {
    fn add(&mut self, g: usize) {
        match (self.a, self.b) {
            (None, _) => self.a = Some(g),
            (Some(a), _) if g == a => {}
            (Some(a), None) => {
                if g < a {
                    self.b = Some(a);
                    self.a = Some(g);
                } else {
                    self.b = Some(g);
                }
            }
            (Some(a), Some(b)) if g == b => {
                debug_assert!(a < b);
            }
            (Some(a), Some(b)) => {
                if g < a {
                    self.b = Some(a);
                    self.a = Some(g);
                } else if g < b {
                    self.b = Some(g);
                }
            }
        }
    }

    fn min(&self) -> Option<usize> {
        self.a
    }

    /// The two smallest distinct members, if at least two exist.
    fn two(&self) -> Option<(usize, usize)> {
        Some((self.a?, self.b?))
    }

    /// Smallest member different from `x`.
    fn distinct_from(&self, x: usize) -> Option<usize> {
        match self.a {
            Some(a) if a != x => Some(a),
            Some(_) => self.b,
            None => None,
        }
    }
}

#[derive(Default)]
struct ElemGroups {
    writers: MinTwo,
    readers: MinTwo,
    atomics: MinTwo,
}

/// Shadow-state accumulator for one sanitized launch. The executor
/// creates one per launch, each finished group merges its recorder into
/// it, and [`LaunchSession::finish`] runs the cross-group analysis.
pub(crate) struct LaunchSession {
    kernel: &'static str,
    merged: Mutex<Merged>,
}

#[derive(Default)]
struct Merged {
    global: FastMap<(u64, usize), ElemGroups>,
    reports: Vec<RaceReport>,
}

impl LaunchSession {
    /// Begin a session, arming the process-wide accessor hooks.
    pub(crate) fn begin(kernel: &'static str) -> Self {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        LaunchSession { kernel, merged: Mutex::new(Merged::default()) }
    }

    /// Install a fresh recorder for group `group` on the current thread,
    /// returning whatever recorder an enclosing launch had installed
    /// (nested launches restore it afterwards).
    pub(crate) fn install_recorder(&self, group: usize) -> Option<GroupRecorder> {
        RECORDER.with(|r| r.borrow_mut().replace(GroupRecorder::new(self.kernel, group)))
    }

    /// Remove the current thread's recorder, merge its findings, and
    /// restore `prev` (the enclosing launch's recorder, if any).
    /// `completed` is false when the group panicked — its partial log is
    /// discarded (the launch already fails with the panic's error).
    pub(crate) fn finish_group(&self, prev: Option<GroupRecorder>, completed: bool) {
        let rec = RECORDER.with(|r| {
            let mut slot = r.borrow_mut();
            let rec = slot.take();
            *slot = prev;
            rec
        });
        let Some(rec) = rec else { return };
        if !completed {
            return;
        }
        let mut m = self.merged.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        m.reports.extend(rec.reports);
        for ((object, element), bits) in rec.global {
            let eg = m.global.entry((object, element)).or_default();
            if bits & BIT_WRITE != 0 {
                eg.writers.add(rec.group);
            }
            if bits & BIT_READ != 0 {
                eg.readers.add(rec.group);
            }
            if bits & BIT_ATOMIC != 0 {
                eg.atomics.add(rec.group);
            }
        }
    }

    /// Run the cross-group analysis, and the binding check when the
    /// launch states `bindings`, and return the launch's findings, sorted
    /// by (space, object, element, kind).
    pub(crate) fn finish(self, bindings: &[crate::Binding]) -> Vec<RaceReport> {
        // `Drop` (the ACTIVE decrement) prevents moving fields out, so
        // drain the merged state through the lock instead.
        let mut m = std::mem::take(
            &mut *self.merged.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        // Per object, the binding misuse at its smallest element.
        let mut misuse: FastMap<u64, RaceReport> = FastMap::default();
        for (&(object, element), eg) in m.global.iter().filter(|_| !bindings.is_empty()) {
            let stored = eg.writers.min().or(eg.atomics.min());
            let kind = match bindings.iter().find(|b| b.object == object) {
                None => RaceKind::Unbound,
                Some(b) if b.access == crate::Access::Read && stored.is_some() => {
                    RaceKind::ReadOnlyStore
                }
                Some(_) => continue,
            };
            if misuse.get(&object).is_some_and(|r| r.element < element) {
                continue;
            }
            let group = stored.or(eg.readers.min()).unwrap_or(0);
            misuse.insert(
                object,
                RaceReport {
                    kernel: self.kernel,
                    kind,
                    space: MemSpace::Global,
                    object,
                    element,
                    group,
                    other_group: None,
                    phase: None,
                },
            );
        }
        m.reports.extend(misuse.into_values());
        for (&(object, element), eg) in m.global.iter() {
            let ww = eg.writers.two().or_else(|| {
                // A non-atomic write racing another group's atomic is
                // still a write-write conflict.
                let w = eg.writers.min()?;
                let a = eg.atomics.distinct_from(w)?;
                Some((w.min(a), w.max(a)))
            });
            if let Some((g1, g2)) = ww {
                m.reports.push(RaceReport {
                    kernel: self.kernel,
                    kind: RaceKind::WriteWrite,
                    space: MemSpace::Global,
                    object,
                    element,
                    group: g1,
                    other_group: Some(g2),
                    phase: None,
                });
                continue;
            }
            // Read-write: a reader in a different group than a (plain or
            // atomic) writer.
            let rw = eg
                .writers
                .min()
                .and_then(|w| eg.readers.distinct_from(w).map(|r| (w, r)))
                .or_else(|| {
                    let a = eg.atomics.min()?;
                    eg.readers.distinct_from(a).map(|r| (a, r))
                });
            if let Some((w, r)) = rw {
                m.reports.push(RaceReport {
                    kernel: self.kernel,
                    kind: RaceKind::ReadWrite,
                    space: MemSpace::Global,
                    object,
                    element,
                    group: w.min(r),
                    other_group: Some(w.max(r)),
                    phase: None,
                });
            }
        }
        let mut reports = m.reports;
        reports.sort_by(|x, y| {
            (x.space, x.object, x.element, x.kind).cmp(&(y.space, y.object, y.element, y.kind))
        });
        reports
    }
}

impl Drop for LaunchSession {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Last-reports mailbox (submitting-thread-local, so parallel tests with
// their own queues never observe each other's findings).
// ---------------------------------------------------------------------------

thread_local! {
    static LAST_REPORTS: RefCell<Vec<RaceReport>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn stash_reports(reports: Vec<RaceReport>) {
    LAST_REPORTS.with(|r| *r.borrow_mut() = reports);
}

/// Retrieve (and clear) the full report list of the most recent sanitized
/// launch that failed with [`crate::Error::DataRace`] on this thread.
/// Launches are synchronous, so call this right after the failing
/// `try_*` submission returns.
pub fn take_last_reports() -> Vec<RaceReport> {
    LAST_REPORTS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_two_is_order_independent() {
        let orders: [&[usize]; 4] = [&[3, 1, 2], &[2, 3, 1], &[1, 2, 3], &[3, 3, 2, 1, 1]];
        for order in orders {
            let mut m = MinTwo::default();
            for &g in order {
                m.add(g);
            }
            assert_eq!(m.two(), Some((1, 2)), "order {order:?}");
            assert_eq!(m.min(), Some(1));
            assert_eq!(m.distinct_from(1), Some(2));
            assert_eq!(m.distinct_from(5), Some(1));
        }
        let mut one = MinTwo::default();
        one.add(7);
        one.add(7);
        assert_eq!(one.two(), None);
        assert_eq!(one.distinct_from(7), None);
        assert_eq!(one.distinct_from(3), Some(7));
    }

    #[test]
    fn recorder_flags_same_phase_item_conflicts_only() {
        let mut rec = GroupRecorder::new("k", 0);
        // Uniform context: no intra-group conflicts possible.
        rec.record_global(1, 5, AccessKind::Write);
        rec.record_global(1, 5, AccessKind::Write);
        assert!(rec.reports.is_empty());
        // Item 0 writes, item 1 writes the same element, same phase.
        rec.current_item = Some(0);
        rec.record_global(1, 6, AccessKind::Write);
        rec.current_item = Some(1);
        rec.record_global(1, 6, AccessKind::Write);
        assert_eq!(rec.reports.len(), 1);
        assert_eq!(rec.reports[0].kind, RaceKind::MissedBarrier);
        assert_eq!(rec.reports[0].element, 6);
        // A barrier clears the phase state: no further conflict.
        rec.barrier();
        rec.current_item = Some(2);
        rec.record_global(1, 6, AccessKind::Write);
        assert_eq!(rec.reports.len(), 1);
        // Same item re-writing is never a conflict.
        rec.record_global(1, 7, AccessKind::Write);
        rec.record_global(1, 7, AccessKind::Write);
        assert_eq!(rec.reports.len(), 1);
        // Atomics never conflict.
        rec.current_item = Some(3);
        rec.record_global(1, 8, AccessKind::Atomic);
        rec.current_item = Some(4);
        rec.record_global(1, 8, AccessKind::Atomic);
        assert_eq!(rec.reports.len(), 1);
    }

    #[test]
    fn recorder_reports_uninit_local_reads_once() {
        let mut rec = GroupRecorder::new("k", 3);
        rec.current_item = Some(0);
        rec.record_local(0, 2, AccessKind::Read);
        rec.record_local(0, 2, AccessKind::Read);
        assert_eq!(rec.reports.len(), 1);
        assert_eq!(rec.reports[0].kind, RaceKind::UninitRead);
        assert_eq!(rec.reports[0].group, 3);
        // Written-then-read elements are clean.
        rec.record_local(0, 4, AccessKind::Write);
        rec.barrier();
        rec.current_item = Some(1);
        rec.record_local(0, 4, AccessKind::Read);
        assert_eq!(rec.reports.len(), 1);
    }

    #[test]
    fn session_merges_cross_group_conflicts_deterministically() {
        // Simulate three groups touching element (obj=9, 0): groups 2 and
        // 5 write, group 7 reads. Merge order must not matter.
        let run = |order: &[usize]| {
            let session = LaunchSession::begin("k");
            for &g in order {
                let mut rec = GroupRecorder::new("k", g);
                let kind = if g == 7 { AccessKind::Read } else { AccessKind::Write };
                rec.record_global(9, 0, kind);
                let mut m = session.merged.lock().unwrap();
                for ((object, element), bits) in rec.global.drain() {
                    let eg = m.global.entry((object, element)).or_default();
                    if bits & BIT_WRITE != 0 {
                        eg.writers.add(g);
                    }
                    if bits & BIT_READ != 0 {
                        eg.readers.add(g);
                    }
                }
                drop(m);
            }
            session.finish(&[])
        };
        let a = run(&[2, 5, 7]);
        let b = run(&[7, 5, 2]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].kind, RaceKind::WriteWrite);
        assert_eq!((a[0].group, a[0].other_group), (2, Some(5)));
    }

    #[test]
    fn atomic_only_elements_never_conflict() {
        let session = LaunchSession::begin("k");
        for g in 0..4 {
            let mut m = session.merged.lock().unwrap();
            m.global.entry((1, 0)).or_default().atomics.add(g);
        }
        assert!(session.finish(&[]).is_empty());
    }

    #[test]
    fn race_kind_and_report_display() {
        assert_eq!(RaceKind::WriteWrite.to_string(), "write-write");
        assert_eq!(RaceKind::UninitRead.to_string(), "uninit-read");
        let r = RaceReport {
            kernel: "k",
            kind: RaceKind::ReadWrite,
            space: MemSpace::Global,
            object: 4,
            element: 17,
            group: 1,
            other_group: Some(3),
            phase: None,
        };
        let s = r.to_string();
        assert!(s.contains("read-write") && s.contains("17") && s.contains("group 1"), "{s}");
    }
}
