//! Proof-gated bounds-check elision — the one audited module allowed to
//! skip [`GlobalView`](crate::buffer::GlobalView) access checks.
//!
//! A kernel whose record-time contract check *closed* — every access
//! statically proven in-bounds for the recorded range by
//! [`hetero_ir::infer_contract`], and every declared binding consistent
//! with the inferred contract — earns a [`Gate`]. Views the kernel wraps
//! through [`Gate::view`] read the gate on every access:
//!
//! * **armed** → the element load/store skips both the bounds check and
//!   the sanitizer hook (the proof already discharged the bounds
//!   obligation, and the gate is only ever armed on a path the
//!   sanitizer cannot be watching — see below);
//! * **disarmed** (the default) → the access goes through the ordinary
//!   fully checked [`GlobalView`](crate::buffer::GlobalView) accessors.
//!
//! # Why the unsafe is sound
//!
//! [`Gate::arm`] is crate-internal and called from exactly one place:
//! the fast path of `Graph::replay`, while holding the graph's replay
//! lock, and only for nodes that carry a closed proof certificate. That
//! path is only taken when every hardening layer is disarmed
//! (`fast_eligible`): no sanitizer, no fault plan, no redundancy, no
//! armed integrity layer. The proof is against the recorded launch
//! range, and the fast path replays exactly that range — so for every
//! index `i` a gated accessor sees while armed, `i < len` was
//! established statically at record time. `submit_each` (the armed-queue
//! degradation path) never arms gates, so sanitized, fault-injected, or
//! redundant replays always run fully checked. The gate is disarmed
//! again (via a drop guard) before `replay` returns, even on panic.
//!
//! # Kill switch
//!
//! [`set_enabled`] globally disables arming — every gated view behaves
//! exactly like its checked inner view. The elision benchmark uses this
//! to measure the checked and unchecked fast paths over identical
//! schedules.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::buffer::GlobalView;
use crate::lanes::LANES;

/// Global elision kill switch (default: enabled). Disabling never makes
/// a program less checked — gates simply stay disarmed.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable proof-gated elision. With elision
/// disabled, proven kernels replay through fully checked accessors.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether proof-gated elision is globally enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A per-launch elision certificate gate. Cloned handles share state:
/// the recorded node holds one clone (armed/disarmed by replay), the
/// kernel's [`ProvenView`]s hold the others.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    armed: Arc<AtomicBool>,
}

impl Gate {
    /// A new, disarmed gate.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Wrap a view so its accesses consult this gate.
    pub fn view<T: Copy>(&self, inner: GlobalView<T>) -> ProvenView<T> {
        ProvenView { inner, gate: self.clone() }
    }

    /// Whether the gate is currently armed (the owning graph is mid
    /// fast-path replay and the node's proof closed).
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Arm the gate. Crate-internal: only `Graph::replay`'s fast path
    /// (under the replay lock, for proven nodes, with elision enabled)
    /// may call this — that restriction is the soundness argument above.
    pub(crate) fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Disarm the gate (drop-guard path of `Graph::replay`).
    pub(crate) fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }
}

/// A [`GlobalView`](crate::buffer::GlobalView) whose bounds checks are
/// elided while its [`Gate`] is armed and fully enforced otherwise. See
/// the module docs for the soundness argument.
#[derive(Clone, Debug)]
pub struct ProvenView<T> {
    inner: GlobalView<T>,
    gate: Gate,
}

impl<T: Copy> ProvenView<T> {
    /// Number of elements visible through the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the view covers zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Load element `i`: unchecked while the gate is armed, fully
    /// checked (bounds + sanitizer hook) otherwise.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        if self.gate.is_armed() {
            // SAFETY: the gate is only armed during a fast-path replay
            // of a node whose record-time proof established that every
            // index this kernel presents is < len (module docs).
            unsafe { self.inner.elem(i).read() }
        } else {
            self.inner.get(i)
        }
    }

    /// Store `v` into element `i`: unchecked while the gate is armed,
    /// fully checked otherwise.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        if self.gate.is_armed() {
            // SAFETY: as in `get` — armed only under a closed proof.
            unsafe { self.inner.elem(i).write(v) }
        } else {
            self.inner.set(i, v);
        }
    }

    /// Read-modify-write of element `i` on a single thread. Not atomic —
    /// only valid when no other work-item touches `i` concurrently.
    #[inline]
    pub fn update(&self, i: usize, f: impl FnOnce(T) -> T) {
        self.set(i, f(self.get(i)));
    }

    /// Load [`LANES`] consecutive elements starting at `i` through
    /// [`GlobalView::get_lanes`], armed or not: a lane window pays one
    /// bounds check per [`LANES`] elements, and eliding that one moved no
    /// end-to-end metric.
    #[inline]
    pub fn get_lanes(&self, i: usize) -> [T; LANES] {
        self.inner.get_lanes(i)
    }

    /// Store [`LANES`] consecutive elements starting at `i`; the
    /// vector-store counterpart of [`ProvenView::get_lanes`].
    #[inline]
    pub fn set_lanes(&self, i: usize, v: [T; LANES]) {
        self.inner.set_lanes(i, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;

    #[test]
    fn disarmed_gate_is_fully_checked() {
        let b = Buffer::<u32>::from_slice(&[1, 2, 3, 4]);
        let gate = Gate::new();
        let v = gate.view(b.view());
        assert!(!gate.is_armed());
        assert_eq!(v.get(2), 3);
        v.set(2, 9);
        assert_eq!(b.to_vec()[2], 9);
        // Out of bounds raises the typed payload, exactly like the
        // checked accessor it wraps.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| v.get(4)));
        assert!(r.is_err());
    }

    #[test]
    fn armed_gate_reads_and_writes_in_bounds() {
        let b = Buffer::<u32>::from_slice(&[5, 6, 7]);
        let gate = Gate::new();
        let v = gate.view(b.view());
        gate.arm();
        assert!(gate.is_armed());
        assert_eq!(v.get(1), 6);
        v.update(1, |x| x + 10);
        gate.disarm();
        assert_eq!(b.to_vec(), vec![5, 16, 7]);
        assert!(!gate.is_armed());
    }

    #[test]
    fn lane_accessors_stay_checked_while_armed() {
        crate::fault::install_quiet_hook();
        let b = Buffer::<u32>::from_slice(&(0..12).collect::<Vec<u32>>());
        let gate = Gate::new();
        let v = gate.view(b.view());
        gate.arm();
        v.set_lanes(4, [9; LANES]);
        assert_eq!(v.get_lanes(4), [9; LANES]);
        // A lane window that runs off the end raises the typed payload
        // with the window's offset and width even under an armed gate.
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| v.get_lanes(5))).unwrap_err();
        assert_eq!(
            *payload.downcast::<crate::Error>().expect("typed payload"),
            crate::Error::AccessOutOfBounds { offset: 5, len: LANES, buffer_len: 12 }
        );
        gate.disarm();
        assert_eq!(b.to_vec(), vec![0, 1, 2, 3, 9, 9, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn kill_switch_round_trips() {
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
