//! USM-style allocations.
//!
//! Altis uses CUDA unified memory throughout; DPCT migrates it to SYCL
//! USM (`malloc_host` / `malloc_shared` / `malloc_device`). The paper's
//! FPGA boards do not support USM — allocation calls return null — which
//! forced the authors to strip USM from the FPGA builds. We reproduce
//! that behavioural split: allocation against an FPGA device fails with
//! [`Error::UsmUnsupported`], and application code falls back to buffers.

use std::sync::Arc;

use crate::device::Device;
use crate::error::{Error, Result};
use crate::fault::FaultPlan;
use crate::integrity;
use crate::sanitize::{self, AccessKind};

/// USM allocation kind, mirroring `sycl::usm::alloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsmKind {
    /// Host-resident, device-visible (`malloc_host`).
    Host,
    /// Migrating shared allocation (`malloc_shared`).
    Shared,
    /// Device-resident (`malloc_device`).
    Device,
}

/// A USM allocation: a host vector plus the metadata SYCL would track.
#[derive(Debug)]
pub struct UsmAlloc<T> {
    data: Vec<T>,
    kind: UsmKind,
    // Process-unique id in the same namespace as buffer ids, so the race
    // sanitizer tracks USM elements with the same shadow machinery.
    id: u64,
    // Checksummed integrity region; `None` while the layer is disarmed.
    region: Option<Arc<integrity::Region>>,
}

impl<T> Drop for UsmAlloc<T> {
    fn drop(&mut self) {
        if let Some(region) = self.region.take() {
            integrity::unregister(&region);
        }
    }
}

impl<T: Copy + Default + 'static> UsmAlloc<T> {
    /// Allocate `len` elements of USM memory of `kind` on `device`.
    /// Fails on devices without USM support (the paper's FPGAs).
    pub fn new(device: &Device, kind: UsmKind, len: usize) -> Result<Self> {
        Self::new_with_fault(device, kind, len, None)
    }

    /// [`UsmAlloc::new`] under an optional fault plan: a capable device
    /// may still return null deterministically ([`Error::UsmAllocFailed`]),
    /// the transient flavour of the paper's FPGA `malloc_host` failures.
    pub fn new_with_fault(
        device: &Device,
        kind: UsmKind,
        len: usize,
        plan: Option<&FaultPlan>,
    ) -> Result<Self> {
        if !device.caps().supports_usm {
            return Err(Error::UsmUnsupported { device: device.name().to_string() });
        }
        if plan.is_some_and(FaultPlan::should_fail_alloc) {
            return Err(Error::UsmAllocFailed {
                device: device.name().to_string(),
                bytes: len * std::mem::size_of::<T>(),
            });
        }
        let data = vec![T::default(); len];
        let id = sanitize::next_object_id();
        let region = integrity::register(
            id,
            "usm",
            data.as_ptr() as *const u8,
            std::mem::size_of_val::<[T]>(&data),
            integrity::bit_safe::<T>(),
        );
        Ok(UsmAlloc { data, kind, id, region })
    }

    /// The allocation's process-unique object id (shared between the
    /// race sanitizer and the integrity layer's region ids).
    pub fn object_id(&self) -> u64 {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the allocation holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Load element `i`. Out-of-bounds raises the same typed
    /// [`Error::AccessOutOfBounds`] panic payload as
    /// [`crate::GlobalView::get`], which kernel containment converts into
    /// an error return from the launch.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.try_get(i).unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Fallible load: `Err(Error::AccessOutOfBounds)` instead of a panic
    /// — the same `try_*` parity [`crate::GlobalView`] offers.
    #[inline]
    pub fn try_get(&self, i: usize) -> Result<T> {
        let Some(&v) = self.data.get(i) else {
            return Err(Error::AccessOutOfBounds {
                offset: i,
                len: 1,
                buffer_len: self.data.len(),
            });
        };
        sanitize::record_global(self.id, i, AccessKind::Read);
        Ok(v)
    }

    /// Store `v` at element `i`. Out-of-bounds behaves as in
    /// [`UsmAlloc::get`].
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        self.try_set(i, v).unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Fallible store: `Err(Error::AccessOutOfBounds)` instead of a panic.
    #[inline]
    pub fn try_set(&mut self, i: usize, v: T) -> Result<()> {
        let len = self.data.len();
        let Some(slot) = self.data.get_mut(i) else {
            return Err(Error::AccessOutOfBounds { offset: i, len: 1, buffer_len: len });
        };
        *slot = v;
        sanitize::record_global(self.id, i, AccessKind::Write);
        if let Some(region) = &self.region {
            // Hot host-write path: drop the seal (one uncontended atomic)
            // instead of recomputing checksums per element; the next
            // launch-exit reseal restores protection.
            region.unseal_fast();
        }
        Ok(())
    }

    /// Allocation kind.
    pub fn kind(&self) -> UsmKind {
        self.kind
    }

    /// Immutable data access.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usm_works_on_cpu_and_gpu() {
        let mut a = UsmAlloc::<f32>::new(&Device::cpu(), UsmKind::Shared, 8).unwrap();
        a.set(3, 2.5);
        assert_eq!(a.as_slice()[3], 2.5);
        assert!(UsmAlloc::<u8>::new(&Device::rtx_2080(), UsmKind::Host, 4).is_ok());
    }

    #[test]
    fn usm_fails_on_fpgas() {
        // The paper: sycl::malloc_host on Stratix 10 / Agilex returns
        // nullptr, so Altis-SYCL strips USM for FPGA targets.
        for d in [Device::stratix10(), Device::agilex()] {
            let e = UsmAlloc::<f32>::new(&d, UsmKind::Host, 16).unwrap_err();
            assert!(matches!(e, Error::UsmUnsupported { .. }));
        }
    }

    #[test]
    fn injected_alloc_failure_is_typed_and_deterministic() {
        let plan = FaultPlan::new(11, 1.0).with_kinds(&[crate::fault::FaultKind::AllocFail]);
        let e = UsmAlloc::<f64>::new_with_fault(&Device::cpu(), UsmKind::Shared, 8, Some(&plan))
            .unwrap_err();
        assert_eq!(
            e,
            Error::UsmAllocFailed { device: Device::cpu().name().to_string(), bytes: 64 }
        );
        // Rate 0 never injects, regardless of seed.
        let quiet = FaultPlan::new(11, 0.0);
        assert!(
            UsmAlloc::<f64>::new_with_fault(&Device::cpu(), UsmKind::Shared, 8, Some(&quiet))
                .is_ok()
        );
    }

    #[test]
    fn element_accessors_roundtrip_and_check_bounds() {
        let mut a = UsmAlloc::<u32>::new(&Device::cpu(), UsmKind::Shared, 4).unwrap();
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        a.set(2, 99);
        assert_eq!(a.get(2), 99);
        assert_eq!(a.try_get(3).unwrap(), 0);
        assert!(matches!(
            a.try_get(4),
            Err(Error::AccessOutOfBounds { offset: 4, len: 1, buffer_len: 4 })
        ));
        assert!(matches!(
            a.try_set(7, 1),
            Err(Error::AccessOutOfBounds { offset: 7, len: 1, buffer_len: 4 })
        ));
        // Bounds survive as the in-bounds slice contents.
        assert_eq!(a.as_slice(), &[0, 0, 99, 0]);
        assert_eq!(a.kind(), UsmKind::Shared);
    }

    #[test]
    fn oob_access_panics_with_typed_payload() {
        crate::fault::install_quiet_hook();
        let a = UsmAlloc::<u8>::new(&Device::cpu(), UsmKind::Host, 2).unwrap();
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.get(2))).unwrap_err();
        let e = payload.downcast::<Error>().expect("typed payload");
        assert_eq!(*e, Error::AccessOutOfBounds { offset: 2, len: 1, buffer_len: 2 });
    }
}
