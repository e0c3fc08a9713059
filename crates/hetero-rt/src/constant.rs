//! Constant-memory wrappers.
//!
//! CUDA `__constant__` data is migrated by DPCT into helper-header
//! wrapper objects. The paper found those wrappers occasionally
//! *initialised after first use*, producing segmentation faults
//! (Section 3.2.2) — one of the reasons Altis-SYCL abandons the DPCT
//! headers. [`ConstantMemory`] reproduces the corrected semantics: it
//! tracks initialisation explicitly and turns use-before-init into a
//! deterministic error instead of undefined behaviour, so the bug class
//! is testable.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use crate::error::{Error, Result};

/// A device constant-memory region of `N` elements of `T`.
///
/// Cloning shares the region (kernels capture clones).
pub struct ConstantMemory<T> {
    data: Arc<RwLock<Option<Box<[T]>>>>,
    name: &'static str,
}

impl<T> Clone for ConstantMemory<T> {
    fn clone(&self) -> Self {
        ConstantMemory { data: Arc::clone(&self.data), name: self.name }
    }
}

impl<T: Copy + Send + Sync + 'static> ConstantMemory<T> {
    /// Declare an (uninitialised) constant-memory symbol.
    // lint:allow(unused-pub) paper §3.2.2: DPCT's constant-memory wrappers read before initialisation
    pub fn declare(name: &'static str) -> Self {
        ConstantMemory { data: Arc::new(RwLock::new(None)), name }
    }

    fn read_guard(&self) -> RwLockReadGuard<'_, Option<Box<[T]>>> {
        self.data.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Upload the constant data (like `cudaMemcpyToSymbol`). May be
    /// called once; re-uploads replace the contents (CUDA allows this
    /// between launches).
    // lint:allow(unused-pub) paper §3.2.2: the initialisation whose ordering the wrappers got wrong
    pub fn upload(&self, values: &[T]) {
        *self.data.write().unwrap_or_else(PoisonError::into_inner) =
            Some(values.to_vec().into_boxed_slice());
    }

    /// Read element `i`. Fails with [`Error::UnsupportedFeature`]-style
    /// diagnostics if the symbol was never uploaded — the checked
    /// version of the DPCT-wrapper segfault.
    pub fn get(&self, i: usize) -> Result<T> {
        let guard = self.read_guard();
        match guard.as_ref() {
            Some(d) => d.get(i).copied().ok_or(Error::AccessOutOfBounds {
                offset: i,
                len: 1,
                buffer_len: d.len(),
            }),
            None => Err(Error::UnsupportedFeature {
                feature: "read of uninitialised constant memory",
                device: self.name.to_string(),
            }),
        }
    }

    /// Snapshot the contents (kernel-side "load the whole table once").
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let guard = self.read_guard();
        guard.as_ref().map(|d| d.to_vec()).ok_or(Error::UnsupportedFeature {
            feature: "read of uninitialised constant memory",
            device: self.name.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_then_read() {
        let c = ConstantMemory::<f32>::declare("coeffs");
        c.upload(&[1.0, 2.0, 3.0]);
        assert_eq!(c.get(1).unwrap(), 2.0);
        assert_eq!(c.to_vec().unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn use_before_init_is_a_checked_error_not_a_segfault() {
        // The DPCT-wrapper bug class, made deterministic.
        let c = ConstantMemory::<u32>::declare("table");
        let e = c.get(0).unwrap_err();
        assert!(e.to_string().contains("uninitialised constant memory"));
        assert!(c.to_vec().is_err());
    }

    #[test]
    fn out_of_bounds_read_is_reported() {
        let c = ConstantMemory::<u8>::declare("small");
        c.upload(&[7]);
        assert!(matches!(c.get(3), Err(Error::AccessOutOfBounds { .. })));
    }

    #[test]
    fn clones_share_the_symbol() {
        let c = ConstantMemory::<i32>::declare("shared");
        let k = c.clone(); // as captured by a kernel
        c.upload(&[42]);
        assert_eq!(k.get(0).unwrap(), 42);
    }

    #[test]
    fn reupload_replaces_contents() {
        let c = ConstantMemory::<i32>::declare("c");
        c.upload(&[1]);
        c.upload(&[9, 8]);
        assert_eq!(c.to_vec().unwrap(), vec![9, 8]);
    }
}
