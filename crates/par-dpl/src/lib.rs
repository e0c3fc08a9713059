//! # par-dpl — parallel algorithms library (oneDPL / CUB stand-in)
//!
//! Altis' `Where` benchmark relies on a library prefix-sum: CUDA uses the
//! CUB-style single-pass scan; DPCT migrates it to oneDPL's
//! multi-pass work-efficient scan, which the paper measures at 50 % slower
//! on the RTX 2080; and for FPGAs the paper writes a custom unrolled
//! Single-Task scan (Listing 2) that is up to 100× faster on Stratix 10
//! than the GPU-shaped oneDPL one.
//!
//! This crate implements all three flavours as real algorithms with
//! *structurally different* pass counts (which is exactly where the
//! performance difference comes from), together with the reduce, dot
//! and histogram primitives the suite calls. The custom FPGA scan also
//! exposes the kernel-IR descriptor used by the performance models.
//!
//! ## Example
//!
//! ```
//! use par_dpl::scan::{exclusive_scan, ScanFlavor};
//!
//! let flags = [1u32, 0, 1, 1, 0];
//! let mut offsets = vec![0; 5];
//! exclusive_scan(ScanFlavor::Cub, &flags, &mut offsets);
//! assert_eq!(offsets, vec![0, 1, 1, 2, 3]);
//! ```

#![warn(missing_docs)]

pub mod histogram;
pub mod reduce;
pub mod scan;
#[cfg(test)]
pub(crate) mod testgen;
pub mod transform;
pub mod util;

pub use histogram::histogram_u32_mod;
pub use reduce::{reduce_min, reduce_sum};
pub use scan::{
    exclusive_scan_cub_style, exclusive_scan_fpga_custom, exclusive_scan_onedpl_style,
    fpga_scan_kernel_ir, ScanFlavor,
};
pub use transform::dot_f32;
