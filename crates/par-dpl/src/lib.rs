//! # par-dpl — parallel algorithms library (oneDPL / CUB stand-in)
//!
//! Altis' `Where` benchmark relies on a library prefix-sum: CUDA uses the
//! CUB-style single-pass scan; DPCT migrates it to oneDPL's
//! multi-pass work-efficient scan, which the paper measures at 50 % slower
//! on the RTX 2080; and for FPGAs the paper writes a custom unrolled
//! Single-Task scan (Listing 2) that is up to 100× faster on Stratix 10
//! than the GPU-shaped oneDPL one.
//!
//! This crate runs the oneDPL scan, and the reduce and histogram
//! primitives the suite calls, as kernels on a plain CPU queue of their
//! own, the queue oneDPL's `dpcpp_default` policy carries: one work-group
//! per fixed block of 16 Ki elements, reading the caller's slice in
//! place and writing partials and tables through bound buffers, which
//! the host folds in block order. No result depends on the pool's width.
//! The CUB flavour runs the same two-phase scan on the host; its
//! single-pass advantage is a model constant (`core::migration`). The
//! custom FPGA scan is a sequential loop plus the kernel-IR descriptor
//! the performance models time.
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
mod util;

pub use histogram::histogram_u32_mod;
pub use reduce::reduce_min;
pub use scan::{
    exclusive_scan_fpga_custom, exclusive_scan_onedpl_style, fpga_scan_kernel_ir, ScanFlavor,
};
