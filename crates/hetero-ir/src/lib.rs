//! # hetero-ir — kernel IR and DPCT-style migration passes
//!
//! Two related facilities live here:
//!
//! 1. **A loop-nest kernel IR** ([`ir`], [`builder`], [`analysis`]): each
//!    Altis application describes its kernels as loop nests with operation
//!    mixes, memory-access structure, and FPGA attributes (initiation
//!    interval, speculated iterations, unroll factor, SIMD width,
//!    work-group size). The `fpga-sim` crate schedules these descriptors
//!    cycle-approximately; the `device-model` crate derives roofline work
//!    profiles from them. The descriptors mirror the *executable* kernels
//!    the applications also ship (the executable kernels compute answers;
//!    the IR computes costs), and tests cross-check the two.
//!
//! 2. **A migration-pass engine** ([`dpct`]) reproducing the paper's
//!    Section 3: source-model constructs of the original CUDA code are
//!    migrated to SYCL constructs with DPCT-style diagnostics, then
//!    GPU-optimisation and FPGA-refactoring passes apply the paper's
//!    transformations (pow(a,2) → a·a, unroll removal, barrier-scope
//!    narrowing, accessor → local-pointer, work-group attribute
//!    insertion, USM removal, …).

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod dpct;
pub mod ir;
pub mod printer;
pub mod verify;

pub use analysis::KernelCost;
pub use builder::{KernelBuilder, LoopBuilder};
pub use printer::{print_kernel, validate_kernel, ValidationError};
pub use verify::{verify_kernel, verify_kernels, DeviceLimits, KnownDeviation, VerifyError};
pub use ir::{
    AccessPattern, Kernel, KernelStyle, LocalArrayDecl, Loop, LoopAttrs, OpMix, Scalar,
};
