//! # altis-core — the Altis-SYCL-rs application suite
//!
//! This crate is the reproduction's primary deliverable: the twelve
//! Level-2 Altis applications (Table 1 of the paper), each implemented
//! in several variants mirroring the paper's migration-and-optimisation
//! pipeline:
//!
//! * a **golden reference** — an independent, straightforward
//!   implementation used only for verification,
//! * the **migrated ND-Range version** — as DPCT would leave it
//!   (dynamic accessors, global-scope barriers, unroll pragmas),
//!   executed on the `hetero-rt` runtime,
//! * the **GPU-optimised SYCL version** (paper Section 3.3),
//! * **FPGA baseline and optimised designs** described in kernel IR and
//!   evaluated by `fpga-sim` (paper Sections 4 and 5),
//! * a **DPCT source model** feeding the migration-pass engine
//!   (paper Section 3.2).
//!
//! [`suite`] exposes the registry the benchmark harness iterates over.

#![warn(missing_docs)]

// The kernels deliberately use explicit index loops that mirror the CUDA
// code they reproduce (thread-id indexing, wavefront diagonals); the
// iterator forms clippy prefers would obscure that correspondence.
#![allow(clippy::needless_range_loop)]

pub mod common;
mod memo;
pub mod migration;
pub mod streaming;
pub mod suite;

pub mod cfd;
pub mod dwt2d;
pub mod fdtd2d;
pub mod kmeans;
pub mod lavamd;
pub mod mandelbrot;
pub mod nw;
pub mod particlefilter;
pub mod raytracing;
pub mod srad;
pub mod where_q;

pub use common::{AppVersion, FpgaVariant, Real};
pub use streaming::{
    drive, golden_horizon, open_stream, streamed_registry_digest, supports_streaming, AppStream,
    StreamScenario, STREAM_APPS,
};
pub use suite::{all_apps, AppEntry};
