//! # device-model — analytic CPU/GPU performance models
//!
//! The reproduction has no RTX 2080, A100, Max 1100, or Xeon 6128 to run
//! on, so device execution times are *modelled*: every application run
//! produces a [`WorkProfile`] (FLOPs, memory traffic, launch counts,
//! transfer volumes — analytically derived and cross-checked against the
//! executable kernels), and a roofline model with per-device parameters
//! from the paper's Table 2 turns profiles into time estimates.
//!
//! The model deliberately separates:
//!
//! * **device capability** ([`DeviceSpec`], Table 2 constants),
//! * **runtime flavour** ([`RuntimeFlavor`]) — CUDA vs. SYCL-over-CUDA
//!   launch and context overheads, the mechanism behind the paper's
//!   Figure 1 decomposition,
//! * **workload shape** ([`WorkProfile`]) — what the kernels actually do.
//!
//! Absolute times are simulator estimates; the reproduction targets the
//! relative orderings and crossovers of Figures 1, 2, and 5.

#![warn(missing_docs)]

pub mod device;
pub mod overhead;
pub mod profile;
pub mod regime;
pub mod roofline;

pub use device::{DeviceClass, DeviceSpec};
pub use overhead::RuntimeFlavor;
pub use profile::{EfficiencyHints, WorkProfile};
pub use regime::{classify, Regime, RegimeReport};
pub use roofline::{estimate, TimeBreakdown};
