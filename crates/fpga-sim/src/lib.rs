//! # fpga-sim — cycle-approximate FPGA design simulator
//!
//! The reproduction has no Stratix 10 or Agilex hardware and no Quartus
//! toolchain, so FPGA "synthesis" and "execution" are replaced by this
//! simulator. It consumes the kernel IR from `hetero-ir` and produces:
//!
//! * **cycle counts** — loop-pipeline scheduling with initiation
//!   intervals, speculated iterations, unrolling, ND-range datapaths with
//!   SIMD factors and barrier drains, local-memory arbiter stalls, pipe
//!   dataflow overlap, and compute-unit replication ([`pipeline`],
//!   [`timing`]),
//! * **resource estimates** — ALM/BRAM(M20K)/DSP usage per design, with
//!   fit checking ([`resources`]),
//! * **clock frequency estimates** — base device Fmax derated by
//!   resource pressure and memory-system congestion ([`fmax`]),
//! * **Table-3-style reports** ([`report`]).
//!
//! The mechanisms implement the behaviours the paper narrates (Sections
//! 4 and 5): pipes overlap producer/consumer kernels and cut global
//! traffic; replication divides work and multiplies resources; irregular
//! local access inserts stalling arbiters; dynamically-sized accessors
//! waste BRAM; speculated iterations waste `S × II` cycles per loop
//! entry. Calibration constants live in [`calibrate`] with the paper
//! anchor for each value.
//!
//! ## Example
//!
//! ```
//! use fpga_sim::{Design, FpgaPart, KernelInstance};
//! use hetero_ir::builder::{KernelBuilder, LoopBuilder};
//! use hetero_ir::ir::OpMix;
//!
//! let loop_ = LoopBuilder::new("main", 1_000_000)
//!     .body(OpMix { f32_ops: 4, ..OpMix::default() })
//!     .unroll(4)
//!     .build();
//! let kernel = KernelBuilder::single_task("demo").loop_(loop_).restrict().build();
//! let design = Design::new("demo").with(KernelInstance::new(kernel));
//! let part = FpgaPart::stratix10();
//! let report = fpga_sim::simulate(&design, &part);
//! assert!(report.total_seconds > 0.0);
//! assert!(report.fmax_mhz <= part.base_fmax_mhz);
//! ```

#![warn(missing_docs)]

pub mod build_report;
pub mod calibrate;
pub mod design;
pub mod dse;
pub mod fmax;
pub mod memsys;
pub mod part;
pub mod pipeline;
pub mod report;
pub mod resources;
pub mod timing;

pub use build_report::build_report;
pub use design::{Design, DataflowGroup, KernelInstance};
pub use dse::{replicate_while_beneficial, retarget, sweep, DsePoint};
pub use fmax::estimate_fmax;
pub use memsys::{plan_memory_system, MemorySystem};
pub use part::FpgaPart;
pub use report::Table3Row;
pub use resources::{FitError, ResourceUsage};
pub use timing::{simulate, GroupTiming, SimReport};
