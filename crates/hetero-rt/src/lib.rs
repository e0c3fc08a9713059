//! # hetero-rt — a SYCL-like heterogeneous runtime for Altis-SYCL-rs
//!
//! This crate is the execution substrate of the Altis-SYCL reproduction.
//! It provides the programming-model surface the paper's applications are
//! written against:
//!
//! * [`Device`] handles with capability queries (USM support, maximum
//!   work-group sizes, local-memory capacity) mirroring the paper's
//!   Table 2 devices,
//! * [`Queue`]s with in-order submission and profiling [`Event`]s,
//! * [`Buffer`]s with host/device accessors,
//! * ND-Range kernel execution with work-groups, work-items, local
//!   (shared) memory and barrier phases ([`ndrange`]),
//! * [`Pipe`]s — bounded FIFOs connecting concurrently running kernels,
//!   used by the paper's optimized KMeans design (Figure 3).
//!
//! The Single-Task kernels the paper's Section 5.3 rewrites ND-Range
//! kernels into are `hetero-ir` descriptors that `fpga-sim` times; every
//! app runs its ND-Range form here.
//!
//! ## Execution model
//!
//! Kernels execute *functionally* on host threads: work-groups are
//! distributed over a persistent, process-wide worker pool ([`pool`]) —
//! work-groups are independent in SYCL, so this parallelisation is
//! semantics-preserving — and the work-items *within* a group run as
//! explicit per-phase iteration, which is the standard technique for
//! executing barrier-synchronised SIMT code on a CPU. The pool is
//! created lazily on the first parallel launch and reused for every
//! subsequent one, so iterative applications pay thread-creation cost
//! once per process instead of once per kernel launch. Timing of the modelled accelerators is *not* done here — the
//! `device-model` and `fpga-sim` crates consume work profiles instead.
//!
//! ## Example
//!
//! ```
//! use hetero_rt::prelude::*;
//!
//! let q = Queue::new(Device::cpu());
//! let data = Buffer::from_slice(&[1.0f32, 2.0, 3.0, 4.0]);
//! let out = Buffer::<f32>::new(4);
//! let (dv, ov) = (data.view(), out.view());
//! q.parallel_for("square", Range::d1(4), move |it| {
//!     let x = dv.get(it.gid(0));
//!     ov.set(it.gid(0), x * x);
//! });
//! assert_eq!(out.to_vec(), vec![1.0, 4.0, 9.0, 16.0]);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod cancel;
pub mod device;
pub mod error;
pub mod event;
pub mod executor;
pub mod fault;
pub mod fold;
pub mod graph;
pub mod integrity;
pub mod lanes;
pub mod local;
pub mod ndrange;
pub mod pipe;
pub mod pool;
pub mod queue;
pub mod reduction;
pub mod sanitize;
pub mod stream;

pub use buffer::{Buffer, GlobalView};
pub use cancel::CancelToken;
pub use device::{Device, DeviceCaps, DeviceKind};
pub use error::{Error, Result};
pub use event::{Event, LedgerSnapshot, ProfilingInfo, ResilienceInfo, ResilienceLedger};
pub use fault::{FaultKind, FaultPlan};
pub use graph::{reads, reads_writes, writes, Access, Binding, Graph, GraphBuilder};
pub use integrity::IntegrityStats;
pub use lanes::{Lanes, LANES};
pub use local::{LocalArray, PrivateArray};
pub use ndrange::{GroupCtx, Item, NdRange, Range};
pub use pipe::Pipe;
pub use queue::{Fallback, Hardening, Queue, Redundancy, RetryPolicy};
pub use sanitize::{MemSpace, RaceKind, RaceReport};
pub use stream::{
    StreamConfig, StreamRunner, StreamStage, StreamStats, WindowReport, WindowVerdict,
};

/// Crate-wide prelude bringing the common runtime types into scope,
/// mirroring `sycl.hpp`'s role in the original code base.
pub mod prelude {
    pub use crate::buffer::{Buffer, GlobalView};
    pub use crate::cancel::CancelToken;
    pub use crate::device::{Device, DeviceCaps, DeviceKind};
    pub use crate::error::{Error, Result};
    pub use crate::event::{Event, ResilienceLedger};
    pub use crate::fault::{FaultKind, FaultPlan};
    pub use crate::graph::{reads, reads_writes, writes, Binding, Graph, GraphBuilder};
    pub use crate::lanes::{Lanes, LANES};
    pub use crate::local::{LocalArray, PrivateArray};
    pub use crate::ndrange::{GroupCtx, Item, NdRange, Range};
    pub use crate::pipe::Pipe;
    pub use crate::queue::{Fallback, Hardening, Queue, Redundancy, RetryPolicy};
    pub use crate::sanitize::{MemSpace, RaceKind, RaceReport};
    pub use crate::stream::{
        StreamConfig, StreamRunner, StreamStage, StreamStats, WindowReport, WindowVerdict,
    };
}
