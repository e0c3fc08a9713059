//! hetero-san layer 2: the static kernel verifier.
//!
//! Where the dynamic sanitizer (`hetero-rt::sanitize`) observes what a
//! kernel *did*, this module proves properties of what a kernel
//! *declares* — running structural passes over [`Kernel`] descriptors
//! before anything executes. The checks target the bug classes the
//! Altis-SYCL migration actually hit:
//!
//! * **barrier inside a divergent loop** — a work-group barrier in a
//!   loop whose iteration count is data-dependent is undefined behaviour
//!   in SYCL (work-items reach the barrier different numbers of times).
//!   The CPU runtime serialises items and would never hang; a GPU
//!   deadlocks.
//! * **local memory over device capacity** — each kernel's synthesised
//!   local-array bytes ([`Kernel::synthesized_local_bytes`], including
//!   the 16 kB worst case DPCT's dynamic accessors force) must fit every
//!   target device of the paper's Table 2, and the declared work-group
//!   size must not exceed the device maximum.
//! * **work overflow** — trip-count products and [`OpMix`] totals are
//!   folded with checked arithmetic; a descriptor whose total work
//!   overflows `u64` would silently wrap in every downstream cost model.
//! * **barriers in Single-Task kernels** and the other structural
//!   invariants of [`validate_kernel`], folded in per kernel.
//! * **misdeclared access patterns** — an array claiming
//!   [`AccessPattern::Banked`]/[`AccessPattern::Regular`] while being
//!   dynamically sized or passed as an accessor object is untrue: the
//!   developer cannot control such an array's banking, so its effective
//!   pattern is irregular (paper Section 4) and every analysis keyed on
//!   the declared pattern would be optimistic.
//!
//! The suite calls [`verify_kernels`] over every application's FPGA
//! design at startup, so a bad descriptor fails fast instead of skewing
//! schedules and rooflines.

use std::fmt;

use crate::ir::{AccessPattern, Kernel, KernelStyle, Loop};
use crate::printer::{validate_kernel, ValidationError};

/// The device-side resource limits the verifier checks kernels against —
/// the subset of the paper's Table 2 that is statically checkable. Kept
/// here (rather than importing the runtime's `DeviceCaps`) so the IR
/// crate stays dependency-free; the values mirror `hetero_rt::device`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLimits {
    /// Diagnostic device name.
    pub name: &'static str,
    /// Local (shared) memory available to one work-group, in bytes.
    pub local_mem_bytes: usize,
    /// Maximum work-group size.
    pub max_work_group: usize,
}

impl DeviceLimits {
    /// The host CPU device (256 kB modelled local memory, huge groups).
    pub fn cpu() -> Self {
        DeviceLimits { name: "cpu", local_mem_bytes: 256 * 1024, max_work_group: 8192 }
    }

    /// The paper's RTX 2080 Super (48 kB shared memory per block).
    pub fn gpu() -> Self {
        DeviceLimits { name: "gpu", local_mem_bytes: 48 * 1024, max_work_group: 1024 }
    }

    /// The paper's Stratix 10 / Agilex class FPGAs (plentiful BRAM,
    /// small work-groups).
    pub fn fpga() -> Self {
        DeviceLimits { name: "fpga", local_mem_bytes: 512 * 1024, max_work_group: 128 }
    }

    /// All Table 2 device classes — the default verification targets.
    pub fn table2() -> [DeviceLimits; 3] {
        [Self::cpu(), Self::gpu(), Self::fpga()]
    }
}

/// A defect the static verifier found in a kernel descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A barrier is executed inside a loop whose iteration count can
    /// diverge across work-items (its own or an enclosing loop's exit is
    /// data-dependent) — UB in SYCL, a deadlock on real GPUs.
    BarrierInDivergentLoop {
        /// Kernel name.
        kernel: String,
        /// The divergent loop containing the barrier.
        loop_name: String,
    },
    /// The kernel's synthesised local memory exceeds a device's capacity.
    LocalMemoryOverCapacity {
        /// Kernel name.
        kernel: String,
        /// Device whose limit is exceeded.
        device: &'static str,
        /// Bytes the kernel requires.
        bytes: usize,
        /// Bytes the device provides per work-group.
        limit: usize,
    },
    /// The declared work-group size exceeds a device's maximum.
    WorkGroupOverCapacity {
        /// Kernel name.
        kernel: String,
        /// Device whose limit is exceeded.
        device: &'static str,
        /// Declared work-group size.
        size: usize,
        /// Device maximum.
        limit: usize,
    },
    /// Trip-count products or op-mix totals overflow `u64`: downstream
    /// cost models would silently wrap.
    WorkOverflow {
        /// Kernel name.
        kernel: String,
        /// The loop at which the checked fold overflowed.
        loop_name: String,
    },
    /// A local array declares a controllable pattern (banked/regular)
    /// while being dynamically sized or passed as an accessor object —
    /// its effective pattern is irregular, so the declaration is a lie.
    MisdeclaredAccessPattern {
        /// Kernel name.
        kernel: String,
        /// Offending array.
        array: String,
    },
    /// A structural invariant from [`validate_kernel`] (zero-trip loops,
    /// Single-Task barriers, SIMD over irregular locals, ...).
    Structural {
        /// Kernel name.
        kernel: String,
        /// The underlying structural error.
        error: ValidationError,
    },
}

impl VerifyError {
    /// Stable rule identifier for allowlists ([`KnownDeviation`]).
    pub fn rule(&self) -> &'static str {
        match self {
            VerifyError::BarrierInDivergentLoop { .. } => "barrier-in-divergent-loop",
            VerifyError::LocalMemoryOverCapacity { .. } => "local-memory-over-capacity",
            VerifyError::WorkGroupOverCapacity { .. } => "work-group-over-capacity",
            VerifyError::WorkOverflow { .. } => "work-overflow",
            VerifyError::MisdeclaredAccessPattern { .. } => "misdeclared-access-pattern",
            VerifyError::Structural { .. } => "structural",
        }
    }
}

/// One explicitly tolerated verifier finding: a deviation a design is
/// *known* to carry (the paper's DPCT baseline pathologies), named by
/// app and rule so the tolerance cannot silently widen. Sweeps match
/// each finding against an allowlist of these; anything unmatched — and
/// any finding in an optimized design when `baseline_only` — fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownDeviation {
    /// Application the deviation belongs to (`"*"` = any app).
    pub app: &'static str,
    /// Verifier rule ([`VerifyError::rule`]) the deviation triggers.
    pub rule: &'static str,
    /// Tolerated only in unoptimized (DPCT baseline) designs.
    pub baseline_only: bool,
    /// Why the deviation is expected, for reports.
    pub why: &'static str,
}

impl KnownDeviation {
    /// Whether this entry covers `err` found in `app`'s design
    /// (`optimized` = the design has the optimization passes applied).
    pub fn covers(&self, app: &str, optimized: bool, err: &VerifyError) -> bool {
        (self.app == "*" || self.app == app)
            && self.rule == err.rule()
            && (!optimized || !self.baseline_only)
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BarrierInDivergentLoop { kernel, loop_name } => write!(
                f,
                "kernel '{kernel}': barrier inside divergent loop '{loop_name}' \
                 (data-dependent trip count — UB under SYCL)"
            ),
            VerifyError::LocalMemoryOverCapacity { kernel, device, bytes, limit } => write!(
                f,
                "kernel '{kernel}': {bytes} B of local memory exceeds the \
                 {limit} B available on {device}"
            ),
            VerifyError::WorkGroupOverCapacity { kernel, device, size, limit } => write!(
                f,
                "kernel '{kernel}': work-group size {size} exceeds the \
                 maximum {limit} on {device}"
            ),
            VerifyError::WorkOverflow { kernel, loop_name } => write!(
                f,
                "kernel '{kernel}': total work overflows u64 at loop '{loop_name}'"
            ),
            VerifyError::MisdeclaredAccessPattern { kernel, array } => write!(
                f,
                "kernel '{kernel}': local array '{array}' declares a banked/regular \
                 pattern but is dynamic or an accessor object (effectively irregular)"
            ),
            VerifyError::Structural { kernel, error } => {
                write!(f, "kernel '{kernel}': {error}")
            }
        }
    }
}

/// Walk the nest flagging barriers under any data-dependent exit, and
/// fold trip/op totals with checked arithmetic.
fn verify_loop(
    kernel: &str,
    l: &Loop,
    divergent: bool,
    outer_trips: u64,
    errors: &mut Vec<VerifyError>,
) {
    let divergent = divergent || l.data_dependent_exit;
    if divergent && l.barriers > 0 {
        errors.push(VerifyError::BarrierInDivergentLoop {
            kernel: kernel.to_string(),
            loop_name: l.name.clone(),
        });
    }
    // Iterations this loop contributes across the whole nest entry, and
    // the body work it implies. `u64::MAX` trip counts model unbounded
    // streaming loops; any wrap here poisons every cost model.
    let unroll = u64::from(l.attrs.unroll.max(1));
    let total_trips = outer_trips
        .checked_mul(l.trip_count)
        .filter(|t| {
            let per_iter = l
                .body
                .flops()
                .checked_add(l.body.global_bytes())
                .and_then(|w| w.checked_add(l.body.local_accesses()))
                .and_then(|w| w.checked_mul(unroll));
            per_iter.is_some_and(|w| t.checked_mul(w.max(1)).is_some())
        })
        .unwrap_or_else(|| {
            errors.push(VerifyError::WorkOverflow {
                kernel: kernel.to_string(),
                loop_name: l.name.clone(),
            });
            // Saturate so children report against their own names only
            // if they overflow by themselves.
            1
        });
    for c in &l.children {
        verify_loop(kernel, c, divergent, total_trips, errors);
    }
}

/// Run every static pass over one kernel descriptor against a set of
/// target devices, returning all defects found (empty = verified).
pub fn verify_kernel(k: &Kernel, devices: &[DeviceLimits]) -> Vec<VerifyError> {
    let mut errors: Vec<VerifyError> = validate_kernel(k)
        .into_iter()
        .map(|error| VerifyError::Structural { kernel: k.name.clone(), error })
        .collect();

    let bytes = k.synthesized_local_bytes();
    for d in devices {
        if bytes > d.local_mem_bytes {
            errors.push(VerifyError::LocalMemoryOverCapacity {
                kernel: k.name.clone(),
                device: d.name,
                bytes,
                limit: d.local_mem_bytes,
            });
        }
        if let KernelStyle::NdRange { work_group_size, .. } = k.style {
            if work_group_size > d.max_work_group {
                errors.push(VerifyError::WorkGroupOverCapacity {
                    kernel: k.name.clone(),
                    device: d.name,
                    size: work_group_size,
                    limit: d.max_work_group,
                });
            }
        }
    }

    for a in &k.local_arrays {
        let declared_controllable =
            matches!(a.pattern, AccessPattern::Banked | AccessPattern::Regular);
        if declared_controllable && (a.len.is_none() || a.passed_as_accessor_object) {
            errors.push(VerifyError::MisdeclaredAccessPattern {
                kernel: k.name.clone(),
                array: a.name.clone(),
            });
        }
    }

    for l in &k.loops {
        verify_loop(&k.name, l, false, 1, &mut errors);
    }
    errors
}

/// Verify a whole design (e.g. one application's FPGA kernels) against
/// the Table 2 devices, failing on the first defective kernel set.
pub fn verify_kernels<'a, I>(kernels: I) -> Result<(), Vec<VerifyError>>
where
    I: IntoIterator<Item = &'a Kernel>,
{
    let devices = DeviceLimits::table2();
    let mut errors = Vec::new();
    for k in kernels {
        errors.extend(verify_kernel(k, &devices));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{KernelBuilder, LoopBuilder};
    use crate::ir::{OpMix, Scalar};

    #[test]
    fn clean_kernel_verifies_against_all_devices() {
        let k = KernelBuilder::nd_range("clean", 128)
            .loop_(
                LoopBuilder::new("l", 1024)
                    .body(OpMix { f32_ops: 4, global_read_bytes: 16, ..OpMix::default() })
                    .barriers(1)
                    .build(),
            )
            .local_array("tile", Scalar::F32, 256, AccessPattern::Banked)
            .build();
        assert!(verify_kernels([&k]).is_ok());
    }

    #[test]
    fn barrier_inside_divergent_loop_is_rejected() {
        // A barrier directly in an escape-style loop...
        let k = KernelBuilder::nd_range("mandel", 64)
            .loop_(LoopBuilder::new("escape", 1000).data_dependent_exit().barriers(1).build())
            .build();
        let errs = verify_kernel(&k, &DeviceLimits::table2());
        assert_eq!(
            errs,
            vec![VerifyError::BarrierInDivergentLoop {
                kernel: "mandel".into(),
                loop_name: "escape".into(),
            }]
        );

        // ...and one inherited through an enclosing divergent loop.
        let inner = LoopBuilder::new("inner", 8).barriers(2).build();
        let k = KernelBuilder::nd_range("nested", 64)
            .loop_(LoopBuilder::new("outer", 100).data_dependent_exit().child(inner).build())
            .build();
        let errs = verify_kernel(&k, &DeviceLimits::table2());
        assert!(errs.iter().any(|e| matches!(
            e,
            VerifyError::BarrierInDivergentLoop { loop_name, .. } if loop_name == "inner"
        )));

        // A barrier in a *counted* loop is fine.
        let k = KernelBuilder::nd_range("counted", 64)
            .loop_(LoopBuilder::new("steps", 100).barriers(1).build())
            .build();
        assert!(verify_kernel(&k, &DeviceLimits::table2()).is_empty());
    }

    #[test]
    fn local_memory_is_checked_per_device() {
        // 64 kB of F32 tile: fits CPU (256 kB) and FPGA (512 kB), not
        // the GPU's 48 kB shared memory.
        let k = KernelBuilder::nd_range("big_tile", 64)
            .local_array("tile", Scalar::F32, 16 * 1024, AccessPattern::Banked)
            .build();
        let errs = verify_kernel(&k, &DeviceLimits::table2());
        assert_eq!(
            errs,
            vec![VerifyError::LocalMemoryOverCapacity {
                kernel: "big_tile".into(),
                device: "gpu",
                bytes: 64 * 1024,
                limit: 48 * 1024,
            }]
        );
    }

    #[test]
    fn work_group_size_is_checked_per_device() {
        // 512-item groups exceed the FPGA's 128 maximum only.
        let k = KernelBuilder::nd_range("wide", 512).build();
        let errs = verify_kernel(&k, &DeviceLimits::table2());
        assert_eq!(
            errs,
            vec![VerifyError::WorkGroupOverCapacity {
                kernel: "wide".into(),
                device: "fpga",
                size: 512,
                limit: 128,
            }]
        );
        // Single-Task kernels have no work-group to check.
        let st = KernelBuilder::single_task("st").build();
        assert!(verify_kernel(&st, &DeviceLimits::table2()).is_empty());
    }

    #[test]
    fn overflowing_work_totals_are_rejected() {
        let inner = LoopBuilder::new("inner", u64::MAX / 2)
            .body(OpMix { f32_ops: 8, ..OpMix::default() })
            .build();
        let k = KernelBuilder::single_task("huge")
            .loop_(LoopBuilder::new("outer", u64::MAX / 2).child(inner).build())
            .build();
        let errs = verify_kernel(&k, &DeviceLimits::table2());
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::WorkOverflow { kernel, .. } if kernel == "huge")));
    }

    #[test]
    fn structural_errors_are_folded_in() {
        let k = KernelBuilder::single_task("bad")
            .loop_(LoopBuilder::new("dead", 0).build())
            .barriers(1)
            .build();
        let errs = verify_kernel(&k, &DeviceLimits::table2());
        assert!(errs.iter().any(|e| matches!(
            e,
            VerifyError::Structural { error: ValidationError::BarrierInSingleTask, .. }
        )));
        assert!(errs.iter().any(|e| matches!(
            e,
            VerifyError::Structural { error: ValidationError::ZeroTripLoop { .. }, .. }
        )));
    }

    #[test]
    fn misdeclared_access_patterns_are_rejected() {
        // A dynamic accessor claiming to be banked is effectively
        // irregular (paper Section 4) — the declaration must say so.
        let k = KernelBuilder::nd_range("srad_like", 64)
            .dynamic_local_array("sh", Scalar::F32, AccessPattern::Banked)
            .build();
        let errs = verify_kernel(&k, &DeviceLimits::table2());
        assert_eq!(
            errs,
            vec![VerifyError::MisdeclaredAccessPattern {
                kernel: "srad_like".into(),
                array: "sh".into(),
            }]
        );
        // Declaring it irregular is honest and accepted.
        let k = KernelBuilder::nd_range("honest", 64)
            .dynamic_local_array("sh", Scalar::F32, AccessPattern::Irregular)
            .build();
        assert!(verify_kernel(&k, &DeviceLimits::table2()).is_empty());
    }

    #[test]
    fn error_messages_name_the_offender() {
        let e = VerifyError::BarrierInDivergentLoop {
            kernel: "k".into(),
            loop_name: "escape".into(),
        };
        assert!(e.to_string().contains("escape"));
        let e = VerifyError::LocalMemoryOverCapacity {
            kernel: "k".into(),
            device: "gpu",
            bytes: 1,
            limit: 2,
        };
        assert!(e.to_string().contains("gpu"));
        let e = VerifyError::Structural {
            kernel: "k".into(),
            error: ValidationError::ZeroWorkGroup,
        };
        assert!(e.to_string().contains("zero"));
    }

    #[test]
    fn known_deviation_covers_by_app_rule_and_optimization() {
        let d = KnownDeviation {
            app: "SRAD",
            rule: "work-group-over-capacity",
            baseline_only: true,
            why: "DPCT baseline keeps the CUDA block size",
        };
        let e = VerifyError::WorkGroupOverCapacity {
            kernel: "k".into(),
            device: "fpga",
            size: 256,
            limit: 128,
        };
        assert!(d.covers("SRAD", false, &e));
        assert!(!d.covers("SRAD", true, &e)); // optimized designs must be clean
        assert!(!d.covers("CFD", false, &e));
        let other = VerifyError::WorkOverflow { kernel: "k".into(), loop_name: "l".into() };
        assert!(!d.covers("SRAD", false, &other));
        let any = KnownDeviation { app: "*", ..d };
        assert!(any.covers("CFD", false, &e));
    }
}
