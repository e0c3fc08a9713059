//! Runtime error types.
//!
//! These mirror the failure modes the paper runs into while porting Altis
//! to FPGAs: work-group sizes larger than the device limit cause runtime
//! errors (Section 4, "Default work-group sizes").

use std::fmt;

/// Errors reported by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A kernel was launched with a work-group size larger than the
    /// device's limit.
    WorkGroupTooLarge {
        /// Requested work-group size (product over dimensions).
        requested: usize,
        /// Device limit that was exceeded.
        limit: usize,
    },
    /// The global range is not divisible by the local range in some
    /// dimension, which SYCL's `nd_range` rejects.
    IndivisibleRange {
        /// Global range in the offending dimension.
        global: usize,
        /// Local range in the offending dimension.
        local: usize,
        /// Offending dimension index (0..3).
        dim: usize,
    },
    /// Requested local (shared) memory exceeds the device capacity.
    LocalMemExceeded {
        /// Bytes requested by the kernel.
        requested: usize,
        /// Device local-memory capacity in bytes.
        limit: usize,
    },
    /// An accessor requested a range that lies outside the buffer.
    AccessOutOfBounds {
        /// Requested element offset.
        offset: usize,
        /// Requested element count.
        len: usize,
        /// Buffer element count.
        buffer_len: usize,
    },
    /// A kernel panicked while executing a work-group. The executor
    /// contains the panic (`catch_unwind` around each group), cancels the
    /// launch's remaining groups, and surfaces this typed error instead of
    /// aborting the process; the worker pool stays usable afterwards.
    KernelPanicked {
        /// Kernel name the submission was given.
        kernel: &'static str,
        /// Linear id of the work-group that panicked (first observed).
        group: usize,
        /// The panic message, when the payload carried one.
        message: String,
    },
    /// A kernel submission failed transiently before any work-group ran
    /// (injected by the fault layer; on real stacks, a driver hiccup).
    /// Absorbed by [`crate::queue::RetryPolicy`]; reported only once the
    /// attempt budget is exhausted.
    TransientLaunchFailure {
        /// Kernel name the submission was given.
        kernel: &'static str,
        /// Submission attempts made before giving up.
        attempts: u32,
    },
    /// The dynamic race sanitizer ([`crate::sanitize`]) observed a
    /// SYCL-memory-model violation during the launch: conflicting
    /// accesses to the same element from different work-groups, from
    /// work-items of one group without a separating barrier, a read of
    /// local memory that was never written, or an access its stated
    /// bindings do not allow. Carries the first report in the launch's
    /// deterministic (object- and element-sorted) ordering; the full
    /// report list is available via
    /// [`crate::sanitize::take_last_reports`].
    DataRace {
        /// Kernel name the submission was given.
        kernel: &'static str,
        /// Buffer object id, or local-array index within the group.
        object: u64,
        /// Element index within the racing buffer / local array.
        element: usize,
        /// Conflict class.
        kind: crate::sanitize::RaceKind,
    },
    /// The integrity layer ([`crate::integrity`]) found a checksummed
    /// memory region whose contents diverged from their seal — silent
    /// data corruption detected at the entry of a launch that binds the
    /// region or at a host read-back. Never retried in place (the corrupt bytes are already
    /// at rest); the suite harness quarantines the run.
    DataCorruption {
        /// Region id (creation-order object id of the buffer).
        region: u64,
        /// Page index (multiples of `integrity::PAGE_BYTES`)
        /// where the first mismatch was found.
        page: usize,
        /// Seal epoch the contents diverged from.
        epoch: u64,
    },
    /// Redundant execution ([`crate::queue::Redundancy`]) could not reach
    /// digest agreement within the replica + retry budget: replicas kept
    /// producing divergent memory states, so no output can be trusted.
    ReplicaDivergence {
        /// Kernel name the submission was given.
        kernel: &'static str,
        /// Replica runs executed before giving up.
        runs: u32,
    },
    /// The launch was stopped by a fired [`crate::cancel::CancelToken`]
    /// (a deadline watchdog, a supervisor shutdown): the executor and
    /// retry loop poll the token at group / chunk / attempt boundaries
    /// and abandon the launch there. Remaining groups are skipped like a
    /// contained panic's, so partial writes are possible — which is why
    /// cancellation is deliberately *not* CPU-fallback eligible.
    Canceled {
        /// Kernel name the submission was given.
        kernel: &'static str,
    },
    /// A launch on an integrity queue stated no bindings, so there is no
    /// region to scope the protocol to. Refused before anything runs;
    /// never retried, never re-run elsewhere.
    UnboundLaunch {
        /// Kernel name the submission was given.
        kernel: &'static str,
    },
    /// A stream run ended ([`crate::stream::StreamRunner`]): a rollback
    /// found no checkpoint that still matches its seal, or the clean
    /// replay from one failed. The window that ended it is `Dropped`, and
    /// every later window call returns this error.
    StreamEnded {
        /// The window whose recovery failed.
        window: u64,
        /// Its failure, the seal epochs held and the recovery error.
        reason: String,
    },
    /// A blocking pipe operation timed out; in this runtime that is
    /// diagnosed as a deadlock between communicating kernels.
    PipeDeadlock {
        /// Seconds waited before giving up.
        waited_secs: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::WorkGroupTooLarge { requested, limit } => write!(
                f,
                "work-group size {requested} exceeds device/kernel limit {limit}"
            ),
            Error::IndivisibleRange { global, local, dim } => write!(
                f,
                "global range {global} not divisible by local range {local} in dim {dim}"
            ),
            Error::LocalMemExceeded { requested, limit } => write!(
                f,
                "local memory request of {requested} B exceeds device capacity {limit} B"
            ),
            // Saturating: an offset from a wrapped index overflows the sum.
            Error::AccessOutOfBounds { offset, len, buffer_len } => write!(
                f,
                "accessor range [{offset}, {}) out of bounds for buffer of length {buffer_len}",
                offset.saturating_add(*len)
            ),
            Error::KernelPanicked { kernel, group, message } => write!(
                f,
                "kernel '{kernel}' panicked in work-group {group}: {message}"
            ),
            Error::TransientLaunchFailure { kernel, attempts } => write!(
                f,
                "kernel '{kernel}' failed to launch after {attempts} attempt(s)"
            ),
            Error::DataRace { kernel, object, element, kind } => write!(
                f,
                "kernel '{kernel}': data race on object {object} element {element} ({kind})"
            ),
            Error::DataCorruption { region, page, epoch } => write!(
                f,
                "silent data corruption in region {region} page {page} (seal epoch {epoch})"
            ),
            Error::ReplicaDivergence { kernel, runs } => write!(
                f,
                "kernel '{kernel}': replica digests never converged after {runs} run(s)"
            ),
            Error::Canceled { kernel } => write!(
                f,
                "kernel '{kernel}' canceled before completion"
            ),
            Error::UnboundLaunch { kernel } => write!(
                f,
                "kernel '{kernel}' states no bindings on an integrity queue"
            ),
            Error::StreamEnded { window, reason } => {
                write!(f, "stream ended at window {window}: {reason}")
            }
            Error::PipeDeadlock { waited_secs } => write!(
                f,
                "pipe operation blocked for {waited_secs}s; kernels are deadlocked"
            ),
        }
    }
}

impl Error {
    /// Whether a launch failing with this error may safely be re-run on
    /// the CPU device (the paper's porting workflow as a runtime policy,
    /// see [`crate::queue::Fallback`]). Eligible errors are raised before
    /// the kernel produces any side effects — capability mismatches and
    /// uniform per-group resource checks — so a re-launch cannot observe
    /// partial results. [`Error::KernelPanicked`] is deliberately *not*
    /// eligible: groups may already have written global memory.
    pub fn is_cpu_fallback_eligible(&self) -> bool {
        matches!(
            self,
            Error::LocalMemExceeded { .. } | Error::WorkGroupTooLarge { .. }
        )
    }
}

impl std::error::Error for Error {}

/// Convenience result alias used throughout the runtime.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_quantities() {
        let e = Error::WorkGroupTooLarge { requested: 256, limit: 128 };
        assert!(e.to_string().contains("256"));
        assert!(e.to_string().contains("128"));

        let e = Error::IndivisibleRange { global: 100, local: 32, dim: 1 };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("dim 1"));
    }

    #[test]
    fn resilience_errors_display_their_context() {
        let e = Error::KernelPanicked {
            kernel: "srad_kernel",
            group: 17,
            message: "index out of range".into(),
        };
        let s = e.to_string();
        assert!(s.contains("srad_kernel") && s.contains("17"), "{s}");

        let e = Error::TransientLaunchFailure { kernel: "nw", attempts: 3 };
        assert!(e.to_string().contains("3 attempt"));
    }

    #[test]
    fn data_race_displays_triple_and_is_not_fallback_eligible() {
        let e = Error::DataRace {
            kernel: "racy",
            object: 3,
            element: 12,
            kind: crate::sanitize::RaceKind::WriteWrite,
        };
        let s = e.to_string();
        assert!(s.contains("racy") && s.contains("object 3") && s.contains("12"), "{s}");
        assert!(s.contains("write-write"), "{s}");
        // Groups already wrote global memory by the time a race is
        // detected, so a CPU re-run could observe partial results.
        assert!(!e.is_cpu_fallback_eligible());
    }

    #[test]
    fn fallback_eligibility_matches_pre_side_effect_errors() {
        assert!(Error::LocalMemExceeded { requested: 1, limit: 0 }.is_cpu_fallback_eligible());
        assert!(Error::WorkGroupTooLarge { requested: 256, limit: 128 }
            .is_cpu_fallback_eligible());
        assert!(!Error::KernelPanicked { kernel: "k", group: 0, message: String::new() }
            .is_cpu_fallback_eligible());
        assert!(!Error::PipeDeadlock { waited_secs: 1 }.is_cpu_fallback_eligible());
        // Corruption findings name memory that is already wrong; a CPU
        // re-run would consume the same corrupt bytes.
        assert!(!Error::DataCorruption { region: 3, page: 1, epoch: 2 }
            .is_cpu_fallback_eligible());
        assert!(!Error::ReplicaDivergence { kernel: "k", runs: 4 }.is_cpu_fallback_eligible());
        // A canceled launch may have written partially, and re-running it
        // elsewhere would defeat the deadline that canceled it.
        assert!(!Error::Canceled { kernel: "k" }.is_cpu_fallback_eligible());
        // An unbound launch on an integrity queue is refused anywhere.
        assert!(!Error::UnboundLaunch { kernel: "k" }.is_cpu_fallback_eligible());
    }

    #[test]
    fn canceled_displays_kernel_name() {
        let e = Error::Canceled { kernel: "fdtd_step" };
        let s = e.to_string();
        assert!(s.contains("fdtd_step") && s.contains("canceled"), "{s}");
    }

    #[test]
    fn sdc_errors_display_region_and_run_context() {
        let e = Error::DataCorruption { region: 12, page: 3, epoch: 7 };
        let s = e.to_string();
        assert!(s.contains("region 12") && s.contains("page 3") && s.contains("epoch 7"), "{s}");

        let e = Error::ReplicaDivergence { kernel: "nw_diag", runs: 4 };
        let s = e.to_string();
        assert!(s.contains("nw_diag") && s.contains("4 run"), "{s}");

        let s = Error::UnboundLaunch { kernel: "probe" }.to_string();
        assert!(s.contains("probe") && s.contains("no bindings"), "{s}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::PipeDeadlock { waited_secs: 5 }, Error::PipeDeadlock { waited_secs: 5 });
        assert_ne!(
            Error::PipeDeadlock { waited_secs: 1 },
            Error::PipeDeadlock { waited_secs: 5 }
        );
    }
}
