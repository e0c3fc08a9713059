//! Events and profiling.
//!
//! The paper spends real effort on time measurement: DPCT migrates CUDA
//! events to `std::chrono` calls, which also measure kernel-invocation
//! overhead; the authors convert those back to SYCL events where possible
//! (Section 3.2.1). We reproduce both views: an [`Event`] records the
//! *submit*, *start*, and *end* timestamps of a launch, so callers can
//! take either the kernel time (start→end, the SYCL-event view) or the
//! whole-invocation time (submit→end, the `std::chrono` view).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Profiling timestamps of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct ProfilingInfo {
    /// When the launch was submitted to the queue.
    pub submitted: Instant,
    /// When the kernel actually began executing.
    pub started: Instant,
    /// When the kernel finished.
    pub ended: Instant,
    /// Time spent handing the launch to the persistent worker pool
    /// (publishing the job and waking workers) before the submitting
    /// thread began executing work-groups itself. Zero for sequential
    /// launches and for submissions that bypass the pool.
    pub dispatch: Duration,
}

impl ProfilingInfo {
    /// Kernel execution time (the SYCL-event / CUDA-event view). This
    /// window still contains the pool dispatch; subtract it (see
    /// [`ProfilingInfo::compute_time`]) for pure group execution.
    pub(crate) fn kernel_time(&self) -> Duration {
        self.ended.duration_since(self.started)
    }

    /// Launch overhead alone (submit→start).
    pub fn overhead(&self) -> Duration {
        self.started.duration_since(self.submitted)
    }

    /// Kernel time with the pool-dispatch overhead removed — the closest
    /// analogue of what a GPU timestamp pair would measure.
    pub fn compute_time(&self) -> Duration {
        self.kernel_time().saturating_sub(self.dispatch)
    }
}

/// Resilience record of one launch: what the retry/fallback/redundancy
/// machinery in [`crate::queue`] did to get the submission to complete.
/// All-quiet launches read `{ attempts: 1, faults_absorbed: 0,
/// detections_absorbed: 0, fallback_device: None, replicas: 1,
/// divergences_corrected: 0 }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceInfo {
    /// Submission attempts made (≥ 1; > 1 means transient faults or
    /// detected corruption were retried).
    pub attempts: u32,
    /// Transient faults absorbed by [`crate::queue::RetryPolicy`] before
    /// the launch succeeded.
    pub faults_absorbed: u32,
    /// Of `faults_absorbed`, the corruptions the integrity entry check
    /// detected.
    pub detections_absorbed: u32,
    /// Device name the launch was re-run on when the primary device
    /// rejected it (see [`crate::queue::Fallback`]); `None` when the
    /// primary device executed it.
    pub fallback_device: Option<String>,
    /// Replica runs executed under [`crate::queue::Redundancy`] (1 for
    /// single execution; ≥ 2 when the launch was voted on).
    pub replicas: u32,
    /// Divergent minority digests outvoted by the replica vote.
    pub divergences_corrected: u32,
}

impl Default for ResilienceInfo {
    fn default() -> Self {
        ResilienceInfo {
            attempts: 1,
            faults_absorbed: 0,
            detections_absorbed: 0,
            fallback_device: None,
            replicas: 1,
            divergences_corrected: 0,
        }
    }
}

/// Accumulating resilience ledger: per-launch [`ResilienceInfo`] summed
/// across every launch on the queues it is attached to
/// ([`crate::queue::Queue::with_resilience_ledger`]). The serving layer
/// attaches one ledger per tenant, so retries, absorbed faults, replica
/// votes and fallbacks are accounted to the tenant whose job caused
/// them — the per-tenant accounting the multi-tenant scheduler bills
/// and quarantines on. All counters are relaxed atomics; a snapshot is
/// not a consistent cut across counters, which is fine for accounting.
#[derive(Debug, Default)]
pub struct ResilienceLedger {
    launches: AtomicU64,
    attempts: AtomicU64,
    faults_absorbed: AtomicU64,
    detections_absorbed: AtomicU64,
    replicas: AtomicU64,
    divergences_corrected: AtomicU64,
    fallbacks: AtomicU64,
    errors: AtomicU64,
    canceled: AtomicU64,
}

/// Plain-value snapshot of a [`ResilienceLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Launches accounted (successful or failed).
    pub launches: u64,
    /// Total submission attempts (≥ `launches`).
    pub attempts: u64,
    /// Transient faults / detected corruptions absorbed by retries.
    pub faults_absorbed: u64,
    /// Of `faults_absorbed`, detected corruptions.
    pub detections_absorbed: u64,
    /// Replica runs executed under redundancy.
    pub replicas: u64,
    /// Divergent replica digests outvoted.
    pub divergences_corrected: u64,
    /// Launches that completed on the CPU fallback device.
    pub fallbacks: u64,
    /// Launches that ended in a typed error (cancellations included).
    pub errors: u64,
    /// Launches that ended in [`crate::error::Error::Canceled`].
    pub canceled: u64,
}

impl ResilienceLedger {
    /// Fresh all-zero ledger.
    pub fn new() -> Self {
        ResilienceLedger::default()
    }

    /// Account one completed launch's [`ResilienceInfo`].
    pub fn record(&self, info: &ResilienceInfo) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.attempts.fetch_add(u64::from(info.attempts), Ordering::Relaxed);
        self.faults_absorbed
            .fetch_add(u64::from(info.faults_absorbed), Ordering::Relaxed);
        self.detections_absorbed
            .fetch_add(u64::from(info.detections_absorbed), Ordering::Relaxed);
        self.replicas.fetch_add(u64::from(info.replicas), Ordering::Relaxed);
        self.divergences_corrected
            .fetch_add(u64::from(info.divergences_corrected), Ordering::Relaxed);
        if info.fallback_device.is_some() {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account one launch that failed with a typed error.
    pub fn record_error(&self, e: &crate::error::Error) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        if matches!(e, crate::error::Error::Canceled { .. }) {
            self.canceled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account `launches` fast-path graph-replay launches (one attempt
    /// each, no hardening active by fast-path eligibility).
    pub fn record_replay(&self, launches: u64) {
        self.launches.fetch_add(launches, Ordering::Relaxed);
        self.attempts.fetch_add(launches, Ordering::Relaxed);
        self.replicas.fetch_add(launches, Ordering::Relaxed);
    }

    /// Add another ledger's counts (a job's own ledger, folded into its
    /// tenant's once the job ends).
    pub fn absorb(&self, s: &LedgerSnapshot) {
        let add = |c: &AtomicU64, n: u64| c.fetch_add(n, Ordering::Relaxed);
        add(&self.launches, s.launches);
        add(&self.attempts, s.attempts);
        add(&self.faults_absorbed, s.faults_absorbed);
        add(&self.detections_absorbed, s.detections_absorbed);
        add(&self.replicas, s.replicas);
        add(&self.divergences_corrected, s.divergences_corrected);
        add(&self.fallbacks, s.fallbacks);
        add(&self.errors, s.errors);
        add(&self.canceled, s.canceled);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            launches: self.launches.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            faults_absorbed: self.faults_absorbed.load(Ordering::Relaxed),
            detections_absorbed: self.detections_absorbed.load(Ordering::Relaxed),
            replicas: self.replicas.load(Ordering::Relaxed),
            divergences_corrected: self.divergences_corrected.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            canceled: self.canceled.load(Ordering::Relaxed),
        }
    }
}

/// Handle returned by every queue submission. Our queues are in-order and
/// synchronous, so the event is complete upon return; `wait()` exists for
/// API fidelity with the SYCL code it reproduces.
#[derive(Debug, Clone)]
pub struct Event {
    profiling: Option<ProfilingInfo>,
    resilience: ResilienceInfo,
    name: &'static str,
}

impl Event {
    pub(crate) fn new(name: &'static str, profiling: Option<ProfilingInfo>) -> Self {
        Event { profiling, resilience: ResilienceInfo::default(), name }
    }

    pub(crate) fn with_resilience(mut self, resilience: ResilienceInfo) -> Self {
        self.resilience = resilience;
        self
    }

    /// Block until the work completes. (No-op: submissions are
    /// synchronous; kept so application code reads like the SYCL source.)
    pub fn wait(&self) {}

    /// Kernel name the submission was given.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Profiling timestamps; `None` if the queue was created without
    /// profiling enabled — exactly the trap the paper hits when DPCT's
    /// device-selection helpers forget to enable queue profiling.
    pub fn profiling(&self) -> Option<&ProfilingInfo> {
        self.profiling.as_ref()
    }

    /// What the retry/fallback machinery did to complete this launch.
    pub fn resilience(&self) -> &ResilienceInfo {
        &self.resilience
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_views_are_ordered() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(20);
        let t2 = t1 + Duration::from_micros(100);
        let p = ProfilingInfo {
            submitted: t0,
            started: t1,
            ended: t2,
            dispatch: Duration::from_micros(5),
        };
        assert_eq!(p.kernel_time(), Duration::from_micros(100));
        assert_eq!(p.overhead(), Duration::from_micros(20));
        assert_eq!(p.compute_time(), Duration::from_micros(95));
    }

    #[test]
    fn compute_time_saturates_when_dispatch_dominates() {
        let t0 = Instant::now();
        let p = ProfilingInfo {
            submitted: t0,
            started: t0,
            ended: t0 + Duration::from_micros(1),
            dispatch: Duration::from_micros(50),
        };
        assert_eq!(p.compute_time(), Duration::ZERO);
    }

    #[test]
    fn event_without_profiling_yields_none() {
        let e = Event::new("k", None);
        assert!(e.profiling().is_none());
        assert_eq!(e.name(), "k");
    }

    #[test]
    fn resilience_defaults_to_quiet_launch() {
        let e = Event::new("k", None);
        assert_eq!(
            *e.resilience(),
            ResilienceInfo {
                attempts: 1,
                faults_absorbed: 0,
                detections_absorbed: 0,
                fallback_device: None,
                replicas: 1,
                divergences_corrected: 0,
            }
        );
        let e = e.with_resilience(ResilienceInfo {
            attempts: 3,
            faults_absorbed: 2,
            detections_absorbed: 1,
            fallback_device: Some("cpu".into()),
            replicas: 2,
            divergences_corrected: 1,
        });
        assert_eq!(e.resilience().attempts, 3);
        assert_eq!(e.resilience().fallback_device.as_deref(), Some("cpu"));
        assert_eq!(e.resilience().replicas, 2);
        assert_eq!(e.resilience().divergences_corrected, 1);
    }
}
