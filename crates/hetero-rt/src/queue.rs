//! Command queues.
//!
//! [`Queue`] reproduces `sycl::queue`: kernels are submitted against a
//! device and return profiling [`Event`]s. A launch is a command group
//! ([`Queue::submit`]) that states its accessors, the [`Binding`]s, and
//! then runs one of the kernel shapes in Altis-SYCL:
//!
//! * [`CommandGroup::parallel_for`] — barrier-free ND kernels (one
//!   closure per work-item), the most common migrated shape;
//! * [`CommandGroup::nd_range`] — work-group kernels with local memory
//!   and barrier phases.
//!
//! [`Queue::parallel_for`] and [`Queue::nd_range`] are SYCL 2020's queue
//! shortcuts: the same launches, stating no accessors, which an
//! integrity queue refuses. [`Queue::submit_concurrent`] launches several
//! kernels that run simultaneously and communicate through
//! [`crate::pipe::Pipe`]s, the structure of the optimized KMeans design
//! (Figure 3).

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::buffer::Buffer;
use crate::cancel::CancelToken;
use crate::device::{Device, DeviceKind};
use crate::error::{Error, Result};
use crate::event::{Event, ProfilingInfo, ResilienceInfo, ResilienceLedger};
use crate::executor::{run_groups_contained, walk, Node, Parallelism};
use crate::fault::FaultPlan;
use crate::graph::Binding;
use crate::integrity::Region;
use crate::ndrange::{GroupCtx, Item, NdRange, Range};

/// Bounded-retry policy for transient launch failures (the fault layer's
/// [`crate::fault::FaultKind::LaunchTransient`]; on real stacks, a driver
/// hiccup). Transient faults are injected *before* any work-group runs,
/// so re-submission is always side-effect free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts allowed (≥ 1; 1 means no retry).
    pub max_attempts: u32,
    /// Base backoff slept between attempts; attempt `k` (1-based) sleeps
    /// `backoff * k` — deterministic linear backoff, no jitter, so chaos
    /// runs replay identically for a given seed.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// One attempt, no retries — the SYCL queue behaviour the
    /// applications were written against.
    fn default() -> Self {
        RetryPolicy { max_attempts: 1, backoff: Duration::ZERO }
    }
}

impl RetryPolicy {
    /// The policy of the resilient and SDC [`Hardening`] tiers: three
    /// attempts with a 1 ms base backoff, so injected transients and
    /// detected corruption are absorbed.
    pub fn resilient() -> Self {
        RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) }
    }

    /// The sleep taken after failed attempt `attempt` (1-based):
    /// deterministic linear backoff `backoff * attempt`, no jitter, so a
    /// seeded chaos run replays the exact same delay sequence.
    pub(crate) fn delay_for(&self, attempt: u32) -> Duration {
        self.backoff * attempt
    }
}

/// Redundant-execution policy for launches on an integrity queue
/// ([`Hardening::integrity`]): the modular-redundancy answer to silent
/// data corruption that strikes *while* a kernel runs (or between the
/// kernel and the exit reseal), which no checksum boundary can see.
///
/// Replicas re-run the same launch from a byte-exact restore of the
/// regions it binds, **sequentially** (so schedule-dependent
/// floating-point reductions reproduce bit-exactly), and vote on a
/// digest of those regions. A divergent replica is outvoted and re-run
/// within the [`RetryPolicy`] budget; if the digests never reach a
/// 2-vote agreement the launch fails with
/// [`Error::ReplicaDivergence`] rather than returning unvalidated data.
///
/// Requires [`Hardening::integrity`]; without it the launch runs once
/// (there are no regions to restore between replicas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Redundancy {
    /// Single execution (default).
    #[default]
    None,
    /// Dual modular redundancy: two runs must agree.
    Dmr,
}

/// What to do when the primary device rejects a launch with a
/// *pre-side-effect* capability error (see
/// [`Error::is_cpu_fallback_eligible`]): the capability mismatches
/// `LocalMemExceeded` and `WorkGroupTooLarge` are raised before any
/// work-group writes global memory, so a clean re-run elsewhere cannot
/// observe partial results.
/// This is the paper's manual "if the FPGA can't, run it on the host"
/// porting workflow promoted into a runtime policy. `KernelPanicked` is
/// deliberately ineligible — groups may already have written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fallback {
    /// Surface the error to the caller (default).
    #[default]
    None,
    /// Re-run the launch on [`Device::cpu`] with fault injection
    /// disabled, recording the detour in the event's
    /// [`ResilienceInfo::fallback_device`].
    Cpu,
}

/// Everything that arms a queue, handed to it once at construction
/// ([`Queue::hardened`]) the way a SYCL queue takes its
/// `property_list`. [`Hardening::NONE`] is the plain queue
/// [`Queue::new`] builds; the named constructors are the tiers the
/// harnesses and the serving layer run.
#[derive(Debug, Clone)]
pub struct Hardening {
    /// Seeded fault injection on every launch.
    pub fault: Option<Arc<FaultPlan>>,
    /// Bounded retry of transient failures and detected corruption.
    pub retry: RetryPolicy,
    /// Capability errors re-run on the CPU.
    pub fallback: Fallback,
    /// Every launch runs under the race detector ([`crate::sanitize`]):
    /// a kernel that violates the SYCL memory model fails with
    /// [`Error::DataRace`].
    pub sanitize: bool,
    /// The integrity protocol: the regions a launch binds are verified
    /// against their page checksums at entry (corruption surfaces as
    /// [`Error::DataCorruption`]) and those it writes resealed at exit.
    /// A launch that binds nothing is refused
    /// ([`Error::UnboundLaunch`]).
    pub integrity: bool,
    /// Replicated execution with digest voting (needs `integrity`).
    pub redundancy: Redundancy,
}

impl Hardening {
    /// Nothing armed: one attempt, no plan, no checks.
    pub const NONE: Hardening = Hardening {
        fault: None,
        retry: RetryPolicy { max_attempts: 1, backoff: Duration::ZERO },
        fallback: Fallback::None,
        sanitize: false,
        integrity: false,
        redundancy: Redundancy::None,
    };

    /// The chaos tier: `plan`'s fail-stop faults under
    /// [`RetryPolicy::resilient`].
    pub fn resilient(plan: Option<Arc<FaultPlan>>) -> Self {
        Hardening { fault: plan, retry: RetryPolicy::resilient(), ..Hardening::NONE }
    }

    /// The SDC tier: `plan`'s silent faults against the integrity
    /// protocol, DMR voting and the resilient retry budget.
    pub fn sdc(plan: Option<Arc<FaultPlan>>) -> Self {
        Hardening { integrity: true, redundancy: Redundancy::Dmr, ..Hardening::resilient(plan) }
    }

    /// The sanitizer tier: the race detector and nothing else.
    pub fn sanitizer() -> Self {
        Hardening { sanitize: true, ..Hardening::NONE }
    }

    /// Whether no layer is armed that a launch must run through, so a
    /// recorded graph may replay on the fast path. A retry budget alone
    /// has nothing to absorb and does not count.
    pub fn is_disarmed(&self) -> bool {
        self.fault.is_none()
            && !self.sanitize
            && !self.integrity
            && self.redundancy == Redundancy::None
            && self.fallback == Fallback::None
    }
}

/// Count of launches currently executing on any clone of a queue, used by
/// the blocking [`Queue::wait`].
#[derive(Default)]
struct InFlight {
    count: Mutex<usize>,
    cv: Condvar,
}

/// RAII in-flight marker: decrements and notifies on drop, so a panicking
/// launch still releases waiters.
struct InFlightGuard<'a>(&'a InFlight);

impl<'a> InFlightGuard<'a> {
    fn enter(inflight: &'a InFlight) -> Self {
        *inflight.count.lock().unwrap() += 1;
        InFlightGuard(inflight)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut c = self.0.count.lock().unwrap();
        *c -= 1;
        if *c == 0 {
            self.0.cv.notify_all();
        }
    }
}

/// An in-order command queue bound to a device.
#[derive(Clone)]
pub struct Queue {
    device: Device,
    profiling: bool,
    parallelism: Parallelism,
    hardening: Hardening,
    cancel: Option<CancelToken>,
    ledger: Option<Arc<ResilienceLedger>>,
    inflight: Arc<InFlight>,
}

impl Queue {
    /// Create a plain queue on `device` with profiling disabled — the
    /// state DPCT's helper headers leave you in, which the paper calls
    /// out as preventing kernel-time measurement. Equal to
    /// `Queue::hardened(device, Hardening::NONE)`.
    pub fn new(device: Device) -> Self {
        Queue::hardened(device, Hardening::NONE)
    }

    /// Create a queue on `device` armed as `hardening` says, for its
    /// whole life.
    pub fn hardened(device: Device, hardening: Hardening) -> Self {
        Queue {
            device,
            profiling: false,
            parallelism: Parallelism::Auto,
            hardening,
            cancel: None,
            ledger: None,
            inflight: Arc::new(InFlight::default()),
        }
    }

    /// Create a queue with profiling enabled (the
    /// `property::queue::enable_profiling` equivalent).
    pub fn with_profiling(device: Device) -> Self {
        Queue { profiling: true, ..Queue::new(device) }
    }

    /// Restrict the executor's host parallelism (useful for deterministic
    /// tests).
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// [`Hardening::retry`], set on a built queue.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.hardening.retry = retry;
        self
    }

    /// [`Hardening::integrity`], set on a built queue.
    pub fn with_integrity(mut self, on: bool) -> Self {
        self.hardening.integrity = on;
        self
    }

    /// [`Hardening::redundancy`], set on a built queue.
    pub fn with_redundancy(mut self, redundancy: Redundancy) -> Self {
        self.hardening.redundancy = redundancy;
        self
    }

    /// What the queue was armed with.
    pub fn hardening(&self) -> &Hardening {
        &self.hardening
    }

    /// Attach (or, with `None`, detach) a cancellation token. Every
    /// launch on this queue (and clones made *after* this call) polls
    /// the token before each work-group — a fast graph replay's too —
    /// and at each retry attempt and backoff sleep, and fails fast with
    /// [`Error::Canceled`] once it fires. The serving layer attaches one
    /// token per job so a deadline watchdog can contain overruns through
    /// the typed-error path.
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Attach (or, with `None`, detach) an accumulating resilience
    /// ledger: every launch's [`ResilienceInfo`] — and every typed
    /// launch failure — is summed into it. The serving layer attaches
    /// one ledger per tenant, so retries, absorbed faults, replica votes
    /// and fallbacks are accounted to the tenant that caused them.
    pub fn with_resilience_ledger(mut self, ledger: Option<Arc<ResilienceLedger>>) -> Self {
        self.ledger = ledger;
        self
    }

    /// The resilience ledger launches on this queue account to, if any.
    pub fn resilience_ledger(&self) -> Option<&Arc<ResilienceLedger>> {
        self.ledger.as_ref()
    }

    /// The queue's device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    fn finish_event(
        &self,
        name: &'static str,
        submitted: Instant,
        started: Instant,
        dispatch: Duration,
        resilience: ResilienceInfo,
    ) -> Event {
        let profiling = self.profiling.then(|| ProfilingInfo {
            submitted,
            started,
            ended: Instant::now(),
            dispatch,
        });
        Event::new(name, profiling).with_resilience(resilience)
    }

    fn check_group_size(device: &Device, nd: &NdRange) -> Result<()> {
        let limit = device.caps().max_work_group_size;
        let size = nd.group_size();
        if size > limit {
            return Err(Error::WorkGroupTooLarge { requested: size, limit });
        }
        Ok(())
    }

    /// One contained execution of `kernel` over `nd` on `device`:
    /// group-size check against that device's caps, then the walk's
    /// one-node plan ([`run_groups_contained`]).
    #[allow(clippy::too_many_arguments)]
    fn run_on<K>(
        &self,
        device: &Device,
        plan: Option<&FaultPlan>,
        name: &'static str,
        nd: NdRange,
        bindings: &[Binding],
        par: Parallelism,
        kernel: &K,
    ) -> Result<Duration>
    where
        K: Fn(&GroupCtx) + Sync,
    {
        Self::check_group_size(device, &nd)?;
        run_groups_contained(
            nd,
            par,
            device.caps().local_mem_bytes,
            name,
            plan,
            self.hardening.sanitize.then_some(bindings),
            self.cancel.as_ref(),
            kernel,
        )
    }

    /// The fast replay of a recorded plan: one in-flight entry, like a
    /// launch's, and one walk on the queue's parallelism, polling its
    /// token, with no fault plan and no sanitizer.
    pub(crate) fn run_plan<K>(&self, nodes: &[Node<K>], phases: &[(usize, usize)]) -> Result<()>
    where
        K: Fn(&GroupCtx) + Sync,
    {
        let _guard = InFlightGuard::enter(&self.inflight);
        let local_mem = self.device.caps().local_mem_bytes;
        walk(nodes, phases, self.parallelism, local_mem, None, None, self.cancel.as_ref())?;
        Ok(())
    }

    /// Sleep one retry backoff. With a cancellation token attached the
    /// sleep runs in short slices so a fired deadline cuts the backoff
    /// short; the retry-loop head then surfaces [`Error::Canceled`].
    /// Either way the caller's in-flight guard stays held for the whole
    /// cycle, so [`Queue::wait`] blocks across backoffs.
    fn backoff_sleep(&self, attempt: u32) {
        let delay = self.hardening.retry.delay_for(attempt);
        match &self.cancel {
            None => std::thread::sleep(delay),
            Some(t) => {
                let slice = Duration::from_millis(1);
                let mut left = delay;
                while left > Duration::ZERO && !t.is_canceled() {
                    let d = left.min(slice);
                    std::thread::sleep(d);
                    left = left.saturating_sub(d);
                }
            }
        }
    }

    /// Copy `buf` back to the host for consumption, like a host accessor
    /// read. On an integrity queue the buffer's own region is verified
    /// first: a flip or stuck page that landed after its last seal comes
    /// back as the typed [`Error::DataCorruption`] (the region resealed,
    /// so it is reported once) instead of reaching host state. No other
    /// region is read, so the check runs whatever else is in flight. On
    /// any other queue this is [`Buffer::to_vec`].
    pub fn read_back<T>(&self, buf: &Buffer<T>) -> Result<Vec<T>>
    where
        T: Copy + Default + Send + 'static,
    {
        if self.hardening.integrity {
            buf.to_vec_verified()
        } else {
            Ok(buf.to_vec())
        }
    }

    /// Redundant execution with digest voting: run the launch twice
    /// (restoring the bound `regions` between runs), each replica
    /// strictly sequential so schedule-dependent results reproduce
    /// bit-exactly, and accept once the latest digest of `regions` agrees
    /// with at least one earlier run. Divergent replicas (e.g. an
    /// exit-window bit flip) are outvoted by extra runs within the retry
    /// budget; exhaustion restores the pre-launch regions and fails with
    /// [`Error::ReplicaDivergence`].
    ///
    /// Returns `(dispatch, runs, corrected)` where `corrected` counts
    /// distinct minority digests that were outvoted.
    fn run_redundant<K>(
        &self,
        plan: Option<&FaultPlan>,
        name: &'static str,
        nd: NdRange,
        bindings: &[Binding],
        regions: &[&Region],
        kernel: &K,
    ) -> Result<(Duration, u32, u32)>
    where
        K: Fn(&GroupCtx) + Sync,
    {
        // Two runs, plus one per retry the budget allows.
        let budget = self.hardening.retry.max_attempts.max(1) + 1;
        let snap = crate::integrity::snapshot(regions);
        let mut digests: Vec<u64> = Vec::new();
        loop {
            if !digests.is_empty() {
                crate::integrity::restore(&snap);
            }
            let sequential = Parallelism::Sequential;
            let run = self.run_on(&self.device, plan, name, nd, bindings, sequential, kernel);
            let dispatch = match run {
                Ok(dispatch) => dispatch,
                Err(e) => {
                    // A failed replica may have written partially; put the
                    // pre-launch image back before surfacing the error.
                    crate::integrity::restore(&snap);
                    return Err(e);
                }
            };
            // The exit-window flip lands between kernel and digest: the
            // one corruption case a boundary checksum can never catch,
            // and exactly what the vote is for.
            if let Some(p) = plan {
                crate::integrity::inject_exit(p, regions);
            }
            let digest = crate::integrity::digest(regions);
            digests.push(digest);
            let runs = digests.len() as u32;
            let agree = digests.iter().filter(|&&d| d == digest).count() as u32;
            if agree >= 2 {
                // Memory currently holds the run whose digest won.
                let mut distinct: Vec<u64> = Vec::new();
                for &d in &digests {
                    if !distinct.contains(&d) {
                        distinct.push(d);
                    }
                }
                let corrected = (distinct.len() - 1) as u32;
                return Ok((dispatch, runs, corrected));
            }
            if runs >= budget {
                crate::integrity::restore(&snap);
                return Err(Error::ReplicaDivergence { kernel: name, runs });
            }
        }
    }

    /// The central hardened launch path shared by every group-shaped
    /// submission, direct or a recorded node, with the launch's
    /// `bindings`. In order:
    ///
    /// 1. integrity-protocol entry (when [`Hardening::integrity`] is on):
    ///    a launch that binds nothing is refused with
    ///    [`Error::UnboundLaunch`]; otherwise seeded SDC injection into
    ///    the bound regions, then page-checksum verification of each —
    ///    corruption surfaces as [`Error::DataCorruption`] and is
    ///    absorbed by the retry budget (detection reseals the offender,
    ///    so the retry proceeds on detected-and-accepted contents);
    /// 2. transient-fault injection with bounded deterministic retry
    ///    ([`RetryPolicy`]) — injected before any group runs, so a retry
    ///    never replays side effects;
    /// 3. contained execution on the primary device (kernel panics become
    ///    typed errors, the pool survives), redundantly with digest
    ///    voting over the bound regions under [`Redundancy::Dmr`];
    /// 4. on a fallback-eligible capability error, one clean re-run on
    ///    the CPU device with injection disabled ([`Fallback::Cpu`]);
    /// 5. integrity-protocol exit: reseal the regions bound for writing,
    ///    then land the plan's exit-window flip and stuck-at page in the
    ///    bound regions so the *next* entry that binds them must detect
    ///    them.
    ///
    /// The returned [`Instant`] is the event's `started` stamp: taken
    /// when steps 1–2 are behind the launch (validation, the entry walk,
    /// absorbed transients and their back-off), immediately before the
    /// execution that produced the result.
    pub(crate) fn launch_groups<K>(
        &self,
        name: &'static str,
        nd: NdRange,
        bindings: &[Binding],
        kernel: &K,
    ) -> Result<(Duration, ResilienceInfo, Instant)>
    where
        K: Fn(&GroupCtx) + Sync,
    {
        let _guard = InFlightGuard::enter(&self.inflight);
        nd.validate()?; // a malformed range is a programming error: no retry, no fallback
        let protocol = self.hardening.integrity;
        if protocol && bindings.is_empty() {
            // Nothing to scope the protocol to: refused, never retried.
            return Err(Error::UnboundLaunch { kernel: name });
        }
        let regions: Vec<&Region> =
            if protocol { bindings.iter().map(Binding::region).collect() } else { Vec::new() };
        let plan = self.hardening.fault.as_deref();
        if protocol {
            if let Some(p) = plan {
                crate::integrity::inject_entry(p, &regions);
            }
        }
        let redundant = if protocol { self.hardening.redundancy } else { Redundancy::None };
        let max_attempts = self.hardening.retry.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut absorbed = 0u32;
        let mut detected = 0u32;
        let mut replicas = 1u32;
        let mut corrected = 0u32;
        let primary = loop {
            attempts += 1;
            // A fired cancellation token stops the retry cycle at the
            // next attempt boundary — including between a backoff sleep
            // and the re-submission it was backing off for — while the
            // in-flight guard above stays held, so `wait()` never
            // returns with a canceled attempt still unwinding.
            if let Some(t) = &self.cancel {
                if let Err(e) = t.check(name) {
                    break Err(e);
                }
            }
            if let Some(p) = plan {
                if p.should_fail_launch(name) {
                    if attempts < max_attempts {
                        absorbed += 1;
                        self.backoff_sleep(attempts);
                        continue;
                    }
                    break Err(Error::TransientLaunchFailure { kernel: name, attempts });
                }
            }
            if protocol {
                if let Err(e) = crate::integrity::verify(&regions) {
                    // Detection refreshed the offending seal, so a retry
                    // re-verifies clean and runs on contents the caller
                    // has been *told* diverged — detected, never silent.
                    if attempts < max_attempts {
                        absorbed += 1;
                        detected += 1;
                        self.backoff_sleep(attempts);
                        continue;
                    }
                    break Err(e);
                }
            }
            let started = Instant::now();
            let run = match redundant {
                Redundancy::None => {
                    self.run_on(&self.device, plan, name, nd, bindings, self.parallelism, kernel)
                }
                Redundancy::Dmr => self
                    .run_redundant(plan, name, nd, bindings, &regions, kernel)
                    .map(|(dispatch, runs, fixed)| {
                        replicas = runs;
                        corrected = fixed;
                        dispatch
                    }),
            };
            break run.map(|dispatch| (dispatch, started));
        };
        let result = match primary {
            Ok((dispatch, started)) => Ok((
                dispatch,
                ResilienceInfo {
                    attempts,
                    faults_absorbed: absorbed,
                    detections_absorbed: detected,
                    fallback_device: None,
                    replicas,
                    divergences_corrected: corrected,
                },
                started,
            )),
            Err(e)
                if self.hardening.fallback == Fallback::Cpu
                    && e.is_cpu_fallback_eligible()
                    && self.device.kind() != DeviceKind::Cpu =>
            {
                let cpu = Device::cpu();
                let started = Instant::now();
                let dispatch =
                    self.run_on(&cpu, None, name, nd, bindings, self.parallelism, kernel)?;
                Ok((
                    dispatch,
                    ResilienceInfo {
                        attempts,
                        faults_absorbed: absorbed,
                        detections_absorbed: detected,
                        fallback_device: Some(cpu.name().to_string()),
                        replicas,
                        divergences_corrected: corrected,
                    },
                    started,
                ))
            }
            Err(e) => Err(e),
        };
        if protocol {
            // Reseal even on error so the next protocol launch does not
            // false-positive on this launch's partial writes.
            for b in bindings.iter().filter(|b| b.writes()) {
                b.region().reseal();
            }
            if let (Ok(_), Some(p)) = (&result, plan) {
                if redundant == Redundancy::None {
                    // Redundant runs already injected (and voted on)
                    // their exit flips pre-digest.
                    crate::integrity::inject_exit(p, &regions);
                }
                crate::integrity::apply_stuck(p, &regions);
            }
        }
        if let Some(ledger) = &self.ledger {
            match &result {
                Ok((_, info, _)) => ledger.record(info),
                Err(e) => ledger.record_error(e),
            }
        }
        result
    }

    /// Begin a command group that states `bindings` — the launch's
    /// accessors, as a SYCL handler declares them — and launch one
    /// kernel through it. An integrity queue scopes its protocol to
    /// them, and the sanitizer tier checks the kernel against them.
    pub fn submit<'a>(&'a self, bindings: &'a [Binding]) -> CommandGroup<'a> {
        CommandGroup { queue: self, bindings }
    }

    /// [`CommandGroup::parallel_for`] stating no accessors (SYCL's
    /// `queue::parallel_for` shortcut): refused by an integrity queue.
    pub fn parallel_for<F>(&self, name: &'static str, range: Range, f: F) -> Event
    where
        F: Fn(Item) + Sync,
    {
        self.submit(&[]).parallel_for(name, range, f)
    }

    /// [`CommandGroup::try_parallel_for`] stating no accessors.
    pub fn try_parallel_for<F>(&self, name: &'static str, range: Range, f: F) -> Result<Event>
    where
        F: Fn(Item) + Sync,
    {
        self.submit(&[]).try_parallel_for(name, range, f)
    }

    /// [`CommandGroup::nd_range`] stating no accessors.
    pub fn nd_range<K>(&self, name: &'static str, nd: NdRange, kernel: K) -> Result<Event>
    where
        K: Fn(&GroupCtx) + Sync,
    {
        self.submit(&[]).nd_range(name, nd, kernel)
    }

    /// Launch several kernels that run *concurrently* (each on its own
    /// host thread) and usually communicate through pipes. Returns when
    /// all complete. Errors from any kernel (e.g. pipe deadlock) are
    /// propagated; the first error wins. The submission is accounted to
    /// the queue's [`ResilienceLedger`] like any other launch.
    ///
    /// Deliberately **not** routed through the persistent pool: pipe
    /// kernels block on FIFO reads/writes for unbounded stretches, and a
    /// blocked pool worker would stall unrelated launches sharing the
    /// pool. Dedicated scoped threads keep the pool's workers available.
    pub fn submit_concurrent<F>(&self, name: &'static str, kernels: Vec<F>) -> Result<Event>
    where
        F: FnOnce() -> Result<()> + Send,
    {
        let _guard = InFlightGuard::enter(&self.inflight);
        crate::fault::install_quiet_hook();
        let submitted = Instant::now();
        let run = match &self.cancel {
            Some(t) => t.check(name),
            None => Ok(()),
        }
        .and_then(|()| Self::join_concurrent(name, kernels));
        if let Some(ledger) = &self.ledger {
            match &run {
                Ok(()) => ledger.record(&ResilienceInfo::default()),
                Err(e) => ledger.record_error(e),
            }
        }
        run?;
        let resilience = ResilienceInfo::default();
        Ok(self.finish_event(name, submitted, submitted, Duration::ZERO, resilience))
    }

    /// Run each of `kernels` on a scoped thread of its own and join them
    /// all; the first error (in kernel order) wins.
    fn join_concurrent<F>(name: &'static str, kernels: Vec<F>) -> Result<()>
    where
        F: FnOnce() -> Result<()> + Send,
    {
        let mut first_err = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = kernels.into_iter().map(|k| s.spawn(k)).collect();
            for (i, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        first_err.get_or_insert(e);
                    }
                    Err(payload) => {
                        // A panicking concurrent kernel is contained like a
                        // pooled one: classified into a typed error, with
                        // the kernel's index standing in for a group id.
                        first_err.get_or_insert(crate::fault::classify_panic(name, i, payload));
                    }
                }
            }
        });
        first_err.map_or(Ok(()), Err)
    }

    /// Block until no launch is in flight on this queue or any clone of
    /// it.
    ///
    /// Submissions from the calling thread are synchronous, so for
    /// single-threaded code this returns immediately — but clones of a
    /// queue share one in-flight counter, so `wait()` genuinely blocks
    /// until launches submitted from *other* threads (nested launches,
    /// application worker threads) have drained. Combined with the
    /// synchronous submission rule this is the in-order guarantee: when
    /// `wait()` returns, every effect of every previously *started*
    /// submission on any clone is visible.
    ///
    /// Do not call `wait()` from inside a kernel running on the same
    /// queue: that launch is itself in flight, so the wait would never
    /// return (the same self-deadlock `sycl::queue::wait` has inside a
    /// host task).
    pub fn wait(&self) {
        let mut c = self.inflight.count.lock().unwrap();
        while *c > 0 {
            c = self.inflight.cv.wait(c).unwrap();
        }
    }
}

/// One launch on a queue with the accessors it states
/// ([`Queue::submit`]).
pub struct CommandGroup<'a> {
    queue: &'a Queue,
    bindings: &'a [Binding],
}

impl CommandGroup<'_> {
    /// Launch a barrier-free data-parallel kernel: `f` runs once per
    /// global index of `range` (like `parallel_for(range, ...)`).
    ///
    /// Infallible wrapper over [`CommandGroup::try_parallel_for`] for API
    /// fidelity with the SYCL sources: a launch error unwinds with the
    /// typed [`Error`] as panic payload (recoverable via `catch_unwind`,
    /// as the suite-level chaos harness does).
    pub fn parallel_for<F>(self, name: &'static str, range: Range, f: F) -> Event
    where
        F: Fn(Item) + Sync,
    {
        self.try_parallel_for(name, range, f)
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Fallible [`CommandGroup::parallel_for`]: launch errors (injected
    /// transients past the retry budget, contained kernel panics, …) come
    /// back as typed `Err` values.
    pub fn try_parallel_for<F>(self, name: &'static str, range: Range, f: F) -> Result<Event>
    where
        F: Fn(Item) + Sync,
    {
        let total = range.size();
        let nd = NdRange::flat(total, self.queue.device.caps().max_work_group_size);
        self.nd_range(name, nd, |ctx: &GroupCtx| ctx.flat_items(range, total, &f))
    }

    /// Launch a work-group kernel over `nd`. `kernel` receives each
    /// group's [`GroupCtx`] and drives its work-items in phases. A group
    /// larger than the device's limit is a launch error (or, under
    /// [`Fallback::Cpu`], a recorded re-run on the host).
    pub fn nd_range<K>(self, name: &'static str, nd: NdRange, kernel: K) -> Result<Event>
    where
        K: Fn(&GroupCtx) + Sync,
    {
        let q = self.queue;
        let submitted = Instant::now();
        let (dispatch, resilience, started) = q.launch_groups(name, nd, self.bindings, &kernel)?;
        Ok(q.finish_event(name, submitted, started, dispatch, resilience))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::ndrange::FenceSpace;
    use crate::pipe::Pipe;

    #[test]
    fn parallel_for_covers_exact_range() {
        let q = Queue::new(Device::cpu());
        let b = Buffer::<u32>::new(1000);
        let v = b.view();
        q.parallel_for("iota", Range::d1(1000), |it| {
            v.set(it.gid(0), it.gid(0) as u32 + 1);
        });
        let out = b.to_vec();
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
    }

    #[test]
    fn parallel_for_2d_indices() {
        let q = Queue::new(Device::cpu());
        let (w, h) = (13, 7);
        let b = Buffer::<u32>::new(w * h);
        let v = b.view();
        q.parallel_for("fill2d", Range::d2(w, h), |it| {
            v.set(it.gid(1) * w + it.gid(0), 1);
        });
        assert!(b.to_vec().iter().all(|&x| x == 1));
    }

    #[test]
    fn nd_range_reduction_with_barrier() {
        // Tree reduction in local memory: the canonical barrier kernel.
        let q = Queue::new(Device::cpu());
        let n = 1024;
        let input = Buffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
        let partial = Buffer::<u32>::new(n / 128);
        let iv = input.view();
        let pv = partial.view();
        q.nd_range("reduce", NdRange::d1(n, 128), |ctx| {
            let shared = ctx.local_array::<u32>(128);
            ctx.items(|it| shared.set(it.local_linear, iv.get(it.global_linear)));
            ctx.barrier(FenceSpace::Local);
            let mut stride = 64;
            while stride > 0 {
                ctx.items(|it| {
                    if it.local_linear < stride {
                        shared.update(it.local_linear, |v| {
                            v + shared.get(it.local_linear + stride)
                        });
                    }
                });
                ctx.barrier(FenceSpace::Local);
                stride /= 2;
            }
            ctx.items(|it| {
                if it.local_linear == 0 {
                    pv.set(ctx.group_linear(), shared.get(0));
                }
            });
        })
        .unwrap();
        let total: u32 = partial.to_vec().iter().sum();
        assert_eq!(total, (0..n as u32).sum());
    }

    #[test]
    fn work_group_limit_is_enforced() {
        let q = Queue::new(Device::stratix10());
        let err = q
            .nd_range("too_big", NdRange::d1(512, 256), |_ctx| {})
            .unwrap_err();
        assert_eq!(err, Error::WorkGroupTooLarge { requested: 256, limit: 128 });
    }

    #[test]
    fn profiling_none_without_enable() {
        let q = Queue::new(Device::cpu());
        let e = q.parallel_for("t", Range::d1(1), |_| {});
        assert!(e.profiling().is_none());
        let q = Queue::with_profiling(Device::cpu());
        let e = q.parallel_for("t", Range::d1(1), |_| {});
        assert!(e.profiling().is_some());
    }

    #[test]
    fn concurrent_kernels_stream_through_pipe() {
        let q = Queue::with_profiling(Device::stratix10());
        let pipe = Pipe::with_capacity(16);
        let out = Buffer::<u64>::new(1);
        let n = 1000u64;
        let (p1, p2) = (pipe.clone(), pipe);
        let ov = out.view();
        q.submit_concurrent(
            "producer_consumer",
            vec![
                Box::new(move || {
                    for i in 0..n {
                        p1.write(i)?;
                    }
                    Ok(())
                }) as Box<dyn FnOnce() -> Result<()> + Send>,
                Box::new(move || {
                    let mut acc = 0;
                    for _ in 0..n {
                        acc += p2.read()?;
                    }
                    ov.set(0, acc);
                    Ok(())
                }),
            ],
        )
        .unwrap();
        assert_eq!(out.to_vec()[0], n * (n - 1) / 2);
    }

    #[test]
    fn concurrent_error_propagates() {
        let q = Queue::new(Device::stratix10());
        let r = q.submit_concurrent(
            "failing",
            vec![Box::new(|| Err(Error::PipeDeadlock { waited_secs: 1 }))
                as Box<dyn FnOnce() -> Result<()> + Send>],
        );
        assert_eq!(r.unwrap_err(), Error::PipeDeadlock { waited_secs: 1 });
    }

    #[test]
    fn concurrent_submissions_account_to_the_ledger() {
        type Kernel = Box<dyn FnOnce() -> Result<()> + Send>;
        let ledger = Arc::new(ResilienceLedger::new());
        let q = Queue::new(Device::stratix10()).with_resilience_ledger(Some(ledger.clone()));
        let pipe = Pipe::with_capacity(4);
        let (tx, rx) = (pipe.clone(), pipe);
        let clean: Vec<Kernel> = vec![Box::new(move || tx.write(7u32)), Box::new(move || {
            rx.read()?;
            Ok(())
        })];
        q.submit_concurrent("clean_pair", clean).unwrap();
        let s = ledger.snapshot();
        assert_eq!((s.launches, s.errors), (1, 0));

        // Each kernel waits on the other: a read of an empty pipe that is
        // never written, a write to a full one that is never read.
        let timeout = Duration::from_millis(50);
        let empty = Pipe::<u32>::with_capacity_and_timeout(1, timeout);
        let full = Pipe::<u32>::with_capacity_and_timeout(1, timeout);
        full.write(0).unwrap();
        let deadlocked: Vec<Kernel> = vec![
            Box::new(move || {
                empty.read()?;
                Ok(())
            }),
            Box::new(move || full.write(1)),
        ];
        let e = q.submit_concurrent("deadlocked_pair", deadlocked).unwrap_err();
        assert!(matches!(e, Error::PipeDeadlock { .. }), "{e:?}");
        let s = ledger.snapshot();
        assert_eq!((s.launches, s.errors), (2, 1));
    }

    #[test]
    fn nested_parallelism_launches_child_kernels() {
        // Altis exercises CUDA nested parallelism (device-side launch);
        // here a one-item "parent" kernel launches child grids through a
        // captured queue handle.
        let parent_q = Queue::new(Device::cpu());
        let child_q = parent_q.clone();
        let b = Buffer::<u32>::new(64);
        let v = b.view();
        parent_q.parallel_for("parent", Range::d1(1), move |_| {
            for wave in 0..4u32 {
                let v = v.clone();
                child_q.parallel_for("child", Range::d1(16), move |it| {
                    v.set(wave as usize * 16 + it.gid(0), wave + 1);
                });
            }
        });
        let out = b.to_vec();
        for wave in 0..4 {
            assert!(out[wave * 16..(wave + 1) * 16].iter().all(|&x| x == wave as u32 + 1));
        }
    }
}
