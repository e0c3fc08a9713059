//! The multi-tenant job scheduler: admission → schedule → execute →
//! verdict.
//!
//! One [`Scheduler`] owns three priority lanes, a worker pool that
//! drains them weighted-fair (high 4 : normal 2 : low 1), a deadline
//! watchdog that fires per-job [`CancelToken`]s, per-`(app, device)`
//! circuit [`Breaker`]s, and per-tenant [`TenantState`]. The invariant
//! everything else hangs off is **exactly one verdict per submitted
//! job**: every path out of [`Scheduler::submit`] and every worker path
//! funnels through one `finish` call that accounts the verdict and
//! invokes the job's result sink. [`Scheduler::stats`] exposes the
//! counters; `unaccounted()` must read zero once the server is idle —
//! the `serve_storm` bench gates on it at 10k queued jobs.
//!
//! Fault isolation rests on three mechanisms, all tenant-scoped:
//! injection plans are attached per-job queue (never process-wide
//! environment state), runtime accounting goes to the tenant's own
//! [`hetero_rt::ResilienceLedger`], and quarantine trips on a tenant's
//! own corruption-verdict count only.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use altis_core::common::{AppVersion, ExecMode};
use altis_core::streaming::{open_stream, supports_streaming, StreamScenario};
use altis_core::suite::{
    all_apps, run_flavored_inline, run_sdc_inline, AppEntry, ResilienceOutcome, SdcOutcome,
    GRAPH_FLAVOR_APPS,
};
use hetero_rt::{CancelToken, Error, Fallback, FaultKind, FaultPlan, Queue, StreamConfig};

use crate::breaker::{Breaker, BreakerDecision};
use crate::clock::Clock;
use crate::protocol::{
    DeviceRoute, FaultKindSel, Flavor, Hardening, JobRequest, JobResult, Verdict,
};
use crate::tenant::TenantState;

/// Where a job's final [`JobResult`] is delivered. Called exactly once
/// per submitted job, possibly from a worker thread, possibly inline
/// from [`Scheduler::submit`] (immediate rejections and sheds).
pub type ResultSink = Arc<dyn Fn(JobResult) + Send + Sync>;

/// Scheduler tuning knobs. `Default` is sized for tests and the serve
/// binary; the storm bench overrides capacity and workers.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs (each job's kernels additionally
    /// use the process-wide hetero-rt pool).
    pub workers: usize,
    /// Global bound on queued jobs across all lanes; submissions beyond
    /// it are shed.
    pub queue_capacity: usize,
    /// Per-tenant bound on queued jobs; submissions beyond it are
    /// rejected (quota, not overload).
    pub tenant_queued_limit: u64,
    /// Consecutive breaker-class failures that open a route's breaker.
    pub breaker_open_after: u32,
    /// How long an open breaker rejects before admitting a probe.
    pub breaker_cooldown_ms: u64,
    /// Corruption-class verdicts after which a tenant is quarantined
    /// (0 disables).
    pub quarantine_after: u64,
    /// Deadline applied to jobs that don't carry one (`None` = none).
    pub default_deadline_ms: Option<u64>,
    /// Deadline watchdog scan period.
    pub watchdog_tick_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let hw = std::thread::available_parallelism().map_or(2, |n| n.get());
        ServeConfig {
            workers: (hw / 2).clamp(1, 8),
            queue_capacity: 1024,
            tenant_queued_limit: 512,
            breaker_open_after: 3,
            breaker_cooldown_ms: 1_000,
            quarantine_after: 0,
            default_deadline_ms: None,
            watchdog_tick_ms: 2,
        }
    }
}

/// Point-in-time scheduler counters. `submitted` equals the sum of the
/// six verdict classes once the server is idle; `uncontained` counts
/// jobs whose failure escaped the typed-error path (delivered as
/// `Quarantined`, but flagged here — the storm bench gates on 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs submitted (including immediately rejected/shed ones).
    pub submitted: u64,
    /// `Verdict::Completed` deliveries.
    pub completed: u64,
    /// `Verdict::Corrected` deliveries.
    pub corrected: u64,
    /// `Verdict::Quarantined` deliveries.
    pub quarantined: u64,
    /// `Verdict::Rejected` deliveries.
    pub rejected: u64,
    /// `Verdict::Shed` deliveries.
    pub shed: u64,
    /// `Verdict::Deadline` deliveries.
    pub deadline: u64,
    /// Runs whose failure was not a typed error (containment breaches).
    pub uncontained: u64,
    /// Jobs that ran on a CPU-degraded route because of an open breaker.
    pub degraded: u64,
    /// Total breaker trips across all routes.
    pub breaker_trips: u64,
}

impl ServeStats {
    /// Sum of all delivered verdicts.
    fn accounted(&self) -> u64 {
        self.completed + self.corrected + self.quarantined + self.rejected + self.shed
            + self.deadline
    }

    /// Jobs submitted but not (yet) resolved to a verdict. Zero once
    /// the scheduler is idle — the zero-unaccounted invariant.
    pub fn unaccounted(&self) -> u64 {
        self.submitted - self.accounted()
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    corrected: AtomicU64,
    quarantined: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    deadline: AtomicU64,
    uncontained: AtomicU64,
    degraded: AtomicU64,
}

/// One queued job (admission already passed).
struct Job {
    uid: u64,
    req: JobRequest,
    /// Canonical registry spelling of the requested app.
    app: &'static str,
    tenant: Arc<TenantState>,
    enqueued_ms: u64,
    /// Absolute deadline on the scheduler clock.
    abs_deadline_ms: Option<u64>,
    sink: ResultSink,
}

struct Lanes {
    queues: [VecDeque<Job>; 3],
    len: usize,
    draining: bool,
}

/// Weighted-fair lane schedule: four high slots, two normal, one low
/// per cycle. A worker whose preferred lane is empty falls through in
/// priority order, so the schedule is work-conserving.
const LANE_CYCLE: [usize; 7] = [0, 0, 0, 0, 1, 1, 2];

struct Shared {
    cfg: ServeConfig,
    clock: Arc<dyn Clock>,
    lanes: Mutex<Lanes>,
    work_cv: Condvar,
    counters: Counters,
    running: AtomicU64,
    /// Sink calls in flight. Raised before the verdict is counted and
    /// dropped after the sink returns, both under the idle lock
    /// `wait_idle` checks under: a waiter that finds every job accounted
    /// for also finds every result delivered.
    delivering: AtomicU64,
    /// Signaled on every verdict delivery and every running-count drop;
    /// `wait_idle` sleeps on it.
    idle: (Mutex<()>, Condvar),
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    breakers: Mutex<HashMap<(&'static str, &'static str), Breaker>>,
    /// uid -> (token, absolute deadline) for jobs currently executing.
    watch: Mutex<HashMap<u64, (CancelToken, u64)>>,
    stop: AtomicBool,
    uid_seq: AtomicU64,
}

impl Shared {
    fn tenant(&self, name: &str) -> Arc<TenantState> {
        let mut map = self.tenants.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(TenantState::new(name)))
            .clone()
    }

    /// The single exit point: account the verdict, update tenant state,
    /// deliver the result. Every submitted job passes through here
    /// exactly once.
    fn finish(&self, job: &Job, verdict: Verdict, degraded: bool, run_us: u64) {
        {
            let _g = self.idle.0.lock().unwrap();
            self.delivering.fetch_add(1, Ordering::Relaxed);
        }
        let c = &self.counters;
        match &verdict {
            Verdict::Completed => c.completed.fetch_add(1, Ordering::Relaxed),
            Verdict::Corrected { .. } => c.corrected.fetch_add(1, Ordering::Relaxed),
            Verdict::Quarantined { reason } => {
                job.tenant
                    .record_corruption(self.cfg.quarantine_after, reason);
                c.quarantined.fetch_add(1, Ordering::Relaxed)
            }
            Verdict::Rejected { .. } => c.rejected.fetch_add(1, Ordering::Relaxed),
            Verdict::Shed { .. } => c.shed.fetch_add(1, Ordering::Relaxed),
            Verdict::Deadline => c.deadline.fetch_add(1, Ordering::Relaxed),
        };
        if degraded {
            c.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let now = self.clock.now_ms();
        let result = JobResult {
            id: job.req.id,
            tenant: job.req.tenant.clone(),
            // Canonical spelling once resolved; the requested text for
            // jobs rejected before resolution.
            app: if job.app == "?" { job.req.app.clone() } else { job.app.to_string() },
            verdict,
            degraded,
            latency_ms: now.saturating_sub(job.enqueued_ms),
            run_ms: run_us / 1000,
            run_us,
        };
        (job.sink)(result);
        let (lock, cv) = &self.idle;
        let _g = lock.lock().unwrap();
        self.delivering.fetch_sub(1, Ordering::Relaxed);
        cv.notify_all();
    }

    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        let breaker_trips = self
            .breakers
            .lock()
            .unwrap()
            .values()
            .map(Breaker::trips)
            .sum();
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            corrected: c.corrected.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            deadline: c.deadline.load(Ordering::Relaxed),
            uncontained: c.uncontained.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            breaker_trips,
        }
    }

    /// Pop the next job per the weighted-fair schedule; blocks until
    /// work arrives or shutdown drains the lanes.
    fn pop(&self, rr: &mut u64) -> Option<Job> {
        let mut lanes = self.lanes.lock().unwrap();
        loop {
            let slot = LANE_CYCLE[(*rr % 7) as usize];
            *rr += 1;
            let order = [slot, 0, 1, 2];
            for lane in order {
                if let Some(job) = lanes.queues[lane].pop_front() {
                    lanes.len -= 1;
                    job.tenant.queued.fetch_sub(1, Ordering::Relaxed);
                    return Some(job);
                }
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            lanes = self.work_cv.wait(lanes).unwrap();
        }
    }

    /// Whether a typed error is a breaker-class failure (kernel panic
    /// or data corruption — route-health signals, unlike deadlines,
    /// quota rejections, or wrong-size errors).
    fn breaker_class(e: &Error) -> bool {
        matches!(
            e,
            Error::KernelPanicked { .. }
                | Error::DataCorruption { .. }
                | Error::ReplicaDivergence { .. }
        )
    }

    /// Execute one popped job end to end and deliver its verdict.
    fn run_job(&self, job: Job) {
        let now = self.clock.now_ms();
        if let Some(d) = job.abs_deadline_ms {
            if now >= d {
                // Expired while queued: never runs, still gets its one
                // verdict.
                self.finish(&job, Verdict::Deadline, false, 0);
                return;
            }
        }
        self.running.fetch_add(1, Ordering::AcqRel);
        job.tenant.running.fetch_add(1, Ordering::Relaxed);

        // Circuit-breaker routing happens at dispatch, not admission,
        // so queued jobs see the route's *current* health.
        let route = job.req.device.label();
        let mut degraded = false;
        let mut probe = false;
        let mut rejected: Option<String> = None;
        {
            let mut breakers = self.breakers.lock().unwrap();
            let b = breakers
                .entry((job.app, route))
                .or_insert_with(|| {
                    Breaker::new(self.cfg.breaker_open_after, self.cfg.breaker_cooldown_ms)
                });
            match b.admit(now) {
                BreakerDecision::Allow => {}
                BreakerDecision::AllowProbe => probe = true,
                BreakerDecision::Deny if job.req.device != DeviceRoute::Cpu => {
                    // Degrade to the CPU route — but only if that
                    // route's own breaker is willing.
                    let cb = breakers
                        .entry((job.app, DeviceRoute::Cpu.label()))
                        .or_insert_with(|| {
                            Breaker::new(
                                self.cfg.breaker_open_after,
                                self.cfg.breaker_cooldown_ms,
                            )
                        });
                    match cb.admit(now) {
                        BreakerDecision::Allow => degraded = true,
                        BreakerDecision::AllowProbe => {
                            degraded = true;
                            probe = true;
                        }
                        BreakerDecision::Deny => {
                            rejected = Some(format!(
                                "circuit open for {} on {} (and on cpu)",
                                job.app, route
                            ));
                        }
                    }
                }
                BreakerDecision::Deny => {
                    rejected = Some(format!("circuit open for {} on cpu", job.app));
                }
            }
        }
        if let Some(reason) = rejected {
            self.release_running(&job);
            self.finish(&job, Verdict::Rejected { reason }, false, 0);
            return;
        }

        // The per-job queue is armed by the job's tier around its
        // tenant-scoped plan, and by nothing else.
        let token = CancelToken::new();
        let effective_route = if degraded { DeviceRoute::Cpu } else { job.req.device };
        // Capability mismatches on modelled accelerators re-run on the
        // host (the paper's porting workflow as policy); real route-health
        // failures still surface and trip the breaker.
        let fallback =
            if effective_route == DeviceRoute::Cpu { Fallback::None } else { Fallback::Cpu };
        let hardening = hetero_rt::Hardening { fallback, ..queue_hardening(&job.req) };
        // Stream jobs reuse the tenant-scoped plan but build their own
        // primary/clean queue pair inside `open_stream`.
        let stream_plan = hardening.fault.clone();
        let queue = Queue::hardened(effective_route.device(), hardening)
            .with_cancel_token(Some(token.clone()))
            .with_resilience_ledger(Some(job.tenant.ledger.clone()));

        if let Some(d) = job.abs_deadline_ms {
            self.watch
                .lock()
                .unwrap()
                .insert(job.uid, (token.clone(), d));
        }

        let version = match job.req.flavor {
            Flavor::Reference => AppVersion::Reference,
            Flavor::Baseline | Flavor::Graph => AppVersion::SyclBaseline,
            Flavor::Optimized => AppVersion::SyclOptimized,
        };
        let mode = if job.req.flavor.is_graph() { ExecMode::Graph } else { ExecMode::PerLaunch };
        let entry = registry_entry(job.app);

        let t0 = Instant::now();
        // The verdict, and whether what stopped the run is a
        // breaker-class failure.
        let (verdict, failure) = if let Some(windows) = job.req.stream_windows {
            self.run_stream_job(&job, windows, stream_plan, &token)
        } else if job.req.hardening == Hardening::Sdc {
            match run_sdc_inline(entry, &queue, job.req.size, version) {
                SdcOutcome::Correct => (Verdict::Completed, false),
                SdcOutcome::Corrected { events } => (Verdict::Corrected { events }, false),
                SdcOutcome::Quarantined { reason, error: Some(e) } => {
                    Self::classify_stop(&token, &e, reason)
                }
                SdcOutcome::Quarantined { reason, error: None } => {
                    (Verdict::Quarantined { reason }, false)
                }
                SdcOutcome::Uncontained { what } => (self.uncontained(what), false),
            }
        } else {
            match run_flavored_inline(entry, &queue, job.req.size, version, mode)
                .expect("graph flavors are admission-checked")
            {
                ResilienceOutcome::Correct => (Verdict::Completed, false),
                ResilienceOutcome::TypedError(e) => Self::classify_stop(&token, &e, e.to_string()),
                ResilienceOutcome::Incorrect => (
                    Verdict::Quarantined {
                        reason: "output diverged from the golden reference".to_string(),
                    },
                    false,
                ),
                ResilienceOutcome::Panicked(what) => (self.uncontained(what), false),
            }
        };
        let run_us = t0.elapsed().as_micros() as u64;

        self.watch.lock().unwrap().remove(&job.uid);
        // Route-health bookkeeping: the verdict is recorded against the
        // route the job actually ran on.
        let ran_route = effective_route.label();
        {
            let mut breakers = self.breakers.lock().unwrap();
            if let Some(b) = breakers.get_mut(&(job.app, ran_route)) {
                b.record(failure, self.clock.now_ms(), probe);
            }
        }
        self.release_running(&job);
        self.finish(&job, verdict, degraded, run_us);
    }

    /// Execute a stream job: drive `windows` windows through the app's
    /// recorded-graph stream under windowed fault containment, then
    /// fold the per-window verdicts into the job's single verdict.
    /// Faults land on individual windows (retried or rolled back, the
    /// stream survives); only cancellation — the deadline watchdog —
    /// is stream-fatal.
    fn run_stream_job(
        &self,
        job: &Job,
        windows: u64,
        fault: Option<Arc<FaultPlan>>,
        token: &CancelToken,
    ) -> (Verdict, bool) {
        let scenario = StreamScenario {
            fault,
            sdc: false,
            cancel: Some(token.clone()),
            ledger: Some(job.tenant.ledger.clone()),
        };
        let opened = open_stream(job.app, job.req.size, StreamConfig::default(), &scenario);
        let mut stream = match opened {
            Ok(Some(s)) => s,
            Ok(None) => unreachable!("stream jobs are admission-checked"),
            Err(e) => return Self::classify_stop(token, &e, format!("stream open failed: {e}")),
        };
        for _ in 0..windows {
            if let Err(e) = stream.next_window() {
                return Self::classify_stop(token, &e, format!("stream stopped: {e}"));
            }
        }
        let st = stream.stats();
        let verdict = if st.dropped > 0 {
            Verdict::Quarantined {
                reason: "stream ended: no verified recovery for a failed window".to_string(),
            }
        } else if st.non_delivered() > 0 {
            Verdict::Corrected { events: st.non_delivered() }
        } else {
            Verdict::Completed
        };
        (verdict, false)
    }

    /// Map the typed error that stopped a run to its verdict, and say
    /// whether it is breaker-class: a fired deadline token whose
    /// cancellation surfaced through the typed path is a `Deadline`,
    /// anything else is a quarantine with `reason`.
    fn classify_stop(token: &CancelToken, e: &Error, reason: String) -> (Verdict, bool) {
        if token.is_canceled() && matches!(e, Error::Canceled { .. }) {
            (Verdict::Deadline, false)
        } else {
            (Verdict::Quarantined { reason }, Self::breaker_class(e))
        }
    }

    /// An untyped panic: containment failed, and the ledger says so.
    fn uncontained(&self, what: String) -> Verdict {
        self.counters.uncontained.fetch_add(1, Ordering::Relaxed);
        Verdict::Quarantined { reason: format!("UNCONTAINED: {what}") }
    }

    fn release_running(&self, job: &Job) {
        job.tenant.running.fetch_sub(1, Ordering::Relaxed);
        self.running.fetch_sub(1, Ordering::AcqRel);
        let (lock, cv) = &self.idle;
        let _g = lock.lock().unwrap();
        cv.notify_all();
    }
}

/// The runtime hardening of `req`'s tier around its tenant-scoped
/// plan: silent kinds for the SDC tier, the requested fail-stop kinds
/// otherwise.
fn queue_hardening(req: &JobRequest) -> hetero_rt::Hardening {
    let plan = req.fault_seed.map(|seed| {
        let p = FaultPlan::new(seed, req.fault_rate);
        Arc::new(match (req.hardening, req.fault_kind) {
            (Hardening::Sdc, _) => FaultPlan::sdc(seed, req.fault_rate),
            (_, FaultKindSel::Mixed) => p,
            (_, FaultKindSel::Transient) => p.with_kinds(&[FaultKind::LaunchTransient]),
            (_, FaultKindSel::Panic) => p.with_kinds(&[FaultKind::KernelPanic]),
        })
    });
    match req.hardening {
        Hardening::None => hetero_rt::Hardening { fault: plan, ..hetero_rt::Hardening::NONE },
        Hardening::Resilient => hetero_rt::Hardening::resilient(plan),
        Hardening::Sdc => hetero_rt::Hardening::sdc(plan),
    }
}

/// Resolve a registry entry by canonical name. The registry is 'static
/// in all but name; keep one copy per process.
fn registry() -> &'static Vec<AppEntry> {
    use std::sync::OnceLock;
    static APPS: OnceLock<Vec<AppEntry>> = OnceLock::new();
    APPS.get_or_init(all_apps)
}

fn registry_entry(name: &'static str) -> &'static AppEntry {
    registry()
        .iter()
        .find(|a| a.name == name)
        .expect("canonical names resolve")
}

/// Resolve a requested app name: exact case-insensitive match first,
/// then a unique case-insensitive substring. Returns the canonical
/// registry spelling.
pub fn resolve_app(requested: &str) -> Result<&'static str, String> {
    let lower = requested.to_lowercase();
    let apps = registry();
    if let Some(a) = apps.iter().find(|a| a.name.to_lowercase() == lower) {
        return Ok(a.name);
    }
    let matches: Vec<&'static str> = apps
        .iter()
        .filter(|a| a.name.to_lowercase().contains(&lower))
        .map(|a| a.name)
        .collect();
    match matches.as_slice() {
        [one] => Ok(one),
        [] => Err(format!("unknown app '{requested}'")),
        many => Err(format!("ambiguous app '{requested}' (matches {many:?})")),
    }
}

/// The benchmark service. Construct with [`Scheduler::new`], feed it
/// [`JobRequest`]s via [`Scheduler::submit`], and every request's
/// [`JobResult`] arrives at its sink exactly once.
pub struct Scheduler {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Start a scheduler: `cfg.workers` executor threads plus one
    /// deadline-watchdog thread, all reading time from `clock`.
    pub fn new(cfg: ServeConfig, clock: Arc<dyn Clock>) -> Self {
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            clock,
            lanes: Mutex::new(Lanes {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                draining: false,
            }),
            work_cv: Condvar::new(),
            counters: Counters::default(),
            running: AtomicU64::new(0),
            delivering: AtomicU64::new(0),
            idle: (Mutex::new(()), Condvar::new()),
            tenants: Mutex::new(HashMap::new()),
            breakers: Mutex::new(HashMap::new()),
            watch: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            uid_seq: AtomicU64::new(1),
        });
        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for i in 0..cfg.workers.max(1) {
            let sh = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        let mut rr = i as u64;
                        while let Some(job) = sh.pop(&mut rr) {
                            sh.run_job(job);
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        {
            let sh = shared.clone();
            let tick = std::time::Duration::from_millis(cfg.watchdog_tick_ms.max(1));
            threads.push(
                std::thread::Builder::new()
                    .name("serve-watchdog".to_string())
                    .spawn(move || {
                        while !sh.stop.load(Ordering::Acquire) {
                            let now = sh.clock.now_ms();
                            {
                                let mut watch = sh.watch.lock().unwrap();
                                watch.retain(|_, (token, deadline)| {
                                    if now >= *deadline {
                                        token.cancel();
                                        false
                                    } else {
                                        true
                                    }
                                });
                            }
                            std::thread::sleep(tick);
                        }
                    })
                    .expect("spawn watchdog"),
            );
        }
        Scheduler { shared, threads: Mutex::new(threads) }
    }

    /// Submit one job. Admission control runs inline: a rejected or
    /// shed job gets its verdict (through `sink`) before this returns;
    /// an admitted job is queued and `sink` fires from a worker later.
    pub fn submit(&self, req: JobRequest, sink: ResultSink) {
        let sh = &self.shared;
        sh.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let tenant = sh.tenant(&req.tenant);
        tenant.submitted.fetch_add(1, Ordering::Relaxed);
        let now = sh.clock.now_ms();
        let uid = sh.uid_seq.fetch_add(1, Ordering::Relaxed);

        // Resolve the app first so even rejected jobs echo a canonical
        // name when possible.
        let resolved = resolve_app(&req.app);
        let app = *resolved.as_ref().unwrap_or(&"?");
        let make_job = |sink: ResultSink| Job {
            uid,
            req: req.clone(),
            app,
            tenant: tenant.clone(),
            enqueued_ms: now,
            abs_deadline_ms: req
                .deadline_ms
                .or(sh.cfg.default_deadline_ms)
                .map(|d| now + d),
            sink,
        };

        // --- admission control (every deny is an immediate verdict) ---
        let deny = |verdict: Verdict| {
            let job = make_job(sink.clone());
            sh.finish(&job, verdict, false, 0);
        };
        if sh.stop.load(Ordering::Acquire) || sh.lanes.lock().unwrap().draining {
            return deny(Verdict::Shed { reason: "server draining".to_string() });
        }
        let app = match resolved {
            Ok(a) => a,
            Err(e) => return deny(Verdict::Rejected { reason: e }),
        };
        if req.flavor.is_graph() && !GRAPH_FLAVOR_APPS.contains(&app) {
            return deny(Verdict::Rejected {
                reason: format!("app '{app}' has no {} flavor", req.flavor.label()),
            });
        }
        if req.hardening == Hardening::Sdc && req.flavor.is_graph() {
            return deny(Verdict::Rejected {
                reason: "sdc hardening supports per-launch flavors only".to_string(),
            });
        }
        if req.stream_windows.is_some() {
            if !supports_streaming(app) {
                return deny(Verdict::Rejected {
                    reason: format!("app '{app}' has no streaming conversion"),
                });
            }
            if req.hardening == Hardening::Sdc {
                return deny(Verdict::Rejected {
                    reason: "stream jobs support none/resilient hardening only".to_string(),
                });
            }
            if req.device != DeviceRoute::Cpu {
                return deny(Verdict::Rejected {
                    reason: "stream jobs run on the cpu route".to_string(),
                });
            }
        }
        if tenant.is_quarantined() {
            return deny(Verdict::Rejected {
                reason: format!("tenant quarantined: {}", tenant.quarantine_reason()),
            });
        }
        if tenant.queued.load(Ordering::Relaxed) >= sh.cfg.tenant_queued_limit {
            return deny(Verdict::Rejected {
                reason: format!(
                    "tenant queue quota exceeded ({} queued)",
                    sh.cfg.tenant_queued_limit
                ),
            });
        }

        // --- enqueue under the lane lock (bounded: shed on overflow) ---
        let job = make_job(sink);
        {
            let mut lanes = sh.lanes.lock().unwrap();
            if lanes.len >= sh.cfg.queue_capacity {
                drop(lanes);
                sh.finish(
                    &job,
                    Verdict::Shed {
                        reason: format!("queue full ({} jobs)", sh.cfg.queue_capacity),
                    },
                    false,
                    0,
                );
                return;
            }
            // Under the lane lock, so a worker can never pop (and
            // decrement) this job before the increment lands.
            tenant.queued.fetch_add(1, Ordering::Relaxed);
            lanes.queues[job.req.priority.lane()].push_back(job);
            lanes.len += 1;
        }
        sh.work_cv.notify_one();
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Per-tenant runtime-accounting snapshot, if the tenant exists.
    // lint:allow(unused-pub) test oracle: hetero-serve/tests/isolation.rs shows a hostile tenant's errors never reach a clean ledger
    pub fn tenant_ledger(&self, name: &str) -> Option<hetero_rt::LedgerSnapshot> {
        self.shared
            .tenants
            .lock()
            .unwrap()
            .get(name)
            .map(|t| t.ledger.snapshot())
    }

    /// Whether a tenant is currently quarantined.
    // lint:allow(unused-pub) test oracle: hetero-serve/tests/isolation.rs shows quarantine is tenant-scoped
    pub fn tenant_quarantined(&self, name: &str) -> bool {
        self.shared
            .tenants
            .lock()
            .unwrap()
            .get(name)
            .is_some_and(|t| t.is_quarantined())
    }

    /// Block until every submitted job has its verdict and no job is
    /// queued or running.
    pub fn wait_idle(&self) {
        let sh = &self.shared;
        let (lock, cv) = &sh.idle;
        let mut g = lock.lock().unwrap();
        loop {
            let s = sh.stats();
            let queued = sh.lanes.lock().unwrap().len;
            if s.unaccounted() == 0
                && queued == 0
                && sh.running.load(Ordering::Acquire) == 0
                && sh.delivering.load(Ordering::Relaxed) == 0
            {
                return;
            }
            let (guard, _timeout) = cv
                .wait_timeout(g, std::time::Duration::from_millis(50))
                .unwrap();
            g = guard;
        }
    }

    /// Drain and stop: still-queued jobs are shed (`"server draining"`),
    /// running jobs finish, workers and the watchdog join. Idempotent.
    pub fn shutdown(&self) {
        let sh = &self.shared;
        let drained: Vec<Job> = {
            let mut lanes = sh.lanes.lock().unwrap();
            lanes.draining = true;
            let mut out = Vec::with_capacity(lanes.len);
            for lane in 0..lanes.queues.len() {
                while let Some(j) = lanes.queues[lane].pop_front() {
                    lanes.len -= 1;
                    j.tenant.queued.fetch_sub(1, Ordering::Relaxed);
                    out.push(j);
                }
            }
            out
        };
        for job in drained {
            sh.finish(
                &job,
                Verdict::Shed { reason: "server draining".to_string() },
                false,
                0,
            );
        }
        {
            // Under the lane lock: a worker in `pop` checks `stop` and
            // parks while holding it, so the store lands either before its
            // check or after it parked, and the notify below wakes it.
            let _lanes = sh.lanes.lock().unwrap();
            sh.stop.store(true, Ordering::Release);
        }
        sh.work_cv.notify_all();
        let threads: Vec<_> = std::mem::take(&mut *self.threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}
