//! `chaos` — suite-level resilience harness.
//!
//! Runs every one of the thirteen suite configurations under a seeded
//! fault-injection plan and asserts the runtime's containment contract:
//! every run ends either bit-correct or with a *typed* runtime error —
//! never an unclassified panic, a hang, or a poisoned worker pool. After
//! each app a pool-health probe launches a clean kernel and checks its
//! result, so a fault that wedged the shared pool is caught immediately.
//!
//! The plan reaches the applications with **zero code changes**: queues
//! pick up `HETERO_RT_FAULT_SEED` / `HETERO_RT_FAULT_RATE` at
//! construction (together with a resilient retry policy), so the same
//! binary drives the whole smoke matrix in `scripts/verify.sh`.
//!
//! `--seed`/`--rate` set the environment variables before the first
//! queue is created; without them the pre-set environment is used
//! (defaulting to seed 1, rate 0.05). Exits nonzero if any run breaks
//! containment.
//!
//! With `--serve`, the same 13-config matrix is replayed *through the
//! benchmark service*: each configuration becomes one line-delimited
//! JSON job request, parsed by the real protocol layer and executed by
//! an in-process `hetero_serve::Scheduler` (fault plans per-job, not
//! via the environment). The containment contract becomes: every job
//! gets exactly one typed verdict, none are uncontained, and the
//! server — including the shared worker pool — survives the full
//! matrix.
//!
//! With `--stream`, a seeded fault matrix (transient / panic / alloc /
//! mixed kinds) is driven against each streaming-converted app's *live
//! window stream*. The contract is windowed containment end to end:
//! faults quarantine **windows, never the stream** — every one of the
//! `--windows` windows gets a typed verdict, none are Dropped, every
//! Delivered window is bit-equal to a fault-free golden trail, and the
//! shared pool stays healthy after each cell.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use altis_bench::json::Obj;
use altis_bench::report::{
    self, golden_registry_ok, validation_summary, verdict, Args, UsageError,
};
use altis_core::common::AppVersion;
use altis_core::suite::{all_apps, run_resilient, ResilienceOutcome};
use altis_data::InputSize;
use hetero_rt::prelude::*;

const USAGE: &str = "chaos [--seed N] [--rate R] [--serve] [--stream] [--windows N]";

/// Watchdog per app run.
const TIMEOUT: Duration = Duration::from_secs(60);

fn pool_is_healthy() -> bool {
    // A clean, plan-free launch through the shared pool must still
    // produce exact results after whatever the chaos run did to it.
    let q = Queue::new(Device::cpu()).with_fault_plan(None);
    let b = Buffer::<u32>::new(4096);
    let v = b.view();
    let r = q.try_parallel_for("pool_probe", Range::d1(4096), move |it| {
        v.set(it.gid(0), it.gid(0) as u32 ^ 0xA5A5);
    });
    r.is_ok()
        && b.to_vec()
            .iter()
            .enumerate()
            .all(|(i, &x)| x == i as u32 ^ 0xA5A5)
}

/// `--serve`: drive the matrix through the service protocol. Every app
/// becomes one JSON request line; the line goes through the real
/// parser (`hetero_serve::json` + `JobRequest::from_json`) and an
/// in-process scheduler. Returns the number of contract violations.
fn serve_matrix(seed: u64, rate: f64) -> u32 {
    use std::sync::{Arc, Mutex};

    use hetero_serve::json;
    use hetero_serve::{
        JobRequest, JobResult, MonotonicClock, ResultSink, Scheduler, ServeConfig, Verdict,
    };

    let s = Scheduler::new(ServeConfig::default(), Arc::new(MonotonicClock::new()));
    let results: Arc<Mutex<Vec<JobResult>>> = Arc::new(Mutex::new(Vec::new()));
    let r = results.clone();
    let sink: ResultSink = Arc::new(move |res| r.lock().unwrap().push(res));

    let mut submitted = 0u32;
    for (i, app) in all_apps().iter().enumerate() {
        // Build the actual wire line, then push it through the protocol
        // stack — the point is to exercise what a client would send.
        let line = format!(
            "{{\"id\":{i},\"tenant\":\"chaos\",\"app\":\"{}\",\"size\":1,\
             \"hardening\":\"resilient\",\"fault_seed\":{seed},\"fault_rate\":{rate}}}",
            json::escape(app.name)
        );
        let parsed = json::parse(&line).expect("chaos emits valid protocol lines");
        let req = JobRequest::from_json(&parsed).expect("chaos emits valid job requests");
        s.submit(req, sink.clone());
        submitted += 1;
    }
    s.wait_idle();
    let stats = s.stats();

    let mut broken = 0u32;
    {
        let got = results.lock().unwrap();
        if got.len() as u32 != submitted {
            eprintln!(
                "chaos --serve: {} verdicts for {submitted} submissions",
                got.len()
            );
            broken += 1;
        }
        for res in got.iter() {
            let (verdict, detail) = match &res.verdict {
                Verdict::Completed => ("contained", "correct results".to_string()),
                Verdict::Corrected { events } => {
                    ("contained", format!("corrected ({events} events)"))
                }
                Verdict::Quarantined { reason } if reason.starts_with("UNCONTAINED") => {
                    broken += 1;
                    ("NOT CONTAINED", reason.clone())
                }
                Verdict::Quarantined { reason } => {
                    ("contained", format!("typed verdict: {reason}"))
                }
                other => {
                    // Rejected/Shed/Deadline cannot happen here: the
                    // matrix is admitted unconditionally with no
                    // deadline and a 1024-deep queue.
                    broken += 1;
                    ("NOT CONTAINED", format!("unexpected verdict {other:?}"))
                }
            };
            println!("  {:<12} {verdict:<14} {detail}", res.app);
        }
    }
    if stats.unaccounted() != 0 || stats.uncontained != 0 {
        eprintln!(
            "chaos --serve: unaccounted={} uncontained={}",
            stats.unaccounted(),
            stats.uncontained
        );
        broken += 1;
    }
    s.shutdown();
    if !pool_is_healthy() {
        eprintln!("chaos --serve: shared pool poisoned after the matrix");
        broken += 1;
    }
    broken
}

/// `--stream`: the windowed-containment matrix. For each streaming app
/// and each fault-kind cell, a fault-free golden digest trail is
/// recorded first, then the same windows run with injection on the
/// primary queue. Violations: the stream dying, a missing or `Dropped`
/// window verdict, a Delivered window diverging from the golden trail,
/// or a poisoned pool. Returns the violation count.
fn stream_matrix(seed: u64, rate: f64, windows: u64) -> (u32, u64) {
    use std::sync::Arc;

    use altis_core::streaming::{open_stream, StreamScenario, STREAM_APPS};

    const MIXED: [FaultKind; 4] = [
        FaultKind::LaunchTransient,
        FaultKind::KernelPanic,
        FaultKind::AllocFail,
        FaultKind::PipeStall,
    ];
    const CELLS: [(&str, &[FaultKind]); 4] = [
        ("transient", &[FaultKind::LaunchTransient]),
        ("panic", &[FaultKind::KernelPanic]),
        ("alloc", &[FaultKind::AllocFail]),
        ("mixed", &MIXED),
    ];
    let cfg = StreamConfig::default();
    let mut broken = 0u32;
    let mut injected_total = 0u64;
    for app in STREAM_APPS {
        // Fault-free golden trail: the bit-exactness oracle for every
        // cell of this app's row.
        let mut trail = Vec::with_capacity(windows as usize);
        match open_stream(app, InputSize::S1, cfg, &StreamScenario::default()) {
            Ok(Some(mut s)) => {
                let mut ok = true;
                for _ in 0..windows {
                    match s.next_window() {
                        Ok(r) if r.verdict.is_delivered() => trail.push(r.digest),
                        other => {
                            eprintln!("  {app}: clean stream failed: {other:?}");
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    broken += 1;
                    continue;
                }
            }
            Ok(None) => {
                eprintln!("  {app}: no streaming conversion");
                broken += 1;
                continue;
            }
            Err(e) => {
                eprintln!("  {app}: stream failed to open: {e}");
                broken += 1;
                continue;
            }
        }
        for (kind_label, kinds) in CELLS {
            let plan = Arc::new(FaultPlan::new(seed, rate).with_kinds(kinds));
            let scenario =
                StreamScenario { fault: Some(plan.clone()), ..StreamScenario::default() };
            let mut s = match open_stream(app, InputSize::S1, cfg, &scenario) {
                Ok(Some(s)) => s,
                Ok(None) => {
                    eprintln!("  {app}/{kind_label}: no streaming conversion");
                    broken += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("  {app}/{kind_label}: stream failed to open: {e}");
                    broken += 1;
                    continue;
                }
            };
            let mut cell_broken = 0u32;
            for w in 0..windows {
                match s.next_window() {
                    Ok(r) => {
                        if r.verdict.is_delivered() && r.digest != trail[w as usize] {
                            eprintln!(
                                "  {app}/{kind_label}: window {w} Delivered but diverged \
                                 from the golden trail"
                            );
                            cell_broken += 1;
                        }
                    }
                    Err(e) => {
                        // The invariant under test: faults quarantine
                        // windows, never the stream.
                        eprintln!("  {app}/{kind_label}: STREAM DIED at window {w}: {e}");
                        cell_broken += 1;
                        break;
                    }
                }
            }
            let st = s.stats();
            if st.windows != windows || st.dropped != 0 {
                eprintln!(
                    "  {app}/{kind_label}: {} verdicts ({} Dropped) for {windows} windows",
                    st.windows, st.dropped
                );
                cell_broken += 1;
            }
            if !pool_is_healthy() {
                eprintln!("  {app}/{kind_label}: shared pool poisoned");
                cell_broken += 1;
            }
            injected_total += plan.injected();
            println!(
                "  {:<9} {:<10} {:<14} {} delivered, {} retried, {} quarantined, {} shed \
                 / {} injected, {} rollbacks",
                app,
                kind_label,
                if cell_broken == 0 { "contained" } else { "NOT CONTAINED" },
                st.delivered,
                st.retried,
                st.quarantined,
                st.shed,
                plan.injected(),
                st.rollbacks,
            );
            broken += cell_broken;
        }
    }
    (broken, injected_total)
}

/// One parameter of the fault plan, which reaches the queues through
/// the environment: the flag overrides a pre-set variable, which
/// overrides the default, and the variable is left holding the result.
fn plan_param<T: std::str::FromStr + ToString>(
    args: &Args,
    flag: &str,
    var: &str,
    default: T,
) -> std::result::Result<T, UsageError> {
    let from_env = || std::env::var(var).ok()?.parse().ok();
    let v = args.opt(flag)?.or_else(from_env).unwrap_or(default);
    std::env::set_var(var, v.to_string());
    Ok(v)
}

fn main() -> ExitCode {
    let value_flags = ["--seed", "--rate", "--windows"];
    report::run(USAGE, &value_flags, &["--serve", "--stream"], |args| {
        args.no_positional()?;
        let windows: u64 = args.get("--windows", 40)?;
        let seed: u64 = plan_param(args, "--seed", "HETERO_RT_FAULT_SEED", 1)?;
        let rate: f64 = plan_param(args, "--rate", "HETERO_RT_FAULT_RATE", 0.05)?;
        let line = |harness: &str| Obj::new().set("harness", harness);

        if args.has("--stream") {
            println!(
                "chaos --stream: seed {seed} rate {rate}, {windows} windows per cell, \
                 4 fault kinds x streaming apps"
            );
            let t0 = Instant::now();
            let (broken, injected) = stream_matrix(seed, rate, windows);
            println!(
                "chaos --stream: done in {:.2?}, {injected} faults injected, \
                 {broken} containment violation(s)",
                t0.elapsed()
            );
            let line = line("chaos-stream")
                .set("seed", seed)
                .set("rate", rate)
                .set("windows", windows)
                .set("faults_injected", injected)
                .set("violations", broken);
            return Ok(verdict(line, "contained", broken == 0));
        }

        if args.has("--serve") {
            println!(
                "chaos --serve: seed {seed} rate {rate} over the {}-app suite via the service protocol",
                all_apps().len()
            );
            let t0 = Instant::now();
            let broken = serve_matrix(seed, rate);
            println!(
                "chaos --serve: done in {:.2?}, {broken} contract violation(s); {}",
                t0.elapsed(),
                validation_summary()
            );
            let line = line("chaos-serve").set("seed", seed).set("rate", rate).set("violations", broken);
            return Ok(verdict(line, "contained", broken == 0));
        }

        let plan = FaultPlan::env_plan().expect("fault plan from environment");
        println!(
            "chaos: seed {} rate {} over the {}-app suite (timeout {}s/app)",
            plan.seed(),
            plan.rate(),
            all_apps().len(),
            TIMEOUT.as_secs()
        );
        // Scoped to the size this matrix runs.
        let golden_ok = golden_registry_ok("chaos", &[InputSize::S1]);

        let mut broken = 0u32;
        let mut runs = 0u32;
        let t0 = Instant::now();
        for app in all_apps().iter() {
            runs += 1;
            let q = Queue::new(Device::cpu());
            let outcome = run_resilient(app, q, InputSize::S1, AppVersion::SyclBaseline, TIMEOUT);
            let healthy = pool_is_healthy();
            let verdict = match (&outcome, healthy) {
                (o, true) if o.is_contained() => "contained",
                (_, false) => "POOL BROKEN",
                _ => "NOT CONTAINED",
            };
            let detail = match &outcome {
                ResilienceOutcome::Correct => "correct results".to_string(),
                ResilienceOutcome::TypedError(e) => format!("typed error: {e}"),
                ResilienceOutcome::Incorrect => "INCORRECT RESULTS".to_string(),
                ResilienceOutcome::Panicked(m) => format!("UNTYPED PANIC: {m}"),
                ResilienceOutcome::TimedOut => "HANG (watchdog fired)".to_string(),
            };
            println!("  {:<12} {verdict:<14} {detail}", app.name);
            if !outcome.is_contained() || !healthy {
                broken += 1;
            }
        }
        println!(
            "chaos: done in {:.2?}, {} faults injected, {} containment violation(s); {}",
            t0.elapsed(),
            plan.injected(),
            broken,
            validation_summary()
        );
        let line = line("chaos")
            .set("runs", runs)
            .set("seed", plan.seed())
            .set("rate", plan.rate())
            .set("faults_injected", plan.injected())
            .set("violations", broken)
            .set("golden_registry", if golden_ok { "ok" } else { "drifted" });
        Ok(verdict(line, "contained", broken == 0 && golden_ok))
    })
}
