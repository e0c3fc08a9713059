//! `serve_storm` — throughput, tail latency, and tenant isolation for
//! the `hetero-serve` benchmark service.
//!
//! Two phases:
//!
//! 1. **Storm** — queue N jobs (default 1k and 10k sweeps) across 8
//!    tenants, 2 cheap apps, and all 3 priority lanes, then drain.
//!    Reports p50/p99 latency and jobs/sec, and *gates* on the
//!    accounting invariant: every submitted job resolves to exactly one
//!    verdict (`unaccounted == 0`), all of them `Completed`, none
//!    uncontained — and on a count: every output validated, with at
//!    most one golden comparison per kind of job in the mix
//!    (`suite::validation_stats`), the rest recognised.
//!
//! 2. **Isolation** — paired rounds of a closed-loop clean tenant
//!    (high-priority KMeans, one job in flight, client-side latency)
//!    measured solo and then against a chaos-seeded hostile tenant
//!    (low-priority, panic injection at rate 1.0, `2 × workers` jobs
//!    continuously in flight, breakers and quarantine disabled so the
//!    hostile load never lets up). *Gate*: the median-of-rounds hostile
//!    p99 must stay within 10% of the solo p99.
//!
//! Writes `BENCH_serve_storm.json` (or the path given as the first
//! argument).
//!
//! `--jobs` may repeat to set the storm sweep sizes (default 1000 and
//! 10000).

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use altis_bench::json::{arr, Obj};
use altis_bench::report::{self, Op, Report};
use altis_bench::timing::{median, percentile};
use altis_core::suite::validation_stats;
use hetero_serve::{
    FaultKindSel, Hardening, JobRequest, MonotonicClock, Priority, ResultSink, Scheduler,
    ServeConfig, Verdict,
};

const STORM_APPS: [&str; 2] = ["Where", "DWT2D"];
const CLEAN_APP: &str = "KMeans";
const HOSTILE_APP: &str = "Where";
const USAGE: &str = "serve_storm [out.json] [--jobs N]... [--workers N]";
/// Paired solo / hostile rounds of the isolation gate.
const ROUNDS: usize = 3;
/// Clean-tenant samples per round.
const SAMPLES: usize = 60;

fn req(tenant: &str, app: &str) -> JobRequest {
    JobRequest {
        tenant: tenant.to_string(),
        app: app.to_string(),
        ..JobRequest::default()
    }
}

/// Queue `jobs` cheap jobs across tenants/apps/lanes, drain, and gate
/// the accounting: every submitted job resolves to exactly one verdict,
/// all of them `Completed`, none uncontained. Latencies come from the
/// scheduler's own `latency_ms` (enqueue → verdict).
fn storm(jobs: usize, workers: usize, report: &mut Report) -> Obj {
    let s = Scheduler::new(
        ServeConfig {
            workers,
            queue_capacity: jobs + 1,
            tenant_queued_limit: jobs as u64 + 1,
            ..ServeConfig::default()
        },
        Arc::new(MonotonicClock::new()),
    );
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(jobs)));
    let l = latencies.clone();
    let sink: ResultSink = Arc::new(move |res| l.lock().unwrap().push(res.latency_ms as f64));
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let before = validation_stats();
    let t0 = Instant::now();
    for i in 0..jobs {
        s.submit(
            JobRequest {
                id: i as u64,
                priority: priorities[i % 3],
                ..req(&format!("t{}", i % 8), STORM_APPS[i % 2])
            },
            sink.clone(),
        );
        // The first job of each kind runs alone, so each kind's one
        // golden comparison cannot be raced by a second cold worker and
        // the count gate below is exact whatever the worker count.
        if i < STORM_APPS.len() {
            s.wait_idle();
        }
    }
    s.wait_idle();
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = s.stats();
    s.shutdown();
    let after = validation_stats();
    let reference_runs = after.reference_runs - before.reference_runs;
    let recognised = after.recognised - before.recognised;

    report.gate(&format!("storm({jobs}) submitted"), stats.submitted as f64, Op::Eq, jobs as f64);
    report.gate(&format!("storm({jobs}) unaccounted"), stats.unaccounted() as f64, Op::Eq, 0.0);
    report.gate(&format!("storm({jobs}) completed"), stats.completed as f64, Op::Eq, jobs as f64);
    report.gate(&format!("storm({jobs}) uncontained"), stats.uncontained as f64, Op::Eq, 0.0);
    // Every job is validated, but golden is consulted once per kind of
    // job in the mix (app × size × flavor: the two apps) at most.
    report.gate(
        &format!("storm({jobs}) reference_runs"),
        reference_runs as f64,
        Op::Le,
        STORM_APPS.len() as f64,
    );
    report.gate(
        &format!("storm({jobs}) validated"),
        (reference_runs + recognised) as f64,
        Op::Eq,
        jobs as f64,
    );
    let lat = latencies.lock().unwrap().clone();
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    println!(
        "  {jobs:>6} jobs: {:>7.2} jobs/s, p50 {p50:>7.1} ms, p99 {p99:>7.1} ms, wall {wall_s:.2}s, \
         {} unaccounted, {reference_runs} reference runs, {recognised} recognised",
        jobs as f64 / wall_s,
        stats.unaccounted()
    );
    Obj::new()
        .set("jobs", jobs)
        .set("wall_s", wall_s)
        .set("jobs_per_s", jobs as f64 / wall_s)
        .set("p50_ms", p50)
        .set("p99_ms", p99)
        .set("unaccounted", stats.unaccounted())
        .set("uncontained", stats.uncontained)
        .set("reference_runs", reference_runs)
        .set("recognised", recognised)
}

/// One closed-loop clean-tenant round: `samples` jobs, one in flight,
/// client-side latency in ms. When `hostile` is set, `2 × workers`
/// hostile closed-loop clients keep panic-injected jobs in flight the
/// whole time. Returns the clean p99, the hostile job count, and how
/// many clean jobs did not complete or were left unaccounted (hostile
/// faults leaking).
fn isolation_round(samples: usize, workers: usize, hostile: bool) -> (f64, u64, u64) {
    let s = Arc::new(Scheduler::new(
        ServeConfig {
            workers,
            queue_capacity: 4096,
            tenant_queued_limit: 4096,
            // The gate measures *scheduling* isolation under worst-case
            // hostile pressure: disable the defenses that would
            // otherwise shut the hostile tenant down in milliseconds.
            breaker_open_after: u32::MAX,
            quarantine_after: 0,
            ..ServeConfig::default()
        },
        Arc::new(MonotonicClock::new()),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let hostile_jobs = Arc::new(AtomicU64::new(0));
    let mut hostile_threads = Vec::new();
    if hostile {
        for h in 0..workers * 2 {
            let s = s.clone();
            let stop = stop.clone();
            let count = hostile_jobs.clone();
            hostile_threads.push(std::thread::spawn(move || {
                let (tx, rx) = mpsc::sync_channel::<()>(1);
                let sink: ResultSink = Arc::new(move |_| {
                    let _ = tx.try_send(());
                });
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    s.submit(
                        JobRequest {
                            id: i,
                            priority: Priority::Low,
                            hardening: Hardening::Resilient,
                            fault_seed: Some(0xC0FFEE + h as u64 * 10_000 + i),
                            fault_rate: 1.0,
                            fault_kind: FaultKindSel::Panic,
                            ..req("hostile", HOSTILE_APP)
                        },
                        sink.clone(),
                    );
                    i += 1;
                    count.fetch_add(1, Ordering::Relaxed);
                    let _ = rx.recv();
                }
            }));
        }
        // Let the hostile load reach steady state before sampling.
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    let mut lat_ms = Vec::with_capacity(samples);
    let mut leaked = 0u64;
    let (tx, rx) = mpsc::sync_channel::<Verdict>(1);
    let sink: ResultSink = Arc::new(move |res| {
        let _ = tx.try_send(res.verdict);
    });
    for i in 0..samples {
        let t0 = Instant::now();
        s.submit(
            JobRequest { id: i as u64, priority: Priority::High, ..req("clean", CLEAN_APP) },
            sink.clone(),
        );
        let verdict = rx.recv().expect("clean job verdict");
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if verdict != Verdict::Completed {
            eprintln!("clean tenant job {i} got {verdict:?} — hostile faults leaked");
            leaked += 1;
        }
    }

    stop.store(true, Ordering::Relaxed);
    for t in hostile_threads {
        let _ = t.join();
    }
    s.wait_idle();
    let stats = s.stats();
    if stats.unaccounted() != 0 || stats.uncontained != 0 {
        eprintln!("isolation round left unaccounted/uncontained jobs: {stats:?}");
        leaked += stats.unaccounted() + stats.uncontained;
    }
    s.shutdown();
    (percentile(&lat_ms, 0.99), hostile_jobs.load(Ordering::Relaxed), leaked)
}

fn main() -> ExitCode {
    report::run(USAGE, &["--jobs", "--workers"], &[], |args| {
        let mut storm_sizes: Vec<usize> = args.all("--jobs")?;
        if storm_sizes.is_empty() {
            storm_sizes = vec![1_000, 10_000];
        }
        let workers: usize = args.get("--workers", ServeConfig::default().workers)?;
        let mut report = Report::new("serve_storm");
        report.set("workers", workers);

        println!("serve storm: {workers} workers, sweep {storm_sizes:?}");
        let storms: Vec<Obj> =
            storm_sizes.iter().map(|&jobs| storm(jobs, workers, &mut report)).collect();
        report.set("storms", arr(storms));

        println!("isolation gate: {ROUNDS} paired rounds x {SAMPLES} clean samples");
        let (mut solo, mut mixed) = (Vec::new(), Vec::new());
        let (mut hostile_total, mut leaked) = (0u64, 0u64);
        for round in 0..ROUNDS {
            let (s, _, l0) = isolation_round(SAMPLES, workers, false);
            let (m, h, l1) = isolation_round(SAMPLES, workers, true);
            hostile_total += h;
            leaked += l0 + l1;
            println!("  round {round}: solo p99 {s:>7.2} ms, hostile p99 {m:>7.2} ms");
            solo.push(s);
            mixed.push(m);
        }
        let (solo_p99, mixed_p99) = (median(&solo), median(&mixed));
        let delta_pct = (mixed_p99 / solo_p99 - 1.0) * 100.0;
        report.gate("clean-tenant jobs lost to hostile faults", leaked as f64, Op::Eq, 0.0);
        let pass =
            report.gate("clean-tenant p99 moved by the hostile tenant (%)", delta_pct, Op::Le, 10.0);
        println!(
            "  clean-tenant p99: solo {solo_p99:.2} ms, under hostile storm {mixed_p99:.2} ms \
             ({delta_pct:+.1}%, {hostile_total} hostile jobs) -> {}",
            if pass { "PASS" } else { "FAIL" }
        );
        report.set(
            "isolation",
            Obj::new()
                .set("rounds", ROUNDS)
                .set("samples_per_round", SAMPLES)
                .set("clean_app", CLEAN_APP)
                .set("hostile_app", HOSTILE_APP)
                .set("hostile_jobs", hostile_total)
                .set("solo_p99_ms", solo_p99)
                .set("hostile_p99_ms", mixed_p99)
                .set("delta_pct", delta_pct)
                .set("gate_pct", 10.0)
                .set("pass", pass),
        );
        Ok(report.finish(&args.out("BENCH_serve_storm.json")))
    })
}
