//! End-to-end scheduler behavior: one verdict per job, deadlines,
//! shedding, breaker routing, weighted-fair lanes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hetero_serve::{
    FaultKindSel, Flavor, Hardening, JobRequest, JobResult, MonotonicClock, Priority,
    ResultSink, Scheduler, ServeConfig, Verdict,
};

/// Tests in this binary run one at a time: timing-sensitive assertions
/// (deadlines, lane ordering) want an unloaded machine.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn collector() -> (ResultSink, Arc<Mutex<Vec<JobResult>>>) {
    let results = Arc::new(Mutex::new(Vec::new()));
    let r = results.clone();
    let sink: ResultSink = Arc::new(move |res| r.lock().unwrap().push(res));
    (sink, results)
}

fn req(tenant: &str, app: &str) -> JobRequest {
    JobRequest {
        tenant: tenant.to_string(),
        app: app.to_string(),
        ..JobRequest::default()
    }
}

fn scheduler(cfg: ServeConfig) -> Scheduler {
    Scheduler::new(cfg, Arc::new(MonotonicClock::new()))
}

#[test]
fn every_submitted_job_gets_exactly_one_verdict() {
    let _serial = serialize();
    let s = scheduler(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (sink, results) = collector();
    // A mix of clean jobs, admission failures, and malformed routes.
    for i in 0..8 {
        let mut r = req("acme", "Where");
        r.id = i;
        s.submit(r, sink.clone());
    }
    s.submit(req("acme", "NoSuchApp"), sink.clone());
    s.submit(
        JobRequest { flavor: Flavor::Graph, ..req("acme", "Where") },
        sink.clone(),
    );
    s.submit(
        JobRequest {
            flavor: Flavor::Graph,
            hardening: Hardening::Sdc,
            ..req("acme", "SRAD")
        },
        sink.clone(),
    );
    s.wait_idle();
    let stats = s.stats();
    assert_eq!(stats.submitted, 11);
    assert_eq!(stats.unaccounted(), 0, "every job must have one verdict");
    assert_eq!(results.lock().unwrap().len(), 11);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.uncontained, 0);
    s.shutdown();
}

#[test]
fn deadline_fires_and_is_typed_not_hung() {
    let _serial = serialize();
    // One breaker-class failure would open the route's breaker.
    let s = scheduler(ServeConfig {
        workers: 1,
        watchdog_tick_ms: 1,
        breaker_open_after: 1,
        ..ServeConfig::default()
    });
    let (sink, results) = collector();
    // FDTD2D at S1 runs ~20ms debug-much-longer; a 1 ms deadline always
    // fires mid-run and must come back as a Deadline verdict, on the
    // plain tier and on the SDC tier alike, and never charge the breaker.
    for hardening in [Hardening::None, Hardening::Sdc] {
        s.submit(
            JobRequest { deadline_ms: Some(1), hardening, ..req("acme", "FDTD2D") },
            sink.clone(),
        );
        s.wait_idle();
    }
    let got = results.lock().unwrap();
    assert_eq!(got.len(), 2);
    for r in got.iter() {
        assert_eq!(r.verdict, Verdict::Deadline, "got {r:?}");
    }
    let stats = s.stats();
    assert_eq!(stats.deadline, 2);
    assert_eq!(stats.uncontained, 0, "cancellation must stay typed");
    assert_eq!(stats.breaker_trips, 0, "a deadline is not a route failure");
    drop(got);

    // The scheduler (and the shared pool) survive: a clean job on the
    // same worker completes.
    let (sink2, results2) = collector();
    s.submit(req("acme", "Where"), sink2);
    s.wait_idle();
    assert_eq!(results2.lock().unwrap()[0].verdict, Verdict::Completed);
    s.shutdown();
}

#[test]
fn bounded_queue_sheds_under_overload() {
    let _serial = serialize();
    let s = scheduler(ServeConfig {
        workers: 1,
        queue_capacity: 3,
        tenant_queued_limit: 1_000,
        ..ServeConfig::default()
    });
    let (sink, results) = collector();
    for _ in 0..40 {
        s.submit(req("acme", "Where"), sink.clone());
    }
    s.wait_idle();
    let stats = s.stats();
    assert_eq!(stats.unaccounted(), 0);
    assert!(stats.shed > 0, "40 jobs through a 3-deep queue must shed: {stats:?}");
    assert!(stats.completed > 0);
    let got = results.lock().unwrap();
    assert_eq!(got.len(), 40);
    for r in got.iter() {
        if let Verdict::Shed { reason } = &r.verdict {
            assert!(reason.contains("queue full"), "{reason}");
        }
    }
    s.shutdown();
}

#[test]
fn tenant_quota_rejects_distinctly_from_shedding() {
    let _serial = serialize();
    let s = scheduler(ServeConfig {
        workers: 1,
        queue_capacity: 1_000,
        tenant_queued_limit: 2,
        ..ServeConfig::default()
    });
    let (sink, results) = collector();
    for _ in 0..30 {
        s.submit(req("greedy", "Where"), sink.clone());
    }
    s.wait_idle();
    let stats = s.stats();
    assert_eq!(stats.unaccounted(), 0);
    assert!(stats.rejected > 0, "quota must reject: {stats:?}");
    assert_eq!(stats.shed, 0, "quota overruns are rejections, not shed");
    let got = results.lock().unwrap();
    for r in got.iter() {
        if let Verdict::Rejected { reason } = &r.verdict {
            assert!(reason.contains("quota"), "{reason}");
        }
    }
    s.shutdown();
}

#[test]
fn breaker_opens_on_panic_class_failures_then_recovers() {
    let _serial = serialize();
    let s = scheduler(ServeConfig {
        workers: 1,
        breaker_open_after: 2,
        breaker_cooldown_ms: 200,
        ..ServeConfig::default()
    });
    let (sink, results) = collector();
    // Panic-only injection at rate 1.0: every launch panics, retries
    // don't apply (panics are never retried), so each job quarantines
    // with a KernelPanicked reason — a breaker-class failure.
    for i in 0..2 {
        s.submit(
            JobRequest {
                id: i,
                hardening: Hardening::Resilient,
                fault_seed: Some(7),
                fault_rate: 1.0,
                fault_kind: FaultKindSel::Panic,
                ..req("acme", "Where")
            },
            sink.clone(),
        );
        s.wait_idle();
    }
    // Third job (clean!) hits the now-open breaker on the cpu route.
    s.submit(JobRequest { id: 2, ..req("acme", "Where") }, sink.clone());
    s.wait_idle();
    {
        let got = results.lock().unwrap();
        assert!(matches!(&got[0].verdict, Verdict::Quarantined { reason } if reason.contains("panicked")));
        assert!(matches!(&got[1].verdict, Verdict::Quarantined { reason } if reason.contains("panicked")));
        assert!(
            matches!(&got[2].verdict, Verdict::Rejected { reason } if reason.contains("circuit open")),
            "got {:?}",
            got[2].verdict
        );
    }
    assert!(s.stats().breaker_trips >= 1);

    // After the cooldown, a clean probe closes the breaker again.
    std::thread::sleep(std::time::Duration::from_millis(250));
    s.submit(JobRequest { id: 3, ..req("acme", "Where") }, sink.clone());
    s.wait_idle();
    {
        let got = results.lock().unwrap();
        assert_eq!(got[3].verdict, Verdict::Completed, "probe should run clean");
    }
    s.submit(JobRequest { id: 4, ..req("acme", "Where") }, sink.clone());
    s.wait_idle();
    let got = results.lock().unwrap();
    assert_eq!(got[4].verdict, Verdict::Completed);
    s.shutdown();
}

#[test]
fn graph_flavors_run_through_the_service() {
    let _serial = serialize();
    let s = scheduler(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (sink, results) = collector();
    s.submit(JobRequest { flavor: Flavor::Graph, ..req("acme", "FDTD2D") }, sink.clone());
    s.wait_idle();
    let got = results.lock().unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].verdict, Verdict::Completed, "graph flavor failed: {:?}", got[0]);
    s.shutdown();
}

#[test]
fn sdc_hardened_jobs_get_corruption_verdicts() {
    let _serial = serialize();
    let s = scheduler(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (sink, results) = collector();
    // Silent-fault injection under the full defense stack: outcomes
    // must be completed/corrected/quarantined, never uncontained.
    for i in 0..3 {
        s.submit(
            JobRequest {
                id: i,
                hardening: Hardening::Sdc,
                fault_seed: Some(i + 1),
                fault_rate: 0.2,
                ..req("acme", "Where")
            },
            sink.clone(),
        );
    }
    s.wait_idle();
    let stats = s.stats();
    assert_eq!(stats.unaccounted(), 0);
    assert_eq!(stats.uncontained, 0, "SDC defense must contain: {stats:?}");
    let got = results.lock().unwrap();
    assert_eq!(got.len(), 3);
    for r in got.iter() {
        assert!(
            matches!(
                r.verdict,
                Verdict::Completed | Verdict::Corrected { .. } | Verdict::Quarantined { .. }
            ),
            "unexpected verdict {r:?}"
        );
    }
    s.shutdown();
}

/// Plain and SDC jobs share the process and the pool: a plain job's
/// writes are never read as an SDC job's corruption, nor is an SDC job's
/// verdict computed from another job's launches. Over a pinned deck that
/// mixes both, every plain job completes, and the SDC verdicts at two
/// workers equal those of one worker, job by job.
#[test]
fn plain_and_sdc_jobs_overlap_without_sharing_verdicts() {
    let _serial = serialize();
    let deck = || {
        let plain = ["Where", "FDTD2D", "NW", "Mandelbrot", "SRAD", "KMeans"];
        let sdc = ["Where", "NW", "SRAD", "KMeans", "Mandelbrot", "FDTD2D"];
        let plain = plain.into_iter().enumerate().map(|(i, app)| (i as u64, req("plain", app)));
        let sdc = sdc.into_iter().enumerate().map(|(i, app)| {
            let id = 100 + i as u64;
            let tenant = format!("sdc{i}");
            let r = JobRequest {
                hardening: Hardening::Sdc,
                fault_seed: Some(id),
                fault_rate: 0.05,
                ..req(&tenant, app)
            };
            (id, r)
        });
        // Interleaved, so the two workers run a plain and an SDC job side
        // by side.
        plain.zip(sdc).flat_map(|(a, b)| [a, b]).map(|(id, r)| JobRequest { id, ..r })
    };
    let run = |workers: usize| {
        let s = scheduler(ServeConfig { workers, ..ServeConfig::default() });
        let (sink, results) = collector();
        for r in deck() {
            s.submit(r, sink.clone());
        }
        s.wait_idle();
        s.shutdown();
        let mut got: Vec<(u64, Verdict)> =
            results.lock().unwrap().iter().map(|r| (r.id, r.verdict.clone())).collect();
        got.sort_by_key(|&(id, _)| id);
        got
    };
    // A quarantine's reason names the region by its process-wide id; the
    // verdict kind and the correction count are the job's own.
    let kind = |v: &Verdict| match v {
        Verdict::Quarantined { .. } => "quarantined".to_string(),
        other => format!("{other:?}"),
    };
    let (one, two) = (run(1), run(2));
    assert_eq!(two.len(), 12);
    for (id, v) in two.iter().filter(|(id, _)| *id < 100) {
        assert_eq!(*v, Verdict::Completed, "plain job {id}");
    }
    let sdc = |got: &[(u64, Verdict)]| -> Vec<(u64, String)> {
        got.iter().filter(|(id, _)| *id >= 100).map(|(id, v)| (*id, kind(v))).collect()
    };
    assert_eq!(sdc(&two), sdc(&one));
}

#[test]
fn draining_sheds_queued_jobs_with_verdicts() {
    let _serial = serialize();
    let s = scheduler(ServeConfig { workers: 1, ..ServeConfig::default() });
    let (sink, results) = collector();
    for _ in 0..20 {
        s.submit(req("acme", "KMeans"), sink.clone());
    }
    s.shutdown(); // immediately: most jobs are still queued
    let stats = s.stats();
    assert_eq!(stats.unaccounted(), 0, "drain must account every job: {stats:?}");
    assert_eq!(results.lock().unwrap().len(), 20);
    assert!(stats.shed > 0, "a fast shutdown should shed queued work");
    // Submissions after shutdown still get a verdict (shed).
    let before = s.stats().submitted;
    s.submit(req("acme", "Where"), sink.clone());
    assert_eq!(s.stats().submitted, before + 1);
    assert_eq!(s.stats().unaccounted(), 0);
}

#[test]
fn priority_lanes_drain_weighted_fair() {
    let _serial = serialize();
    // One worker, jobs preloaded while it is blocked by a long first
    // job: completion order of the backlog then follows the 4:2:1
    // weighted cycle rather than FIFO across lanes.
    let s = scheduler(ServeConfig { workers: 1, ..ServeConfig::default() });
    let order = Arc::new(Mutex::new(Vec::new()));
    let done = Arc::new(AtomicU64::new(0));
    let sink: ResultSink = {
        let order = order.clone();
        let done = done.clone();
        Arc::new(move |res: JobResult| {
            order.lock().unwrap().push((res.id, res.verdict.clone()));
            done.fetch_add(1, Ordering::SeqCst);
        })
    };
    // Block the worker first so the backlog builds deterministically.
    s.submit(JobRequest { id: 1000, ..req("acme", "KMeans") }, sink.clone());
    for i in 0..6 {
        s.submit(
            JobRequest { id: 100 + i, priority: Priority::Low, ..req("acme", "Where") },
            sink.clone(),
        );
        s.submit(
            JobRequest { id: 200 + i, priority: Priority::Normal, ..req("acme", "Where") },
            sink.clone(),
        );
        s.submit(
            JobRequest { id: 300 + i, priority: Priority::High, ..req("acme", "Where") },
            sink.clone(),
        );
    }
    s.wait_idle();
    let order = order.lock().unwrap();
    assert_eq!(order.len(), 19);
    // Among the first half of the backlog, high-priority jobs must be
    // overrepresented: count highs in the first 9 completions after the
    // blocker.
    let first9: Vec<u64> = order.iter().skip(1).take(9).map(|(id, _)| *id).collect();
    let highs = first9.iter().filter(|id| (300..400).contains(*id)).count();
    let lows = first9.iter().filter(|id| (100..200).contains(*id)).count();
    assert!(
        highs > lows,
        "high lane must outpace low under load: first9={first9:?}"
    );
    s.shutdown();
}

#[test]
fn stream_jobs_complete_cleanly_without_faults() {
    let _serial = serialize();
    let s = scheduler(ServeConfig { workers: 1, ..ServeConfig::default() });
    let (sink, results) = collector();
    s.submit(
        JobRequest { stream_windows: Some(8), ..req("acme", "SRAD") },
        sink.clone(),
    );
    s.wait_idle();
    let results = results.lock().unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].verdict, Verdict::Completed);
    assert_eq!(s.stats().uncontained, 0);
    drop(results);
    s.shutdown();
}

#[test]
fn stream_jobs_contain_faults_as_corrected_never_quarantined() {
    let _serial = serialize();
    let s = scheduler(ServeConfig { workers: 1, ..ServeConfig::default() });
    let (sink, results) = collector();
    s.submit(
        JobRequest {
            stream_windows: Some(12),
            fault_seed: Some(9),
            fault_rate: 0.5,
            hardening: Hardening::Resilient,
            ..req("acme", "SRAD")
        },
        sink.clone(),
    );
    s.wait_idle();
    let results = results.lock().unwrap();
    assert_eq!(results.len(), 1);
    // Faults land on windows, not the job: the stream survives and the
    // verdict reports how many windows needed containment.
    match &results[0].verdict {
        Verdict::Corrected { events } => assert!(*events > 0),
        other => panic!("expected Corrected at 50% fault rate, got {other:?}"),
    }
    assert_eq!(s.stats().quarantined, 0);
    assert_eq!(s.stats().uncontained, 0);
    drop(results);
    s.shutdown();
}

#[test]
fn stream_admission_rejects_unconverted_apps_sdc_and_non_cpu_routes() {
    let _serial = serialize();
    let s = scheduler(ServeConfig { workers: 1, ..ServeConfig::default() });
    let (sink, results) = collector();
    s.submit(
        JobRequest { stream_windows: Some(4), ..req("acme", "Where") },
        sink.clone(),
    );
    s.submit(
        JobRequest {
            stream_windows: Some(4),
            hardening: Hardening::Sdc,
            ..req("acme", "SRAD")
        },
        sink.clone(),
    );
    s.submit(
        JobRequest {
            stream_windows: Some(4),
            device: hetero_serve::DeviceRoute::Gpu,
            ..req("acme", "SRAD")
        },
        sink.clone(),
    );
    s.wait_idle();
    let results = results.lock().unwrap();
    assert_eq!(results.len(), 3);
    for r in results.iter() {
        assert!(
            matches!(r.verdict, Verdict::Rejected { .. }),
            "expected rejection, got {:?}",
            r.verdict
        );
    }
    assert_eq!(s.stats().rejected, 3);
    drop(results);
    s.shutdown();
}
