//! Suite-level silent-data-corruption defense: applications driven
//! under seeded *silent* fault plans (bit-flips, stuck-at pages) with
//! the integrity layer armed and DMR voting on must end Correct,
//! Corrected, or Quarantined — never with silently wrong output
//! accepted as success. The full seeds × sizes matrix runs in
//! `scripts/verify.sh` through the `sdc` binary; this test keeps an
//! in-process slice of it in the tier-1 suite.
//!
//! Arming the integrity layer is process-global, so every test here
//! serializes on one mutex and disarms through an RAII guard.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use altis_core::common::AppVersion;
use altis_core::streaming::{open_stream, StreamScenario, STREAM_APPS};
use altis_core::suite::{
    all_apps, check_golden_registry_sizes, run_sdc, run_sdc_inline, SdcOutcome,
};
use altis_data::InputSize;
use hetero_rt::prelude::*;
use hetero_rt::{integrity, Redundancy, RetryPolicy};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| {
        // Pin a small fixed pool before first use so single-core hosts
        // still have parked workers (same pattern as hetero-rt tests).
        if std::env::var_os("HETERO_RT_THREADS").is_none() {
            std::env::set_var("HETERO_RT_THREADS", "4");
        }
        Mutex::new(())
    })
    .lock()
    .unwrap_or_else(PoisonError::into_inner)
}

/// Arms the integrity layer for one test; disarms and drains parked
/// scrubber reports on drop (even on panic).
struct Armed;

impl Armed {
    fn new() -> Self {
        integrity::arm();
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        integrity::disarm();
        let _ = integrity::take_scrub_reports();
    }
}

fn sdc_queue(seed: u64, rate: f64) -> Queue {
    Queue::new(Device::cpu())
        .with_integrity(true)
        .with_redundancy(Redundancy::Dmr)
        .with_retry_policy(RetryPolicy::resilient())
        .with_fault_plan(Some(Arc::new(FaultPlan::sdc(seed, rate))))
}

#[test]
fn armed_rate_zero_suite_slice_is_correct() {
    let _g = serial();
    let _a = Armed::new();
    // With the full defense armed but injection off, every app must
    // come back Correct: no false detections from the apps' own host
    // write patterns, no divergence from running replicas.
    let picks = ["Mandelbrot", "NW", "KMeans", "Where"];
    for app in all_apps().iter().filter(|a| picks.contains(&a.name)) {
        let o = run_sdc(
            app,
            sdc_queue(7, 0.0),
            InputSize::S1,
            AppVersion::SyclOptimized,
            Duration::from_secs(120),
        );
        assert_eq!(o, SdcOutcome::Correct, "{}: {o:?}", app.name);
    }
}

#[test]
fn every_configuration_verifies_sanitized_and_hardened() {
    // The staging sites of every app adopt and move host arrays instead
    // of copying them. Beside the plain queue of `suite_verification`,
    // the same 13 configurations must come out unchanged of a sanitizer
    // queue (views that die early, Where's flag buffer viewed twice) and
    // of an integrity + DMR queue (adopted allocations sealed, moved-out
    // ones unregistered).
    let _g = serial();
    let apps = all_apps();
    assert_eq!(apps.len(), 13);
    let plain = Queue::new(Device::cpu()).with_fault_plan(None);
    let sanitized = plain.clone().with_sanitizer(true);
    for app in &apps {
        assert!(
            (app.verify)(&sanitized, InputSize::S1, AppVersion::SyclOptimized),
            "{} failed on the sanitizer queue",
            app.name
        );
    }
    let _a = Armed::new();
    let hardened = plain.with_integrity(true).with_redundancy(Redundancy::Dmr);
    let regions = integrity::stats().regions;
    for app in &apps {
        let o = run_sdc_inline(app, &hardened, InputSize::S1, AppVersion::SyclOptimized);
        assert_eq!(o, SdcOutcome::Correct, "{}: {o:?}", app.name);
        assert_eq!(integrity::stats().regions, regions, "{} left a region behind", app.name);
    }
}

#[test]
fn fault_free_armed_graph_apps_raise_no_detections() {
    let _g = serial();
    let _a = Armed::new();
    // Integrity armed, nothing injected and *no* retry policy to absorb
    // a false alarm: the host stores between replays (FDTD2D's source
    // injection, SRAD's q0, the particle filter's frame scalars) must
    // leave every page seal truthful, so the run is Correct outright —
    // not Corrected, and not Quarantined on the first stale page.
    let picks = ["FDTD2D", "SRAD", "CFD FP32", "KMeans", "PF Naive"];
    let apps = all_apps();
    for name in picks {
        let app = apps.iter().find(|a| a.name == name).expect("graph app is registered");
        let before = integrity::detections_total();
        let o = run_sdc(
            app,
            Queue::new(Device::cpu()).with_fault_plan(None).with_integrity(true),
            InputSize::S1,
            AppVersion::SyclOptimized,
            Duration::from_secs(120),
        );
        assert_eq!(o, SdcOutcome::Correct, "{name}: {o:?}");
        assert_eq!(integrity::detections_total(), before, "{name}: false detections");
    }
}

/// An SDC stream scenario arms the layer itself, before the stage
/// allocates: in a process that was disarmed when the stream opened,
/// every stream app's buffers carry page seals from the first window,
/// and fault-free windows read back through them raise no detection.
#[test]
fn an_sdc_stream_seals_its_stage_buffers_from_the_first_window() {
    let _g = serial();
    let _a = Armed; // the scenario arms; the guard disarms
    for app in STREAM_APPS {
        integrity::disarm();
        let regions = integrity::stats().regions;
        let scenario = StreamScenario::sdc(5, 0.0);
        let mut s = open_stream(app, InputSize::S1, StreamConfig::default(), &scenario)
            .unwrap_or_else(|e| panic!("{app}: {e}"))
            .unwrap_or_else(|| panic!("{app}: no streaming conversion"));
        assert!(integrity::stats().regions > regions, "{app}: stage buffers allocated disarmed");
        let before = integrity::detections_total();
        for w in 0..4 {
            let r = s.next_window().unwrap_or_else(|e| panic!("{app}: window {w}: {e}"));
            assert!(r.verdict.is_delivered(), "{app}: window {w}: {:?}", r.verdict);
        }
        assert_eq!(integrity::detections_total(), before, "{app}: false detections");
    }
}

#[test]
fn injected_silent_faults_are_never_silently_wrong() {
    let _g = serial();
    let _a = Armed::new();
    let picks = ["Mandelbrot", "NW", "SRAD", "KMeans"];
    for app in all_apps().iter().filter(|a| picks.contains(&a.name)) {
        for seed in [1u64, 2] {
            let o = run_sdc(
                app,
                sdc_queue(seed, 0.05),
                InputSize::S1,
                AppVersion::SyclOptimized,
                Duration::from_secs(120),
            );
            assert!(
                !matches!(o, SdcOutcome::Uncontained { .. }),
                "{} seed {seed}: {o:?}",
                app.name
            );
        }
    }

    // The shared pool must still produce exact results afterwards.
    let q = Queue::new(Device::cpu());
    let b = Buffer::<u32>::new(1024);
    let v = b.view();
    q.parallel_for("after_sdc", Range::d1(1024), move |it| {
        v.set(it.gid(0), it.gid(0) as u32);
    });
    assert!(b.to_vec().iter().enumerate().all(|(i, &x)| x == i as u32));
}

#[test]
fn golden_registry_matches_reference_outputs() {
    // Host-side only (no queue, no arming): the committed registry in
    // tests/golden_checksums.tsv must match freshly derived digests for
    // all 13 configurations x 3 sizes.
    let _g = serial();
    let n = check_golden_registry_sizes(&InputSize::all())
        .unwrap_or_else(|errs| panic!("{}", errs.join("\n")));
    assert_eq!(n, 39, "expected 13 configurations x 3 sizes");
}
