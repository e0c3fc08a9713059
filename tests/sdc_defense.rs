//! Suite-level silent-data-corruption defense: applications driven
//! under seeded *silent* fault plans (bit-flips, stuck-at pages) with
//! the integrity layer armed and DMR voting on must end Correct,
//! Corrected, or Quarantined — never with silently wrong output
//! accepted as success. The full seeds × sizes matrix runs in
//! `scripts/verify.sh` through the `matrix` binary; these tests keep
//! slices of the same `suite::matrix` in the tier-1 suite.
//!
//! The integrity counters are process-wide, so every test here
//! serializes on one mutex.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use altis_core::common::AppVersion;
use altis_core::streaming::{open_stream, StreamScenario, STREAM_APPS};
use altis_core::suite::{
    all_apps, check_golden_registry_sizes, matrix, run_sdc_inline, Matrix, SdcOutcome, Tier,
};
use altis_data::InputSize;
use hetero_rt::integrity;
use hetero_rt::prelude::*;

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

/// `tier`'s cells for `apps` (all thirteen when empty) × `seeds` at
/// `rate`, size 1, optimized.
fn slice(tier: Tier, apps: &[&'static str], seeds: Vec<u64>, rate: f64) -> Matrix {
    Matrix {
        tier,
        apps: apps.to_vec(),
        sizes: vec![InputSize::S1],
        versions: vec![AppVersion::SyclOptimized],
        seeds,
        rates: vec![rate],
    }
}

#[test]
fn armed_rate_zero_suite_slice_is_correct() {
    let _g = serial();
    // With the full defense armed but injection off, every app must
    // come back Correct: no false detections from the apps' own host
    // write patterns, no divergence from running replicas.
    let picks = ["Mandelbrot", "NW", "KMeans", "Where"];
    let cells: Vec<_> = matrix(&slice(Tier::Sdc, &picks, vec![7], 0.0)).collect();
    assert_eq!(cells.len(), picks.len());
    for c in cells {
        assert_eq!(c.outcome, SdcOutcome::Correct, "{}: {c:?}", c.app);
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
    let sanitized: Vec<_> = matrix(&slice(Tier::Sanitize, &[], vec![0], 0.0)).collect();
    assert_eq!(sanitized.len(), 13);
    for c in sanitized {
        assert!(c.passed(), "{} failed on the sanitizer queue: {c:?}", c.app);
    }
    let regions = integrity::stats().regions;
    for c in matrix(&slice(Tier::Sdc, &[], vec![0], 0.0)) {
        assert_eq!(c.outcome, SdcOutcome::Correct, "{}: {c:?}", c.app);
        assert_eq!(integrity::stats().regions, regions, "{} left a region behind", c.app);
    }
}

#[test]
fn fault_free_armed_graph_apps_raise_no_detections() {
    let _g = serial();
    // Integrity armed, nothing injected and *no* retry policy to absorb
    // a false alarm: the host stores between replays (FDTD2D's source
    // injection, SRAD's q0, the particle filter's frame scalars) must
    // leave every page seal truthful, so the run is Correct outright —
    // not Corrected, and not Quarantined on the first stale page.
    let picks = ["FDTD2D", "SRAD", "CFD FP32", "KMeans", "PF Naive"];
    let apps = all_apps();
    for name in picks {
        let app = apps.iter().find(|a| a.name == name).expect("graph app is registered");
        let before = integrity::stats().detections;
        let q = Queue::hardened(Device::cpu(), Hardening { integrity: true, ..Hardening::NONE });
        let o = run_sdc_inline(app, &q, InputSize::S1, AppVersion::SyclOptimized);
        assert_eq!(o, SdcOutcome::Correct, "{name}: {o:?}");
        assert_eq!(integrity::stats().detections, before, "{name}: false detections");
    }
}

/// An SDC stream's stage buffers are sealed by the first window's
/// launches that bind them, whenever they were allocated: every stream
/// app's buffers carry page seals from the first window, fault-free
/// windows read back through them raise no detection, and the regions
/// go with the stream.
#[test]
fn an_sdc_stream_seals_its_stage_buffers_from_the_first_window() {
    let _g = serial();
    for app in STREAM_APPS {
        let regions = integrity::stats().regions;
        let scenario = StreamScenario::sdc(5, 0.0);
        let mut s = open_stream(app, InputSize::S1, StreamConfig::default(), &scenario)
            .unwrap_or_else(|e| panic!("{app}: {e}"))
            .unwrap_or_else(|| panic!("{app}: no streaming conversion"));
        let before = integrity::stats().detections;
        for w in 0..4 {
            let r = s.next_window().unwrap_or_else(|e| panic!("{app}: window {w}: {e}"));
            assert!(r.verdict.is_delivered(), "{app}: window {w}: {:?}", r.verdict);
            if w == 0 {
                assert!(integrity::stats().regions > regions, "{app}: no stage buffer sealed");
            }
        }
        assert_eq!(integrity::stats().detections, before, "{app}: false detections");
        drop(s);
        assert_eq!(integrity::stats().regions, regions, "{app}: a region outlived its stream");
    }
}

/// One SDC rollback does not cause the next. A single flip fails window
/// 0 at its first launch entry; the recovery replays it on the clean
/// queue, which reseals what it wrote, so every later window — none with
/// a flip of its own — is delivered.
#[test]
fn the_windows_after_an_sdc_rollback_are_delivered() {
    let _g = serial();
    for app in STREAM_APPS {
        // Object ids run in creation order: the first buffer the stage
        // allocates takes the id after this probe's.
        let first = Buffer::<u8>::new(1).object_id() + 1;
        let plan = Arc::new(FaultPlan::flip_at(first, 0, 0));
        let scenario =
            StreamScenario { fault: Some(plan.clone()), sdc: true, ..StreamScenario::default() };
        let mut s = open_stream(app, InputSize::S1, StreamConfig::default(), &scenario)
            .unwrap_or_else(|e| panic!("{app}: {e}"))
            .unwrap_or_else(|| panic!("{app}: no streaming conversion"));
        let verdicts: Vec<_> = (0..6)
            .map(|w| s.next_window().unwrap_or_else(|e| panic!("{app}: window {w}: {e}")).verdict)
            .collect();
        assert_eq!(plan.injected(), 1, "{app}: the flip missed the stage's first buffer");
        assert!(matches!(verdicts[0], WindowVerdict::Quarantined { .. }), "{app}: {verdicts:?}");
        assert!(verdicts[1..].iter().all(WindowVerdict::is_delivered), "{app}: {verdicts:?}");
        assert_eq!(s.stats().rollbacks, 1, "{app}");
    }
}

#[test]
fn injected_silent_faults_are_never_silently_wrong() {
    let _g = serial();
    // Never uncontained, and the shared pool computes exactly after
    // every cell.
    let picks = ["Mandelbrot", "NW", "SRAD", "KMeans"];
    let cells: Vec<_> = matrix(&slice(Tier::Sdc, &picks, vec![1, 2], 0.05)).collect();
    assert_eq!(cells.len(), picks.len() * 2);
    for c in cells {
        assert!(c.passed(), "{} seed {}: {c:?}", c.app, c.seed);
    }
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
