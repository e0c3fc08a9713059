//! Checkpoint/rollback determinism for the streaming apps.
//!
//! The streaming contract under test (see DESIGN.md "Streaming
//! execution"): a stream that takes faults mid-flight — retries,
//! checkpoint rollbacks, clean-path replays — carries **bit-identical
//! state** to the same stream run uninterrupted, window for window.
//! Three layers:
//!
//! 1. **Rollback ≡ uninterrupted** — per app, a fault-free digest
//!    trail is recorded, then the same windows run with transient
//!    faults and a zero in-window retry budget so *every* fault forces
//!    a checkpoint rollback. The two trails must match exactly at
//!    every window, including the quarantined ones.
//! 2. **SDC rollback** — same comparison with silent bit-flips on the
//!    primary queue and the integrity layer armed: corruption surfaces
//!    as typed `DataCorruption`, the window rolls back, and the trail
//!    still matches bit-for-bit.
//! 3. **Registry pinning** — streamed output at the app's golden
//!    horizon (its batch iteration count) reproduces the digest
//!    recorded in `tests/golden_checksums.tsv`, in the registry's own
//!    digest format. The streaming conversions therefore compute the
//!    *same function* as the batch apps, not merely a self-consistent
//!    one.

use std::sync::{Arc, Mutex};

use altis_core::streaming::{
    golden_horizon, open_stream, streamed_registry_digest, StreamScenario, STREAM_APPS,
};
use altis_data::InputSize;
use hetero_rt::{FaultKind, FaultPlan, StreamConfig};

/// Keep the tests in this binary from interleaving: each drives its
/// streams through the shared pool at full width.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Drive `windows` windows and return the per-window digest trail plus
/// the stream stats. Panics if the stream dies: every fault must be
/// contained to a window.
fn trail(
    app: &str,
    cfg: StreamConfig,
    scenario: &StreamScenario,
    windows: u64,
) -> (Vec<u64>, hetero_rt::StreamStats) {
    let mut s = open_stream(app, InputSize::S1, cfg, scenario)
        .unwrap_or_else(|e| panic!("{app}: stream failed to open: {e}"))
        .unwrap_or_else(|| panic!("{app}: no streaming conversion"));
    let mut t = Vec::with_capacity(windows as usize);
    for w in 0..windows {
        let r = s
            .next_window()
            .unwrap_or_else(|e| panic!("{app}: stream died at window {w}: {e}"));
        t.push(r.digest);
    }
    (t, s.stats())
}

#[test]
fn rollback_replay_is_bit_identical_to_an_uninterrupted_run() {
    let _serial = serialize();
    // Zero in-window retries: every transient fault exhausts the budget
    // immediately and goes down the checkpoint-rollback path.
    let cfg = StreamConfig { checkpoint_every: 4, max_retries: 0 };
    let windows = 32;
    for app in STREAM_APPS {
        let (clean, _) = trail(app, cfg, &StreamScenario::default(), windows);
        let plan =
            Arc::new(FaultPlan::new(23, 0.2).with_kinds(&[FaultKind::LaunchTransient]));
        let scenario = StreamScenario { fault: Some(plan.clone()), ..StreamScenario::default() };
        let (faulted, stats) = trail(app, cfg, &scenario, windows);
        assert!(plan.injected() > 0, "{app}: injection must be live at rate 0.2");
        assert!(stats.rollbacks > 0, "{app}: zero retry budget must force rollbacks");
        assert_eq!(stats.dropped, 0, "{app}: no window may be lost");
        for w in 0..windows as usize {
            assert_eq!(
                faulted[w], clean[w],
                "{app}: window {w} state diverged after rollback (rollbacks={})",
                stats.rollbacks
            );
        }
    }
}

#[test]
fn sdc_detection_rolls_back_to_a_bit_identical_trail() {
    let _serial = serialize();
    let cfg = StreamConfig { checkpoint_every: 4, max_retries: 1 };
    let windows = 24;
    for app in STREAM_APPS {
        let (clean, _) = trail(app, cfg, &StreamScenario::default(), windows);
        // Silent bit-flips on the primary queue; integrity armed so
        // they surface as typed DataCorruption instead of wrong bits.
        let scenario = StreamScenario::sdc(5, 0.05);
        let (faulted, stats) = trail(app, cfg, &scenario, windows);
        assert_eq!(stats.dropped, 0, "{app}: no window may be lost");
        for w in 0..windows as usize {
            assert_eq!(
                faulted[w], clean[w],
                "{app}: window {w} carried corrupted state past detection \
                 (retried={}, quarantined={}, rollbacks={})",
                stats.retried, stats.quarantined, stats.rollbacks
            );
        }
    }
}

/// Parse `tests/golden_checksums.tsv` into (app, size, digest) rows.
fn registry() -> Vec<(String, u32, u64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_checksums.tsv");
    let text = std::fs::read_to_string(path).expect("golden registry readable");
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut f = l.split('\t');
            let app = f.next().expect("app column").to_string();
            let size: u32 = f.next().expect("size column").parse().expect("size parses");
            let digest =
                u64::from_str_radix(f.next().expect("digest column"), 16).expect("digest parses");
            (app, size, digest)
        })
        .collect()
}

#[test]
fn streamed_output_reproduces_the_golden_registry_digests() {
    let _serial = serialize();
    let reg = registry();
    let cfg = StreamConfig::default();
    let mut pinned = 0;
    for app in STREAM_APPS {
        let Some(streamed) =
            streamed_registry_digest(app, InputSize::S1, cfg, &StreamScenario::default())
                .unwrap_or_else(|e| panic!("{app}: stream failed: {e}"))
        else {
            // PF Naive: kernel rounding differs from the golden
            // reference by design; its tolerance tracking is pinned in
            // the particlefilter::streaming unit tests.
            continue;
        };
        let expect = reg
            .iter()
            .find(|(a, s, _)| a == app && *s == 1)
            .unwrap_or_else(|| panic!("{app} size 1 missing from golden_checksums.tsv"))
            .2;
        assert_eq!(
            streamed, expect,
            "{app}: streamed output diverged from the pinned registry digest"
        );
        pinned += 1;
    }
    assert_eq!(pinned, 3, "SRAD, FDTD2D and KMeans must all pin against the registry");
}

#[test]
fn faulted_stream_still_reproduces_the_registry_digest() {
    let _serial = serialize();
    // The end-to-end composition of everything above: run SRAD to its
    // golden horizon with a hot transient plan and zero retry budget
    // (rollback on every fault) — the final image must still match the
    // registry bit-for-bit.
    let reg = registry();
    let expect = reg.iter().find(|(a, s, _)| a == "SRAD" && *s == 1).expect("SRAD pinned").2;
    let cfg = StreamConfig { checkpoint_every: 4, max_retries: 0 };
    let plan = Arc::new(FaultPlan::new(77, 0.3).with_kinds(&[FaultKind::LaunchTransient]));
    let scenario = StreamScenario { fault: Some(plan.clone()), ..StreamScenario::default() };
    let streamed = streamed_registry_digest("SRAD", InputSize::S1, cfg, &scenario)
        .expect("stream survives")
        .expect("SRAD pins");
    assert!(plan.injected() > 0, "injection must be live");
    assert_eq!(streamed, expect, "faulted SRAD stream diverged from the registry digest");
    let _ = golden_horizon("SRAD", InputSize::S1).expect("SRAD has a horizon");
}
