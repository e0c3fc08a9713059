//! `hardened_s1`: the five launch-heavy apps at size 1 on armed queues —
//! integrity alone, then integrity plus DMR voting — through
//! `run_sdc_inline`, the call the serving layer makes for SDC-tier jobs.
//! These are `launch_bound_s1`'s kernels used the opposite way: an armed
//! queue sends every graph replay down the hardened per-launch walk, so
//! a fast-path gain that taxes that walk shows here.
//!
//! Arming is process-wide and never undone, so the disarmed reference
//! pass runs first, during set-up, in the same process.

use std::rc::Rc;
use std::time::Instant;

use altis_core::common::AppVersion;
use altis_core::suite::{
    all_apps, run_resilient_inline, run_sdc_inline, AppEntry, ResilienceOutcome, SdcOutcome,
};
use altis_data::InputSize;
use hetero_rt::prelude::*;

use super::{ms_since, round_latency, series_median, Op, Rounds};
use crate::stats::median;

const SIZE: InputSize = InputSize::S1;
const VERSION: AppVersion = AppVersion::SyclOptimized;
const APPS: [(&str, &str); 5] = [
    ("fdtd2d", "FDTD2D"),
    ("srad", "SRAD"),
    ("cfd32", "CFD FP32"),
    ("kmeans", "KMeans"),
    ("pf_naive", "PF Naive"),
];
const DISARMED_ROUNDS: usize = 4;

pub fn build() -> Rounds {
    let entries: Vec<(&'static str, Rc<AppEntry>)> = all_apps()
        .into_iter()
        .filter_map(|a| {
            APPS.iter()
                .find(|(_, name)| *name == a.name)
                .map(|&(slug, _)| (slug, Rc::new(a)))
        })
        .collect();
    assert_eq!(
        entries.len(),
        APPS.len(),
        "every hardened app is in the registry"
    );

    // Disarmed reference: the same validation on a plain queue, before
    // anything arms the integrity layer.
    assert!(!hetero_rt::integrity::armed(), "worker must start disarmed");
    let plain = Queue::new(Device::cpu());
    let mut disarmed_ms = 0.0;
    for (_, entry) in &entries {
        let mut samples = Vec::new();
        for _ in 0..=DISARMED_ROUNDS {
            let t0 = Instant::now();
            let out = run_resilient_inline(entry, &plain, SIZE, VERSION);
            samples.push(ms_since(t0));
            assert_eq!(
                out,
                ResilienceOutcome::Correct,
                "{} fails disarmed",
                entry.name
            );
        }
        disarmed_ms += median(&samples[1..]);
    }

    // Both armed queues carry the resilient retry policy, as the serving
    // layer's SDC tier does. It is not optional: these apps write from the
    // host between graph replays (FDTD2D's source, SRAD's q0, the particle
    // filter's frame scalars), the next launch finds the page checksum
    // stale, and the retry absorbs the detection. Such a run validates and
    // ends `Corrected`; `hard.detections` counts the events.
    let armed = Queue::new(Device::cpu())
        .with_integrity(true)
        .with_retry_policy(RetryPolicy::resilient());
    let dmr = armed.clone().with_redundancy(Redundancy::Dmr);
    let mut ops = Vec::new();
    for (slug, entry) in &entries {
        for (label, q) in [("armed", &armed), ("dmr", &dmr)] {
            let (entry, q) = (entry.clone(), q.clone());
            ops.push(Op::call(
                &format!("{label}.{slug}"),
                move |_| match run_sdc_inline(&entry, &q, SIZE, VERSION) {
                    SdcOutcome::Correct | SdcOutcome::Corrected { .. } => Ok(()),
                    other => Err(format!("{other:?}")),
                },
            ));
        }
    }
    Rounds {
        ops,
        lat: round_latency(),
        cover_span: "round",
        layers: Box::new(move |_, rep| {
            let sum = |label: &str| -> f64 {
                APPS.iter()
                    .map(|(slug, _)| series_median(rep, &format!("{label}.{slug}")))
                    .sum()
            };
            let (armed_ms, dmr_ms) = (sum("armed"), sum("dmr"));
            rep.layer.insert("hard.disarmed_ms".into(), disarmed_ms);
            rep.layer.insert("hard.armed_ms".into(), armed_ms);
            rep.layer.insert("hard.armed_dmr_ms".into(), dmr_ms);
            rep.layer
                .insert("hard.armed_over_disarmed".into(), armed_ms / disarmed_ms);
            let st = hetero_rt::integrity::stats();
            rep.layer
                .insert("hard.regions_verified".into(), st.regions_verified as f64);
            rep.layer
                .insert("hard.detections".into(), st.detections as f64);
        }),
    }
}
