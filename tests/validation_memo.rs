//! The validated-output memo behind `suite::check`: an output is
//! compared against golden once and recognised afterwards, and the memo
//! never changes a verdict. (What the fingerprint separates is a unit
//! test beside it, `suite::tests::fingerprint_separates`.)
//!
//! The counters and the memo are process-global, so this binary holds a
//! single `#[test]` that drives its cases in sequence (the lesson of
//! `hetero-rt/tests/pool_accounting.rs`).

use std::sync::Arc;

use altis_core::common::{rel_l2_error_t as rel_l2, AppVersion, ExecMode};
use altis_core::particlefilter::PfVariant;
use altis_core::suite::{
    all_apps, check, run_output, run_resilient_inline, run_sdc_inline, validation_stats, Output,
    ResilienceOutcome, SdcOutcome, Validation,
};
use altis_core::{
    cfd, dwt2d, fdtd2d, kmeans, lavamd, mandelbrot, nw, particlefilter, raytracing, srad, where_q,
};
use altis_data::InputSize::{self, S1, S2};
use hetero_rt::prelude::*;

/// `(reference_runs, recognised)` spent by `f`.
fn spent<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = validation_stats();
    let r = f();
    let after = validation_stats();
    (r, after.reference_runs - before.reference_runs, after.recognised - before.recognised)
}

/// The golden comparison of each configuration, written out again here
/// so that `check` is held against something that shares no code with
/// it (the tolerances are the suite's).
fn direct(config: &str, size: InputSize, out: &Output) -> bool {
    match (config, out) {
        ("CFD FP32", Output::F32(r)) => rel_l2(&cfd::golden::<f32>(&altis_data::cfd(size)), r) < 1e-4,
        ("CFD FP64", Output::F64(r)) => {
            rel_l2(&cfd::golden::<f64>(&altis_data::cfd(size)), r) < 1e-10
        }
        ("DWT2D", Output::F32(r)) => rel_l2(&dwt2d::golden(&altis_data::dwt2d(size)), r) < 1e-4,
        ("FDTD2D", Output::Fields(r)) => r.ez == fdtd2d::golden(&altis_data::fdtd2d(size)).ez,
        ("KMeans", Output::Kmeans(r)) => {
            let g = kmeans::golden(&altis_data::kmeans(size));
            r.membership == g.membership && rel_l2(&g.centers, &r.centers) < 1e-4
        }
        ("LavaMD", Output::Forces(r)) => {
            let g: Vec<f32> =
                lavamd::golden(&altis_data::lavamd(size)).iter().map(|f| f.v).collect();
            let r: Vec<f32> = r.iter().map(|f| f.v).collect();
            rel_l2(&g, &r) < 1e-4
        }
        ("Mandelbrot", Output::U32(r)) => {
            *r == mandelbrot::golden(&altis_data::mandelbrot(size))
        }
        ("NW", Output::I32(r)) => *r == nw::golden(&altis_data::nw(size)),
        ("PF Naive" | "PF Float", Output::Pf(r)) => {
            let variant = if config == "PF Naive" { PfVariant::Naive } else { PfVariant::Float };
            let g = particlefilter::golden(&altis_data::particlefilter(size), variant);
            r.xe.iter().zip(&g.xe).all(|(a, b)| (a - b).abs() < 0.05)
        }
        ("Raytracing", Output::F32(r)) => {
            *r == raytracing::golden(&altis_data::raytracing(size))
        }
        ("SRAD", Output::F32(r)) => rel_l2(&srad::golden(&altis_data::srad(size)), r) < 1e-3,
        ("Where", Output::Records(r)) => *r == where_q::golden(&altis_data::where_q(size)),
        _ => panic!("{config}: unexpected output kind"),
    }
}

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Flip bit 30 of a 4-byte element (62 of an f64): gross corruption.
    Flip,
    /// Move one element to the next representable value.
    Ulp,
}

/// `out` with element `at` (of the first field the comparison reads)
/// damaged.
fn damaged(out: &Output, at: usize, how: Damage) -> Output {
    let f = |x: &mut f32| {
        *x = f32::from_bits(match how {
            Damage::Flip => x.to_bits() ^ (1 << 30),
            Damage::Ulp => x.to_bits() + 1,
        })
    };
    let u = |x: u32| match how {
        Damage::Flip => x ^ (1 << 30),
        Damage::Ulp => x.wrapping_add(1),
    };
    let mut out = out.clone();
    match &mut out {
        Output::F32(v) => f(&mut v[at]),
        Output::F64(v) => {
            v[at] = f64::from_bits(match how {
                Damage::Flip => v[at].to_bits() ^ (1 << 62),
                Damage::Ulp => v[at].to_bits() + 1,
            })
        }
        Output::U32(v) => v[at] = u(v[at]),
        Output::I32(v) => v[at] = u(v[at] as u32) as i32,
        Output::Fields(o) => f(&mut o.ez[at]),
        Output::Kmeans(o) => f(&mut o.centers[at]),
        Output::Forces(v) => f(&mut v[at].v),
        Output::Pf(o) => f(&mut o.xe[at]),
        Output::Records(v) => v[at].value = u(v[at].value),
    }
    out
}

fn elements(out: &Output) -> usize {
    match out {
        Output::F32(v) => v.len(),
        Output::F64(v) => v.len(),
        Output::U32(v) => v.len(),
        Output::I32(v) => v.len(),
        Output::Fields(o) => o.ez.len(),
        Output::Kmeans(o) => o.centers.len(),
        Output::Forces(v) => v.len(),
        Output::Pf(o) => o.xe.len(),
        Output::Records(v) => v.len(),
    }
}

/// (a) Twenty verified runs of one key consult golden once.
fn twenty_runs_one_reference(q: &Queue) {
    let apps = all_apps();
    let srad = apps.iter().find(|a| a.name == "SRAD").unwrap();
    let (ok, reference, recognised) =
        spent(|| (0..20).all(|_| (srad.verify)(q, S2, AppVersion::SyclOptimized)));
    assert!(ok);
    assert_eq!((reference, recognised), (1, 19));
}

/// (c) For every configuration at size 1 and for a clean, a grossly
/// damaged and a one-ulp-off output, `check` says what the direct
/// comparison says, the first time (golden consulted) and the second
/// (recognised, if it passed): the memo never changes a verdict, and a
/// rejection is never remembered.
fn verdicts_match_the_direct_comparison(q: &Queue) {
    for config in all_apps().iter().map(|a| a.name) {
        let clean = run_output(config, q, S1, AppVersion::SyclOptimized, ExecMode::Graph);
        let at = elements(&clean) / 2;
        let cases = [
            ("clean", clean.clone()),
            ("bit flip", damaged(&clean, at, Damage::Flip)),
            ("one ulp", damaged(&clean, at, Damage::Ulp)),
        ];
        for (what, out) in &cases {
            let expect = direct(config, S1, out);
            let (cold, cold_ref, cold_rec) = spent(|| check(config, S1, out));
            let (warm, warm_ref, warm_rec) = spent(|| check(config, S1, out));
            assert_eq!(cold == Validation::Valid, expect, "{config} {what} cold: {cold:?}");
            assert_eq!(warm, cold, "{config} {what} warm");
            if expect {
                assert_eq!((cold_ref, cold_rec), (1, 0), "{config} {what}: first sight");
                assert_eq!((warm_ref, warm_rec), (0, 1), "{config} {what}: recognised");
            } else {
                // Rejected by a fresh reference both times, or by an
                // invariant that needs none; never by the memo.
                assert_eq!((cold_rec, warm_rec), (0, 0), "{config} {what}");
                assert_eq!(cold_ref, warm_ref, "{config} {what}");
            }
        }
        // The exact-equality configurations reject even one ulp.
        let exact = ["FDTD2D", "Mandelbrot", "NW", "Raytracing", "Where"].contains(&config);
        assert_eq!(direct(config, S1, &cases[2].1), !exact, "{config}: one ulp");
        assert!(direct(config, S1, &clean), "{config}: clean run");
    }
}

/// (d) A ninth passing fingerprint of one key takes the oldest one's
/// place: the set never grows past eight.
fn ninth_fingerprint_evicts(q: &Queue) {
    let clean = run_output("SRAD", q, S1, AppVersion::SyclOptimized, ExecMode::Graph);
    let variants: Vec<Output> = (0..9).map(|i| damaged(&clean, i, Damage::Ulp)).collect();
    for v in &variants {
        let (verdict, reference, _) = spent(|| check("SRAD", S1, v));
        assert_eq!((verdict, reference), (Validation::Valid, 1));
    }
    for (i, v) in variants.iter().enumerate().skip(1) {
        let (verdict, reference, recognised) = spent(|| check("SRAD", S1, v));
        assert_eq!((verdict, reference, recognised), (Validation::Valid, 0, 1), "variant {i}");
    }
    let (verdict, reference, recognised) = spent(|| check("SRAD", S1, &variants[0]));
    assert_eq!((verdict, reference, recognised), (Validation::Valid, 1, 0), "the evicted one");
}

/// (b) A warm memo does not let corruption through. Silent faults are
/// only injected on the integrity walk, so the queue arms integrity but
/// no redundancy: a flip between the kernel and the reseal is sealed in
/// and only validation can catch it.
fn corruption_is_rejected_by_a_fresh_reference(q: &Queue) {
    let apps = all_apps();
    let app = apps.iter().find(|a| a.name == "Mandelbrot").unwrap();
    assert!((app.verify)(q, S1, AppVersion::SyclOptimized), "warm-up");
    let mut caught = 0;
    for seed in 1..=8 {
        let faulted = || {
            let fault = Some(Arc::new(FaultPlan::sdc(seed, 0.05)));
            Queue::hardened(Device::cpu(), Hardening { fault, integrity: true, ..Hardening::NONE })
        };
        let (sdc, reference, recognised) =
            spent(|| run_sdc_inline(app, &faulted(), S1, AppVersion::SyclOptimized));
        let resilient = run_resilient_inline(app, &faulted(), S1, AppVersion::SyclOptimized);
        match &sdc {
            SdcOutcome::Quarantined { reason, .. } if reason.contains("golden") => {
                assert_eq!((reference, recognised), (1, 0), "seed {seed}");
                assert_eq!(resilient, ResilienceOutcome::Incorrect, "seed {seed}");
                caught += 1;
            }
            // The seed missed, or hit something the integrity walk saw.
            other => assert!(
                !matches!(other, SdcOutcome::Uncontained { .. }),
                "seed {seed}: {other:?}"
            ),
        }
    }
    assert!(caught >= 2, "only {caught} of 8 seeds corrupted the output");
}

#[test]
fn an_output_is_validated_once_and_recognised_after() {
    let q = Queue::new(Device::cpu());
    twenty_runs_one_reference(&q);
    verdicts_match_the_direct_comparison(&q);
    ninth_fingerprint_evicts(&q);
    corruption_is_rejected_by_a_fresh_reference(&q);
}
