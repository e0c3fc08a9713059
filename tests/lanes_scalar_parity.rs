//! One test, one binary: `hetero_rt::lanes::force` flips process-global
//! state, so the width sweep cannot share a process with the default
//! parallel test runner.
//!
//! A lane kernel is one body run at two widths, so there is no second
//! spelling to compare; what this pins is the switch. With lanes forced
//! *off* `lanes::sweep` runs every SRAD row whole at `W = 1`, with lanes
//! forced *on* in wide blocks, and both must equal the golden
//! **bitwise** (as must FDTD2D, which has one width, and Mandelbrot,
//! whose escape loops run eight pixels at a time). Under either
//! setting FDTD2D's and SRAD's row kernels must also give the same bits
//! on every route that runs them: per launch, recorded graph, the armed
//! per-node walk, and the window stream. KMeans' nearest-centre scan,
//! eight points at a time, must give the golden membership bitwise on
//! the same four routes, at ragged point counts and at shapes wider
//! than its stack tiles.

use std::sync::Arc;

use altis_core::common::{AppVersion, ExecMode};
use altis_core::fdtd2d::streaming::FdtdStream;
use altis_core::kmeans::streaming::{KmeansStream, BATCHES_PER_PASS};
use altis_core::srad::streaming::SradStream;
use altis_core::streaming::drive;
use altis_data::{Fdtd2dParams, InputSize, KmeansParams, SradParams};
use hetero_rt::prelude::*;
use hetero_rt::{StreamConfig, StreamRunner};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit pattern of all three fields, ez then hx then hy.
fn field_bits(f: &altis_core::fdtd2d::Fields) -> Vec<u32> {
    [&f.ez, &f.hx, &f.hy].into_iter().flat_map(|v| bits(v)).collect()
}

/// Run both apps per launch and check every other route against it,
/// under whatever lane setting is in force. Returns the per-launch
/// outputs.
fn routes_agree(
    q: &Queue,
    fp: &Fdtd2dParams,
    sp: &SradParams,
    what: &str,
) -> (altis_core::fdtd2d::Fields, Vec<f32>) {
    let v = AppVersion::SyclOptimized;
    let armed = armed_queue();
    let fdtd = altis_core::fdtd2d::run_with(q, fp, v, ExecMode::PerLaunch);
    let srad = altis_core::srad::run_with(q, sp, v, ExecMode::PerLaunch);
    for (route, rq, mode) in [
        ("graph", q, ExecMode::Graph),
        ("armed", &armed, ExecMode::Graph),
    ] {
        let f = altis_core::fdtd2d::run_with(rq, fp, v, mode);
        assert_eq!(field_bits(&f), field_bits(&fdtd), "FDTD2D: {route} vs per-launch, {what}");
        let s = altis_core::srad::run_with(rq, sp, v, mode);
        assert_eq!(bits(&s), bits(&srad), "SRAD: {route} vs per-launch, {what}");
    }
    let cfg = StreamConfig::default();
    let stage = FdtdStream::new(fp, q).unwrap();
    let runner = StreamRunner::new(q.clone(), q.clone(), stage, FdtdStream::initial_state(fp), cfg);
    let (f, _) = drive(runner, fp.steps as u64).unwrap();
    assert_eq!(field_bits(&f), field_bits(&fdtd), "FDTD2D: streamed vs per-launch, {what}");
    // The stream folds q0 on the host in f64; at size 1 that rounds to
    // the device reduction's q0 (both equal the golden bitwise, below).
    let stage = SradStream::new(sp, q).unwrap();
    let runner = StreamRunner::new(q.clone(), q.clone(), stage, SradStream::initial_state(sp), cfg);
    let (img, _) = drive(runner, sp.iterations as u64).unwrap();
    assert_eq!(bits(&img), bits(&srad), "SRAD: streamed vs per-launch, {what}");
    (fdtd, srad)
}

/// A rate-0 fault plan arms the queue: replay degrades to the checked
/// node-by-node walk (`submit_each`).
fn armed_queue() -> Queue {
    let fault = Some(Arc::new(FaultPlan::new(1, 0.0)));
    Queue::hardened(Device::cpu(), Hardening { fault, ..Hardening::NONE })
}

/// KMeans membership equals the golden bitwise on every route, under
/// whatever lane setting is in force; centres agree to the suite
/// tolerance (the batch path sums them with atomics) and bitwise on the
/// stream (host-order sums).
fn kmeans_routes_match_golden(q: &Queue, p: &KmeansParams, what: &str) {
    let g = altis_core::kmeans::golden(p);
    let armed = armed_queue();
    for (route, rq, mode) in [
        ("per-launch", q, ExecMode::PerLaunch),
        ("graph", q, ExecMode::Graph),
        ("armed", &armed, ExecMode::Graph),
    ] {
        let r = altis_core::kmeans::run_with(rq, p, AppVersion::SyclBaseline, mode);
        assert_eq!(r.membership, g.membership, "KMeans {route}, {p:?}, {what}");
        for (a, b) in r.centers.iter().zip(&g.centers) {
            assert!((a - b).abs() < 1e-4, "KMeans {route}, {p:?}, {what}: {a} vs {b}");
        }
    }
    let stage = KmeansStream::new(p, q).unwrap();
    let (cfg, initial) = (StreamConfig::default(), KmeansStream::initial_state(p));
    let runner = StreamRunner::new(q.clone(), q.clone(), stage, initial, cfg);
    let (s, _) = drive(runner, p.iterations as u64 * BATCHES_PER_PASS).unwrap();
    assert_eq!(s.membership, g.membership, "KMeans streamed, {p:?}, {what}");
    assert_eq!(bits(&s.centers), bits(&g.centers), "KMeans streamed, {p:?}, {what}");
}

#[test]
fn lane_and_scalar_paths_are_bitwise_identical_and_both_verify() {
    let q = Queue::new(Device::cpu());
    let fp = altis_data::fdtd2d(InputSize::S1);
    let sp = altis_data::srad(InputSize::S1);
    let fdtd_golden = altis_core::fdtd2d::golden(&fp);
    let srad_golden = altis_core::srad::golden(&sp);
    let mp = altis_data::mandelbrot(InputSize::S1);
    let mandel_golden = altis_core::mandelbrot::golden(&mp);

    for (on, what) in [(false, "lanes off"), (true, "lanes on")] {
        hetero_rt::lanes::force(on);
        let (fdtd, srad) = routes_agree(&q, &fp, &sp, what);
        assert_eq!(field_bits(&fdtd), field_bits(&fdtd_golden), "FDTD2D vs golden, {what}");
        assert_eq!(bits(&srad), bits(&srad_golden), "SRAD vs golden, {what}");
        let mandel = altis_core::mandelbrot::run(&q, &mp, AppVersion::SyclOptimized);
        assert_eq!(mandel, mandel_golden, "Mandelbrot vs golden, {what}");
        // Ragged point counts around a lane block and accumulate's
        // 256-point block (an empty cloud has no centres), a centre
        // table wider than accumulate's 128 words and a point wider than
        // the scan's 16-column tile.
        let shape = |n, nf, k| KmeansParams { n_points: n, n_features: nf, k, iterations: 3 };
        for p in [
            altis_data::kmeans(InputSize::S1),
            shape(0, 16, 0),
            shape(1, 16, 1),
            shape(LANES - 1, 16, 3),
            shape(LANES + 1, 16, 5),
            shape(2 * 256 + 77, 16, 5),
            shape(600, 12, 12),
            shape(203, 40, 4),
        ] {
            kmeans_routes_match_golden(&q, &p, what);
        }
    }
}
