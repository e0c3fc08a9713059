//! One test, one binary: `hetero_rt::lanes::force` flips process-global
//! state, so the lane/scalar parity sweep cannot share a process with
//! the default parallel test runner.
//!
//! Pins the lane conversion's bit-exactness claim from both sides: with
//! lanes forced *off* every converted kernel runs its scalar arm (whole
//! rows, scalar folds) and must still verify against the goldens; with
//! lanes forced *on* the outputs must be **bitwise identical** to the
//! scalar run — not merely within tolerance. Under either setting
//! FDTD2D's and SRAD's row kernels must also give the same bits on every
//! route that runs them: per launch, recorded graph, optimized graph,
//! the armed per-node walk, and the window stream.

use std::sync::Arc;

use altis_core::common::{AppVersion, ExecMode};
use altis_data::{Fdtd2dParams, InputSize, SradParams};
use hetero_rt::prelude::*;
use hetero_rt::StreamConfig;

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
    // A rate-0 fault plan arms the queue: replay degrades to the checked
    // node-by-node walk (`submit_each`) and never arms an elision gate.
    let armed = q.clone().with_fault_plan(Some(Arc::new(FaultPlan::new(1, 0.0))));
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
    let cfg = StreamConfig::default;
    let (f, _) =
        altis_core::fdtd2d::streaming::run_streaming(q, q, fp, fp.steps as u64, cfg()).unwrap();
    assert_eq!(field_bits(&f), field_bits(&fdtd), "FDTD2D: streamed vs per-launch, {what}");
    // The stream folds q0 on the host in f64; at size 1 that rounds to
    // the device reduction's q0 (both equal the golden bitwise, below).
    let (s, _) =
        altis_core::srad::streaming::run_streaming(q, q, sp, sp.iterations as u64, cfg()).unwrap();
    assert_eq!(bits(&s), bits(&srad), "SRAD: streamed vs per-launch, {what}");
    (fdtd, srad)
}

#[test]
fn lane_and_scalar_paths_are_bitwise_identical_and_both_verify() {
    let q = Queue::new(Device::cpu());
    let fp = altis_data::fdtd2d(InputSize::S1);
    let sp = altis_data::srad(InputSize::S1);

    hetero_rt::lanes::force(false);
    let (fdtd_scalar, srad_scalar) = routes_agree(&q, &fp, &sp, "lanes off");
    let wp = altis_data::where_q(InputSize::S1);
    let where_scalar = altis_core::where_q::run(&q, &wp, AppVersion::SyclOptimized);
    assert_eq!(where_scalar, altis_core::where_q::golden(&wp), "scalar Where must match the golden");
    let data: Vec<f32> =
        (0..65_536).map(|i| ((i as u32).wrapping_mul(0x9E37_79B9) as f32) * 1e-3).collect();
    let min_scalar = par_dpl::reduce::reduce_min(&data);

    // The scalar arm is the honest baseline; it must still verify.
    let golden = altis_core::fdtd2d::golden(&fp);
    assert_eq!(
        fdtd_scalar.ez.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        golden.ez.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "scalar FDTD2D must match the golden bitwise"
    );
    let srad_golden = altis_core::srad::golden(&sp);
    assert_eq!(
        srad_scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        srad_golden.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "scalar SRAD must match the golden bitwise"
    );

    hetero_rt::lanes::force(true);
    let (fdtd_lanes, srad_lanes) = routes_agree(&q, &fp, &sp, "lanes on");
    let where_lanes = altis_core::where_q::run(&q, &wp, AppVersion::SyclOptimized);
    let min_lanes = par_dpl::reduce::reduce_min(&data);

    assert_eq!(
        fdtd_lanes.ez.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fdtd_scalar.ez.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "FDTD2D lane path must be bitwise identical to scalar"
    );
    assert_eq!(
        fdtd_lanes.hx.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fdtd_scalar.hx.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    assert_eq!(
        fdtd_lanes.hy.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fdtd_scalar.hy.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    assert_eq!(
        srad_lanes.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        srad_scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "SRAD lane path must be bitwise identical to scalar"
    );
    assert_eq!(where_lanes, where_scalar, "Where's lane flag kernel must select the same records");
    assert_eq!(min_lanes.to_bits(), min_scalar.to_bits(), "min reduction must be exact");
}
