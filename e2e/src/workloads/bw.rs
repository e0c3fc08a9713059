//! `bw_large`: the bandwidth-bound regime. Four apps on the public
//! `*Params` structs and the three `par_dpl` primitives, every array at
//! least four times the total L2 of the cores in use (2 x 2 MiB here, so
//! 16 MiB and up; the 260 MiB host-shared L3 cannot be exceeded inside
//! this sandbox, so bytes are *computed* from array sizes, not measured).
//! At sizes 1 and 2 the suite's arrays sit in L2; this is the only
//! workload where a locality fix can show.
//!
//! Only `run` is timed. Every output is compared against a golden held
//! from set-up, outside the timed section.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use altis_core::common::{rel_l2_error_t, AppVersion};
use altis_core::{fdtd2d, kmeans, srad, where_q};
use altis_data::{Fdtd2dParams, KmeansParams, SradParams, WhereParams};
use hetero_rt::prelude::*;

use super::{ms_since, round_latency, series_median, Op, Rounds};
use crate::spec::BW_KERNELS;
use crate::stats::median;

const VERSION: AppVersion = AppVersion::SyclOptimized;

/// 1536 x 1536 x 3 fields x 4 B = 27 MiB.
const FDTD: Fdtd2dParams = Fdtd2dParams {
    dim: 1536,
    steps: 2,
};
/// 1024 x 1024 x 4 B = 4 MiB a plane; image, four derivative planes and
/// the coefficient plane make 24 MiB.
const SRAD: SradParams = SradParams {
    dim: 1024,
    iterations: 2,
    lambda: 0.5,
};
/// 2 Mi records x 8 B = 16 MiB of records, plus 8 MiB each of values,
/// flags and offsets.
const WHERE: WhereParams = WhereParams {
    n_records: 2 << 20,
    selectivity_pct: 30,
};
/// 256 Ki points x 16 features x 4 B = 16 MiB.
const KMEANS: KmeansParams = KmeansParams {
    n_points: 256 << 10,
    n_features: 16,
    k: 5,
    iterations: 1,
};
/// 4 Mi elements x 4 B = 16 MiB per `par_dpl` array.
const DPL_N: usize = 4 << 20;

/// Bytes one operation moves, computed from array sizes (the traffic
/// model of the `roofline` bin): FDTD2D's hx and hy touch (n-1)^2 cells
/// at 3 reads + 1 write, ez (n-2)^2 at 5 + 1; SRAD moves 80 B a pixel an
/// iteration; Where's flag kernel 8 B a record, its scan 12 B, its
/// scatter 8 B plus 16 B for each kept record; KMeans reads every point
/// twice an iteration and reads and writes its membership; the scan
/// moves 12 B an element, histogram and min-reduction 4 B.
fn computed_bytes(kernel: &str) -> f64 {
    let sq = |n: usize| (n * n) as f64;
    match kernel {
        "fdtd2d" => FDTD.steps as f64 * (32.0 * sq(FDTD.dim - 1) + 24.0 * sq(FDTD.dim - 2)),
        "srad" => SRAD.iterations as f64 * 80.0 * sq(SRAD.dim),
        "where" => {
            WHERE.n_records as f64 * (28.0 + 16.0 * f64::from(WHERE.selectivity_pct) / 100.0)
        }
        "kmeans" => {
            KMEANS.iterations as f64
                * KMEANS.n_points as f64
                * (8.0 * KMEANS.n_features as f64 + 8.0)
        }
        "scan_u32" => 12.0 * DPL_N as f64,
        "histogram_u32" | "reduce_min" => 4.0 * DPL_N as f64,
        other => unreachable!("no kernel '{other}'"),
    }
}

/// Copy bandwidth with every pool thread's worth of cores copying a
/// slice of a 16 MiB array: the peak the kernels are set against,
/// measured in the same run. Counts the read and the write stream.
fn memcpy_peak_gbps() -> f64 {
    let threads = hetero_rt::pool::auto_threads().max(1);
    let src = vec![1.0f32; DPL_N];
    let mut dst = vec![0.0f32; DPL_N];
    let chunk = DPL_N.div_ceil(threads);
    let mut samples = Vec::new();
    for _ in 0..6 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(c));
            }
        });
        samples.push(ms_since(t0));
        black_box(&dst);
    }
    (2 * DPL_N * 4) as f64 / (median(&samples[1..]) / 1e3) / 1e9
}

pub fn build() -> Rounds {
    let q = Queue::new(Device::cpu());
    let mut ops = Vec::new();
    {
        let (g, q) = (Rc::new(fdtd2d::golden(&FDTD)), q.clone());
        ops.push(Op::checked_after("bw.fdtd2d", move |_| {
            let (r, g) = (fdtd2d::run(&q, &FDTD, VERSION), g.clone());
            Box::new(move || r.ez == g.ez)
        }));
    }
    {
        let (g, q) = (Rc::new(srad::golden(&SRAD)), q.clone());
        ops.push(Op::checked_after("bw.srad", move |_| {
            let (r, g) = (srad::run(&q, &SRAD, VERSION), g.clone());
            Box::new(move || rel_l2_error_t(&g, &r) < 1e-3)
        }));
    }
    {
        let (g, q) = (Rc::new(where_q::golden(&WHERE)), q.clone());
        ops.push(Op::checked_after("bw.where", move |_| {
            let (r, g) = (where_q::run(&q, &WHERE, VERSION), g.clone());
            Box::new(move || r == *g)
        }));
    }
    {
        let (g, q) = (Rc::new(kmeans::golden(&KMEANS)), q.clone());
        ops.push(Op::checked_after("bw.kmeans", move |_| {
            let (r, g) = (kmeans::run(&q, &KMEANS, VERSION), g.clone());
            Box::new(move || {
                r.membership == g.membership && rel_l2_error_t(&g.centers, &r.centers) < 1e-4
            })
        }));
    }
    {
        let input: Rc<Vec<u32>> = Rc::new(
            (0..DPL_N as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9) >> 24)
                .collect(),
        );
        let golden: Rc<Vec<u32>> = Rc::new(
            input
                .iter()
                .scan(0u32, |acc, &x| {
                    let before = *acc;
                    *acc = acc.wrapping_add(x);
                    Some(before)
                })
                .collect(),
        );
        let output = Rc::new(RefCell::new(vec![0u32; DPL_N]));
        ops.push(Op::checked_after("bw.scan_u32", move |_| {
            par_dpl::scan::exclusive_scan_onedpl_style(&input, &mut output.borrow_mut());
            let (output, golden) = (output.clone(), golden.clone());
            Box::new(move || *output.borrow() == *golden)
        }));
    }
    {
        const BINS: usize = 257;
        let data: Rc<Vec<u32>> = Rc::new(
            (0..DPL_N as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
        );
        let mut golden = vec![0u64; BINS];
        for &x in data.iter() {
            golden[x as usize % BINS] += 1;
        }
        let golden = Rc::new(golden);
        ops.push(Op::checked_after("bw.histogram_u32", move |_| {
            let (h, golden) = (
                par_dpl::histogram::histogram_u32_mod(&data, BINS),
                golden.clone(),
            );
            Box::new(move || h == *golden)
        }));
    }
    {
        let data: Rc<Vec<f32>> = Rc::new(
            (0..DPL_N)
                .map(|i| ((i as u32).wrapping_mul(0x9E37_79B9) as f32) * 1e-3)
                .collect(),
        );
        let golden = data.iter().copied().fold(f32::INFINITY, f32::min);
        ops.push(Op::checked_after("bw.reduce_min", move |_| {
            let m = par_dpl::reduce::reduce_min(&data);
            Box::new(move || m == golden)
        }));
    }
    debug_assert_eq!(ops.len(), BW_KERNELS.len());
    Rounds {
        ops,
        lat: round_latency(),
        cover_span: "round",
        layers: Box::new(|_, rep| {
            rep.layer
                .insert("bw.memcpy_peak_gbps".into(), memcpy_peak_gbps());
            for k in BW_KERNELS {
                let ms = series_median(rep, &format!("bw.{k}"));
                rep.layer.insert(format!("bw.{k}.ms"), ms);
                let gbps = if ms > 0.0 {
                    computed_bytes(k) / (ms / 1e3) / 1e9
                } else {
                    0.0
                };
                rep.layer.insert(format!("bw.{k}.gbps_computed"), gbps);
            }
        }),
    }
}
