//! `roofline` — measured memory bandwidth of the suite's streaming
//! kernels against a memcpy-derived peak.
//!
//! The roofline's ceiling is what the host moves with a pool-parallel
//! `memcpy` — the same "achievable peak" a `%peak` column in the
//! Altis-SYCL tables is normalized to, measured rather than quoted from
//! a datasheet. Every row reports effective GB/s (from an analytic byte
//! count of the kernel's traffic) and its fraction of that peak. A
//! kernel that runs at two widths (one body through
//! [`hetero_rt::lanes::sweep`]) is timed **in one process** as
//! alternating pairs ([`paired`]): with the lane switch forced off
//! ([`hetero_rt::lanes::force`]: the same launches at `W = 1`) and
//! forced on, and also reports the scalar GB/s and the lane-over-scalar
//! speedup (median pair ratio). Every other kernel has one width and
//! reports bandwidth only. Mandelbrot's escape loop is compute-bound and
//! rides along for its speedup.
//!
//! One row is input generation, not a kernel: KMeans' point cloud at
//! `bw_large`'s shape, `generate_points` (eight lanes wide, split across
//! the pool by PCG jump-ahead) timed in alternating pairs against the
//! serial `gaussian()` loop that specifies it, in ns per value; the two
//! outputs must be equal bit for bit.
//!
//! `--gate R` makes all of them hard gates: every kernel that keeps two
//! widths must read a lane-over-scalar speedup ≥ R (the acceptance bar
//! is 1.5; a width that does not pay is deleted, not kept) at a shape
//! that keeps the kernel off the memory roof — FDTD2D's row at
//! `bw_large`'s 1536² runs near the memcpy peak, where its ratio follows
//! the host's memory state, and is reported with `"gated": false` beside
//! its gated 256² row —
//! `reduce_min` must reach [`REDUCE_MIN_FRAC`] of the memcpy peak, and
//! the cloud must be drawn [`CLOUD_SPEEDUP`] times faster than the
//! serial loop.

use std::cell::RefCell;
use std::process::ExitCode;

use altis_bench::json::{arr, Obj};
use altis_bench::report::{self, Op, Report};
use altis_bench::timing::{median, paired, samples};
use altis_core::common::{AppVersion, ExecMode};
use hetero_rt::prelude::*;

const USAGE: &str = "roofline [out.json] [--gate R]";

/// `reduce_min`'s floor as a fraction of the memcpy peak. Its fold must
/// stay inlined: through a run-time `fn` pointer the same loop reads
/// about 2.6 GB/s, 0.06–0.12 of the peak; inlined it read 0.26–0.80
/// over ten runs on the stamped host (EXPERIMENTS.md "PR 24").
const REDUCE_MIN_FRAC: f64 = 0.15;

/// Pool-parallel memcpy bandwidth in GB/s: the measured ceiling every
/// kernel row is normalized against. Counts both the read and the write
/// stream, like the kernel rows do.
fn memcpy_peak_gbps(threads: usize) -> f64 {
    const N: usize = 4 << 20; // 16 MiB src + 16 MiB dst of f32
    let src = vec![1.0f32; N];
    let mut dst = vec![0.0f32; N];
    let dst_addr = dst.as_mut_ptr() as usize;
    let src_ref = &src;
    let t = median(&samples(3, || {
        hetero_rt::pool::run_job(N, threads, &|s, e| unsafe {
            // Disjoint [s, e) chunks; the job barrier orders all writes
            // before `dst` is touched again.
            std::ptr::copy_nonoverlapping(
                src_ref.as_ptr().add(s),
                (dst_addr as *mut f32).add(s),
                e - s,
            );
        });
    }));
    std::hint::black_box(&dst);
    (2 * N * 4) as f64 / t / 1e9
}

/// `generate_points`' floor over the serial `gaussian()` loop at the
/// stamped host's pool width (2 threads: 1.87–2.33 over ten runs; a
/// serial `generate_points` reads about 1.0, EXPERIMENTS.md "PR 34").
const CLOUD_SPEEDUP: f64 = 1.5;

/// The KMeans cloud's specification: `k · nf` uniform blob centres, then
/// one serial `gaussian()` per value, row-major.
fn serial_cloud(p: &altis_data::KmeansParams) -> Vec<f32> {
    let mut rng = altis_data::SeededRng::new("kmeans", p.n_points);
    let blobs: Vec<f32> = (0..p.k * p.n_features).map(|_| rng.f32(-10.0, 10.0)).collect();
    let mut pts = Vec::with_capacity(p.n_points * p.n_features);
    for i in 0..p.n_points {
        for f in 0..p.n_features {
            pts.push(blobs[(i % p.k) * p.n_features + f] + 0.5 * rng.gaussian());
        }
    }
    pts
}

/// Serial-loop and `generate_points` ns per value, and the serial over
/// `generate_points` ratio with its spread.
struct CloudRow {
    values: usize,
    serial_ns: f64,
    ns: f64,
    speedup: f64,
    spread: f64,
    /// Values whose bits differ between the two (must be 0).
    mismatched: usize,
}

fn measure_cloud() -> CloudRow {
    // `bw_large`'s KMeans: 256 Ki points × 16 features.
    let p = altis_data::KmeansParams { n_points: 256 << 10, n_features: 16, k: 5, iterations: 1 };
    let values = p.n_points * p.n_features;
    let (pooled, serial) = (altis_core::kmeans::generate_points(&p), serial_cloud(&p));
    let mismatched = pooled.len().abs_diff(serial.len())
        + pooled.iter().zip(&serial).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    drop((pooled, serial));
    let t = paired(5, || serial_cloud(&p), || altis_core::kmeans::generate_points(&p));
    let (serial_ns, ns) = (t.a_s * 1e9 / values as f64, t.b_s * 1e9 / values as f64);
    println!(
        "  {:<14} serial {serial_ns:>7.2} ns/value  pooled {ns:>7.2} ns/value  {:.2}x   {mismatched} values differ",
        "kmeans_cloud", t.ratio
    );
    CloudRow { values, serial_ns, ns, speedup: t.ratio, spread: t.spread, mismatched }
}

struct KernelRow {
    name: &'static str,
    bytes: f64,
    gbps: f64,
    /// For a kernel with two widths: its GB/s at `W = 1`, the
    /// lane-over-scalar speedup, the speedup's spread, and whether
    /// `--gate` holds the speedup.
    fork: Option<(f64, f64, f64, bool)>,
}

/// A kernel with two widths, both over the same launches, its speedup
/// `gated` or only reported.
fn measure_fork(name: &'static str, bytes: f64, gated: bool, run: &dyn Fn()) -> KernelRow {
    let with = |lanes: bool| {
        hetero_rt::lanes::force(lanes);
        run();
    };
    let t = paired(5, || with(false), || with(true));
    let (scalar_gbps, gbps) = (bytes / t.a_s / 1e9, bytes / t.b_s / 1e9);
    println!(
        "  {name:<14} scalar {scalar_gbps:>7.2} GB/s   lanes {gbps:>7.2} GB/s   {:.2}x   ({:.1} -> {:.1} ms)",
        t.ratio,
        t.a_s * 1e3,
        t.b_s * 1e3
    );
    KernelRow { name, bytes, gbps, fork: Some((scalar_gbps, t.ratio, t.spread, gated)) }
}

/// A kernel with one width.
fn measure(name: &'static str, bytes: f64, run: &dyn Fn()) -> KernelRow {
    let gbps = bytes / median(&samples(5, run)) / 1e9;
    println!("  {name:<14}        {gbps:>7.2} GB/s");
    KernelRow { name, bytes, gbps, fork: None }
}

fn main() -> ExitCode {
    report::run(USAGE, &["--gate"], &[], |args| {
        Ok(roofline(args.opt("--gate")?, &args.out("BENCH_roofline.json")))
    })
}

fn roofline(gate: Option<f64>, out_path: &str) -> ExitCode {
    let mut report = Report::new("roofline");
    let threads = report.threads();
    let q = Queue::new(Device::cpu());

    let peak = memcpy_peak_gbps(threads);
    println!("roofline: {threads} threads, memcpy peak {peak:.2} GB/s");

    let mut rows = Vec::new();

    // FDTD2D per-launch step traffic: hx and hy touch (n-1)^2 elements
    // at 3 reads + 1 write each; ez touches (n-2)^2 at 5 reads + 1 write.
    // At `bw_large`'s 1536² (27 MiB of planes, near the memcpy peak) and
    // at size 2's 256² (768 KiB, cache-resident).
    for (name, n, steps, gated) in [("fdtd2d_step", 1536, 2, false), ("fdtd2d_step_s2", 256, 40, true)] {
        let p = altis_data::Fdtd2dParams { dim: n, steps };
        let per_step = 32.0 * ((n - 1) * (n - 1)) as f64 + 24.0 * ((n - 2) * (n - 2)) as f64;
        let bytes = p.steps as f64 * per_step;
        rows.push(measure_fork(name, bytes, gated, &|| {
            let out = altis_core::fdtd2d::run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::PerLaunch);
            std::hint::black_box(out.ez[0]);
        }));
    }

    // SRAD iteration traffic: srad_1 is 5 reads + 5 writes per pixel,
    // srad_2 is 8 reads + 1 write, plus the ROI statistics pass's read.
    {
        let n: usize = 512;
        let p = altis_data::SradParams { dim: n, iterations: 16, lambda: 0.5 };
        let bytes = p.iterations as f64 * 80.0 * (n * n) as f64;
        rows.push(measure_fork("srad_iter", bytes, true, &|| {
            let out = altis_core::srad::run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::PerLaunch);
            std::hint::black_box(out[0]);
        }));
    }

    // Mandelbrot at size 2: the only traffic is the image write.
    {
        let p = altis_data::mandelbrot(altis_data::InputSize::S2);
        let bytes = 4.0 * (p.dim * p.dim) as f64;
        rows.push(measure_fork("mandelbrot", bytes, true, &|| {
            let out = altis_core::mandelbrot::run(&q, &p, AppVersion::SyclOptimized);
            std::hint::black_box(out[0]);
        }));
    }

    // KMeans' map_centers at `bw_large`'s shape: each point's row read
    // once and its assignment written (the k × nf centres stay cached).
    {
        let p = altis_data::KmeansParams { n_points: 256 << 10, n_features: 16, k: 5, iterations: 1 };
        let bytes = (p.n_points * (4 * p.n_features + 4)) as f64;
        let pass = altis_core::kmeans::map_pass(&p);
        rows.push(measure_fork("kmeans_map", bytes, true, &|| pass(&q)));
    }

    // Exclusive scan: the block-totals launch reads every element, the
    // scan-and-add launch reads and writes every element — 12 B each.
    {
        const N: usize = 4 << 20;
        let input: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(0x9E37_79B9) >> 24).collect();
        let output = RefCell::new(vec![0u32; N]);
        rows.push(measure("scan_u32", 12.0 * N as f64, &|| {
            let mut out = output.borrow_mut();
            par_dpl::scan::exclusive_scan_onedpl_style(&input, &mut out);
            std::hint::black_box(out[N - 1]);
        }));
    }

    // Histogram: one streaming read per element; bin writes hit a
    // cache-resident table and are not counted.
    {
        const N: usize = 4 << 20;
        let data: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let data_ref = &data;
        rows.push(measure("histogram_u32", 4.0 * N as f64, &|| {
            let h = par_dpl::histogram::histogram_u32_mod(data_ref, 257);
            std::hint::black_box(h[0]);
        }));
    }

    // Min reduction: one streaming read per element, a sequential
    // `f32::min` fold per block.
    {
        const N: usize = 4 << 20;
        let data: Vec<f32> =
            (0..N).map(|i| ((i as u32).wrapping_mul(0x9E37_79B9) as f32) * 1e-3).collect();
        let data_ref = &data;
        rows.push(measure("reduce_min", 4.0 * N as f64, &|| {
            std::hint::black_box(par_dpl::reduce::reduce_min(data_ref));
        }));
    }

    hetero_rt::lanes::force(true);
    let cloud = measure_cloud();
    report
        .set("memcpy_peak_gbps", peak)
        .set(
            "kernels",
            arr(rows.iter().map(|k| {
                let row = Obj::new().set("name", k.name).set("bytes", k.bytes);
                match k.fork {
                    Some((scalar_gbps, speedup, spread, gated)) => row
                        .set("scalar_gbps", scalar_gbps)
                        .set("lanes_gbps", k.gbps)
                        .set("speedup", speedup)
                        .set("spread", spread)
                        .set("gated", gated)
                        .set("lanes_frac_of_peak", k.gbps / peak),
                    None => row.set("gbps", k.gbps).set("frac_of_peak", k.gbps / peak),
                }
            })),
        )
        .set(
            "input_generation",
            arr([Obj::new()
                .set("name", "kmeans_cloud")
                .set("values", cloud.values)
                .set("serial_ns_per_value", cloud.serial_ns)
                .set("ns_per_value", cloud.ns)
                .set("speedup", cloud.speedup)
                .set("spread", cloud.spread)
                .set("mismatched_values", cloud.mismatched)]),
        )
        .set("gate", gate);
    report.gate("kmeans_cloud values differing from the serial loop", cloud.mismatched as f64, Op::Eq, 0.0);
    if let Some(r) = gate {
        report.gate("kmeans_cloud serial-over-generate_points", cloud.speedup, Op::Ge, CLOUD_SPEEDUP);
        for k in &rows {
            if let Some((_, speedup, _, gated)) = k.fork {
                if gated {
                    report.gate(&format!("{} lane-over-scalar", k.name), speedup, Op::Ge, r);
                }
            } else if k.name == "reduce_min" {
                let frac = k.gbps / peak;
                report.gate("reduce_min fraction of memcpy peak", frac, Op::Ge, REDUCE_MIN_FRAC);
            }
        }
    }
    report.finish(out_path)
}
