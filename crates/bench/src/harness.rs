//! Harness functions: one per table/figure of the paper's evaluation.
//!
//! Every function is deterministic (seeded data, analytic models), so
//! the `repro` binary prints the same numbers on every run and the
//! integration tests can assert the headline shapes.

use altis_core::migration::{
    cuda_factors, fig2_point, fixed_cuda, measured_seconds, sycl_factors, PerfFactors,
};
use altis_core::suite::{all_apps, AppEntry};
use altis_data::InputSize;
use device_model::{DeviceSpec, RuntimeFlavor, WorkProfile};
use fpga_sim::report::table3_row;
use fpga_sim::{FpgaPart, Table3Row};
use hetero_ir::dpct::{migrate, optimize_for_gpu, DiagnosticKind};

/// Geometric mean of a non-empty slice.
fn geomean(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / n).exp()
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Device name.
    pub device: &'static str,
    /// Process node in nm.
    pub process_nm: u32,
    /// Compute-unit description.
    pub compute_units: &'static str,
    /// Peak FP32 in TFLOP/s.
    pub peak_f32_tflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub peak_bw_gbs: f64,
}

/// Regenerate Table 2.
pub fn table2() -> Vec<Table2Row> {
    DeviceSpec::table2()
        .into_iter()
        .map(|d| Table2Row {
            device: d.name,
            process_nm: d.process_nm,
            compute_units: d.compute_units,
            peak_f32_tflops: d.peak_f32_gflops / 1e3,
            peak_bw_gbs: d.peak_mem_bw_gbs,
        })
        .collect()
}

// ---------------------------------------------------------------- Figure 1

/// One bar of Figure 1: FDTD2D execution-time decomposition.
#[derive(Debug, Clone)]
pub struct Fig1Bar {
    /// "CUDA" or "SYCL".
    pub stack: &'static str,
    /// Input size.
    pub size: InputSize,
    /// Kernel region, milliseconds.
    pub kernel_ms: f64,
    /// Non-kernel region, milliseconds.
    pub non_kernel_ms: f64,
}

impl Fig1Bar {
    /// Total milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.kernel_ms + self.non_kernel_ms
    }
}

/// Regenerate Figure 1 (sizes 1 and 3, CUDA vs SYCL on the RTX 2080).
/// The *measured* CUDA kernel region reflects the original's missing
/// device sync; the decomposition we print is the true one, which is the
/// comparison the paper makes after fixing the measurement.
pub fn fig1() -> Vec<Fig1Bar> {
    let rtx = DeviceSpec::rtx_2080();
    let mut bars = Vec::new();
    for size in [InputSize::S1, InputSize::S3] {
        let profile = altis_core::fdtd2d::work_profile(size);
        for (stack, flavor, slowdown) in [
            ("CUDA", RuntimeFlavor::Cuda, 1.0),
            ("SYCL", RuntimeFlavor::SyclOnCuda, 1.0),
        ] {
            let t = device_model::estimate(&profile, &rtx, flavor);
            bars.push(Fig1Bar {
                stack,
                size,
                kernel_ms: t.kernel_s * slowdown * 1e3,
                non_kernel_ms: t.non_kernel_s * 1e3,
            });
        }
    }
    bars
}

// ---------------------------------------------------------------- Figure 2

/// One group of Figure-2 bars: SYCL-over-CUDA speedups on the RTX 2080.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Application name.
    pub app: &'static str,
    /// Baseline speedups at sizes 1..3.
    pub baseline: [f64; 3],
    /// Optimized speedups at sizes 1..3.
    pub optimized: [f64; 3],
}

/// Regenerate Figure 2.
pub fn fig2() -> Vec<Fig2Row> {
    all_apps()
        .iter()
        .map(|app| {
            let cuda = (app.cuda_module)();
            let mut baseline = [0.0; 3];
            let mut optimized = [0.0; 3];
            for (i, size) in InputSize::all().into_iter().enumerate() {
                let profile = (app.work_profile)(size);
                let pt = fig2_point(&cuda, &profile);
                baseline[i] = pt.baseline_speedup;
                optimized[i] = pt.optimized_speedup;
            }
            Fig2Row { app: app.name, baseline, optimized }
        })
        .collect()
}

/// Geometric means of the optimized Figure-2 speedups per size
/// (the paper reports 1.0× / 1.1× / 1.3×).
pub fn fig2_geomeans(rows: &[Fig2Row]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for i in 0..3 {
        let vals: Vec<f64> = rows.iter().map(|r| r.optimized[i]).collect();
        out[i] = geomean(&vals);
    }
    out
}

// ---------------------------------------------------------------- Figure 4

/// One group of Figure-4 bars: FPGA optimized over baseline on
/// Stratix 10.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Application name.
    pub app: &'static str,
    /// Speedups at sizes 1..3; `None` when the paper has no optimized
    /// design (DWT2D).
    pub speedup: [Option<f64>; 3],
}

/// Regenerate Figure 4.
pub fn fig4() -> Vec<Fig4Row> {
    let part = FpgaPart::stratix10();
    all_apps()
        .iter()
        .filter(|a| a.name != "DWT2D")
        .map(|app| {
            let mut speedup = [None; 3];
            for (i, size) in InputSize::all().into_iter().enumerate() {
                let base = (app.fpga_design)(size, false, &part);
                let opt = (app.fpga_design)(size, true, &part);
                if let (Some(b), Some(o)) = (base, opt) {
                    let tb = fpga_sim::simulate(&b, &part).total_seconds;
                    let to = fpga_sim::simulate(&o, &part).total_seconds;
                    speedup[i] = Some(tb / to);
                }
            }
            Fig4Row { app: app.name, speedup }
        })
        .collect()
}

/// Geometric means of the Figure-4 speedups per size (paper: ~10.7×,
/// ~20.7×, ~35.6×).
pub fn fig4_geomeans(rows: &[Fig4Row]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for i in 0..3 {
        let vals: Vec<f64> = rows.iter().filter_map(|r| r.speedup[i]).collect();
        out[i] = geomean(&vals);
    }
    out
}

// ---------------------------------------------------------------- Figure 5

/// The five non-CPU devices of Figure 5, in the paper's legend order.
pub const FIG5_DEVICES: [&str; 5] =
    ["RTX 2080", "A100", "Max 1100", "Stratix 10", "Agilex"];

/// One group of Figure-5 bars: speedups over the Xeon CPU.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Application name.
    pub app: &'static str,
    /// Input size.
    pub size: InputSize,
    /// Speedup per device, in [`FIG5_DEVICES`] order. `None` marks the
    /// paper's missing bar (Where size 3 crashes on Agilex).
    pub speedup: [Option<f64>; 5],
}

/// Total measured time on the CPU baseline device.
fn cpu_seconds(profile: &WorkProfile) -> f64 {
    measured_seconds(
        profile,
        &DeviceSpec::xeon_gold_6128(),
        RuntimeFlavor::SyclNative,
        PerfFactors::neutral(),
    )
}

/// Total measured time of the optimized SYCL version on a GPU.
fn gpu_seconds(app: &AppEntry, profile: &WorkProfile, dev: &DeviceSpec) -> f64 {
    let cuda = (app.cuda_module)();
    let (base, _) = migrate(&cuda);
    let optimized = optimize_for_gpu(&base);
    let flavor = if dev.name == "Max 1100 GPU" {
        RuntimeFlavor::SyclNative
    } else {
        RuntimeFlavor::SyclOnCuda
    };
    measured_seconds(profile, dev, flavor, sycl_factors(&optimized))
}

/// Total measured time of the best FPGA design on a part: simulated
/// kernel time plus the runtime's non-kernel overhead.
fn fpga_seconds(app: &AppEntry, profile: &WorkProfile, size: InputSize, part: &FpgaPart) -> f64 {
    // DWT2D has no optimized design; fall back to the baseline.
    let design = (app.fpga_design)(size, true, part)
        .or_else(|| (app.fpga_design)(size, false, part))
        .expect("every app has at least a baseline FPGA design");
    let kernel_s = fpga_sim::simulate(&design, part).total_seconds;
    let spec = if part.name == "Agilex" {
        DeviceSpec::agilex()
    } else {
        DeviceSpec::stratix10()
    };
    let non_kernel_s =
        device_model::overhead::non_kernel_seconds(profile, &spec, RuntimeFlavor::SyclFpga);
    kernel_s + non_kernel_s
}

/// Regenerate Figure 5.
pub fn fig5() -> Vec<Fig5Row> {
    let gpus = [DeviceSpec::rtx_2080(), DeviceSpec::a100(), DeviceSpec::max_1100()];
    let parts = [FpgaPart::stratix10(), FpgaPart::agilex()];
    let mut rows = Vec::new();
    for app in all_apps() {
        // Figure 5 shows 12 configurations: DWT2D is absent (it has no
        // optimized FPGA design; Section 5.4).
        if app.name == "DWT2D" {
            continue;
        }
        for size in InputSize::all() {
            let profile = (app.work_profile)(size);
            let t_cpu = cpu_seconds(&profile);
            let mut speedup = [None; 5];
            for (i, dev) in gpus.iter().enumerate() {
                speedup[i] = Some(t_cpu / gpu_seconds(&app, &profile, dev));
            }
            for (i, part) in parts.iter().enumerate() {
                // The paper's Where size 3 crashed on Agilex; reproduce
                // the missing bar.
                if app.name == "Where" && size == InputSize::S3 && part.name == "Agilex" {
                    continue;
                }
                speedup[3 + i] = Some(t_cpu / fpga_seconds(&app, &profile, size, part));
            }
            rows.push(Fig5Row { app: app.name, size, speedup });
        }
    }
    rows
}

/// Per-device geometric means of Figure 5 for one size (the paper
/// reports e.g. {5.07, 4.91, 6.12, 2.16, 2.55} at size 1).
pub fn fig5_geomeans(rows: &[Fig5Row], size: InputSize) -> [f64; 5] {
    let mut out = [0.0; 5];
    for d in 0..5 {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.size == size)
            .filter_map(|r| r.speedup[d])
            .collect();
        out[d] = geomean(&vals);
    }
    out
}

// ---------------------------------------------------------------- Table 3

/// Regenerate Table 3: per-application resource/Fmax rows on both parts.
/// Mandelbrot contributes one row per input size (three bitstreams);
/// everything else uses the size-3 optimized design (DWT2D: baseline).
pub fn table3() -> Vec<(Table3Row, Table3Row)> {
    let s10 = FpgaPart::stratix10();
    let agx = FpgaPart::agilex();
    let mut rows = Vec::new();
    for app in all_apps() {
        let sizes: Vec<InputSize> = if app.name == "Mandelbrot" {
            InputSize::all().to_vec()
        } else {
            vec![InputSize::S3]
        };
        for size in sizes {
            let mk = |part: &FpgaPart| {
                (app.fpga_design)(size, true, part)
                    .or_else(|| (app.fpga_design)(size, false, part))
                    .map(|d| table3_row(&d, part))
            };
            if let (Some(a), Some(b)) = (mk(&s10), mk(&agx)) {
                rows.push((a, b));
            }
        }
    }
    rows
}

// --------------------------------------------------------- DPCT migration

/// Per-application DPCT diagnostic summary (Section 3.2).
#[derive(Debug, Clone)]
pub struct DpctReport {
    /// Application name.
    pub app: &'static str,
    /// Total diagnostics emitted.
    pub total: usize,
    /// Diagnostics that block functional correctness.
    pub blocking: usize,
    /// Count per category.
    pub by_kind: Vec<(DiagnosticKind, usize)>,
}

/// Regenerate the migration-diagnostics report.
pub fn dpct_report() -> Vec<DpctReport> {
    all_apps()
        .iter()
        .map(|app| {
            let (_m, diags) = migrate(&(app.cuda_module)());
            let mut by_kind: Vec<(DiagnosticKind, usize)> = Vec::new();
            for d in &diags {
                match by_kind.iter_mut().find(|(k, _)| *k == d.kind) {
                    Some((_, c)) => *c += 1,
                    None => by_kind.push((d.kind, 1)),
                }
            }
            DpctReport {
                app: app.name,
                total: diags.len(),
                blocking: diags.iter().filter(|d| d.blocking).count(),
                by_kind,
            }
        })
        .collect()
}

// ------------------------------------------------------------ micro table

/// One row of the Section-3.3 micro-studies table.
#[derive(Debug, Clone)]
pub struct MicroRow {
    /// Study name.
    pub study: &'static str,
    /// Factor our models produce.
    pub measured_factor: f64,
    /// Factor the paper reports.
    pub paper_factor: f64,
}

/// Regenerate the Section-3.3 micro-study factors.
pub fn micro_studies() -> Vec<MicroRow> {
    // pow(a,2) vs a*a: ratio of PF Float CUDA time with and without the
    // pow penalty at size 3.
    let pf = altis_core::particlefilter::cuda_module(altis_core::particlefilter::PfVariant::Float);
    let prof =
        altis_core::particlefilter::work_profile(InputSize::S3, altis_core::particlefilter::PfVariant::Float);
    let rtx = DeviceSpec::rtx_2080();
    let t_pow = measured_seconds(&prof, &rtx, RuntimeFlavor::Cuda, cuda_factors(&pf));
    let t_fix = measured_seconds(&prof, &rtx, RuntimeFlavor::Cuda, cuda_factors(&fixed_cuda(&pf)));

    // Inline threshold on NW: baseline vs optimized SYCL kernel factor.
    let nw = altis_core::nw::cuda_module();
    let (nw_base, _) = migrate(&nw);
    let nw_opt = optimize_for_gpu(&nw_base);
    let inline_gain =
        sycl_factors(&nw_base).kernel_slowdown / sycl_factors(&nw_opt).kernel_slowdown;

    // oneDPL scan vs CUB on Where.
    let wq = altis_core::where_q::cuda_module();
    let (wq_base, _) = migrate(&wq);
    let scan_penalty = sycl_factors(&wq_base).kernel_slowdown;

    // Custom FPGA scan vs the GPU-shaped one on Stratix 10 (Where's scan
    // stage alone, Section 5.3's "up to 100×").
    let part = FpgaPart::stratix10();
    let base = altis_core::where_q::fpga_design(InputSize::S3, false, &part);
    let opt = altis_core::where_q::fpga_design(InputSize::S3, true, &part);
    let scan_fpga = fpga_sim::simulate(&base, &part).groups[1].seconds
        / fpga_sim::simulate(&opt, &part).groups[1].seconds;

    vec![
        MicroRow { study: "pow(a,2) -> a*a on PF Float (CUDA slowdown)", measured_factor: t_pow / t_fix, paper_factor: 6.0 },
        MicroRow { study: "inline threshold raise on NW (SYCL gain)", measured_factor: inline_gain, paper_factor: 2.0 },
        MicroRow { study: "oneDPL scan vs CUB on RTX 2080 (slowdown)", measured_factor: scan_penalty, paper_factor: 1.5 },
        MicroRow { study: "custom FPGA scan vs oneDPL-shape on S10 (gain)", measured_factor: scan_fpga, paper_factor: 100.0 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn table2_matches_paper_rows() {
        let t = table2();
        assert_eq!(t.len(), 6);
        assert_eq!(t[2].device, "A100 GPU");
        assert!((t[2].peak_f32_tflops - 19.5).abs() < 1e-9);
    }

    #[test]
    fn fig1_sycl_overhead_dominates_at_small_size() {
        let bars = fig1();
        let cuda_s1 = bars.iter().find(|b| b.stack == "CUDA" && b.size == InputSize::S1).unwrap();
        let sycl_s1 = bars.iter().find(|b| b.stack == "SYCL" && b.size == InputSize::S1).unwrap();
        // Paper: SYCL non-kernel ≈ 6.7× CUDA non-kernel at size 1.
        let ratio = sycl_s1.non_kernel_ms / cuda_s1.non_kernel_ms;
        assert!(ratio > 3.0 && ratio < 15.0, "ratio = {ratio}");
        // At size 3 the kernel region dominates the SYCL bar.
        let sycl_s3 = bars.iter().find(|b| b.stack == "SYCL" && b.size == InputSize::S3).unwrap();
        assert!(sycl_s3.kernel_ms > sycl_s3.non_kernel_ms);
    }

    #[test]
    fn fig2_geomeans_near_parity_after_optimization() {
        let rows = fig2();
        let gm = fig2_geomeans(&rows);
        // Paper: 1.0 / 1.1 / 1.3. Allow a generous band.
        for (i, g) in gm.iter().enumerate() {
            assert!(*g > 0.5 && *g < 3.0, "gm[{i}] = {g}");
        }
        // The trend grows with size (kernel effects outgrow overheads).
        assert!(gm[2] >= gm[0] * 0.8);
    }

    #[test]
    fn fig4_headliners_are_kmeans_and_mandelbrot() {
        let rows = fig4();
        let find = |name: &str| {
            rows.iter().find(|r| r.app == name).unwrap().speedup[2].unwrap()
        };
        let kmeans = find("KMeans");
        let mandelbrot = find("Mandelbrot");
        assert!(kmeans > 50.0, "kmeans = {kmeans}");
        assert!(mandelbrot > 50.0, "mandelbrot = {mandelbrot}");
        // Moderate cases stay moderate (paper: CFD FP64 ≈ 2.1-2.2×).
        let cfd64 = find("CFD FP64");
        assert!(cfd64 > 1.0 && cfd64 < 100.0, "cfd64 = {cfd64}");
    }

    #[test]
    fn fig4_geomeans_grow_with_size() {
        let gm = fig4_geomeans(&fig4());
        // Paper: 10.7 / 20.7 / 35.6.
        assert!(gm[0] > 2.0, "{gm:?}");
        assert!(gm[2] > gm[0], "{gm:?}");
    }

    #[test]
    fn fig5_fpga_advantage_fades_at_size3() {
        let rows = fig5();
        let s1 = fig5_geomeans(&rows, InputSize::S1);
        let s3 = fig5_geomeans(&rows, InputSize::S3);
        // FPGA geomean relative to the best GPU geomean shrinks from
        // size 1 to size 3 (the paper's bandwidth story).
        let gpu_best_s1 = s1[0].max(s1[1]).max(s1[2]);
        let gpu_best_s3 = s3[0].max(s3[1]).max(s3[2]);
        let fpga_s1 = s1[3].max(s1[4]);
        let fpga_s3 = s3[3].max(s3[4]);
        assert!(
            fpga_s1 / gpu_best_s1 > fpga_s3 / gpu_best_s3,
            "s1: {fpga_s1}/{gpu_best_s1}, s3: {fpga_s3}/{gpu_best_s3}"
        );
    }

    #[test]
    fn fig5_where_s3_missing_on_agilex() {
        let rows = fig5();
        let r = rows
            .iter()
            .find(|r| r.app == "Where" && r.size == InputSize::S3)
            .unwrap();
        assert!(r.speedup[4].is_none());
        assert!(r.speedup[3].is_some());
    }

    #[test]
    fn table3_has_mandelbrot_bitstream_per_size() {
        let rows = table3();
        let mandel = rows.iter().filter(|(a, _)| a.design.contains("mandelbrot")).count();
        assert_eq!(mandel, 3);
        // Agilex clocks higher in every row (Table 3's uniform finding).
        for (s10, agx) in &rows {
            assert!(agx.fmax_mhz > s10.fmax_mhz, "{}", s10.design);
        }
    }

    #[test]
    fn dpct_report_flags_raytracing_as_blocking() {
        let rep = dpct_report();
        let rt = rep.iter().find(|r| r.app == "Raytracing").unwrap();
        assert!(rt.blocking >= 2); // virtual functions + dynamic alloc
        let total: usize = rep.iter().map(|r| r.total).sum();
        assert!(total > 10, "suite-wide diagnostics: {total}");
    }

    #[test]
    fn micro_studies_land_in_paper_zones() {
        for row in micro_studies() {
            let ratio = row.measured_factor / row.paper_factor;
            assert!(
                ratio > 0.1 && ratio < 10.0,
                "{}: measured {} vs paper {}",
                row.study,
                row.measured_factor,
                row.paper_factor
            );
        }
    }
}
