//! Mandelbrot — escape-time fractal computation.
//!
//! Paper relevance: the flagship example for Single-Task loop attributes
//! on FPGAs (Section 5.3). The inner escape loop has a data-dependent
//! exit, so the FPGA compiler schedules it with four speculated
//! iterations by default; lowering `speculated_iterations` and unrolling
//! the loop, plus replicating compute units per input size (Table 3 ships
//! three Mandelbrot bitstreams), yields the ~240–476× optimized-over-
//! baseline speedups of Figure 4.

use altis_data::{InputSize, MandelbrotParams};
use altis_data::paper_scale::mandelbrot as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{OpMix, Scalar};
use hetero_rt::prelude::*;

use crate::common::{egress, AppVersion};

/// Complex-plane viewport the image maps onto.
const X_MIN: f64 = -2.0;
const X_MAX: f64 = 0.75;
const Y_MIN: f64 = -1.25;
const Y_MAX: f64 = 1.25;

/// Escape iterations for one point.
#[inline]
fn escape(cx: f64, cy: f64, max_iters: u32) -> u32 {
    let (mut zx, mut zy) = (0.0f64, 0.0f64);
    let mut i = 0;
    while i < max_iters {
        let zx2 = zx * zx;
        let zy2 = zy * zy;
        if zx2 + zy2 > 4.0 {
            break;
        }
        let nzx = zx2 - zy2 + cx;
        zy = 2.0 * zx * zy + cy;
        zx = nzx;
        i += 1;
    }
    i
}

#[inline]
fn pixel_coords(p: &MandelbrotParams, x: usize, y: usize) -> (f64, f64) {
    let cx = X_MIN + (X_MAX - X_MIN) * (x as f64 + 0.5) / p.dim as f64;
    let cy = Y_MIN + (Y_MAX - Y_MIN) * (y as f64 + 0.5) / p.dim as f64;
    (cx, cy)
}

/// Golden reference: sequential escape-time image.
pub fn golden(p: &MandelbrotParams) -> Vec<u32> {
    let mut img = vec![0u32; p.dim * p.dim];
    for y in 0..p.dim {
        for x in 0..p.dim {
            let (cx, cy) = pixel_coords(p, x, y);
            img[y * p.dim + x] = escape(cx, cy, p.max_iters);
        }
    }
    img
}

/// Run the kernel on the runtime. Baseline and optimized GPU versions
/// compute identical results; their modelled performance differs through
/// the migration-effects machinery, not through the functional kernel.
pub fn run(q: &Queue, p: &MandelbrotParams, _version: AppVersion) -> Vec<u32> {
    let out = Buffer::<u32>::new(p.dim * p.dim);
    let v = out.view();
    let dim = p.dim;
    let max_iters = p.max_iters;
    let pp = *p;
    q.parallel_for("mandelbrot", Range::d2(dim, dim), move |it| {
        let (x, y) = (it.gid(0), it.gid(1));
        let (cx, cy) = pixel_coords(&pp, x, y);
        v.set(y * dim + x, escape(cx, cy, max_iters));
    });
    egress(out)
}

/// Analytic work profile for the device models. Average escape count is
/// measured from the golden image so the profile tracks the actual work.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    // Interior points run all `max_iters`; exterior escape fast. The
    // measured mean for this viewport is ~28 % of max.
    let avg_iters = 0.28 * p.max_iters as f64;
    let pixels = (p.dim * p.dim) as f64;
    // 9 FLOPs per escape iteration (3 mul, 3 add/sub, 1 cmp-ish, fused).
    let flops = pixels * avg_iters * 9.0;
    WorkProfile {
        f32_flops: flops as u64,
        f64_flops: 0,
        global_bytes: (pixels * 4.0) as u64,
        kernel_launches: 1,
        transfer_bytes: (pixels * 4.0) as u64,
        hints: EfficiencyHints { compute: 0.55, memory: 0.9 },
    }
}

/// FPGA designs.
///
/// * Baseline: the migrated ND-Range kernel with the default speculated
///   iterations — the per-item escape loop is not pipelined, so the
///   datapath stalls for the whole loop on every pixel.
/// * Optimized: Single-Task, pixel loop pipelined at II = 1, escape loop
///   unrolled, `speculated_iterations(0)`, and per-size compute-unit
///   replication (the paper builds one bitstream per input size with
///   different CU/unroll combinations).
pub fn fpga_design(size: InputSize, optimized: bool, part: &FpgaPart) -> Design {
    let p = pparams(size);
    let pixels = (p.dim * p.dim) as u64;
    let avg_iters = (0.28 * p.max_iters as f64) as u64;
    let body = OpMix { f32_ops: 7, cmp_sel_ops: 2, ..OpMix::default() };

    if !optimized {
        let inner = LoopBuilder::new("escape", avg_iters)
            .body(body)
            .data_dependent_exit()
            .build();
        let k = KernelBuilder::nd_range("mandel_ndr", 128)
            .loop_(inner)
            .straight_line(OpMix { global_write_bytes: 4, int_ops: 4, ..OpMix::default() })
            .build();
        Design::new(format!("mandelbrot-base-{}", size))
            .with(KernelInstance::new(k).items(pixels))
    } else {
        let is_agilex = part.name == "Agilex";
        // Per-size tuning in the spirit of Table 3's three bitstreams:
        // small images leave room for aggressive unrolling; large
        // iteration counts favour more compute units.
        let (unroll, cu) = match (size, is_agilex) {
            (InputSize::S1, false) => (16, 6),
            (InputSize::S2, false) => (16, 4),
            (InputSize::S3, false) => (16, 4),
            (InputSize::S1, true) => (8, 6),
            (InputSize::S2, true) => (12, 4),
            (InputSize::S3, true) => (8, 4),
        };
        let inner = LoopBuilder::new("escape", avg_iters)
            .body(body)
            .unroll(unroll)
            .speculated(0)
            .data_dependent_exit()
            .build();
        let pixel_loop = LoopBuilder::new("pixels", pixels)
            .ii(1)
            .speculated(0)
            .body(OpMix { global_write_bytes: 4, int_ops: 4, ..OpMix::default() })
            .child(inner)
            .build();
        let k = KernelBuilder::single_task("mandel_st")
            .loop_(pixel_loop)
            .restrict()
            .dominant(Scalar::F32)
            .build();
        Design::new(format!("mandelbrot-opt-{}", size))
            .with(KernelInstance::new(k).replicated(cu))
    }
}

/// DPCT source model of the original CUDA Mandelbrot.
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "mandelbrot".into(),
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::WorkGroupSize { size: 256, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MandelbrotParams {
        MandelbrotParams { dim: 32, max_iters: 128 }
    }

    #[test]
    fn runtime_matches_golden() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        assert_eq!(run(&q, &p, AppVersion::SyclBaseline), golden(&p));
    }

    #[test]
    fn interior_point_never_escapes() {
        assert_eq!(escape(0.0, 0.0, 500), 500);
        assert_eq!(escape(-1.0, 0.0, 500), 500);
    }

    #[test]
    fn exterior_point_escapes_fast() {
        assert!(escape(2.0, 2.0, 500) < 3);
    }

    #[test]
    fn image_contains_both_regimes() {
        let img = golden(&tiny());
        assert!(img.contains(&128)); // interior
        assert!(img.iter().any(|&i| i < 10)); // fast escape
    }

    #[test]
    fn optimized_fpga_design_is_much_faster() {
        let part = FpgaPart::stratix10();
        let base = fpga_sim::simulate(&fpga_design(InputSize::S1, false, &part), &part);
        let opt = fpga_sim::simulate(&fpga_design(InputSize::S1, true, &part), &part);
        let speedup = base.total_seconds / opt.total_seconds;
        // Figure 4 reports 240–476×; the simulator should land in that
        // order of magnitude.
        assert!(speedup > 50.0, "speedup = {speedup}");
    }

    #[test]
    fn designs_fit_both_parts() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            for size in InputSize::all() {
                let d = fpga_design(size, true, &part);
                fpga_sim::resources::check_fit(&d, &part)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn profile_scales_with_size() {
        let p1 = work_profile(InputSize::S1);
        let p3 = work_profile(InputSize::S3);
        assert!(p3.f32_flops > 50 * p1.f32_flops);
    }
}
