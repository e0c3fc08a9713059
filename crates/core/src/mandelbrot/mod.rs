//! Mandelbrot — escape-time fractal computation.
//!
//! Paper relevance: the flagship example for Single-Task loop attributes
//! on FPGAs (Section 5.3). The inner escape loop has a data-dependent
//! exit, so the FPGA compiler schedules it with four speculated
//! iterations by default; lowering `speculated_iterations` and unrolling
//! the loop, plus replicating compute units per input size (Table 3 ships
//! three Mandelbrot bitstreams), yields the ~240–476× optimized-over-
//! baseline speedups of Figure 4.
//!
//! The CPU kernel runs one [`LANES`]-pixel block of a row per work-item,
//! through a [`lanes::Body`] that advances `W` pixels' escape loops side
//! by side under a per-lane live mask ([`lanes::sweep`]: the block at
//! `W = LANES`, a ragged row end at `W = 1`); `W = 1` is the scalar
//! loop, and [`golden`] keeps its own scalar [`escape`]. [`work_profile`] and [`fpga_design`] model Altis'
//! kernels — one work-item per pixel, the scalar loop — at the image's
//! [`MEAN_ESCAPE_FRAC`].

use altis_data::{InputSize, MandelbrotParams};
use altis_data::paper_scale::mandelbrot as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{OpMix, Scalar};
use hetero_rt::lanes;
use hetero_rt::prelude::*;

use crate::common::{egress, AppVersion};

/// Mean escape count of the image as a fraction of `max_iters`: the
/// golden image reads 0.2306 / 0.2221 / 0.2200 at sizes 1 / 2 / 3.
/// Interior points run all `max_iters`; exterior ones escape fast.
const MEAN_ESCAPE_FRAC: f64 = 0.225;

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

/// One image row: the escape counts of the `W` pixels from column `x`,
/// written into `img`.
struct Row<'a> {
    p: &'a MandelbrotParams,
    img: &'a GlobalView<u32>,
    y: usize,
}

impl lanes::Body for Row<'_> {
    /// [`escape`] on `W` lanes in its op order. A lane's count stops at
    /// its first failed check and the loop ends when no lane is live. A
    /// live lane has `|z| <= 2`, so its `r2` is never NaN and `<=` is
    /// the negation of `escape`'s `>`.
    #[inline]
    fn at<const W: usize>(&self, x: usize) {
        let Row { p, img, y } = *self;
        let cx = Lanes::<f64, W>(std::array::from_fn(|k| pixel_coords(p, x + k, y).0));
        let cy = Lanes::splat(pixel_coords(p, x, y).1);
        let (mut zx, mut zy) = (Lanes::splat(0.0), Lanes::splat(0.0));
        let (mut count, mut live) = ([0u32; W], [true; W]);
        for _ in 0..p.max_iters {
            let zx2 = zx * zx;
            let zy2 = zy * zy;
            let r2 = zx2 + zy2;
            let mut any = false;
            for k in 0..W {
                live[k] &= r2.0[k] <= 4.0;
                count[k] += u32::from(live[k]);
                any |= live[k];
            }
            if !any {
                break;
            }
            let nzx = zx2 - zy2 + cx;
            zy = Lanes::splat(2.0) * zx * zy + cy;
            zx = nzx;
        }
        img.set_lanes(y * p.dim + x, Lanes(count));
    }
}

/// Run the kernel on the runtime, one work-item per [`LANES`]-pixel
/// block of a [`Row`]. A work-item per row would idle pool threads: the
/// runtime packs a flat range 256 items to a work-group, so an image of
/// up to 256 rows would be one group. Baseline and optimized GPU
/// versions compute identical results; their modelled performance
/// differs through the migration-effects machinery, not through the
/// functional kernel.
pub fn run(q: &Queue, p: &MandelbrotParams, _version: AppVersion) -> Vec<u32> {
    let out = Buffer::<u32>::new(p.dim * p.dim);
    let img = out.view();
    let pp = *p;
    let range = Range::d2(p.dim.div_ceil(LANES), p.dim);
    q.submit(&[writes(&out)]).parallel_for("mandelbrot", range, move |it| {
        let x = it.gid(0) * LANES;
        lanes::sweep(x, (x + LANES).min(pp.dim), &Row { p: &pp, img: &img, y: it.gid(1) });
    });
    egress(out)
}

/// Analytic work profile for the device models: Altis' per-pixel
/// scalar loop at the golden image's [`MEAN_ESCAPE_FRAC`].
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let avg_iters = MEAN_ESCAPE_FRAC * p.max_iters as f64;
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
    let avg_iters = (MEAN_ESCAPE_FRAC * p.max_iters as f64) as u64;
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
    fn row_body_is_bit_equal_at_width_one_and_lanes() {
        use lanes::Body;
        // 37 columns: four wide blocks and a five-column tail; a last
        // wide block at 29 runs the tail's columns at `LANES` too.
        for max_iters in [0, 1, 2, 64] {
            let p = MandelbrotParams { dim: 37, max_iters };
            let (narrow, wide) = (Buffer::<u32>::new(37 * 37), Buffer::<u32>::new(37 * 37));
            let (nv, wv) = (narrow.view(), wide.view());
            for y in 0..p.dim {
                (0..p.dim).for_each(|x| Row { p: &p, img: &nv, y }.at::<1>(x));
                for x in (0..p.dim - LANES).step_by(LANES).chain([p.dim - LANES]) {
                    Row { p: &p, img: &wv, y }.at::<LANES>(x);
                }
            }
            let g = golden(&p);
            assert_eq!(narrow.to_vec(), g, "W = 1, max_iters {max_iters}");
            assert_eq!(wide.to_vec(), g, "W = LANES, max_iters {max_iters}");
            // The corners lie outside |c| = 2 and escape after one step;
            // the interior runs out of iterations.
            assert_eq!(g[0], max_iters.min(1), "corner");
            assert!(g.iter().filter(|&&c| c == max_iters).count() > 37, "interior");
        }
    }

    #[test]
    fn mean_escape_fraction_is_the_golden_images() {
        for size in [InputSize::S1, InputSize::S2] {
            let p = altis_data::mandelbrot(size);
            let img = golden(&p);
            let total: u64 = img.iter().map(|&c| c as u64).sum();
            let frac = total as f64 / (img.len() as f64 * p.max_iters as f64);
            assert!((frac - MEAN_ESCAPE_FRAC).abs() <= 0.01, "{size}: mean {frac:.4}");
        }
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
