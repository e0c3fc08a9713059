//! SRAD — speckle-reducing anisotropic diffusion.
//!
//! Paper relevance: SRAD is the "Case 2" shared-memory study (many shared
//! arrays, regular but port-heavy). Its kernels originally passed eleven
//! accessor *objects* as kernel arguments, which synthesised accessor
//! member functions and overflowed the Stratix 10 — fixed by passing
//! local pointers (Section 4). On the optimisation side, the paper finds
//! a 64×64 work-group with SIMD = 2 ~4× faster than 16×16 with SIMD = 8,
//! and Section 5.5 bumps the work-group 16→32 when retargeting Agilex.

use altis_data::{InputSize, SeededRng, SradParams};
use altis_data::paper_scale::srad as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{AccessPattern, OpMix, Scalar};
use hetero_rt::lanes;
use hetero_rt::prelude::*;

use crate::common::{egress, fill_rows, AppVersion, ExecMode, Step};

pub mod streaming;

/// Generate the speckled input image, filled across the pool.
pub fn generate_image(p: &SradParams) -> Vec<f32> {
    let rng = SeededRng::new("srad", p.dim);
    fill_rows(p.dim, p.dim, |first, rows| rng.speckled_rows(p.dim, first, rows))
}

/// One SRAD iteration, sequential: returns the updated image.
fn srad_step(img: &[f32], n: usize, lambda: f32) -> Vec<f32> {
    // ROI statistics over the whole image (Altis uses a corner ROI; the
    // whole-image ROI keeps the reduction while staying deterministic).
    let sum: f64 = img.iter().map(|&v| v as f64).sum();
    let sum2: f64 = img.iter().map(|&v| (v as f64) * (v as f64)).sum();
    let mean = sum / (n * n) as f64;
    let var = (sum2 / (n * n) as f64 - mean * mean).max(0.0);
    let q0 = (var / (mean * mean)) as f32;

    let idx = |y: usize, x: usize| y * n + x;
    let mut c = vec![0f32; n * n];
    let mut dn = vec![0f32; n * n];
    let mut ds = vec![0f32; n * n];
    let mut de = vec![0f32; n * n];
    let mut dw = vec![0f32; n * n];

    for y in 0..n {
        for x in 0..n {
            let i = idx(y, x);
            let j = img[i];
            let jn = img[idx(y.saturating_sub(1), x)];
            let js = img[idx((y + 1).min(n - 1), x)];
            let jw = img[idx(y, x.saturating_sub(1))];
            let je = img[idx(y, (x + 1).min(n - 1))];
            dn[i] = jn - j;
            ds[i] = js - j;
            dw[i] = jw - j;
            de[i] = je - j;
            let g2 = (dn[i] * dn[i] + ds[i] * ds[i] + dw[i] * dw[i] + de[i] * de[i])
                / (j * j);
            let l = (dn[i] + ds[i] + dw[i] + de[i]) / j;
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = 1.0 + 0.25 * l;
            let qsq = num / (den * den);
            let cf = 1.0 / (1.0 + (qsq - q0) / (q0 * (1.0 + q0)));
            c[i] = cf.clamp(0.0, 1.0);
        }
    }

    let mut out = vec![0f32; n * n];
    for y in 0..n {
        for x in 0..n {
            let i = idx(y, x);
            let cn = c[i];
            let cs = c[idx((y + 1).min(n - 1), x)];
            let cw = c[i];
            let ce = c[idx(y, (x + 1).min(n - 1))];
            let d = cn * dn[i] + cs * ds[i] + cw * dw[i] + ce * de[i];
            out[i] = img[i] + 0.25 * lambda * d;
        }
    }
    out
}

/// Golden reference: `iterations` sequential diffusion steps.
pub fn golden(p: &SradParams) -> Vec<f32> {
    let mut img = generate_image(p);
    for _ in 0..p.iterations {
        img = srad_step(&img, p.dim, p.lambda);
    }
    img
}

/// ROI statistics for one iteration: one device-side reduction kernel
/// for both moments, folded on the host in f64 (the original uses
/// reduction kernels too).
fn roi_q0(q: &Queue, img: &Buffer<f32>, n: usize) -> f32 {
    let (sum, sum2) = hetero_rt::reduction::moments_f32(q, img);
    let (sum, sum2) = (sum as f64, sum2 as f64);
    let mean = sum / (n * n) as f64;
    let var = (sum2 / (n * n) as f64 - mean * mean).max(0.0);
    (var / (mean * mean)) as f32
}

/// Runtime version: per iteration, a reduction for the ROI statistics
/// and two stencil kernels (coefficients + update), matching Altis'
/// srad_cuda_1/srad_cuda_2 split. Stencils run through the launch graph.
pub fn run(q: &Queue, p: &SradParams, version: AppVersion) -> Vec<f32> {
    run_with(q, p, version, ExecMode::Graph)
}

/// [`run`] with an explicit execution mode. The ROI reduction stays a
/// per-iteration queue submission in every mode (its result feeds host
/// statistics); the iteration-varying `q0` scalar travels through a
/// one-element parameter buffer written before each step, so every
/// route executes the one recording of the two row kernels.
pub fn run_with(q: &Queue, p: &SradParams, _version: AppVersion, mode: ExecMode) -> Vec<f32> {
    let n = p.dim;
    let planes = Planes::new(generate_image(p));
    let step = Step::compile(step_graph(q, n, p.lambda, &planes), mode);
    for _ in 0..p.iterations {
        planes.q0.write_from(&[roi_q0(q, &planes.img, n)]);
        step.run(q);
    }
    drop(step);
    egress(planes.img)
}

/// Device state of the diffusion step: the carried image, the
/// one-element `q0` parameter buffer the host writes before each step,
/// and the coefficient and derivative planes `srad_1` hands to `srad_2`.
pub(crate) struct Planes {
    pub(crate) img: Buffer<f32>,
    pub(crate) q0: Buffer<f32>,
    c: Buffer<f32>,
    dn: Buffer<f32>,
    ds: Buffer<f32>,
    de: Buffer<f32>,
    dw: Buffer<f32>,
}

impl Planes {
    pub(crate) fn new(image: Vec<f32>) -> Self {
        let len = image.len();
        let plane = || Buffer::<f32>::new(len);
        Planes {
            img: Buffer::from_vec(image),
            q0: Buffer::new(1),
            c: plane(),
            dn: plane(),
            ds: plane(),
            de: plane(),
            dw: plane(),
        }
    }

    fn views(&self, n: usize) -> Views {
        let Planes { img, c, dn, ds, de, dw, .. } = self;
        let (img, c, dn, ds, de, dw) =
            (img.view(), c.view(), dn.view(), ds.view(), de.view(), dw.view());
        Views { n, img, c, dn, ds, de, dw }
    }
}

/// Views of the image and the planes `srad_1` hands to `srad_2`.
struct Views {
    n: usize,
    img: GlobalView<f32>,
    c: GlobalView<f32>,
    dn: GlobalView<f32>,
    ds: GlobalView<f32>,
    de: GlobalView<f32>,
    dw: GlobalView<f32>,
}

/// Image row `y`: its own offset and those of its clamped north and
/// south neighbours, uniform along the row.
struct Row<'a> {
    v: &'a Views,
    row: usize,
    rn: usize,
    rs: usize,
}

impl Views {
    fn row(&self, y: usize) -> Row<'_> {
        let n = self.n;
        Row { v: self, row: y * n, rn: y.saturating_sub(1) * n, rs: (y + 1).min(n - 1) * n }
    }
}

impl Row<'_> {
    /// The clamped west / east neighbours of the `W` columns at `x`.
    /// Exact at `W = 1` anywhere and for a wide block strictly inside
    /// the row, which is where [`whole`] sweeps.
    fn west_east<const W: usize>(&self, x: usize) -> (usize, usize) {
        let n = self.v.n;
        debug_assert!(W == 1 || (x >= 1 && x + W < n));
        (self.row + x.saturating_sub(1), self.row + (x + 1).min(n - 1))
    }
}

/// `body` over a whole row of `n` columns: the two edge columns at
/// `W = 1` (their west / east neighbour is the clamped column itself),
/// the interior through [`lanes::sweep`].
fn whole(n: usize, body: &impl lanes::Body) {
    body.at::<1>(0);
    if n > 1 {
        lanes::sweep(1, n - 1, body);
        body.at::<1>(n - 1);
    }
}

/// `srad_1` on one row: the four directional derivatives and the
/// diffusion coefficient, under this iteration's `q0`.
struct Srad1<'a>(Row<'a>, f32);

impl lanes::Body for Srad1<'_> {
    #[inline]
    fn at<const W: usize>(&self, x: usize) {
        let Srad1(r, q0) = self;
        let Views { img, c, dn, ds, de, dw, .. } = r.v;
        let s = Lanes::<f32, W>::splat;
        let i = r.row + x;
        let (w, e) = r.west_east::<W>(x);
        let j = img.get_lanes::<W>(i);
        let jn = img.get_lanes(r.rn + x);
        let js = img.get_lanes(r.rs + x);
        let jw = img.get_lanes(w);
        let je = img.get_lanes(e);
        let (vn, vs, vw, ve) = (jn - j, js - j, jw - j, je - j);
        dn.set_lanes(i, vn);
        ds.set_lanes(i, vs);
        dw.set_lanes(i, vw);
        de.set_lanes(i, ve);
        let g2 = (vn * vn + vs * vs + vw * vw + ve * ve) / (j * j);
        let l = (vn + vs + vw + ve) / j;
        let num = s(0.5) * g2 - s(1.0 / 16.0) * l * l;
        let den = s(1.0) + s(0.25) * l;
        let qsq = num / (den * den);
        let cf = s(1.0) / (s(1.0) + (qsq - s(*q0)) / s(q0 * (1.0 + q0)));
        c.set_lanes(i, cf.clamp(0.0, 1.0));
    }
}

/// `srad_2` on one row: the divergence of the coefficient-weighted
/// derivatives, scaled by `0.25 * lambda`, added to the image.
struct Srad2<'a>(Row<'a>, f32);

impl lanes::Body for Srad2<'_> {
    #[inline]
    fn at<const W: usize>(&self, x: usize) {
        let Srad2(r, lscale) = self;
        let Views { img, c, dn, ds, de, dw, .. } = r.v;
        let i = r.row + x;
        let cn = c.get_lanes::<W>(i);
        let cs = c.get_lanes(r.rs + x);
        let cw = cn;
        let ce = c.get_lanes(r.west_east::<W>(x).1);
        let d = cn * dn.get_lanes(i) + cs * ds.get_lanes(i) + cw * dw.get_lanes(i)
            + ce * de.get_lanes(i);
        img.set_lanes(i, img.get_lanes(i) + Lanes::splat(*lscale) * d);
    }
}

/// The two kernels of one diffusion step, one work-item per image row:
/// each a [`lanes::Body`] said once and run over the [`whole`] row.
fn row_kernels(
    n: usize,
    lambda: f32,
    planes: &Planes,
) -> (
    impl Fn(Item) + Send + Sync + 'static,
    impl Fn(Item) + Send + Sync + 'static,
) {
    let srad_1 = {
        let (v, q0v) = (planes.views(n), planes.q0.view());
        move |it: Item| whole(n, &Srad1(v.row(it.gid(0)), q0v.get(0)))
    };
    let srad_2 = {
        let v = planes.views(n);
        move |it: Item| whole(n, &Srad2(v.row(it.gid(0)), 0.25 * lambda))
    };
    (srad_1, srad_2)
}

/// Record one diffusion step (every batch route and [`streaming`]
/// execute the same recording). `srad_1` gathers the image and writes
/// the five derivative planes; `srad_2` reads them and updates the image.
pub(crate) fn step_graph(
    q: &Queue,
    n: usize,
    lambda: f32,
    planes: &Planes,
) -> hetero_rt::Result<Graph> {
    let (srad_1, srad_2) = row_kernels(n, lambda, planes);
    let Planes { img, q0, c, dn, ds, de, dw } = planes;
    Graph::record(q, |g| {
        g.parallel_for(
            "srad_1",
            Range::d1(n),
            &[reads(img), reads(q0), writes(c), writes(dn), writes(ds), writes(de), writes(dw)],
            srad_1,
        )
        .parallel_for(
            "srad_2",
            Range::d1(n),
            &[reads(c), reads(dn), reads(ds), reads(de), reads(dw), reads_writes(img)],
            srad_2,
        );
    })
}

/// Analytic work profile.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let cells = (p.dim * p.dim) as u64;
    let iters = p.iterations as u64;
    WorkProfile {
        f32_flops: iters * cells * 40,
        f64_flops: 0,
        global_bytes: iters * cells * 4 * (6 + 9),
        kernel_launches: iters * 3,
        transfer_bytes: cells * 4,
        hints: EfficiencyHints { compute: 0.75, memory: 0.8 },
    }
}

/// FPGA designs.
///
/// * Baseline: the migrated ND-Range kernels with eleven dynamically-
///   sized accessor objects — over-provisioned BRAM, accessor member
///   functions synthesised, arbiter-laden local memory (Section 4).
/// * Optimized: the Single-Task rewrite Table 3 lists for SRAD, with
///   statically-sized local arrays (passed as pointers) and pipelined
///   cell loops. The work-group/SIMD sweep of Section 5.2 is explored by
///   the `ablation_srad` bench; Section 5.5's 16→32 work-group bump on
///   Agilex shows up as a larger unroll there.
pub fn fpga_design(size: InputSize, optimized: bool, part: &FpgaPart) -> Design {
    let p = pparams(size);
    let cells = (p.dim * p.dim) as u64;
    let iters = p.iterations as u64;
    let is_agilex = part.name == "Agilex";

    let body = OpMix {
        f32_ops: 28,
        fdiv_ops: 3,
        global_read_bytes: 24,
        global_write_bytes: 24,
        local_reads: 6,
        local_writes: 6,
        ..OpMix::default()
    };

    if !optimized {
        let mut b1 = KernelBuilder::nd_range("srad_1", 256).straight_line(body);
        for name in [
            "c", "dn", "ds", "de", "dw", "jn", "js", "je", "jw", "tmp", "tile",
        ] {
            b1 = b1.dynamic_local_array(name, Scalar::F32, AccessPattern::Regular);
        }
        let k1 = b1.barriers(4).build();
        let k2 = KernelBuilder::nd_range("srad_2", 256)
            .straight_line(OpMix {
                f32_ops: 12,
                global_read_bytes: 24,
                global_write_bytes: 4,
                ..OpMix::default()
            })
            .build();
        Design::new(format!("srad-base-{size}"))
            .with(KernelInstance::new(k1).items(cells).invoked(iters))
            .with(KernelInstance::new(k2).items(cells).invoked(iters))
    } else {
        let unroll = if is_agilex { 12 } else { 8 };
        let k1 = KernelBuilder::single_task("srad_1_st")
            .loop_(
                LoopBuilder::new("cells", cells)
                    .ii(1)
                    .unroll(unroll)
                    .body(body)
                    .build(),
            )
            .local_array("tile", Scalar::F32, 64 * 66, AccessPattern::Banked)
            .restrict()
            .build();
        let k2 = KernelBuilder::single_task("srad_2_st")
            .loop_(
                LoopBuilder::new("cells", cells)
                    .ii(1)
                    .unroll(unroll)
                    .body(OpMix {
                        f32_ops: 12,
                        global_read_bytes: 24,
                        global_write_bytes: 4,
                        ..OpMix::default()
                    })
                    .build(),
            )
            .restrict()
            .build();
        Design::new(format!("srad-opt-{size}"))
            .with(KernelInstance::new(k1).invoked(iters))
            .with(KernelInstance::new(k2).invoked(iters))
    }
}

/// DPCT source model: eleven accessor objects.
pub fn cuda_module() -> CudaModule {
    let mut constructs = vec![
        Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
        Construct::UsmMemAdvise,
        Construct::Barrier { provably_local: true, uses_local_scope: true },
        Construct::WorkGroupSize { size: 256, has_attributes: false },
    ];
    for _ in 0..11 {
        constructs.push(Construct::AccessorByValue);
        constructs.push(Construct::DynamicLocalAccessor { needed_bytes: 16 * 16 * 4 });
    }
    CudaModule { name: "srad".into(), constructs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SradParams {
        SradParams { dim: 32, iterations: 3, lambda: 0.5 }
    }

    #[test]
    fn runtime_matches_golden() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run(&q, &p, AppVersion::SyclOptimized);
        let g = golden(&p);
        for (a, b) in r.iter().zip(g.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn each_kernel_is_bit_equal_at_width_one_and_through_sweep() {
        use lanes::Body;
        // 21 columns: the west edge, two wide blocks, a three-column
        // tail, the east edge.
        let p = SradParams { dim: 21, iterations: 1, lambda: 0.5 };
        let n = p.dim;
        let q = Queue::new(Device::cpu());
        let (swept, narrow) = (Planes::new(generate_image(&p)), Planes::new(generate_image(&p)));
        let q0 = roi_q0(&q, &swept.img, n);
        swept.q0.write_from(&[q0]);
        step_graph(&q, n, p.lambda, &swept).unwrap().replay(&q).unwrap();
        {
            let v = narrow.views(n);
            for y in 0..n {
                (0..n).for_each(|x| Srad1(v.row(y), q0).at::<1>(x));
            }
            for y in 0..n {
                (0..n).for_each(|x| Srad2(v.row(y), 0.25 * p.lambda).at::<1>(x));
            }
        }
        let bits = |b: &Buffer<f32>| b.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (Planes { img, c, dn, ds, de, dw, .. }, w) = (&swept, &narrow);
        for (name, a, b) in [
            ("c", c, &w.c),
            ("dn", dn, &w.dn),
            ("ds", ds, &w.ds),
            ("de", de, &w.de),
            ("dw", dw, &w.dw),
            ("img", img, &w.img),
        ] {
            assert_eq!(bits(a), bits(b), "{name}");
        }
        assert_ne!(bits(img), bits(&Buffer::from_vec(generate_image(&p))), "the step must move the image");
    }

    #[test]
    fn per_launch_and_graph_modes_agree_exactly() {
        // Three executors of one recording, the same in-order q0
        // reduction before each step: bit-identical, on a pooled and on a
        // sequential queue.
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let seq = q.clone().with_parallelism(hetero_rt::executor::Parallelism::Sequential);
        let a = run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::PerLaunch);
        for (q, mode) in [
            (&q, ExecMode::Graph),
            (&seq, ExecMode::PerLaunch),
            (&seq, ExecMode::Graph),
        ] {
            assert_eq!(a, run_with(q, &p, AppVersion::SyclOptimized, mode), "{mode:?}");
        }
    }

    #[test]
    fn an_iteration_is_the_three_launches_the_work_profile_declares() {
        // One reduction for both ROI moments plus the two stencils; the
        // ledger counts what the queue really launched.
        for size in [InputSize::S1, InputSize::S2] {
            let declared = work_profile(size).kernel_launches / pparams(size).iterations as u64;
            assert_eq!(declared, 3);
            let ledger = std::sync::Arc::new(hetero_rt::ResilienceLedger::new());
            let q = Queue::new(Device::cpu())
                .with_resilience_ledger(Some(std::sync::Arc::clone(&ledger)));
            let p = altis_data::params::srad(size);
            run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::PerLaunch);
            assert_eq!(ledger.snapshot().launches, declared * p.iterations as u64, "{size}");
        }
    }

    #[test]
    fn diffusion_reduces_speckle_variance() {
        let p = SradParams { dim: 64, iterations: 8, lambda: 0.5 };
        let before = generate_image(&p);
        let after = golden(&p);
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&after) < var(&before));
    }

    #[test]
    fn pixel_values_stay_positive() {
        let g = golden(&tiny());
        assert!(g.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn baseline_fpga_wastes_bram_on_dynamic_accessors() {
        let part = FpgaPart::stratix10();
        let base = fpga_sim::resources::design_resources(&fpga_design(InputSize::S1, false, &part));
        let opt = fpga_sim::resources::design_resources(&fpga_design(InputSize::S1, true, &part));
        assert!(base.brams > opt.brams, "{} vs {}", base.brams, opt.brams);
    }

    #[test]
    fn fpga_designs_fit() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            for opt in [false, true] {
                fpga_sim::resources::check_fit(&fpga_design(InputSize::S2, opt, &part), &part)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn optimized_fpga_gains_are_moderate() {
        // Figure 4: SRAD 2.1–5.4×.
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(&fpga_design(InputSize::S1, false, &part), &part);
        let o = fpga_sim::simulate(&fpga_design(InputSize::S1, true, &part), &part);
        let s = b.total_seconds / o.total_seconds;
        assert!(s > 1.2 && s < 50.0, "speedup = {s}");
    }
}
