//! FDTD2D — 2D finite-difference time-domain Maxwell solver (TEz mode).
//!
//! Paper relevance: FDTD2D is the paper's time-measurement case study.
//! The original CUDA code *lacks a device synchronisation* before
//! stopping its timer, under-reporting kernel time; DPCT's chrono-based
//! migration measures everything including launch overhead, so the
//! baseline SYCL "speedup" collapses to 0.01–0.1× (Figure 2) until the
//! missing `cudaDeviceSynchronize()` is added to the CUDA side. Its
//! three kernels per time step also make it launch-heavy — the
//! Figure 1 decomposition is measured on this app.

use altis_data::{Fdtd2dParams, InputSize};
use altis_data::paper_scale::fdtd2d as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::KernelBuilder;
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::OpMix;
use hetero_rt::prelude::*;

use crate::common::{egress, AppVersion, ExecMode, Step};

pub mod streaming;

/// Field state of the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fields {
    /// Ez field, dim × dim.
    pub ez: Vec<f32>,
    /// Hx field, dim × dim.
    pub hx: Vec<f32>,
    /// Hy field, dim × dim.
    pub hy: Vec<f32>,
}

const C_E: f32 = 0.5;
const C_H: f32 = 0.7;

fn source(t: usize) -> f32 {
    let tf = t as f32;
    (tf * 0.1).sin() * (-((tf - 30.0) * (tf - 30.0)) / 400.0).exp()
}

/// Golden reference: sequential leapfrog update.
pub fn golden(p: &Fdtd2dParams) -> Fields {
    let cells = p.dim * p.dim;
    let mut f = Fields { ez: vec![0f32; cells], hx: vec![0f32; cells], hy: vec![0f32; cells] };
    for t in 0..p.steps {
        golden_step(&mut f, p.dim, t);
    }
    f
}

/// Timestep `t` of the sequential reference on an `n`×`n` grid:
/// [`golden`]'s loop body, and the streaming stage's reference.
fn golden_step(f: &mut Fields, n: usize, t: usize) {
    let Fields { ez, hx, hy } = f;
    // H updates.
    for y in 0..n - 1 {
        for x in 0..n - 1 {
            let i = y * n + x;
            hx[i] -= C_H * (ez[i + n] - ez[i]);
            hy[i] += C_H * (ez[i + 1] - ez[i]);
        }
    }
    // E update.
    for y in 1..n - 1 {
        for x in 1..n - 1 {
            let i = y * n + x;
            ez[i] += C_E * ((hy[i] - hy[i - 1]) - (hx[i] - hx[i - n]));
        }
    }
    // Point source in the middle.
    ez[(n / 2) * n + n / 2] += source(t);
}

/// Runtime version: three kernels per step (hx, hy, ez), as in Altis.
/// Drives the timestep loop through the launch graph — FDTD2D is the
/// Figure 1 launch-overhead case study, so it is the flagship consumer
/// of record-and-replay.
pub fn run(q: &Queue, p: &Fdtd2dParams, version: AppVersion) -> Fields {
    run_with(q, p, version, ExecMode::Graph)
}

/// [`run`] with an explicit execution mode. Every mode executes the one
/// recording of the three row kernels ([`step_graph`]); the per-step
/// source injection stays a host-side store between steps (the recording
/// reads buffer *contents* when it runs, so the injected energy is picked
/// up by the next step's H updates).
pub fn run_with(q: &Queue, p: &Fdtd2dParams, _version: AppVersion, mode: ExecMode) -> Fields {
    let n = p.dim;
    let ez = Buffer::<f32>::new(n * n);
    let hx = Buffer::<f32>::new(n * n);
    let hy = Buffer::<f32>::new(n * n);
    let step = Step::compile(step_graph(q, n, &ez, &hx, &hy), mode);
    // Source injection (host-side single-element update, as the original
    // does with a tiny kernel).
    let centre = (n / 2) * n + n / 2;
    for t in 0..p.steps {
        step.run(q);
        ez.host_set(centre, ez.read(|e| e[centre]) + source(t));
    }
    // The recording dies here, so the three planes move out instead of
    // being copied.
    drop(step);
    Fields { ez: egress(ez), hx: egress(hx), hy: egress(hy) }
}

/// The three kernels of one timestep, one work-item per lattice row,
/// each the row loop [`golden_step`] has. Scalar on purpose: an 8-wide
/// body measured 0.92–1.16× of these loops (EXPERIMENTS.md "PR 23").
fn row_kernels(
    n: usize,
    ez: &Buffer<f32>,
    hx: &Buffer<f32>,
    hy: &Buffer<f32>,
) -> (
    impl Fn(Item) + Send + Sync + 'static,
    impl Fn(Item) + Send + Sync + 'static,
    impl Fn(Item) + Send + Sync + 'static,
) {
    let hx_row = {
        let (ezv, hxv) = (ez.view(), hx.view());
        move |it: Item| {
            let row = it.gid(0) * n;
            for i in row..row + n - 1 {
                hxv.update(i, |h| h - C_H * (ezv.get(i + n) - ezv.get(i)));
            }
        }
    };
    let hy_row = {
        let (ezv, hyv) = (ez.view(), hy.view());
        move |it: Item| {
            let row = it.gid(0) * n;
            for i in row..row + n - 1 {
                hyv.update(i, |h| h + C_H * (ezv.get(i + 1) - ezv.get(i)));
            }
        }
    };
    let ez_row = {
        let (ezv, hxv, hyv) = (ez.view(), hx.view(), hy.view());
        move |it: Item| {
            let row = (it.gid(0) + 1) * n;
            for i in row + 1..row + n - 1 {
                ezv.update(i, |e| {
                    e + C_E * ((hyv.get(i) - hyv.get(i - 1)) - (hxv.get(i) - hxv.get(i - n)))
                });
            }
        }
    };
    (hx_row, hy_row, ez_row)
}

/// Record one timestep (every batch route and [`streaming`] execute the
/// same recording). hx and hy only share a *read* of ez and touch their
/// own field at row-disjoint indices, so they replay in one phase; ez
/// depends on both. All three fields are declared outputs (the host
/// reads them after the loop, and ez is also *written* between replays
/// by the source injection).
pub(crate) fn step_graph(
    q: &Queue,
    n: usize,
    ez: &Buffer<f32>,
    hx: &Buffer<f32>,
    hy: &Buffer<f32>,
) -> hetero_rt::Result<Graph> {
    let (hx_row, hy_row, ez_row) = row_kernels(n, ez, hx, hy);
    Graph::record(q, |g| {
        g.parallel_for(
            "fdtd_hx",
            Range::d1(n - 1),
            &[reads(ez), reads_writes(hx)],
            hx_row,
        )
        .parallel_for(
            "fdtd_hy",
            Range::d1(n - 1),
            &[reads(ez), reads_writes(hy)],
            hy_row,
        )
        .parallel_for(
            "fdtd_ez",
            Range::d1(n - 2),
            &[reads(hx), reads(hy), reads_writes(ez)],
            ez_row,
        );
    })
}

/// Analytic work profile: 3 stencil kernels per step.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let cells = (p.dim * p.dim) as u64;
    let steps = p.steps as u64;
    // Per step: hx (2 flops, 12 B), hy (2, 12), ez (4, 20) per cell.
    WorkProfile {
        f32_flops: steps * cells * 8,
        f64_flops: 0,
        global_bytes: steps * cells * 44,
        kernel_launches: steps * 3,
        transfer_bytes: cells * 4 * 3,
        hints: EfficiencyHints { compute: 0.9, memory: 0.85 },
    }
}

/// FPGA designs: simple ND-Range stencils (Table 3 lists FDTD2D as
/// ND-Range; it reaches the highest clock of the suite — 416.7 MHz /
/// 554.3 MHz — because the datapath is a clean stencil). The optimized
/// variant adds SIMD vectorisation and restrict.
pub fn fpga_design(size: InputSize, optimized: bool, _part: &FpgaPart) -> Design {
    let p = pparams(size);
    let cells = (p.dim * p.dim) as u64;
    let steps = p.steps as u64;
    let mk = |name: &str, flops: u64, bytes: u64, simd: u32| {
        let mut b = KernelBuilder::nd_range(name, 64).straight_line(OpMix {
            f32_ops: flops,
            global_read_bytes: bytes - 4,
            global_write_bytes: 4,
            int_ops: 4,
            ..OpMix::default()
        });
        if optimized {
            b = b.simd(simd).restrict();
        }
        b.build()
    };
    let simd = 4;
    Design::new(format!(
        "fdtd2d-{}-{}",
        if optimized { "opt" } else { "base" },
        size
    ))
    .with(KernelInstance::new(mk("hx", 2, 12, simd)).items(cells).invoked(steps))
    .with(KernelInstance::new(mk("hy", 2, 12, simd)).items(cells).invoked(steps))
    .with(KernelInstance::new(mk("ez", 4, 20, simd)).items(cells).invoked(steps))
}

/// DPCT source model: the missing-sync timing bug lives here.
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "fdtd2d".into(),
        constructs: vec![
            // The original measures with events but forgets the device
            // sync; the library-call flag is false so the optimisation
            // pass can restore SYCL events.
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::MissingDeviceSync,
            Construct::UsmMemAdvise,
            Construct::WorkGroupSize { size: 256, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fdtd2dParams {
        Fdtd2dParams { dim: 32, steps: 10 }
    }

    #[test]
    fn runtime_matches_golden_exactly() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run(&q, &p, AppVersion::SyclOptimized);
        let g = golden(&p);
        assert_eq!(r.ez, g.ez);
        assert_eq!(r.hx, g.hx);
        assert_eq!(r.hy, g.hy);
    }

    #[test]
    fn per_launch_and_graph_modes_agree_exactly() {
        // Two executors of one recording, each row written by one item:
        // bit-identical on a pooled and on a sequential queue (and both
        // match the sequential golden reference).
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let seq = q.clone().with_parallelism(hetero_rt::executor::Parallelism::Sequential);
        let a = run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::PerLaunch);
        for (q, mode) in
            [(&q, ExecMode::Graph), (&seq, ExecMode::PerLaunch), (&seq, ExecMode::Graph)]
        {
            assert_eq!(a, run_with(q, &p, AppVersion::SyclOptimized, mode), "{mode:?}");
        }
        assert_eq!(a.ez, golden(&p).ez);
    }

    #[test]
    fn source_injects_energy() {
        let p = tiny();
        let g = golden(&p);
        let energy: f32 = g.ez.iter().map(|e| e * e).sum();
        assert!(energy > 0.0);
    }

    #[test]
    fn wave_propagates_outward() {
        let p = Fdtd2dParams { dim: 64, steps: 40 };
        let g = golden(&p);
        let n = p.dim;
        // Cells away from the centre have picked up signal.
        let off_center = g.ez[(n / 2 + 10) * n + n / 2].abs();
        assert!(off_center > 0.0);
    }

    /// Electromagnetic field energy: ½·Σ(Ez² + Hx² + Hy²). A stable
    /// leapfrog scheme keeps it bounded; a broken one blows it up
    /// exponentially.
    fn field_energy(f: &Fields) -> f64 {
        let sum_sq = |v: &[f32]| v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
        0.5 * (sum_sq(&f.ez) + sum_sq(&f.hx) + sum_sq(&f.hy))
    }

    #[test]
    fn field_energy_stays_bounded() {
        // After the source pulse fades, the leapfrog scheme must not
        // blow up: energy at 4x the steps stays within a small factor
        // of the energy at 1x (numerical dispersion, not instability).
        let short = golden(&Fdtd2dParams { dim: 64, steps: 60 });
        let long = golden(&Fdtd2dParams { dim: 64, steps: 240 });
        let (e_short, e_long) = (field_energy(&short), field_energy(&long));
        assert!(e_short > 0.0);
        assert!(
            e_long < 20.0 * e_short,
            "energy grew {e_short} -> {e_long}: unstable scheme"
        );
    }

    #[test]
    fn boundary_stays_zero() {
        let p = tiny();
        let g = golden(&p);
        let n = p.dim;
        for x in 0..n {
            assert_eq!(g.ez[x], 0.0); // top row never updated
        }
    }

    #[test]
    fn launch_count_matches_profile() {
        // The profile claims 3 launches per step at paper scale; the
        // executable run issues exactly 3 parallel_for per step too.
        let prof = work_profile(InputSize::S1);
        assert_eq!(prof.kernel_launches, pparams(InputSize::S1).steps as u64 * 3);
        let q = Queue::new(Device::cpu());
        let _ = run(&q, &Fdtd2dParams { dim: 16, steps: 2 }, AppVersion::SyclBaseline);
    }

    #[test]
    fn fpga_designs_fit() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            for opt in [false, true] {
                fpga_sim::resources::check_fit(
                    &fpga_design(InputSize::S3, opt, &part),
                    &part,
                )
                .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn optimized_fpga_design_is_faster() {
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(&fpga_design(InputSize::S2, false, &part), &part);
        let o = fpga_sim::simulate(&fpga_design(InputSize::S2, true, &part), &part);
        // Figure 4: FDTD2D gains ~5.4–5.9×.
        let s = b.total_seconds / o.total_seconds;
        assert!(s > 1.5, "speedup = {s}");
    }
}
