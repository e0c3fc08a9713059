//! CFD — 3D Euler equation solver for compressible flow on an
//! unstructured mesh (Rodinia/Altis `euler3d`).
//!
//! Paper relevance: CFD appears in FP32 and FP64 variants (the only
//! FP64 app in the study — RTX 2080's 1/32-rate FP64 makes it the one
//! case where even the baseline SYCL beats "CUDA expectations", and the
//! FPGAs' DSP cost quadruples). It is also the unroll case study: the
//! migrated SYCL ran up to 3× slower *with* the original unroll pragmas
//! (Section 3.3). On FPGAs the flux kernel's scattered neighbour
//! gathers starve the pipeline; the paper mitigates with pipes and
//! compute-unit replication (FP32: 4× on Stratix 10 → 8× on Agilex;
//! FP64 fits at most 2×).

use altis_data::{CfdParams, InputSize, SeededRng};
use altis_data::paper_scale::cfd as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{OpMix, Scalar};
use hetero_rt::prelude::*;

use crate::common::{egress, AppVersion, ExecMode, Real, Step};

/// Neighbours per element (tetrahedral mesh faces).
pub(crate) const NNB: usize = 4;
/// Conserved variables per element: density, 3 momentum, energy.
pub(crate) const NVAR: usize = 5;

const GAMMA: f64 = 1.4;
const CFL: f64 = 0.4;

/// The synthetic unstructured mesh + initial state.
pub struct CfdInput<T: Real> {
    /// Element count.
    pub nelr: usize,
    /// Neighbour element index per (element, face); -1 ⇒ far-field.
    pub neighbors: Vec<i32>,
    /// Face normal per (element, face), 3 components.
    pub normals: Vec<T>,
    /// Element volumes.
    pub volumes: Vec<T>,
    /// Initial conserved variables (element-major: e*NVAR + v).
    pub variables: Vec<T>,
}

/// Generate a deterministic ring-structured mesh: element `i` neighbours
/// `i±1, i±stride` with periodic wrap except a far-field band, plus
/// randomised unit normals. Structurally equivalent to the paper's
/// unstructured gather pattern.
pub fn generate<T: Real>(p: &CfdParams) -> CfdInput<T> {
    let mut rng = SeededRng::new("cfd", p.nelr);
    let n = p.nelr;
    let stride = (n as f64).sqrt() as usize;
    let mut neighbors = Vec::with_capacity(n * NNB);
    let mut normals = Vec::with_capacity(n * NNB * 3);
    for e in 0..n {
        let nbrs = [
            if e % stride == 0 { -1 } else { e as i32 - 1 },
            if (e + 1) % stride == 0 { -1 } else { e as i32 + 1 },
            if e < stride { -1 } else { (e - stride) as i32 },
            if e + stride >= n { -1 } else { (e + stride) as i32 },
        ];
        neighbors.extend_from_slice(&nbrs);
        for f in 0..NNB {
            // Unit-ish normals with a deterministic perturbation.
            let base: [f64; 3] = match f {
                0 => [-1.0, 0.0, 0.0],
                1 => [1.0, 0.0, 0.0],
                2 => [0.0, -1.0, 0.0],
                _ => [0.0, 1.0, 0.0],
            };
            for c in base {
                normals.push(T::from_f64(c * (0.9 + 0.2 * rng.f64(0.0, 1.0))));
            }
        }
    }
    let volumes: Vec<T> = (0..n).map(|_| T::from_f64(0.5 + rng.f64(0.0, 1.0))).collect();
    // Free-stream initial condition with a density bump in the middle.
    let mut variables = Vec::with_capacity(n * NVAR);
    for e in 0..n {
        let bump = if (n / 3..n / 2).contains(&e) { 0.2 } else { 0.0 };
        let density = 1.0 + bump;
        let vx = 0.3;
        let energy = 1.0 / (GAMMA - 1.0) + 0.5 * density * vx * vx;
        variables.push(T::from_f64(density));
        variables.push(T::from_f64(density * vx));
        variables.push(T::from_f64(0.0));
        variables.push(T::from_f64(0.0));
        variables.push(T::from_f64(energy));
    }
    CfdInput { nelr: n, neighbors, normals, volumes, variables }
}

#[inline]
fn pressure<T: Real>(vars: &[T; NVAR]) -> T {
    let density = vars[0];
    let e = vars[4];
    let m2 = vars[1] * vars[1] + vars[2] * vars[2] + vars[3] * vars[3];
    T::from_f64(GAMMA - 1.0) * (e - T::from_f64(0.5) * m2 / density)
}

#[inline]
fn flux_contribution<T: Real>(vars: &[T; NVAR], normal: &[T; 3]) -> [T; NVAR] {
    let density = vars[0];
    let p = pressure(vars);
    let vel = [vars[1] / density, vars[2] / density, vars[3] / density];
    let vn = vel[0] * normal[0] + vel[1] * normal[1] + vel[2] * normal[2];
    [
        density * vn,
        vars[1] * vn + p * normal[0],
        vars[2] * vn + p * normal[1],
        vars[3] * vn + p * normal[2],
        (vars[4] + p) * vn,
    ]
}

fn load_vars<T: Real>(vars: &[T], e: usize) -> [T; NVAR] {
    [
        vars[e * NVAR],
        vars[e * NVAR + 1],
        vars[e * NVAR + 2],
        vars[e * NVAR + 3],
        vars[e * NVAR + 4],
    ]
}

/// One explicit-Euler step, sequential: returns the updated variables.
fn step<T: Real>(input: &CfdInput<T>, vars: &[T]) -> Vec<T> {
    let n = input.nelr;
    let mut out = vars.to_vec();
    let far = {
        let density = T::from_f64(1.0);
        let vx = T::from_f64(0.3);
        let energy =
            T::from_f64(1.0 / (GAMMA - 1.0)) + T::from_f64(0.5) * density * vx * vx;
        [density, density * vx, T::default(), T::default(), energy]
    };
    for e in 0..n {
        let ve = load_vars(vars, e);
        let mut flux = [T::default(); NVAR];
        for f in 0..NNB {
            let nb = input.neighbors[e * NNB + f];
            let normal = [
                input.normals[(e * NNB + f) * 3],
                input.normals[(e * NNB + f) * 3 + 1],
                input.normals[(e * NNB + f) * 3 + 2],
            ];
            let vn = if nb >= 0 { load_vars(vars, nb as usize) } else { far };
            let fe = flux_contribution(&ve, &normal);
            let fn_ = flux_contribution(&vn, &normal);
            for v in 0..NVAR {
                flux[v] = flux[v] + T::from_f64(0.5) * (fe[v] + fn_[v]);
            }
        }
        // dt/volume factor (CFL-limited pseudo-time step).
        let factor = T::from_f64(CFL * 0.01) / input.volumes[e];
        for v in 0..NVAR {
            out[e * NVAR + v] = vars[e * NVAR + v] - factor * flux[v];
        }
    }
    out
}

/// Golden reference: `iterations` sequential steps.
pub fn golden<T: Real>(p: &CfdParams) -> Vec<T> {
    let input = generate::<T>(p);
    let mut vars = input.variables.clone();
    for _ in 0..p.iterations {
        vars = step(&input, &vars);
    }
    vars
}

/// Runtime version: a compute_flux + time_step kernel pair per
/// iteration, matching the Altis kernel split. The pair runs through
/// the launch graph — CFD has no per-iteration host data at all, so
/// the whole loop body replays unchanged.
pub fn run<T: Real>(q: &Queue, p: &CfdParams, version: AppVersion) -> Vec<T> {
    run_with(q, p, version, ExecMode::Graph)
}

/// [`run`] with an explicit execution mode: every mode executes the two
/// recordings of [`step_graph`], the even and the odd half of the state
/// ping-pong, in alternation.
pub fn run_with<T: Real>(
    q: &Queue,
    p: &CfdParams,
    _version: AppVersion,
    mode: ExecMode,
) -> Vec<T> {
    let mesh = Mesh::new(generate::<T>(p));
    let steps =
        [(0, 1), (1, 0)].map(|(from, to)| Step::compile(step_graph(q, &mesh, from, to), mode));
    for i in 0..p.iterations {
        steps[i % 2].run(q);
    }
    drop(steps);
    let [even, odd] = mesh.state;
    egress(if p.iterations.is_multiple_of(2) { even } else { odd })
}

/// Device state of the solver: the two halves of the state ping-pong
/// (iteration `i` reads `state[i % 2]` and writes the other), the flux
/// residual one step hands from `compute_flux` to `time_step`, and the
/// read-only mesh.
pub(crate) struct Mesh<T: Real> {
    state: [Buffer<T>; 2],
    fluxes: Buffer<T>,
    nbrs: Buffer<i32>,
    norms: Buffer<T>,
    vols: Buffer<T>,
}

impl<T: Real> Mesh<T> {
    pub(crate) fn new(input: CfdInput<T>) -> Self {
        let n = input.nelr;
        Mesh {
            state: [Buffer::from_vec(input.variables), Buffer::new(n * NVAR)],
            fluxes: Buffer::new(n * NVAR),
            nbrs: Buffer::from_vec(input.neighbors),
            norms: Buffer::from_vec(input.normals),
            vols: Buffer::from_vec(input.volumes),
        }
    }
}

/// Record one explicit-Euler step from `state[from]` into `state[to]`:
/// gather the flux from the old state, then write every element of the
/// new one from the old state and the flux. Nothing is copied; the caller
/// alternates the `(0, 1)` and `(1, 0)` recordings.
pub(crate) fn step_graph<T: Real>(
    q: &Queue,
    mesh: &Mesh<T>,
    from: usize,
    to: usize,
) -> hetero_rt::Result<Graph> {
    let Mesh { state, fluxes, nbrs, norms, vols } = mesh;
    let (old, vars) = (&state[from], &state[to]);
    let n = vols.len();
    let flux_kernel = {
        let (ov, fv, nbv, nov) = (old.view(), fluxes.view(), nbrs.view(), norms.view());
        move |it: Item| {
            let e = it.gid(0);
            let load = |idx: usize| -> [T; NVAR] {
                [
                    ov.get(idx * NVAR),
                    ov.get(idx * NVAR + 1),
                    ov.get(idx * NVAR + 2),
                    ov.get(idx * NVAR + 3),
                    ov.get(idx * NVAR + 4),
                ]
            };
            let far = {
                let density = T::from_f64(1.0);
                let vx = T::from_f64(0.3);
                let energy =
                    T::from_f64(1.0 / (GAMMA - 1.0)) + T::from_f64(0.5) * density * vx * vx;
                [density, density * vx, T::default(), T::default(), energy]
            };
            let ve = load(e);
            let mut flux = [T::default(); NVAR];
            for f in 0..NNB {
                let nb = nbv.get(e * NNB + f);
                let normal = [
                    nov.get((e * NNB + f) * 3),
                    nov.get((e * NNB + f) * 3 + 1),
                    nov.get((e * NNB + f) * 3 + 2),
                ];
                let vn = if nb >= 0 { load(nb as usize) } else { far };
                let fe = flux_contribution(&ve, &normal);
                let fn_ = flux_contribution(&vn, &normal);
                for v in 0..NVAR {
                    flux[v] = flux[v] + T::from_f64(0.5) * (fe[v] + fn_[v]);
                }
            }
            for v in 0..NVAR {
                fv.set(e * NVAR + v, flux[v]);
            }
        }
    };
    let ts_kernel = {
        let (vv, ov, fv, vov) = (vars.view(), old.view(), fluxes.view(), vols.view());
        move |it: Item| {
            let e = it.gid(0);
            let factor = T::from_f64(CFL * 0.01) / vov.get(e);
            for v in 0..NVAR {
                vv.set(e * NVAR + v, ov.get(e * NVAR + v) - factor * fv.get(e * NVAR + v));
            }
        }
    };
    Graph::record(q, |g| {
        g.parallel_for(
            "compute_flux",
            Range::d1(n),
            &[reads(old), reads(nbrs), reads(norms), writes(fluxes)],
            flux_kernel,
        )
        .parallel_for(
            "time_step",
            Range::d1(n),
            &[reads(old), reads(vols), reads(fluxes), writes(vars)],
            ts_kernel,
        );
    })
}

/// Analytic work profile (FP32 or FP64 depending on `is_f64`): the
/// compute_flux + time_step pair, 2 launches an iteration on every
/// route.
pub fn work_profile(size: InputSize, is_f64: bool) -> WorkProfile {
    let p = pparams(size);
    let n = p.nelr as u64;
    let iters = p.iterations as u64;
    let elem_bytes = if is_f64 { 8 } else { 4 };
    let flops = iters * n * (NNB as u64 * 60 + 20);
    WorkProfile {
        f32_flops: if is_f64 { 0 } else { flops },
        f64_flops: if is_f64 { flops } else { 0 },
        global_bytes: iters * n * elem_bytes * (NVAR as u64 * (NNB as u64 + 3) + 15),
        kernel_launches: iters * 2,
        transfer_bytes: n * elem_bytes * NVAR as u64,
        hints: EfficiencyHints { compute: 0.6, memory: 0.55 },
    }
}

/// FPGA designs. Baseline: migrated ND-Range with scattered gathers.
/// Optimized: memory access decoupled via pipes (a reader kernel streams
/// neighbour data to the flux kernel) and compute units replicated —
/// FP32: 4× (Stratix 10) / 8× (Agilex) with SIMD 2; FP64: 2× and
/// SIMD 2→1 (Section 5.5).
pub fn fpga_design(size: InputSize, is_f64: bool, optimized: bool, part: &FpgaPart) -> Design {
    let p = pparams(size);
    let n = p.nelr as u64;
    let iters = p.iterations as u64;
    let is_agilex = part.name == "Agilex";
    let elem_bytes = if is_f64 { 8u64 } else { 4u64 };
    let (f32_ops, f64_ops) = if is_f64 { (0, 150) } else { (150, 0) };
    let name = |v: &str| {
        format!(
            "cfd-{}-{}-{}",
            if is_f64 { "fp64" } else { "fp32" },
            v,
            size
        )
    };

    let flux_body = OpMix {
        f32_ops,
        f64_ops,
        fdiv_ops: 6,
        global_read_bytes: elem_bytes * (NVAR as u64 * NNB as u64 + 12),
        global_write_bytes: elem_bytes * NVAR as u64,
        ..OpMix::default()
    };
    let ts_body = OpMix {
        f32_ops: if is_f64 { 0 } else { 10 },
        f64_ops: if is_f64 { 10 } else { 0 },
        fdiv_ops: 1,
        global_read_bytes: elem_bytes * (NVAR as u64 + 1),
        global_write_bytes: elem_bytes * NVAR as u64,
        ..OpMix::default()
    };

    if !optimized {
        let flux = KernelBuilder::nd_range("compute_flux", 128)
            .straight_line(flux_body)
            .dominant(if is_f64 { Scalar::F64 } else { Scalar::F32 })
            .build();
        let ts = KernelBuilder::nd_range("time_step", 128)
            .straight_line(ts_body)
            .build();
        Design::new(name("base"))
            .with(KernelInstance::new(flux).items(n).invoked(iters))
            .with(KernelInstance::new(ts).items(n).invoked(iters))
    } else {
        let (cu, simd) = match (is_f64, is_agilex) {
            (false, false) => (4, 2),
            (false, true) => (8, 2),
            (true, false) => (2, 2),
            (true, true) => (2, 1),
        };
        // Reader kernel streams gathered neighbour data through a pipe,
        // decoupling the scattered loads from the flux datapath.
        let reader = KernelBuilder::single_task("flux_reader")
            .loop_(
                LoopBuilder::new("elements", n)
                    .ii(1)
                    .body(OpMix {
                        int_ops: 8,
                        global_read_bytes: elem_bytes * (NVAR as u64 * NNB as u64 + 12),
                        pipe_writes: 1,
                        ..OpMix::default()
                    })
                    .build(),
            )
            .restrict()
            .build();
        let flux = KernelBuilder::nd_range("compute_flux", 64)
            .simd(simd)
            .straight_line(OpMix {
                pipe_reads: 1,
                global_write_bytes: elem_bytes * NVAR as u64,
                ..flux_body
            })
            .restrict()
            .dominant(if is_f64 { Scalar::F64 } else { Scalar::F32 })
            .build();
        let ts = KernelBuilder::nd_range("time_step", 64)
            .simd(simd)
            .straight_line(ts_body)
            .restrict()
            .build();
        // Remove the decoupled global reads from the flux kernel body —
        // they now come through the pipe via the reader.
        Design::new(name("opt"))
            .with(KernelInstance::new(reader).invoked(iters))
            .with(
                KernelInstance::new(strip_reads(flux))
                    .items(n)
                    .invoked(iters)
                    .replicated(cu),
            )
            .with(KernelInstance::new(ts).items(n).invoked(iters).replicated(cu.min(2)))
            .dataflow(vec![0, 1])
    }
}

/// Remove global reads from a kernel body (data arrives via pipe).
fn strip_reads(mut k: hetero_ir::ir::Kernel) -> hetero_ir::ir::Kernel {
    k.straight_line.global_read_bytes = 0;
    for l in &mut k.loops {
        l.body.global_read_bytes = 0;
    }
    k
}

/// DPCT source model: the unroll pragmas that regress 3× under SYCL.
pub fn cuda_module(is_f64: bool) -> CudaModule {
    CudaModule {
        name: if is_f64 { "cfd_fp64".into() } else { "cfd_fp32".into() },
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::UsmMemAdvise,
            Construct::UnrollPragma { factor: NNB as u32 },
            Construct::WorkGroupSize { size: 192, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::rel_l2_error_t;

    fn tiny() -> CfdParams {
        CfdParams { nelr: 256, iterations: 3 }
    }

    #[test]
    fn runtime_matches_golden_fp32() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run::<f32>(&q, &p, AppVersion::SyclBaseline);
        let g = golden::<f32>(&p);
        assert!(rel_l2_error_t(&g, &r) < 1e-5);
    }

    #[test]
    fn runtime_matches_golden_fp64() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run::<f64>(&q, &p, AppVersion::SyclOptimized);
        let g = golden::<f64>(&p);
        assert!(rel_l2_error_t(&g, &r) < 1e-12);
    }

    #[test]
    fn per_launch_and_graph_modes_agree_exactly() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let seq = q.clone().with_parallelism(hetero_rt::executor::Parallelism::Sequential);
        let a32 = run_with::<f32>(&q, &p, AppVersion::SyclOptimized, ExecMode::PerLaunch);
        let a64 = run_with::<f64>(&q, &p, AppVersion::SyclOptimized, ExecMode::PerLaunch);
        for (q, mode) in
            [(&q, ExecMode::Graph), (&seq, ExecMode::PerLaunch), (&seq, ExecMode::Graph)]
        {
            assert_eq!(a32, run_with::<f32>(q, &p, AppVersion::SyclOptimized, mode), "{mode:?}");
            assert_eq!(a64, run_with::<f64>(q, &p, AppVersion::SyclOptimized, mode), "{mode:?}");
        }
    }

    #[test]
    fn the_result_leaves_from_the_right_half_for_odd_and_even_iteration_counts() {
        let q = Queue::new(Device::cpu());
        for iterations in [3, 4] {
            let p = CfdParams { nelr: 256, iterations };
            for mode in [ExecMode::PerLaunch, ExecMode::Graph] {
                let r32 = run_with::<f32>(&q, &p, AppVersion::SyclOptimized, mode);
                assert_eq!(r32, golden::<f32>(&p), "f32 {iterations} {mode:?}");
                let r64 = run_with::<f64>(&q, &p, AppVersion::SyclOptimized, mode);
                assert_eq!(r64, golden::<f64>(&p), "f64 {iterations} {mode:?}");
            }
        }
    }

    #[test]
    fn fp32_and_fp64_agree_closely() {
        let p = tiny();
        let g32: Vec<f64> = golden::<f32>(&p).iter().map(|x| *x as f64).collect();
        let g64 = golden::<f64>(&p);
        assert!(crate::common::rel_l2_error(&g64, &g32) < 1e-4);
    }

    #[test]
    fn density_stays_positive() {
        let p = CfdParams { nelr: 1024, iterations: 8 };
        let vars = golden::<f32>(&p);
        for e in 0..p.nelr {
            assert!(vars[e * NVAR] > 0.0, "negative density at {e}");
        }
    }

    #[test]
    fn uniform_flow_is_steady() {
        // With no density bump the free-stream is an exact steady state
        // of the discrete operator when normals cancel; with our
        // perturbed normals the residual stays small.
        let p = CfdParams { nelr: 256, iterations: 1 };
        let input = generate::<f64>(&p);
        let mut uniform = Vec::with_capacity(p.nelr * NVAR);
        for _ in 0..p.nelr {
            let density = 1.0f64;
            let vx = 0.3;
            let energy = 1.0 / (GAMMA - 1.0) + 0.5 * density * vx * vx;
            uniform.extend_from_slice(&[density, density * vx, 0.0, 0.0, energy]);
        }
        let next = step(&input, &uniform);
        let err = crate::common::rel_l2_error(&uniform, &next);
        assert!(err < 0.05, "err = {err}");
    }

    #[test]
    fn fp64_design_fits_at_most_small_replication() {
        // Section 5.1: CFD FP64 kernels replicate at most 2×.
        let part = FpgaPart::stratix10();
        let d = fpga_design(InputSize::S2, true, true, &part);
        fpga_sim::resources::check_fit(&d, &part).unwrap_or_else(|e| panic!("{e}"));
        // FP64 uses far more DSPs than FP32 at the same replication.
        let d32 = fpga_design(InputSize::S2, false, true, &part);
        let r64 = fpga_sim::resources::design_resources(&d);
        let r32 = fpga_sim::resources::design_resources(&d32);
        let per_cu64 = r64.dsps / 2.0;
        let per_cu32 = r32.dsps / 4.0;
        assert!(per_cu64 > 1.5 * per_cu32);
    }

    #[test]
    fn all_fpga_designs_fit() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            for f64_ in [false, true] {
                for opt in [false, true] {
                    let d = fpga_design(InputSize::S2, f64_, opt, &part);
                    fpga_sim::resources::check_fit(&d, &part)
                        .unwrap_or_else(|e| panic!("{} {e}", d.name));
                }
            }
        }
    }

    #[test]
    fn optimized_fpga_beats_baseline_modestly() {
        // Figure 4: CFD FP32 4.1–4.7×, FP64 2.1–2.2×.
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(&fpga_design(InputSize::S2, false, false, &part), &part);
        let o = fpga_sim::simulate(&fpga_design(InputSize::S2, false, true, &part), &part);
        let s = b.total_seconds / o.total_seconds;
        assert!(s > 1.5, "speedup = {s}");
    }
}
