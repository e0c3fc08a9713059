//! LavaMD — short-range N-body particle interactions in a 3D box grid.
//!
//! Paper relevance: LavaMD is the "Case 1" shared-memory study
//! (Section 5.2): its access patterns bank cleanly, so unrolling the
//! bottleneck loop over neighbour particles by 30× improves performance
//! almost linearly (16× on Agilex per Section 5.5 — further unrolling
//! breaks timing, not resources). At small sizes it is one of the
//! applications where the Stratix 10 beats the GPUs (Figure 5).

use altis_data::{InputSize, LavamdParams, SeededRng};
use altis_data::paper_scale::lavamd as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{AccessPattern, OpMix, Scalar};
use hetero_rt::ndrange::FenceSpace;
use hetero_rt::prelude::*;

use crate::common::AppVersion;

/// Interaction cutoff parameter (Rodinia's `alpha`).
const ALPHA: f32 = 0.5;

/// A particle: position + charge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Particle {
    /// Position.
    pub x: f32,
    /// Position.
    pub y: f32,
    /// Position.
    pub z: f32,
    /// Charge.
    pub q: f32,
}

/// Force/potential accumulator per particle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ForceOut {
    /// Potential.
    pub v: f32,
    /// Force components.
    pub fx: f32,
    /// Force components.
    pub fy: f32,
    /// Force components.
    pub fz: f32,
}

/// The box-grid problem instance.
pub struct LavamdInput {
    /// Particles, grouped by box: `box_id * par_per_box + k`.
    pub particles: Vec<Particle>,
    /// Neighbour box ids (including self) per box.
    pub neighbors: Vec<Vec<usize>>,
    /// Boxes per dimension.
    pub boxes1d: usize,
    /// Particles per box.
    pub par_per_box: usize,
}

/// Generate the deterministic input.
pub fn generate(p: &LavamdParams) -> LavamdInput {
    let mut rng = SeededRng::new("lavamd", p.boxes1d);
    let nb = p.boxes1d;
    let total_boxes = nb * nb * nb;
    let mut particles = Vec::with_capacity(total_boxes * p.par_per_box);
    for b in 0..total_boxes {
        let bz = b / (nb * nb);
        let by = (b / nb) % nb;
        let bx = b % nb;
        for _ in 0..p.par_per_box {
            particles.push(Particle {
                x: bx as f32 + rng.f32(0.0, 1.0),
                y: by as f32 + rng.f32(0.0, 1.0),
                z: bz as f32 + rng.f32(0.0, 1.0),
                q: rng.f32(0.1, 1.0),
            });
        }
    }
    let mut neighbors = Vec::with_capacity(total_boxes);
    for b in 0..total_boxes {
        let bz = (b / (nb * nb)) as isize;
        let by = ((b / nb) % nb) as isize;
        let bx = (b % nb) as isize;
        let mut nbrs = Vec::new();
        for dz in -1isize..=1 {
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let (nx, ny, nz) = (bx + dx, by + dy, bz + dz);
                    if (0..nb as isize).contains(&nx)
                        && (0..nb as isize).contains(&ny)
                        && (0..nb as isize).contains(&nz)
                    {
                        nbrs.push((nz as usize * nb + ny as usize) * nb + nx as usize);
                    }
                }
            }
        }
        neighbors.push(nbrs);
    }
    LavamdInput { particles, neighbors, boxes1d: nb, par_per_box: p.par_per_box }
}

#[inline]
fn interact(pi: Particle, pj: Particle, a2: f32) -> ForceOut {
    let dx = pi.x - pj.x;
    let dy = pi.y - pj.y;
    let dz = pi.z - pj.z;
    let r2 = dx * dx + dy * dy + dz * dz;
    let u2 = a2 * r2;
    let vij = (-u2).exp();
    let fs = 2.0 * vij;
    ForceOut {
        v: pj.q * vij,
        fx: pj.q * fs * dx,
        fy: pj.q * fs * dy,
        fz: pj.q * fs * dz,
    }
}

/// Golden reference: sequential per-box neighbour sweep.
pub fn golden(p: &LavamdParams) -> Vec<ForceOut> {
    let input = generate(p);
    let ppb = input.par_per_box;
    let a2 = ALPHA * ALPHA;
    let mut out = vec![ForceOut::default(); input.particles.len()];
    for (b, nbrs) in input.neighbors.iter().enumerate() {
        for i in 0..ppb {
            let pi = input.particles[b * ppb + i];
            let mut acc = ForceOut::default();
            for &nb in nbrs {
                for j in 0..ppb {
                    let f = interact(pi, input.particles[nb * ppb + j], a2);
                    acc.v += f.v;
                    acc.fx += f.fx;
                    acc.fy += f.fy;
                    acc.fz += f.fz;
                }
            }
            out[b * ppb + i] = acc;
        }
    }
    out
}

/// Runtime version: one work-group per box; neighbour-box particles are
/// staged in local memory (the banked shared array of Case 1).
pub fn run(q: &Queue, p: &LavamdParams, version: AppVersion) -> Vec<ForceOut> {
    // DPCT migrates one of LavaMD's barriers with the conservative
    // global fence (its locality is not provable); the optimized version
    // narrows it (Section 3.2.1).
    let scope = if version == AppVersion::SyclBaseline {
        FenceSpace::Global
    } else {
        FenceSpace::Local
    };
    let input = generate(p);
    let ppb = input.par_per_box;
    let total_boxes = input.neighbors.len();
    let a2 = ALPHA * ALPHA;

    // Flatten particles and neighbour lists for device consumption.
    let flat: Vec<f32> = input
        .particles
        .iter()
        .flat_map(|pt| [pt.x, pt.y, pt.z, pt.q])
        .collect();
    let mut nbr_flat = Vec::new();
    let mut nbr_off = Vec::with_capacity(total_boxes + 1);
    nbr_off.push(0u32);
    for nbrs in &input.neighbors {
        nbr_flat.extend(nbrs.iter().map(|&x| x as u32));
        nbr_off.push(nbr_flat.len() as u32);
    }

    let parts = Buffer::from_vec(flat);
    let nbrs = Buffer::from_vec(nbr_flat);
    let offs = Buffer::from_vec(nbr_off);
    let out = Buffer::<f32>::new(input.particles.len() * 4);

    let (pv, nv, ov, outv) = (parts.view(), nbrs.view(), offs.view(), out.view());
    let bindings = [reads(&parts), reads(&nbrs), reads(&offs), writes(&out)];
    let nd = NdRange::d1(total_boxes * ppb, ppb);
    q.submit(&bindings).nd_range("lavamd_force", nd, move |ctx| {
        let b = ctx.group_linear();
        let lo = ov.get(b) as usize;
        let hi = ov.get(b + 1) as usize;
        // Private accumulators across the neighbour loop phases.
        let acc = ctx.private_array::<[f32; 4]>();
        // Banked local stage for one neighbour box's particles.
        let stage = ctx.local_array::<f32>(ppb * 4);

        for nb_idx in lo..hi {
            let nb = nv.get(nb_idx) as usize;
            ctx.items(|it| {
                let j = it.local_linear;
                for c in 0..4 {
                    stage.set(j * 4 + c, pv.get((nb * ppb + j) * 4 + c));
                }
            });
            ctx.barrier(scope);
            ctx.items(|it| {
                let i = it.local_linear;
                let pi = Particle {
                    x: pv.get((b * ppb + i) * 4),
                    y: pv.get((b * ppb + i) * 4 + 1),
                    z: pv.get((b * ppb + i) * 4 + 2),
                    q: pv.get((b * ppb + i) * 4 + 3),
                };
                let mut a = acc.get(i);
                for j in 0..ppb {
                    let pj = Particle {
                        x: stage.get(j * 4),
                        y: stage.get(j * 4 + 1),
                        z: stage.get(j * 4 + 2),
                        q: stage.get(j * 4 + 3),
                    };
                    let f = interact(pi, pj, a2);
                    a[0] += f.v;
                    a[1] += f.fx;
                    a[2] += f.fy;
                    a[3] += f.fz;
                }
                acc.set(i, a);
            });
            ctx.barrier(FenceSpace::Local);
        }
        ctx.items(|it| {
            let i = it.local_linear;
            let a = acc.get(i);
            for c in 0..4 {
                outv.set((b * ppb + i) * 4 + c, a[c]);
            }
        });
    })
    .unwrap_or_else(|e| std::panic::panic_any(e));

    out.read(|o| {
        o.chunks_exact(4)
            .map(|c| ForceOut { v: c[0], fx: c[1], fy: c[2], fz: c[3] })
            .collect()
    })
}

/// Analytic work profile.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let nb = p.boxes1d as u64;
    let boxes = nb * nb * nb;
    let ppb = p.par_per_box as u64;
    // ~27 neighbours interior; average is lower at the boundary — use
    // the exact count: sum over boxes of |neighbors| ≈ boxes × avg.
    let avg_nbrs = if nb >= 3 { 19.0 } else { 8.0 };
    let interactions = (boxes as f64 * avg_nbrs) as u64 * ppb * ppb;
    WorkProfile {
        f32_flops: interactions * 20,
        f64_flops: 0,
        global_bytes: boxes * ppb * 16 * 28,
        kernel_launches: 1,
        transfer_bytes: boxes * ppb * 32,
        hints: EfficiencyHints { compute: 0.65, memory: 0.8 },
    }
}

/// FPGA designs: ND-Range with the banked particle stage. The optimized
/// variant unrolls the inner particle loop 30× (Stratix 10) / 16×
/// (Agilex) — Case 1: near-linear gains until timing closure fails.
pub fn fpga_design(size: InputSize, optimized: bool, part: &FpgaPart) -> Design {
    let p = pparams(size);
    let nb = p.boxes1d as u64;
    let boxes = nb * nb * nb;
    let ppb = p.par_per_box as u64;
    let is_agilex = part.name == "Agilex";
    let unroll = if optimized {
        if is_agilex {
            16
        } else {
            30
        }
    } else {
        1
    };

    let inner = LoopBuilder::new("particles_j", ppb)
        .body(OpMix {
            f32_ops: 11,
            transcendental_ops: 1,
            local_reads: 4,
            ..OpMix::default()
        })
        .unroll(unroll)
        .build();
    let neighbor_loop = LoopBuilder::new("neighbors", 19)
        .body(OpMix {
            global_read_bytes: ppb * 16 / 19 + 1,
            local_writes: 4,
            ..OpMix::default()
        })
        .child(inner)
        .build();
    let mut b = KernelBuilder::nd_range("lavamd_force", ppb as usize)
        .loop_(neighbor_loop)
        .straight_line(OpMix { global_write_bytes: 16, ..OpMix::default() })
        .local_array("stage", Scalar::F32, (ppb * 4) as usize, AccessPattern::Banked)
        .barriers(2 * 19);
    if optimized {
        b = b.restrict();
    }
    Design::new(format!(
        "lavamd-{}-{}",
        if optimized { "opt" } else { "base" },
        size
    ))
    .with(KernelInstance::new(b.build()).items(boxes * ppb))
}

/// DPCT source model.
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "lavamd".into(),
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::UsmMemAdvise,
            Construct::Barrier { provably_local: true, uses_local_scope: true },
            Construct::Barrier { provably_local: false, uses_local_scope: true },
            Construct::DynamicLocalAccessor { needed_bytes: 32 * 16 },
            Construct::WorkGroupSize { size: 128, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LavamdParams {
        LavamdParams { boxes1d: 3, par_per_box: 8 }
    }

    #[test]
    fn runtime_matches_golden() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run(&q, &p, AppVersion::SyclBaseline);
        let g = golden(&p);
        assert_eq!(r.len(), g.len());
        for (a, b) in r.iter().zip(g.iter()) {
            assert!((a.v - b.v).abs() < 1e-3, "{:?} vs {:?}", a, b);
            assert!((a.fx - b.fx).abs() < 1e-3);
        }
    }

    #[test]
    fn potential_is_positive_everywhere() {
        // All charges are positive and the kernel is a Gaussian, so the
        // accumulated potential must be positive.
        let g = golden(&tiny());
        assert!(g.iter().all(|f| f.v > 0.0));
    }

    #[test]
    fn self_interaction_contributes_charge() {
        // A particle interacting with itself has r = 0 ⇒ vij = 1 ⇒
        // contributes exactly its own charge to V, forces cancel.
        let f = interact(
            Particle { x: 1.0, y: 2.0, z: 3.0, q: 0.7 },
            Particle { x: 1.0, y: 2.0, z: 3.0, q: 0.7 },
            ALPHA * ALPHA,
        );
        assert!((f.v - 0.7).abs() < 1e-6);
        assert_eq!((f.fx, f.fy, f.fz), (0.0, 0.0, 0.0));
    }

    #[test]
    fn corner_boxes_have_eight_neighbors() {
        let input = generate(&tiny());
        assert_eq!(input.neighbors[0].len(), 8);
        // Centre box of a 3³ grid sees all 27.
        let centre = (3 + 1) * 3 + 1;
        assert_eq!(input.neighbors[centre].len(), 27);
    }

    #[test]
    fn unrolling_speeds_up_fpga_design_nearly_linearly() {
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(&fpga_design(InputSize::S2, false, &part), &part);
        let o = fpga_sim::simulate(&fpga_design(InputSize::S2, true, &part), &part);
        let s = b.total_seconds / o.total_seconds;
        // Figure 4: LavaMD 3.6–25×.
        assert!(s > 3.0, "speedup = {s}");
    }

    #[test]
    fn fpga_designs_fit() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            for opt in [false, true] {
                fpga_sim::resources::check_fit(&fpga_design(InputSize::S3, opt, &part), &part)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }
}
