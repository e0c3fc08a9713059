//! ParticleFilter — statistical estimator of a target object's location
//! in a synthetic video (Naive and Float variants, as in Altis).
//!
//! Paper relevance: PF is the branch-divergence case study. Its
//! resampling (`findIndex`) walks a CDF with data-dependent branches, so
//! ND-Range vectorisation fails and the paper rewrites the FPGA kernels
//! as Single-Task (Section 5.3), replicating compute units 10×/50× on
//! Stratix 10 (scaled to 4×/24× on Agilex). PF Float is also the
//! pow-function case study: DPCT silently replaced `pow(a,2)` with
//! `a*a`, making the *SYCL* version up to 6× faster until the authors
//! ported the fix back to CUDA (Section 3.3). The deep Single-Task
//! control keeps achieved Fmax near 102–108 MHz on both parts (Table 3).
//!
//! The CPU kernel `pf_find_index`, [`golden`] and the stream reference
//! resample through one binary search over the CDF ([`search_cdf`]),
//! which returns the walk's index. [`work_profile`] and [`fpga_design`]
//! model Altis' kernels: the GPU walk from index 0 and the FPGA rewrite's
//! windowed walk.

use altis_data::{InputSize, PfParams};
use altis_data::paper_scale::particlefilter as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{AccessPattern, OpMix, Scalar};
use hetero_rt::prelude::*;

use crate::common::{AppVersion, ExecMode, Step};

pub mod streaming;

/// Which PF variant (Altis ships both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfVariant {
    /// Integer-heavy "naive" version.
    Naive,
    /// Floating-point version (the pow(a,2) story).
    Float,
}

/// Tracking output: estimated (x, y) per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PfOutput {
    /// Estimated x per frame.
    pub xe: Vec<f32>,
    /// Estimated y per frame.
    pub ye: Vec<f32>,
}

/// Deterministic LCG so sequential and parallel particle updates use
/// identical per-particle streams (matching the original's per-thread
/// seed array).
#[derive(Debug, Clone, Copy)]
struct Lcg {
    state: u64,
}

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg { state: seed.wrapping_mul(6364136223846793005).wrapping_add(1) }
    }
    fn next_u32(&mut self) -> u32 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Murmur-style finalizer: raw LCG outputs are serially
        // correlated, which skews Box-Muller pairs; mixing fixes it.
        let mut x = (self.state >> 32) as u32;
        x ^= x >> 16;
        x = x.wrapping_mul(0x7feb_352d);
        x ^= x >> 15;
        x = x.wrapping_mul(0x846c_a68b);
        x ^= x >> 16;
        x
    }
    fn uniform(&mut self) -> f32 {
        (self.next_u32() as f32 + 0.5) / (u32::MAX as f32 + 1.0)
    }
    /// Box-Muller-ish normal from two uniforms (cheap, deterministic).
    fn normal(&mut self) -> f32 {
        let u1 = self.uniform().max(1e-7);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

/// The true object path: diagonal drift, used to synthesise likelihoods.
fn true_pos(p: &PfParams, frame: usize) -> (f32, f32) {
    let t = frame as f32;
    (
        (p.dim as f32) * 0.25 + 2.0 * t,
        (p.dim as f32) * 0.25 + 1.5 * t,
    )
}

/// Likelihood of a particle given the frame: Gaussian in the distance to
/// the true position (a closed-form stand-in for Altis' pixel-window
/// sums, preserving the branch/`pow` structure downstream).
fn likelihood(variant: PfVariant, px: f32, py: f32, tx: f32, ty: f32) -> f32 {
    let (dx, dy) = (px - tx, py - ty);
    let d2 = match variant {
        // Naive: integer grid distance.
        PfVariant::Naive => {
            let ix = dx as i32;
            let iy = dy as i32;
            (ix * ix + iy * iy) as f32
        }
        // Float: the pow(a,2) call site.
        PfVariant::Float => dx.powi(2) + dy.powi(2),
    };
    (-d2 / 200.0).exp()
}

/// `findIndex` on a host CDF: see [`search_cdf`].
fn find_index(cdf: &[f32], u: f32) -> usize {
    search_cdf(cdf.len(), |i| cdf[i], u)
}

/// The first index `i` of an `n`-entry CDF with `at(i) >= u`, or `n - 1`
/// when there is none: the answer of Altis' `findIndex`, which walks the
/// CDF from index 0. Found by binary search, `⌈log2(n + 1)⌉` reads of
/// `at` in place of about `n / 2`. The CDF is a running sum of
/// non-negative weights, so it is non-decreasing with no NaN: `at(i) <
/// u` holds on a prefix of the indices and the walk stops where that
/// prefix ends.
fn search_cdf(n: usize, at: impl Fn(usize) -> f32, u: f32) -> usize {
    // Every entry below `lo` is `< u`; every entry from `hi` on is `>= u`.
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at(mid) < u {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo.min(n - 1)
}

/// Golden reference: sequential bootstrap particle filter.
pub fn golden(p: &PfParams, variant: PfVariant) -> PfOutput {
    let n = p.n_particles;
    let mut seeds: Vec<Lcg> = (0..n).map(|i| Lcg::new(i as u64 + 17)).collect();
    let mut xs: Vec<f32> = vec![(p.dim as f32) * 0.25; n];
    let mut ys: Vec<f32> = vec![(p.dim as f32) * 0.25; n];
    let mut out = PfOutput { xe: Vec::new(), ye: Vec::new() };

    for frame in 1..=p.frames {
        let (tx, ty) = true_pos(p, frame);
        // Propagate + weight.
        let mut weights = vec![0f32; n];
        for i in 0..n {
            xs[i] += 2.0 + 1.0 * seeds[i].normal();
            ys[i] += 1.5 + 1.0 * seeds[i].normal();
            weights[i] = likelihood(variant, xs[i], ys[i], tx, ty);
        }
        let sum: f32 = weights.iter().sum();
        let sum = if sum <= 0.0 { 1.0 } else { sum };
        for w in weights.iter_mut() {
            *w /= sum;
        }
        // Estimate.
        let xe: f32 = xs.iter().zip(&weights).map(|(x, w)| x * w).sum();
        let ye: f32 = ys.iter().zip(&weights).map(|(y, w)| y * w).sum();
        out.xe.push(xe);
        out.ye.push(ye);
        // Resample (systematic).
        let mut cdf = vec![0f32; n];
        let mut acc = 0.0;
        for i in 0..n {
            acc += weights[i];
            cdf[i] = acc;
        }
        let mut rng = Lcg::new(frame as u64 * 7919);
        let u0 = rng.uniform() / n as f32;
        let mut nxs = vec![0f32; n];
        let mut nys = vec![0f32; n];
        for j in 0..n {
            let u = u0 + j as f32 / n as f32;
            let i = find_index(&cdf, u);
            nxs[j] = xs[i];
            nys[j] = ys[i];
        }
        xs = nxs;
        ys = nys;
    }
    out
}

/// Runtime version: propagate/weight as a parallel kernel (per-particle
/// RNG streams keep it bit-identical to the golden run), the estimate
/// and CDF in [`frame_tail`] on the host, resampling as a parallel CDF
/// walk.
pub fn run(q: &Queue, p: &PfParams, variant: PfVariant, version: AppVersion) -> PfOutput {
    run_with(q, p, variant, version, ExecMode::Graph)
}

/// [`run`] with an explicit execution mode. The host tail and particle
/// swap stay between kernels in every mode; each
/// mode executes the one recorded pair ([`propagate_graph`],
/// [`resample_graph`]), whose frame-varying scalars the host writes
/// into [`Cloud::frame`] before each step.
pub fn run_with(
    q: &Queue,
    p: &PfParams,
    variant: PfVariant,
    _version: AppVersion,
    mode: ExecMode,
) -> PfOutput {
    let n = p.n_particles;
    let cloud = Cloud::new(p);
    let propagate = Step::compile(propagate_graph(q, variant, &cloud), mode);
    let resample = Step::compile(resample_graph(q, &cloud), mode);
    let mut out = PfOutput { xe: Vec::new(), ye: Vec::new() };

    for frame in 1..=p.frames {
        let (tx, ty) = true_pos(p, frame);
        cloud.frame.host_set(0, tx);
        cloud.frame.host_set(1, ty);
        propagate.run(q);

        // The host tail reads the kernel's arrays in place and builds
        // the CDF straight into its buffer.
        let (xe, ye) = cloud.weights.read(|w| {
            cloud.xs.read(|x| cloud.ys.read(|y| cloud.cdf.write(|cdf| frame_tail(w, x, y, cdf))))
        });
        out.xe.push(xe);
        out.ye.push(ye);
        let mut rng = Lcg::new(frame as u64 * 7919);
        cloud.frame.host_set(2, rng.uniform() / n as f32);
        resample.run(q);
        cloud.nxs.read(|v| cloud.xs.write_from(v));
        cloud.nys.read(|v| cloud.ys.write_from(v));
    }
    out
}

/// The host tail of a frame, shared by [`run_with`] and
/// [`streaming`]: normalise `weights` into `cdf`, dot the positions with
/// it for the estimate `(xe, ye)`, then prefix-sum `cdf` in place.
/// Sequential folds, so the estimate never depends on the pool's width.
pub(crate) fn frame_tail(
    weights: &[f32],
    xs: &[f32],
    ys: &[f32],
    cdf: &mut [f32],
) -> (f32, f32) {
    let sum: f32 = weights.iter().sum();
    let sum = if sum <= 0.0 { 1.0 } else { sum };
    for (c, &w) in cdf.iter_mut().zip(weights) {
        *c = w / sum;
    }
    let xe: f32 = xs.iter().zip(cdf.iter()).map(|(x, w)| x * w).sum();
    let ye: f32 = ys.iter().zip(cdf.iter()).map(|(y, w)| y * w).sum();
    let mut acc = 0.0;
    for c in cdf.iter_mut() {
        acc += *c;
        *c = acc;
    }
    (xe, ye)
}

/// Device state of the filter: the particle cloud with its per-particle
/// RNG streams, the weights one frame hands to the host folds, the
/// resampling scratch (rewritten every frame), and the frame-varying
/// scalars `[tx, ty, u0]` the host writes before each step.
pub(crate) struct Cloud {
    pub(crate) xs: Buffer<f32>,
    pub(crate) ys: Buffer<f32>,
    pub(crate) weights: Buffer<f32>,
    pub(crate) seeds: Buffer<u64>,
    pub(crate) cdf: Buffer<f32>,
    pub(crate) nxs: Buffer<f32>,
    pub(crate) nys: Buffer<f32>,
    pub(crate) frame: Buffer<f32>,
}

impl Cloud {
    /// The golden filter's initial cloud.
    pub(crate) fn new(p: &PfParams) -> Self {
        let n = p.n_particles;
        Cloud {
            xs: Buffer::from_vec(vec![(p.dim as f32) * 0.25; n]),
            ys: Buffer::from_vec(vec![(p.dim as f32) * 0.25; n]),
            weights: Buffer::new(n),
            seeds: Buffer::from_vec((0..n).map(|i| Lcg::new(i as u64 + 17).state).collect()),
            cdf: Buffer::new(n),
            nxs: Buffer::new(n),
            nys: Buffer::new(n),
            frame: Buffer::new(3),
        }
    }
}

/// Record the propagate/weight launch (every batch route and
/// [`streaming`] execute the same recording): per-particle state, each
/// work-item on its own element.
pub(crate) fn propagate_graph(
    q: &Queue,
    variant: PfVariant,
    cloud: &Cloud,
) -> hetero_rt::Result<Graph> {
    let Cloud { xs, ys, seeds, weights, frame, .. } = cloud;
    let n = xs.len();
    let (xv, yv, wv, sv, pv) = (xs.view(), ys.view(), weights.view(), seeds.view(), frame.view());
    Graph::record(q, |g| {
        // Every buffer is observable after the replay (the host reads
        // weights/positions; seeds carry RNG state into the next frame),
        // so all four are declared outputs — dead-launch elimination
        // must keep this sole launch.
        g.parallel_for(
            "pf_propagate_weight",
            Range::d1(n),
            &[reads(frame), reads_writes(xs), reads_writes(ys), reads_writes(seeds), writes(weights)],
            move |it| {
                let (tx, ty) = (pv.get(0), pv.get(1));
                let i = it.gid(0);
                let mut rng = Lcg { state: sv.get(i) };
                xv.update(i, |x| x + 2.0 + rng.normal());
                yv.update(i, |y| y + 1.5 + rng.normal());
                sv.set(i, rng.state);
                wv.set(i, likelihood(variant, xv.get(i), yv.get(i), tx, ty));
            },
        );
    })
}

/// Record the resampling launch: each particle's [`search_cdf`] over the
/// device CDF, read through the checked accessor.
pub(crate) fn resample_graph(q: &Queue, cloud: &Cloud) -> hetero_rt::Result<Graph> {
    let Cloud { xs, ys, cdf, nxs, nys, frame, .. } = cloud;
    let n = xs.len();
    let (cv, xv, yv, nxv, nyv, pv) =
        (cdf.view(), xs.view(), ys.view(), nxs.view(), nys.view(), frame.view());
    Graph::record(q, |g| {
        g.parallel_for(
            "pf_find_index",
            Range::d1(n),
            &[reads(frame), reads(cdf), reads(xs), reads(ys), writes(nxs), writes(nys)],
            move |it| {
                let u0 = pv.get(2);
                let j = it.gid(0);
                let u = u0 + j as f32 / n as f32;
                let idx = search_cdf(cv.len(), |i| cv.get(i), u);
                nxv.set(j, xv.get(idx));
                nyv.set(j, yv.get(idx));
            },
        );
    })
}

/// Analytic work profile.
pub fn work_profile(size: InputSize, variant: PfVariant) -> WorkProfile {
    let p = pparams(size);
    let n = p.n_particles as u64;
    let frames = p.frames as u64;
    // findIndex walks the CDF from index 0 on every GPU thread; with
    // systematic resampling the average walk is a sizeable fraction of
    // the array.
    let walk = n / 8;
    WorkProfile {
        f32_flops: frames * n * (40 + walk / 8),
        f64_flops: 0,
        global_bytes: frames * n * (32 + walk / 4),
        kernel_launches: frames * 5,
        transfer_bytes: n * 16,
        hints: EfficiencyHints {
            // Heavy divergence: the weakest compute efficiency of the
            // suite — the paper's motivation for the Single-Task rewrite.
            compute: if variant == PfVariant::Naive { 0.15 } else { 0.25 },
            memory: 0.5,
        },
    }
}

/// FPGA designs: baseline = migrated ND-Range with divergent loops (no
/// vectorisation possible); optimized = Single-Task rewrite with many
/// replicated shallow kernels (10×/50× on Stratix 10, 4×/24× on Agilex).
pub fn fpga_design(
    size: InputSize,
    variant: PfVariant,
    optimized: bool,
    part: &FpgaPart,
) -> Design {
    let p = pparams(size);
    let n = p.n_particles as u64;
    let frames = p.frames as u64;
    let is_agilex = part.name == "Agilex";
    let vname = match variant {
        PfVariant::Naive => "naive",
        PfVariant::Float => "float",
    };

    let weight_ops = match variant {
        PfVariant::Naive => OpMix {
            int_ops: 12,
            transcendental_ops: 1,
            cmp_sel_ops: 4,
            global_read_bytes: 16,
            global_write_bytes: 4,
            ..OpMix::default()
        },
        PfVariant::Float => OpMix {
            f32_ops: 14,
            transcendental_ops: 1,
            cmp_sel_ops: 4,
            global_read_bytes: 16,
            global_write_bytes: 4,
            ..OpMix::default()
        },
    };
    // GPU threads walk the CDF from index 0; with systematic resampling
    // the average walk covers a fraction of the array before exiting.
    let walk = LoopBuilder::new("cdf_walk", (n / 64).max(8))
        .body(OpMix {
            cmp_sel_ops: 1,
            global_read_bytes: 4,
            ..OpMix::default()
        })
        .data_dependent_exit()
        .build();

    if !optimized {
        let propagate = KernelBuilder::nd_range("pf_propagate_weight", 128)
            .straight_line(weight_ops)
            .dynamic_local_array("shared_scalar", Scalar::F64, AccessPattern::Banked)
            .barriers(2)
            .build();
        let resample = KernelBuilder::nd_range("pf_find_index", 128)
            .loop_(walk)
            .straight_line(OpMix { global_write_bytes: 8, ..OpMix::default() })
            .build();
        Design::new(format!("pf-{vname}-base-{size}"))
            .with(KernelInstance::new(propagate).items(n).invoked(frames))
            .with(KernelInstance::new(resample).items(n).invoked(frames))
    } else {
        let (cu_a, cu_b) = if is_agilex { (4, 24) } else { (10, 50) };
        // Single-Task rewrites: pipelined particle loops; the CDF walk
        // pipelines poorly (data-dependent exit) but replication divides
        // the particle range.
        let propagate = KernelBuilder::single_task("pf_propagate_st")
            .loop_(
                LoopBuilder::new("particles", n)
                    .ii(1)
                    .speculated(2)
                    .body(weight_ops)
                    .build(),
            )
            // The paper's statically-sized shared scalar (8 B, not 16 kB).
            .local_array("shared_scalar", Scalar::F64, 1, AccessPattern::Banked)
            .restrict()
            .build();
        let resample = KernelBuilder::single_task("pf_resample_st")
            .loop_(
                LoopBuilder::new("particles", n)
                    .speculated(0)
                    .body(OpMix { global_write_bytes: 8, int_ops: 4, ..OpMix::default() })
                    .child(
                        // The Single-Task rewrite walks a window of the
                        // CDF around the expected position instead of
                        // starting at index 0.
                        LoopBuilder::new("cdf_walk_window", (n / 64).max(8))
                            .speculated(0)
                            .body(OpMix {
                                cmp_sel_ops: 1,
                                local_reads: 1,
                                ..OpMix::default()
                            })
                            .data_dependent_exit()
                            .build(),
                    )
                    .build(),
            )
            .local_array("cdf", Scalar::F32, p.n_particles.min(16_384), AccessPattern::Banked)
            // Five more loops: init, normalize, cdf build, estimate ×2 —
            // the deep control that caps Fmax at ~105 MHz.
            .loop_(LoopBuilder::new("init", n).body(OpMix { int_ops: 1, ..OpMix::default() }).build())
            .loop_(LoopBuilder::new("normalize", n).body(OpMix { fdiv_ops: 1, ..OpMix::default() }).build())
            .loop_(LoopBuilder::new("cdf_build", n).loop_carried_dep().body(OpMix { f32_ops: 1, ..OpMix::default() }).build())
            .loop_(LoopBuilder::new("estimate_x", n).loop_carried_dep().body(OpMix { f32_ops: 2, ..OpMix::default() }).build())
            .loop_(LoopBuilder::new("estimate_y", n).loop_carried_dep().body(OpMix { f32_ops: 2, ..OpMix::default() }).build())
            .restrict()
            .build();
        Design::new(format!("pf-{vname}-opt-{size}"))
            .with(KernelInstance::new(propagate).invoked(frames).replicated(cu_a))
            .with(KernelInstance::new(resample).invoked(frames).replicated(cu_b))
    }
}

/// DPCT source model: PF Float carries the pow(a,2) call.
pub fn cuda_module(variant: PfVariant) -> CudaModule {
    let mut constructs = vec![
        Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
        Construct::UsmMemAdvise,
        Construct::DynamicLocalAccessor { needed_bytes: 8 },
        Construct::WorkGroupSize { size: 512, has_attributes: false },
    ];
    if variant == PfVariant::Float {
        constructs.push(Construct::PowSquare);
    }
    CudaModule {
        name: match variant {
            PfVariant::Naive => "pf_naive".into(),
            PfVariant::Float => "pf_float".into(),
        },
        constructs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PfParams {
        PfParams { n_particles: 256, frames: 5, dim: 128 }
    }

    #[test]
    fn runtime_matches_golden_float() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run(&q, &p, PfVariant::Float, AppVersion::SyclBaseline);
        let g = golden(&p, PfVariant::Float);
        for (a, b) in r.xe.iter().zip(g.xe.iter()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
        for (a, b) in r.ye.iter().zip(g.ye.iter()) {
            assert!((a - b).abs() < 1e-2);
        }
    }

    #[test]
    fn per_launch_and_graph_modes_agree_exactly() {
        // Per-particle RNG streams make every executor of the recorded
        // pair deterministic, on a pooled and on a sequential queue, so
        // the estimates are bit-identical.
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let seq = q.clone().with_parallelism(hetero_rt::executor::Parallelism::Sequential);
        for variant in [PfVariant::Naive, PfVariant::Float] {
            let a = run_with(&q, &p, variant, AppVersion::SyclBaseline, ExecMode::PerLaunch);
            for (q, mode) in [
                (&q, ExecMode::Graph),
                (&seq, ExecMode::PerLaunch),
                (&seq, ExecMode::Graph),
            ] {
                let b = run_with(q, &p, variant, AppVersion::SyclBaseline, mode);
                assert_eq!(a, b, "{variant:?} {mode:?}");
            }
        }
    }

    #[test]
    fn runtime_matches_golden_naive() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run(&q, &p, PfVariant::Naive, AppVersion::SyclBaseline);
        let g = golden(&p, PfVariant::Naive);
        for (a, b) in r.xe.iter().zip(g.xe.iter()) {
            assert!((a - b).abs() < 1e-2);
        }
    }

    #[test]
    fn filter_tracks_the_target() {
        let p = PfParams { n_particles: 2048, frames: 8, dim: 128 };
        let g = golden(&p, PfVariant::Float);
        // By the last frame the estimate should be near the true path.
        let (tx, ty) = true_pos(&p, p.frames);
        let (xe, ye) = (*g.xe.last().unwrap(), *g.ye.last().unwrap());
        let err = ((xe - tx).powi(2) + (ye - ty).powi(2)).sqrt();
        assert!(err < 10.0, "tracking error = {err}");
    }

    #[test]
    fn find_index_walks_cdf_correctly() {
        let cdf = [0.1, 0.4, 0.7, 1.0];
        assert_eq!(find_index(&cdf, 0.05), 0);
        assert_eq!(find_index(&cdf, 0.4), 1);
        assert_eq!(find_index(&cdf, 0.69), 2);
        assert_eq!(find_index(&cdf, 0.99), 3);
        assert_eq!(find_index(&cdf, 2.0), 3); // past the end
    }

    #[test]
    fn cdf_search_returns_the_linear_walks_index() {
        // Altis' `findIndex` walk, the oracle: the first entry `>= u`,
        // else the last index.
        fn walk(cdf: &[f32], u: f32) -> usize {
            cdf.iter().position(|&c| c >= u).unwrap_or(cdf.len() - 1)
        }
        let mut cdfs = vec![
            vec![0.5],
            vec![0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.25, 0.25, 0.25, 0.75, 1.0, 1.0],
        ];
        // Running sums of weights of which about a third are zero, so
        // the CDF has plateaus, at every length from 1 to 64.
        let mut rng = Lcg::new(29);
        for n in 1..=64 {
            let mut acc = 0.0f32;
            let cdf = (0..n)
                .map(|_| {
                    let r = rng.uniform();
                    acc += if r < 0.33 { 0.0 } else { r };
                    acc
                })
                .collect();
            cdfs.push(cdf);
        }
        for cdf in &cdfs {
            let last = cdf[cdf.len() - 1];
            let mut us = vec![-1.0, 0.0, last + 1.0, f32::INFINITY];
            for &c in cdf {
                us.extend([c, c.next_down(), c.next_up(), 0.5 * c]);
            }
            us.extend((0..32).map(|_| rng.uniform() * last));
            for u in us {
                assert_eq!(find_index(cdf, u), walk(cdf, u), "u = {u} in {cdf:?}");
            }
        }
    }

    #[test]
    fn pf_designs_run_at_low_fmax() {
        // Table 3: PF runs at ~102–108 MHz on both parts.
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            let d = fpga_design(InputSize::S1, PfVariant::Float, true, &part);
            let f = fpga_sim::estimate_fmax(&d, &part);
            assert!(f < 0.65 * part.base_fmax_mhz, "{}: fmax = {f}", part.name);
        }
    }

    #[test]
    fn fpga_designs_fit() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            for v in [PfVariant::Naive, PfVariant::Float] {
                for opt in [false, true] {
                    let d = fpga_design(InputSize::S1, v, opt, &part);
                    fpga_sim::resources::check_fit(&d, &part)
                        .unwrap_or_else(|e| panic!("{} {e}", d.name));
                }
            }
        }
    }

    #[test]
    fn single_task_rewrite_beats_ndrange_baseline() {
        // Figure 4: PF Naive up to 272×, PF Float up to 368× at size 3.
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(
            &fpga_design(InputSize::S2, PfVariant::Float, false, &part),
            &part,
        );
        let o = fpga_sim::simulate(
            &fpga_design(InputSize::S2, PfVariant::Float, true, &part),
            &part,
        );
        let s = b.total_seconds / o.total_seconds;
        assert!(s > 2.0, "speedup = {s}");
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn normal_samples_have_unit_scale() {
        let mut rng = Lcg::new(5);
        let samples: Vec<f32> = (0..20_000).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>()
            / samples.len() as f32;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }
}
