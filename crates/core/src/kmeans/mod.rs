//! KMeans — Lloyd's clustering.
//!
//! Paper relevance: KMeans is the paper's headline pipe win (Figure 3).
//! The baseline FPGA design runs four kernels sequentially — mapCenters,
//! reset, accumulate, finalize — communicating through global memory.
//! The optimized design fuses reset/accumulate/finalize into one kernel
//! (`resetAccFin`) that exchanges point assignments with `mapCenters`
//! through on-chip pipes while both run concurrently, cutting global
//! traffic to the mapCenters input only: a 510× improvement at size 3
//! (Figure 4). Our runtime reproduces the dataflow functionally with
//! concurrent kernels and a real pipe; the FPGA IR design reproduces the
//! cost mechanics.
//!
//! mapCenters is one [`lanes::Body`], [`Nearest`], run [`LANES`] points
//! at a time by the batch pass and the stream stage ([`streaming`]) alike.

use altis_data::{InputSize, KmeansParams, SeededRng};
use altis_data::paper_scale::kmeans as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{AccessPattern, OpMix, Scalar};
use hetero_rt::lanes;
use hetero_rt::prelude::*;

use crate::common::{egress, fill_rows, AppVersion, ExecMode, Step};

pub mod streaming;

/// Points one `accumulate` work-item folds before it publishes.
const ACC_BLOCK: usize = 256;
/// Words of the private accumulator table (stack arrays; 5 × 16 fits).
const ACC_WORDS: usize = 128;

/// Clustering result.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansOutput {
    /// Final cluster centres, k × features.
    pub centers: Vec<f32>,
    /// Point→cluster assignment.
    pub membership: Vec<u32>,
}

/// The input point cloud's generator: `k` blob centres drawn serially,
/// then point `i`'s feature `f` is `blob[i % k][f] + 0.5 · gaussian()`,
/// the gaussians drawn in row-major order. The stream is positioned
/// after the centres, so any row range can jump straight to its first
/// draw.
struct Cloud {
    rng: SeededRng,
    blobs: Vec<f32>,
    k: usize,
    nf: usize,
}

impl Cloud {
    fn new(p: &KmeansParams) -> Self {
        let mut rng = SeededRng::new("kmeans", p.n_points);
        let blobs = (0..p.k * p.n_features).map(|_| rng.f32(-10.0, 10.0)).collect();
        Cloud { rng, blobs, k: p.k, nf: p.n_features }
    }

    /// Write rows `first..first + out.len() / nf` into `out`: bit for bit
    /// the words a serial pass over the whole cloud puts there.
    fn fill(&self, first: usize, out: &mut [f32]) {
        let mut rng = self.rng.clone();
        rng.advance(SeededRng::GAUSSIAN_DRAWS * (first * self.nf) as u64);
        rng.gaussians(out);
        for (i, row) in (first..).zip(out.chunks_exact_mut(self.nf)) {
            let blob = &self.blobs[(i % self.k) * self.nf..][..self.nf];
            for (x, &c) in row.iter_mut().zip(blob) {
                *x = c + 0.5 * *x;
            }
        }
    }
}

/// Generate the deterministic input point cloud: k Gaussian blobs,
/// filled in contiguous row ranges across the pool.
pub fn generate_points(p: &KmeansParams) -> Vec<f32> {
    let cloud = Cloud::new(p);
    fill_rows(p.n_points, p.n_features, |first, part| cloud.fill(first, part))
}

fn initial_centers(p: &KmeansParams, points: &[f32]) -> Vec<f32> {
    // First k points, the classic Rodinia initialisation: k·nf words
    // copied out of the cloud its buffer adopts whole, not a buffer
    // read-back. lint:allow(staging-copy)
    points[..p.k * p.n_features].to_vec()
}

fn nearest_center(
    point: &[f32],
    centers: &[f32],
    k: usize,
    nf: usize,
) -> u32 {
    let mut best = 0u32;
    let mut best_d = f32::INFINITY;
    for c in 0..k {
        let mut d = 0.0f32;
        for f in 0..nf {
            let diff = point[f] - centers[c * nf + f];
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    best
}

/// Golden reference: sequential Lloyd iterations.
pub fn golden(p: &KmeansParams) -> KmeansOutput {
    golden_on(p, &generate_points(p))
}

fn golden_on(p: &KmeansParams, points: &[f32]) -> KmeansOutput {
    let (k, nf) = (p.k, p.n_features);
    let mut centers = initial_centers(p, points);
    let mut membership = vec![0u32; p.n_points];
    for _ in 0..p.iterations {
        for (i, m) in membership.iter_mut().enumerate() {
            *m = nearest_center(&points[i * nf..(i + 1) * nf], &centers, k, nf);
        }
        let mut acc = vec![0f32; k * nf];
        let mut counts = vec![0u32; k];
        for (i, &m) in membership.iter().enumerate() {
            counts[m as usize] += 1;
            for f in 0..nf {
                acc[m as usize * nf + f] += points[i * nf + f];
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for f in 0..nf {
                    centers[c * nf + f] = acc[c * nf + f] / counts[c] as f32;
                }
            }
        }
    }
    KmeansOutput { centers, membership }
}

/// Runtime version.
///
/// * `SyclBaseline` / `SyclOptimized`: mapCenters as a parallel kernel;
///   reset/accumulate/finalize as separate launches. accumulate folds
///   each block of [`ACC_BLOCK`] points into a private table and stores
///   it once in the block's own slot — the CPU-sized form of Figure 3b's
///   on-chip accumulator: per-point updates never cross shared memory —
///   and finalize folds the slots in block order, so the centres do not
///   depend on which thread ran which block.
/// * On FPGA-capable queues the optimized path runs mapCenters and the
///   fused resetAccFin concurrently, streaming assignments through a
///   pipe (Figure 3b).
pub fn run(q: &Queue, p: &KmeansParams, version: AppVersion) -> KmeansOutput {
    run_with(q, p, version, ExecMode::Graph)
}

/// [`run`] with an explicit execution mode for the four-kernel GPU
/// path (the piped FPGA dataflow has its own concurrency structure and
/// ignores the mode). Every mode executes the one recording of
/// [`step_graph`].
pub fn run_with(
    q: &Queue,
    p: &KmeansParams,
    version: AppVersion,
    mode: ExecMode,
) -> KmeansOutput {
    if version == AppVersion::SyclOptimized && q.device().caps().supports_pipes {
        return run_dataflow(q, p);
    }
    run_on(q, p, generate_points(p), mode)
}

/// The four-kernel path of [`run_with`] over a given point cloud.
fn run_on(q: &Queue, p: &KmeansParams, points: Vec<f32>, mode: ExecMode) -> KmeansOutput {
    let lloyd = Lloyd::new(p, points);
    let step = Step::compile(step_graph(q, p, &lloyd), mode);
    for _ in 0..p.iterations {
        step.run(q);
    }
    drop(step);
    KmeansOutput { centers: egress(lloyd.centers), membership: egress(lloyd.membership) }
}

/// Device state of a Lloyd pass: the point cloud, the carried centres
/// and assignments, each accumulate block's `k × nf` feature sums, and
/// the per-cluster counts one pass folds.
pub(crate) struct Lloyd {
    pts: Buffer<f32>,
    centers: Buffer<f32>,
    membership: Buffer<u32>,
    partials: Buffer<f32>,
    counts: Buffer<u32>,
}

impl Lloyd {
    pub(crate) fn new(p: &KmeansParams, points: Vec<f32>) -> Self {
        let initial = initial_centers(p, &points);
        Lloyd {
            pts: Buffer::from_vec(points),
            centers: Buffer::from_vec(initial),
            membership: Buffer::new(p.n_points),
            partials: Buffer::new(p.n_points.div_ceil(ACC_BLOCK) * p.k * p.n_features),
            counts: Buffer::new(p.k),
        }
    }
}

/// The nearest-centre scan of points `first + x..` into `out[x..x + W]`,
/// each lane in [`nearest_center`]'s op order, so `W = 1` is the scalar
/// kernel. A feature column is one checked load per block (reloaded per
/// cluster past [`FEATURE_TILE`] features), a centre row one copy.
struct Nearest<'a> {
    pts: &'a GlobalView<f32>,
    centers: &'a GlobalView<f32>,
    out: &'a GlobalView<u32>,
    k: usize,
    nf: usize,
    first: usize,
}

/// Feature columns one [`Nearest`] block holds on the stack.
const FEATURE_TILE: usize = 16;

impl lanes::Body for Nearest<'_> {
    #[inline]
    fn at<const W: usize>(&self, x: usize) {
        let Nearest { pts, centers, out, k, nf, first } = *self;
        let mut cols = [Lanes::<f32, W>::splat(0.0); FEATURE_TILE];
        let mut row = [0f32; FEATURE_TILE];
        let (mut best, mut best_d) = ([0u32; W], [f32::INFINITY; W]);
        for c in 0..k {
            let mut d = Lanes::splat(0.0);
            for f0 in (0..nf).step_by(FEATURE_TILE) {
                let tile = (nf - f0).min(FEATURE_TILE);
                if c == 0 || nf > FEATURE_TILE {
                    for f in 0..tile {
                        cols[f] = pts.get_strided((first + x) * nf + f0 + f, nf);
                    }
                }
                centers.copy_to_slice(c * nf + f0, &mut row[..tile]);
                for f in 0..tile {
                    let diff = cols[f] - Lanes::splat(row[f]);
                    d = d + diff * diff;
                }
            }
            for l in 0..W {
                if d.0[l] < best_d[l] {
                    best_d[l] = d.0[l];
                    // lint:allow(as-cast) cluster index < k, far below u32::MAX
                    best[l] = c as u32;
                }
            }
        }
        out.set_lanes(x, Lanes(best));
    }
}

/// map_centers: one work-item per [`LANES`]-point block of the cloud.
fn map_kernel(p: &KmeansParams, lloyd: &Lloyd) -> impl Fn(Item) + Send + Sync + 'static {
    let (k, nf, n) = (p.k, p.n_features, p.n_points);
    let (pv, cv, mv) = (lloyd.pts.view(), lloyd.centers.view(), lloyd.membership.view());
    move |it: Item| {
        let (x, body) = (it.gid(0) * LANES, Nearest { pts: &pv, centers: &cv, out: &mv, k, nf, first: 0 });
        lanes::sweep(x, (x + LANES).min(n), &body);
    }
}

/// One map_centers launch per call over `p`'s cloud, its first `k` rows
/// as the centres: the pass `roofline` times at both widths.
pub fn map_pass(p: &KmeansParams) -> impl Fn(&Queue) {
    let lloyd = Lloyd::new(p, generate_points(p));
    let (kernel, range) = (map_kernel(p, &lloyd), Range::d1(p.n_points.div_ceil(LANES)));
    move |q| {
        let Lloyd { pts, centers, membership, .. } = &lloyd;
        let bindings = [reads(pts), reads(centers), writes(membership)];
        q.submit(&bindings).parallel_for("map_centers", range, &kernel);
    }
}

/// Record one Lloyd pass: map_centers and reset are independent and
/// replay in one phase; accumulate and finalize each form their own.
pub(crate) fn step_graph(q: &Queue, p: &KmeansParams, lloyd: &Lloyd) -> hetero_rt::Result<Graph> {
    let (k, nf, n) = (p.k, p.n_features, p.n_points);
    let Lloyd { pts, centers, membership, partials, counts } = lloyd;
    let (table, blocks) = (k * nf, n.div_ceil(ACC_BLOCK));

    let map_kernel = map_kernel(p, lloyd);
    let reset_kernel = {
        let ctv = counts.view();
        move |it: Item| ctv.set(it.gid(0), 0)
    };
    let acc_kernel = {
        let (pv, mv, sv, ctv) = (pts.view(), membership.view(), partials.view(), counts.view());
        move |it: Item| {
            let lo = it.gid(0) * ACC_BLOCK;
            let hi = (lo + ACC_BLOCK).min(n);
            let mut assigned = [0u32; ACC_BLOCK];
            mv.copy_to_slice(lo, &mut assigned[..hi - lo]);
            let mut words = [0f32; ACC_WORDS];
            // The private table holds words [base, end) of the k × nf
            // sums; a larger table is folded in several sweeps of the
            // block. `hits` counts a cluster at its row's first word.
            for base in (0..table).step_by(ACC_WORDS) {
                let end = (base + ACC_WORDS).min(table);
                let mut sums = [0f32; ACC_WORDS];
                let mut hits = [0u32; ACC_WORDS];
                for (i, &m) in (lo..hi).zip(&assigned) {
                    let row = m as usize * nf;
                    if row >= table {
                        // A corrupted assignment: the checked accessor
                        // raises the typed out-of-bounds payload.
                        ctv.atomic_add_u32(m as usize, 1);
                    }
                    if (base..end).contains(&row) {
                        hits[row - base] += 1;
                    }
                    let (from, to) = (row.max(base), (row + nf).min(end));
                    if from < to {
                        pv.copy_to_slice(i * nf + (from - row), &mut words[..to - from]);
                        for w in from..to {
                            sums[w - base] += words[w - from];
                        }
                    }
                }
                // Publish once per block: the counts by atomics (an
                // integer sum has one result in any order), the sums
                // into the block's own slot.
                for w in base..end {
                    if hits[w - base] > 0 {
                        ctv.atomic_add_u32(w / nf, hits[w - base]);
                    }
                }
                sv.copy_from_slice(it.gid(0) * table + base, &sums[..end - base]);
            }
        }
    };
    // The slots fold in block order from +0.0, as the atomics did, so
    // one block's table is its sums exactly; a zero slot (±0.0) adds
    // nothing to a sum that starts at +0.0, so none needs skipping.
    let fin_kernel = {
        let (cv, sv, ctv) = (centers.view(), partials.view(), counts.view());
        move |it: Item| {
            let c = it.gid(0);
            let cnt = ctv.get(c);
            if cnt > 0 {
                for w in c * nf..(c + 1) * nf {
                    let sum = (0..blocks).fold(0f32, |sum, b| sum + sv.get(b * table + w));
                    cv.set(w, sum / cnt as f32);
                }
            }
        }
    };

    Graph::record(q, |g| {
        g.parallel_for(
            "map_centers",
            Range::d1(n.div_ceil(LANES)),
            &[reads(pts), reads(centers), writes(membership)],
            map_kernel,
        )
        .parallel_for(
            "reset",
            Range::d1(k),
            &[writes(counts)],
            reset_kernel,
        )
        // Any block may bump any cluster's count: the atomic scatter is
        // a read-write of counts, ordered after reset.
        .parallel_for(
            "accumulate",
            Range::d1(blocks),
            &[reads(pts), reads(membership), writes(partials), reads_writes(counts)],
            acc_kernel,
        )
        // finalize writes a centre only for a non-empty cluster; an empty
        // one keeps its old row.
        .parallel_for(
            "finalize",
            Range::d1(k),
            &[reads(partials), reads(counts), writes(centers)],
            fin_kernel,
        );
    })
}

/// Figure 3b: mapCenters ⇄ resetAccFin over pipes, concurrently.
fn run_dataflow(q: &Queue, p: &KmeansParams) -> KmeansOutput {
    let points = generate_points(p);
    let (k, nf, n) = (p.k, p.n_features, p.n_points);
    let mut centers = initial_centers(p, &points);
    // The point data and the membership are loop-invariant allocations:
    // mapCenters rewrites every assignment each iteration, and the last
    // iteration's assignments move out as the result.
    let pts = Buffer::from_vec(points);
    let membership_out = Buffer::<u32>::new(n);

    for _ in 0..p.iterations {
        // assignment stream mapCenters → resetAccFin
        let assign_pipe = Pipe::<u32>::with_capacity(1024);
        // updated centres stream resetAccFin → (host, feeding next iter)
        let center_pipe = Pipe::<f32>::with_capacity(k * nf);

        let pv = pts.view();
        let centers_in = centers.clone();
        let (ap_w, ap_r) = (assign_pipe.clone(), assign_pipe);
        let (cp_w, cp_r) = (center_pipe.clone(), center_pipe);
        let mo = membership_out.view();

        q.submit_concurrent(
            "kmeans_dataflow",
            vec![
                // mapCenters: the only kernel touching global memory.
                Box::new(move || {
                    let mut feat = vec![0f32; nf];
                    for i in 0..n {
                        for (f, slot) in feat.iter_mut().enumerate() {
                            *slot = pv.get(i * nf + f);
                        }
                        let m = nearest_center(&feat, &centers_in, k, nf);
                        mo.set(i, m);
                        ap_w.write(m)?;
                        // stream the point features alongside
                        for f in 0..nf {
                            // features encoded via bits to keep one pipe
                            ap_w.write(feat[f].to_bits())?;
                        }
                    }
                    Ok(())
                }) as Box<dyn FnOnce() -> hetero_rt::Result<()> + Send>,
                // resetAccFin: consumes the stream, never touches DRAM.
                Box::new(move || {
                    let mut acc = vec![0f32; k * nf];
                    let mut counts = vec![0u32; k];
                    for _ in 0..n {
                        let m = ap_r.read()? as usize;
                        counts[m] += 1;
                        for f in 0..nf {
                            acc[m * nf + f] += f32::from_bits(ap_r.read()?);
                        }
                    }
                    for c in 0..k {
                        for f in 0..nf {
                            let v = if counts[c] > 0 {
                                acc[c * nf + f] / counts[c] as f32
                            } else {
                                f32::NAN
                            };
                            cp_w.write(v)?;
                        }
                    }
                    Ok(())
                }),
            ],
        )
        .unwrap_or_else(|e| std::panic::panic_any(e));

        let mut new_centers = centers.clone();
        for c in new_centers.iter_mut() {
            let v = cp_r.read().unwrap_or_else(|e| std::panic::panic_any(e));
            if !v.is_nan() {
                *c = v;
            }
        }
        centers = new_centers;
    }
    KmeansOutput { centers, membership: egress(membership_out) }
}

/// Analytic work profile.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let (n, k, nf, iters) = (
        p.n_points as u64,
        p.k as u64,
        p.n_features as u64,
        p.iterations as u64,
    );
    WorkProfile {
        f32_flops: iters * n * k * nf * 3,
        f64_flops: 0,
        global_bytes: iters * n * (nf * 4 * 2 + 8),
        kernel_launches: iters * 4,
        transfer_bytes: n * nf * 4,
        hints: EfficiencyHints { compute: 0.7, memory: 0.8 },
    }
}

/// FPGA designs: baseline = 4 sequential Single-Task kernels via DRAM;
/// optimized = mapCenters + resetAccFin dataflow over pipes (Figure 3).
pub fn fpga_design(size: InputSize, optimized: bool, _part: &FpgaPart) -> Design {
    let p = pparams(size);
    let (n, k, nf, iters) = (
        p.n_points as u64,
        p.k as u64,
        p.n_features as u64,
        p.iterations as u64,
    );
    let dist_flops = k * nf * 3;

    if !optimized {
        // Baseline: the *migrated ND-Range* kernels, each round-tripping
        // through global memory. The per-item cluster/feature loops are
        // not pipelined on FPGA (the Single-Task rewrite is what fixes
        // that), and the accumulate stage's scattered read-modify-write
        // serialises on atomics.
        let map_centers = KernelBuilder::nd_range("mapCenters", 256)
            .loop_(
                LoopBuilder::new("clusters", k)
                    .body(OpMix {
                        f32_ops: nf * 3,
                        cmp_sel_ops: 1,
                        global_read_bytes: nf * 4,
                        ..OpMix::default()
                    })
                    .build(),
            )
            .straight_line(OpMix {
                global_read_bytes: nf * 4,
                global_write_bytes: 4,
                ..OpMix::default()
            })
            .build();
        let reset = KernelBuilder::nd_range("reset", 256)
            .straight_line(OpMix { global_write_bytes: 4, ..OpMix::default() })
            .build();
        let accumulate = KernelBuilder::nd_range("accumulate", 256)
            .loop_(
                LoopBuilder::new("features_atomic", nf)
                    .body(OpMix {
                        f32_ops: 1,
                        global_read_bytes: 12,
                        global_write_bytes: 8,
                        ..OpMix::default()
                    })
                    .loop_carried_dep()
                    .build(),
            )
            .build();
        let finalize = KernelBuilder::nd_range("finalize", 64)
            .straight_line(OpMix {
                fdiv_ops: 1,
                global_read_bytes: 8,
                global_write_bytes: 4,
                ..OpMix::default()
            })
            .build();
        Design::new(format!("kmeans-base-{size}"))
            .with(KernelInstance::new(map_centers).items(n).invoked(iters))
            .with(KernelInstance::new(reset).items(k * nf).invoked(iters))
            .with(KernelInstance::new(accumulate).items(n).invoked(iters))
            .with(KernelInstance::new(finalize).items(k).invoked(iters))
    } else {
        // Optimized: mapCenters streams assignments through a pipe to
        // the fused resetAccFin; the accumulator lives in registers/BRAM
        // (local array), no global traffic beyond the input points.
        let map_centers = KernelBuilder::single_task("mapCenters")
            .loop_(
                LoopBuilder::new("points", n)
                    .ii(1)
                    .unroll(2)
                    .body(OpMix {
                        f32_ops: dist_flops,
                        cmp_sel_ops: k,
                        global_read_bytes: nf * 4,
                        pipe_writes: 1,
                        ..OpMix::default()
                    })
                    .build(),
            )
            .restrict()
            .build();
        let reset_acc_fin = KernelBuilder::single_task("resetAccFin")
            .loop_(
                LoopBuilder::new("points", n)
                    .ii(1)
                    .body(OpMix {
                        f32_ops: nf,
                        pipe_reads: 1,
                        local_reads: nf,
                        local_writes: nf,
                        ..OpMix::default()
                    })
                    .build(),
            )
            .local_array("acc", Scalar::F32, (k * nf) as usize, AccessPattern::Banked)
            .restrict()
            .build();
        Design::new(format!("kmeans-opt-{size}"))
            .with(KernelInstance::new(map_centers).invoked(iters))
            .with(KernelInstance::new(reset_acc_fin).invoked(iters))
            .dataflow(vec![0, 1])
    }
}

/// DPCT source model.
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "kmeans".into(),
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::UsmMemAdvise,
            Construct::Barrier { provably_local: true, uses_local_scope: true },
            Construct::WorkGroupSize { size: 256, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> KmeansParams {
        KmeansParams { n_points: 256, n_features: 4, k: 3, iterations: 5 }
    }

    #[test]
    fn runtime_matches_golden() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run(&q, &p, AppVersion::SyclBaseline);
        let g = golden(&p);
        assert_eq!(r.membership, g.membership);
        for (a, b) in r.centers.iter().zip(g.centers.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn per_launch_and_graph_modes_agree() {
        // accumulate sums f32 atomically, so center bit patterns are
        // schedule-dependent under *every* executor; membership is exact
        // and centers agree to the suite tolerance.
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let seq = q.clone().with_parallelism(hetero_rt::executor::Parallelism::Sequential);
        let a = run_with(&q, &p, AppVersion::SyclBaseline, ExecMode::PerLaunch);
        for (q, mode) in [
            (&q, ExecMode::Graph),
            (&seq, ExecMode::PerLaunch),
            (&seq, ExecMode::Graph),
        ] {
            let b = run_with(q, &p, AppVersion::SyclBaseline, mode);
            assert_eq!(a.membership, b.membership, "{mode:?}");
            for (x, y) in a.centers.iter().zip(b.centers.iter()) {
                assert!((x - y).abs() < 1e-4, "{mode:?}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn blocked_accumulate_matches_golden_on_every_route() {
        // Shapes no app size reaches: a ragged last block, a single
        // partial block, one cluster, a table wider than ACC_WORDS whose
        // row 10 straddles the window edge, and a cluster the first pass
        // leaves empty (its centre duplicates an earlier one, which wins
        // every tie) so finalize must keep its centre.
        let shape = |n, nf, k| KmeansParams { n_points: n, n_features: nf, k, iterations: 4 };
        let mut cases: Vec<(&str, KmeansParams, Vec<f32>)> = [
            ("ragged tail", shape(2 * ACC_BLOCK + 77, 8, 5)),
            ("n < block", shape(100, 4, 3)),
            ("k = 1", shape(300, 4, 1)),
            ("wide table", shape(600, 12, 12)),
        ]
        .into_iter()
        .map(|(name, p)| (name, p, generate_points(&p)))
        .collect();
        const { assert!(12 * 12 > ACC_WORDS && !ACC_WORDS.is_multiple_of(12)) };
        let p = shape(300, 4, 4);
        let mut points = generate_points(&p);
        points.copy_within(0..4, 4);
        cases.push(("empty cluster", p, points));

        let seq = Queue::new(Device::cpu())
            .with_parallelism(hetero_rt::executor::Parallelism::Sequential);
        let pooled = Queue::new(Device::cpu());
        for (name, p, points) in &cases {
            let g = golden_on(p, points);
            if *name == "empty cluster" {
                let first = golden_on(&KmeansParams { iterations: 1, ..*p }, points);
                assert!(!first.membership.contains(&1), "pass 1 should leave cluster 1 empty");
            }
            for (q, mode) in [
                (&seq, ExecMode::PerLaunch),
                (&pooled, ExecMode::PerLaunch),
                (&pooled, ExecMode::Graph),
            ] {
                let r = run_on(q, p, points.clone(), mode);
                assert_eq!(r.membership, g.membership, "{name} {mode:?}");
                for (a, b) in r.centers.iter().zip(&g.centers) {
                    assert!((a - b).abs() < 1e-4, "{name} {mode:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn nearest_body_is_bit_equal_to_the_scalar_scan_at_both_widths() {
        use lanes::Body;
        // Points around the 16-column tile (a wider one reloads its
        // columns per cluster), one cluster and many; `first` offsets the
        // points as the stream stage does. Centres are rows of the cloud,
        // so some distances are exactly 0, and the last repeats the first,
        // which must win every tie.
        for (nf, k) in [(1, 1), (7, 3), (16, 5), (17, 4), (40, 12)] {
            let p = KmeansParams { n_points: 3 * LANES + 5, n_features: nf, k, iterations: 1 };
            let points = generate_points(&p);
            let mut centers = points[nf..][..k * nf].to_vec();
            centers.copy_within(..nf, (k - 1) * nf);
            let centers = &centers[..];
            let (pts, cb) = (Buffer::from_slice(&points), Buffer::from_slice(centers));
            for first in [0, 3] {
                let len = p.n_points - first;
                let expect: Vec<u32> = (first..p.n_points)
                    .map(|i| nearest_center(&points[i * nf..][..nf], centers, k, nf))
                    .collect();
                let (narrow, wide) = (Buffer::<u32>::new(len), Buffer::<u32>::new(len));
                let (pv, cv, nv, wv) = (pts.view(), cb.view(), narrow.view(), wide.view());
                let body = |out| Nearest { pts: &pv, centers: &cv, out, k, nf, first };
                (0..len).for_each(|x| body(&nv).at::<1>(x));
                for x in (0..len - LANES).step_by(LANES).chain([len - LANES]) {
                    body(&wv).at::<LANES>(x);
                }
                assert_eq!(narrow.to_vec(), expect, "W = 1, nf {nf}, k {k}, first {first}");
                assert_eq!(wide.to_vec(), expect, "W = LANES, nf {nf}, k {k}, first {first}");
            }
        }
    }

    #[test]
    fn piped_version_matches_golden() {
        let p = tiny();
        let q = Queue::new(Device::stratix10());
        let r = run(&q, &p, AppVersion::SyclOptimized);
        let g = golden(&p);
        assert_eq!(r.membership, g.membership);
        for (a, b) in r.centers.iter().zip(g.centers.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn clusters_separate_the_blobs() {
        let p = KmeansParams { n_points: 500, n_features: 8, k: 5, iterations: 10 };
        let g = golden(&p);
        // Points were generated round-robin across k blobs; after
        // convergence points from the same blob share a cluster.
        let m = &g.membership;
        let mut agree = 0;
        let mut total = 0;
        for i in (0..p.n_points).step_by(p.k) {
            for j in ((i + p.k)..p.n_points.min(i + 10 * p.k)).step_by(p.k) {
                total += 1;
                if m[i] == m[j] {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.95);
    }

    #[test]
    fn fpga_pipe_design_blows_past_baseline() {
        // Figure 4: KMeans optimized/baseline ≈ 489–510×.
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(&fpga_design(InputSize::S3, false, &part), &part);
        let o = fpga_sim::simulate(&fpga_design(InputSize::S3, true, &part), &part);
        let s = b.total_seconds / o.total_seconds;
        assert!(s > 20.0, "speedup = {s}");
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

    #[test]
    fn generated_points_are_deterministic() {
        let p = tiny();
        assert_eq!(generate_points(&p), generate_points(&p));
    }

    /// The cloud's specification: one serial pass of `gaussian()` draws.
    fn serial_points(p: &KmeansParams) -> Vec<u32> {
        let mut rng = SeededRng::new("kmeans", p.n_points);
        let blobs: Vec<f32> = (0..p.k * p.n_features).map(|_| rng.f32(-10.0, 10.0)).collect();
        let mut pts = Vec::with_capacity(p.n_points * p.n_features);
        for i in 0..p.n_points {
            for f in 0..p.n_features {
                pts.push((blobs[(i % p.k) * p.n_features + f] + 0.5 * rng.gaussian()).to_bits());
            }
        }
        pts
    }

    /// Index of the first value whose bits differ from the serial
    /// cloud's, if any (a vector diff would print megabytes).
    fn first_mismatch(got: &[f32], serial: &[u32]) -> Option<usize> {
        assert_eq!(got.len(), serial.len());
        got.iter().zip(serial).position(|(g, s)| g.to_bits() != *s)
    }

    #[test]
    fn range_filler_equals_the_serial_cloud_at_every_split() {
        // 45 rows of 7 features: neither a multiple of the eight lanes.
        let p = KmeansParams { n_points: 45, n_features: 7, k: 3, iterations: 1 };
        let (n, nf) = (p.n_points, p.n_features);
        let cloud = Cloud::new(&p);
        for split in [0, 1, 7, n - 1, n] {
            let mut pts = vec![f32::NAN; n * nf];
            let (head, tail) = pts.split_at_mut(split * nf);
            cloud.fill(0, head);
            cloud.fill(split, tail);
            assert_eq!(first_mismatch(&pts, &serial_points(&p)), None, "split at row {split}");
        }
    }

    #[test]
    fn generated_points_equal_the_serial_cloud() {
        for p in [
            altis_data::kmeans(InputSize::S1),
            altis_data::kmeans(InputSize::S2),
            KmeansParams { n_points: 1_237, n_features: 7, k: 3, iterations: 1 },
        ] {
            assert_eq!(first_mismatch(&generate_points(&p), &serial_points(&p)), None, "{p:?}");
        }
    }
}
