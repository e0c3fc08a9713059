//! NW — Needleman-Wunsch global DNA sequence alignment.
//!
//! Paper relevance: NW is the arbiter case study ("Case 3" in
//! Section 5.2). The wavefront update reads the score matrix along
//! anti-diagonals of a local tile; the diagonal indexing prevents clean
//! banking, so the FPGA compiler inserts stalling arbiters — NW achieves
//! only 216 MHz on Stratix 10 and roughly half the CPU's performance at
//! sizes 2-3 (Figure 5). On the GPU side, NW is the inlining case study:
//! its hot callee exceeds Clang's default inline threshold, and raising
//! the threshold recovers 2× (Section 3.3).

use altis_data::{InputSize, NwParams, SeededRng};
use altis_data::paper_scale::nw as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{AccessPattern, OpMix, Scalar};
use hetero_rt::ndrange::FenceSpace;
use hetero_rt::prelude::*;

use crate::common::{egress, AppVersion};

/// Tile edge for the blocked wavefront kernel (Altis uses 16).
pub const BLOCK: usize = 16;

/// Substitution score (match/mismatch) — the BLOSUM-style lookup reduced
/// to a match bonus.
#[inline]
fn substitution(a: u8, b: u8) -> i32 {
    if a == b {
        5
    } else {
        -3
    }
}

/// Deterministic input sequences.
pub fn generate_sequences(p: &NwParams) -> (Vec<u8>, Vec<u8>) {
    let mut rng = SeededRng::new("nw", p.len);
    (rng.dna(p.len), rng.dna(p.len))
}

/// Golden reference: full (len+1)² DP matrix, sequential.
pub fn golden(p: &NwParams) -> Vec<i32> {
    let (s1, s2) = generate_sequences(p);
    let n = p.len + 1;
    let mut m = vec![0i32; n * n];
    for i in 1..n {
        m[i * n] = -(p.penalty) * i as i32;
        m[i] = -(p.penalty) * i as i32;
    }
    for i in 1..n {
        for j in 1..n {
            let diag = m[(i - 1) * n + (j - 1)] + substitution(s1[i - 1], s2[j - 1]);
            let up = m[(i - 1) * n + j] - p.penalty;
            let left = m[i * n + (j - 1)] - p.penalty;
            m[i * n + j] = diag.max(up).max(left);
        }
    }
    m
}

/// Runtime version: blocked wavefront. Blocks along each anti-diagonal
/// of the block grid are independent and run as one ND-Range launch;
/// inside a block, cell anti-diagonals are separated by barriers — the
/// structure of the Altis kernel.
pub fn run(q: &Queue, p: &NwParams, version: AppVersion) -> Vec<i32> {
    // DPCT's migration cannot prove all of NW's barriers local, so the
    // baseline fences globally; the optimized version narrows the scope
    // (Section 3.2.1). Semantics are identical; the profiling counters
    // and the models observe the difference.
    let scope = if version == AppVersion::SyclBaseline {
        FenceSpace::Global
    } else {
        FenceSpace::Local
    };
    let (s1, s2) = generate_sequences(p);
    let n = p.len + 1;
    assert_eq!(p.len % BLOCK, 0, "len must be a multiple of BLOCK");
    let nb = p.len / BLOCK;

    let matrix = Buffer::<i32>::new(n * n);
    matrix.write(|m| {
        for i in 1..n {
            m[i * n] = -(p.penalty) * i as i32;
            m[i] = -(p.penalty) * i as i32;
        }
    });
    let s1b = Buffer::from_vec(s1);
    let s2b = Buffer::from_vec(s2);
    let penalty = p.penalty;

    // The wavefront schedule rides in a buffer so each group's lookup
    // is bounds-typed and visible to the race sanitizer. An
    // anti-diagonal has at most `nb` blocks, so one capacity-nb buffer
    // serves every diagonal: each iteration rewrites the prefix the
    // launch below actually indexes (group ids < blocks.len()).
    let blocks_buf = Buffer::<(usize, usize)>::new(nb);

    // Wavefront over block anti-diagonals: d = bi + bj.
    for d in 0..(2 * nb - 1) {
        let blocks: Vec<(usize, usize)> = (0..nb)
            .filter_map(|bi| {
                let bj = d.checked_sub(bi)?;
                (bj < nb).then_some((bi, bj))
            })
            .collect();
        if blocks.is_empty() {
            continue;
        }
        let mv = matrix.view();
        let (s1v, s2v) = (s1b.view(), s2b.view());
        blocks_buf.write(|b| b[..blocks.len()].copy_from_slice(&blocks));
        let bv = blocks_buf.view();
        let bindings = [reads_writes(&matrix), reads(&s1b), reads(&s2b), reads(&blocks_buf)];
        q.submit(&bindings).nd_range(
            "nw_block_wave",
            NdRange::d1(blocks.len() * BLOCK, BLOCK),
            move |ctx| {
                let (bi, bj) = bv.get(ctx.group_linear());
                // Local tile (BLOCK+1)² with the halo row/column, the
                // shared array whose diagonal access forces arbiters.
                let tile = ctx.local_array::<i32>((BLOCK + 1) * (BLOCK + 1));
                let tw = BLOCK + 1;
                let (r0, c0) = (bi * BLOCK, bj * BLOCK);

                // Phase 1: load halo + interior base.
                ctx.items(|it| {
                    let t = it.local_linear;
                    // halo row
                    tile.set(t + 1, mv.get(r0 * n + (c0 + t + 1)));
                    // halo column
                    tile.set((t + 1) * tw, mv.get((r0 + t + 1) * n + c0));
                    if t == 0 {
                        tile.set(0, mv.get(r0 * n + c0));
                    }
                });
                ctx.barrier(scope);

                // Phase 2: cell anti-diagonals within the tile.
                for cd in 0..(2 * BLOCK - 1) {
                    ctx.items(|it| {
                        let ti = it.local_linear;
                        if let Some(tj) = cd.checked_sub(ti) {
                            if tj < BLOCK {
                                let (gi, gj) = (r0 + ti, c0 + tj);
                                let sub =
                                    substitution(s1v.get(gi), s2v.get(gj));
                                let idx = (ti + 1) * tw + (tj + 1);
                                let diag = tile.get(ti * tw + tj) + sub;
                                let up = tile.get(ti * tw + (tj + 1)) - penalty;
                                let left = tile.get((ti + 1) * tw + tj) - penalty;
                                tile.set(idx, diag.max(up).max(left));
                            }
                        }
                    });
                    ctx.barrier(scope);
                }

                // Phase 3: write the tile back.
                ctx.items(|it| {
                    let ti = it.local_linear;
                    for tj in 0..BLOCK {
                        mv.set(
                            (r0 + ti + 1) * n + (c0 + tj + 1),
                            tile.get((ti + 1) * tw + (tj + 1)),
                        );
                    }
                });
            },
        )
        .unwrap_or_else(|e| std::panic::panic_any(e));
    }
    egress(matrix)
}

/// Analytic work profile.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let cells = (p.len * p.len) as u64;
    WorkProfile {
        f32_flops: 0,
        f64_flops: 0,
        global_bytes: cells * 10,
        // int-heavy: model the max/add chains as "flops" at 1/4 weight
        // through the compute hint instead.
        kernel_launches: (2 * (p.len / BLOCK) - 1) as u64,
        transfer_bytes: cells * 4,
        hints: EfficiencyHints { compute: 0.4, memory: 0.6 },
    }
}

/// FPGA designs: ND-Range with the irregular local tile (arbiters). The
/// optimized variant restricts pointers and replicates compute units
/// (16× on Stratix 10, scaled down to 8× on Agilex per Section 5.5) but
/// cannot remove the arbiters — which is why NW stays slow on FPGAs.
pub fn fpga_design(size: InputSize, optimized: bool, part: &FpgaPart) -> Design {
    let p = pparams(size);
    let nb = (p.len / BLOCK) as u64;
    let blocks_total = nb * nb;
    let is_agilex = part.name == "Agilex";

    let mut b = KernelBuilder::nd_range("nw_block_wave", BLOCK)
        .loop_(
            LoopBuilder::new("cell_diagonals", (2 * BLOCK - 1) as u64)
                .body(OpMix {
                    int_ops: 6,
                    cmp_sel_ops: 3,
                    local_reads: 3,
                    local_writes: 1,
                    ..OpMix::default()
                })
                .build(),
        )
        .straight_line(OpMix {
            global_read_bytes: (BLOCK * 8) as u64,
            global_write_bytes: (BLOCK * 4) as u64,
            int_ops: 8,
            ..OpMix::default()
        })
        .local_array(
            "tile",
            Scalar::I32,
            (BLOCK + 1) * (BLOCK + 1),
            AccessPattern::Irregular,
        )
        .barriers(2 * BLOCK as u64);
    if optimized {
        b = b.restrict();
    }
    let kernel = b.build();
    // Launched once per block anti-diagonal; work averages out to
    // blocks_total items in total across the wavefront.
    let inst = KernelInstance::new(kernel)
        .items(blocks_total * BLOCK as u64 / (2 * nb - 1).max(1))
        .invoked(2 * nb - 1)
        .replicated(if optimized {
            if is_agilex {
                8
            } else {
                16
            }
        } else {
            1
        });
    Design::new(format!(
        "nw-{}-{}",
        if optimized { "opt" } else { "base" },
        size
    ))
    .with(inst)
}

/// DPCT source model: the big hot callee drives the inline-threshold
/// story (2× once raised).
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "nw".into(),
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::HotCallee { instructions: 3_000, inlined: true },
            Construct::Barrier { provably_local: true, uses_local_scope: true },
            Construct::Barrier { provably_local: false, uses_local_scope: true },
            Construct::DynamicLocalAccessor { needed_bytes: (BLOCK + 1) * (BLOCK + 1) * 4 },
            Construct::WorkGroupSize { size: BLOCK, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NwParams {
        NwParams { len: 64, penalty: 10 }
    }

    #[test]
    fn runtime_matches_golden() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        assert_eq!(run(&q, &p, AppVersion::SyclBaseline), golden(&p));
    }

    #[test]
    fn both_versions_match_golden() {
        // The baseline's barriers fence globally, the optimized version's
        // locally (Section 3.2.1); the matrices must not differ for it.
        let p = NwParams { len: 32, penalty: 10 };
        let q = Queue::new(Device::cpu());
        for version in [AppVersion::SyclBaseline, AppVersion::SyclOptimized] {
            assert_eq!(run(&q, &p, version), golden(&p), "{version:?}");
        }
    }

    /// One step of a reconstructed alignment.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum AlignStep {
        /// Characters `s1[i]` and `s2[j]` aligned (match or mismatch).
        Pair(usize, usize),
        /// Gap in `s2` (consumes `s1[i]`).
        GapInS2(usize),
        /// Gap in `s1` (consumes `s2[j]`).
        GapInS1(usize),
    }

    /// Reconstruct the optimal global alignment from a completed score
    /// matrix (the host-side traceback the original Altis performs after
    /// the kernel; steps are returned from the start of the sequences): the
    /// oracle that the golden matrix encodes a real alignment.
    fn traceback(p: &NwParams, matrix: &[i32]) -> Vec<AlignStep> {
        let (s1, s2) = generate_sequences(p);
        let n = p.len + 1;
        let mut steps = Vec::with_capacity(2 * p.len);
        let (mut i, mut j) = (p.len, p.len);
        while i > 0 || j > 0 {
            let here = matrix[i * n + j];
            if i > 0
                && j > 0
                && here == matrix[(i - 1) * n + (j - 1)] + substitution(s1[i - 1], s2[j - 1])
            {
                steps.push(AlignStep::Pair(i - 1, j - 1));
                i -= 1;
                j -= 1;
            } else if i > 0 && here == matrix[(i - 1) * n + j] - p.penalty {
                steps.push(AlignStep::GapInS2(i - 1));
                i -= 1;
            } else {
                steps.push(AlignStep::GapInS1(j - 1));
                j -= 1;
            }
        }
        steps.reverse();
        steps
    }

    /// Score an alignment independently of the DP matrix (verification).
    fn score_alignment(p: &NwParams, steps: &[AlignStep]) -> i32 {
        let (s1, s2) = generate_sequences(p);
        steps
            .iter()
            .map(|s| match *s {
                AlignStep::Pair(i, j) => substitution(s1[i], s2[j]),
                AlignStep::GapInS2(_) | AlignStep::GapInS1(_) => -p.penalty,
            })
            .sum()
    }

    #[test]
    fn traceback_reconstructs_optimal_score() {
        // The alignment the traceback returns, scored independently,
        // equals the DP matrix's final cell.
        let p = tiny();
        let m = golden(&p);
        let steps = traceback(&p, &m);
        let n = p.len + 1;
        assert_eq!(score_alignment(&p, &steps), m[n * n - 1]);
    }

    #[test]
    fn traceback_consumes_both_sequences_fully() {
        let p = tiny();
        let m = golden(&p);
        let steps = traceback(&p, &m);
        let consumed_s1 = steps
            .iter()
            .filter(|s| matches!(s, AlignStep::Pair(..) | AlignStep::GapInS2(_)))
            .count();
        let consumed_s2 = steps
            .iter()
            .filter(|s| matches!(s, AlignStep::Pair(..) | AlignStep::GapInS1(_)))
            .count();
        assert_eq!(consumed_s1, p.len);
        assert_eq!(consumed_s2, p.len);
        // Indices advance monotonically through both sequences.
        let mut last_i = 0usize;
        for s in &steps {
            if let AlignStep::Pair(i, _) | AlignStep::GapInS2(i) = *s {
                assert!(i >= last_i.saturating_sub(1));
                last_i = i;
            }
        }
    }

    #[test]
    fn identical_sequences_score_perfectly() {
        // Hand-build: alignment of a sequence with itself scores 5·len.
        let p = NwParams { len: 32, penalty: 10 };
        let (s1, _) = generate_sequences(&p);
        let n = p.len + 1;
        let mut m = vec![0i32; n * n];
        for i in 1..n {
            m[i * n] = -(p.penalty) * i as i32;
            m[i] = -(p.penalty) * i as i32;
        }
        for i in 1..n {
            for j in 1..n {
                let diag = m[(i - 1) * n + (j - 1)] + substitution(s1[i - 1], s1[j - 1]);
                let up = m[(i - 1) * n + j] - p.penalty;
                let left = m[i * n + (j - 1)] - p.penalty;
                m[i * n + j] = diag.max(up).max(left);
            }
        }
        assert_eq!(m[n * n - 1], 5 * p.len as i32);
    }

    #[test]
    fn score_matrix_symmetry() {
        // Swapping the two sequences transposes the DP matrix.
        let p = tiny();
        let (s1, s2) = generate_sequences(&p);
        let n = p.len + 1;
        let dp = |a: &[u8], b: &[u8]| {
            let mut m = vec![0i32; n * n];
            for i in 1..n {
                m[i * n] = -(p.penalty) * i as i32;
                m[i] = -(p.penalty) * i as i32;
            }
            for i in 1..n {
                for j in 1..n {
                    let diag = m[(i - 1) * n + (j - 1)] + substitution(a[i - 1], b[j - 1]);
                    let up = m[(i - 1) * n + j] - p.penalty;
                    let left = m[i * n + (j - 1)] - p.penalty;
                    m[i * n + j] = diag.max(up).max(left);
                }
            }
            m
        };
        let m12 = dp(&s1, &s2);
        let m21 = dp(&s2, &s1);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(m12[i * n + j], m21[j * n + i]);
            }
        }
    }

    #[test]
    fn nw_fpga_runs_at_reduced_clock() {
        // Table 3: NW achieves only 216 MHz on Stratix 10 (arbiters).
        let part = FpgaPart::stratix10();
        let d = fpga_design(InputSize::S1, true, &part);
        let f = fpga_sim::estimate_fmax(&d, &part);
        assert!(f < 0.85 * part.base_fmax_mhz, "fmax = {f}");
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
    fn optimized_helps_but_modestly() {
        // Figure 4: NW gains 5.6–18× (replication), far from the
        // KMeans/Mandelbrot scale.
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(&fpga_design(InputSize::S2, false, &part), &part);
        let o = fpga_sim::simulate(&fpga_design(InputSize::S2, true, &part), &part);
        let s = b.total_seconds / o.total_seconds;
        assert!(s > 2.0 && s < 100.0, "speedup = {s}");
    }
}
