//! DWT2D — 2D discrete wavelet transform (CDF 5/3, multi-level).
//!
//! Paper relevance: DWT2D is the paper's negative result. Its shared
//! memory suffers congestion the authors could not remove without a full
//! algorithmic rewrite, so on FPGAs only a baseline (functional,
//! non-optimised) design exists — it is absent from Figure 4's optimized
//! set and ships 14 kernels of which only two are synthesised per
//! bitstream (Section 4, "Multiple kernel versions").

use altis_data::{Dwt2dParams, InputSize, SeededRng};
use altis_data::paper_scale::dwt2d as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{AccessPattern, OpMix, Scalar};
use hetero_rt::prelude::*;

use crate::common::{egress, fill_rows, AppVersion};

/// Generate the input image, filled across the pool.
pub fn generate_image(p: &Dwt2dParams) -> Vec<f32> {
    let rng = SeededRng::new("dwt2d", p.dim);
    fill_rows(p.dim, p.dim, |first, rows| rng.speckled_rows(p.dim, first, rows))
}

/// 1-D forward CDF 5/3 lifting step on `row` (length must be even):
/// predicts odd samples from even neighbours, updates evens, then packs
/// lowpass | highpass halves.
fn fwd53(row: &mut [f32]) {
    let n = row.len();
    debug_assert!(n.is_multiple_of(2));
    // Predict: d[i] = odd - (even_l + even_r)/2
    for i in (1..n).step_by(2) {
        let l = row[i - 1];
        let r = if i + 1 < n { row[i + 1] } else { row[i - 1] };
        row[i] -= 0.5 * (l + r);
    }
    // Update: s[i] = even + (d_l + d_r)/4
    for i in (0..n).step_by(2) {
        let l = if i > 0 { row[i - 1] } else { row[i + 1] };
        let r = if i + 1 < n { row[i + 1] } else { row[i - 1] };
        row[i] += 0.25 * (l + r);
    }
    // Deinterleave into low | high.
    let mut tmp = vec![0f32; n];
    for i in 0..n / 2 {
        tmp[i] = row[2 * i];
        tmp[n / 2 + i] = row[2 * i + 1];
    }
    row.copy_from_slice(&tmp);
}

/// 1-D inverse CDF 5/3 lifting.
fn inv53(row: &mut [f32]) {
    let n = row.len();
    // Interleave back.
    let mut tmp = vec![0f32; n];
    for i in 0..n / 2 {
        tmp[2 * i] = row[i];
        tmp[2 * i + 1] = row[n / 2 + i];
    }
    row.copy_from_slice(&tmp);
    // Undo update.
    for i in (0..n).step_by(2) {
        let l = if i > 0 { row[i - 1] } else { row[i + 1] };
        let r = if i + 1 < n { row[i + 1] } else { row[i - 1] };
        row[i] -= 0.25 * (l + r);
    }
    // Undo predict.
    for i in (1..n).step_by(2) {
        let l = row[i - 1];
        let r = if i + 1 < n { row[i + 1] } else { row[i - 1] };
        row[i] += 0.5 * (l + r);
    }
}

fn transform_level(img: &mut [f32], full_dim: usize, dim: usize, forward: bool) {
    let mut scratch = vec![0f32; dim];
    if forward {
        // Rows then columns.
        for y in 0..dim {
            scratch.copy_from_slice(
                &img[y * full_dim..y * full_dim + dim],
            );
            fwd53(&mut scratch);
            img[y * full_dim..y * full_dim + dim].copy_from_slice(&scratch);
        }
        for x in 0..dim {
            for y in 0..dim {
                scratch[y] = img[y * full_dim + x];
            }
            fwd53(&mut scratch);
            for y in 0..dim {
                img[y * full_dim + x] = scratch[y];
            }
        }
    } else {
        for x in 0..dim {
            for y in 0..dim {
                scratch[y] = img[y * full_dim + x];
            }
            inv53(&mut scratch);
            for y in 0..dim {
                img[y * full_dim + x] = scratch[y];
            }
        }
        for y in 0..dim {
            scratch.copy_from_slice(&img[y * full_dim..y * full_dim + dim]);
            inv53(&mut scratch);
            img[y * full_dim..y * full_dim + dim].copy_from_slice(&scratch);
        }
    }
}

/// Golden reference: multi-level forward transform.
pub fn golden(p: &Dwt2dParams) -> Vec<f32> {
    let mut img = generate_image(p);
    let mut dim = p.dim;
    for _ in 0..p.levels {
        transform_level(&mut img, p.dim, dim, true);
        dim /= 2;
    }
    img
}

/// Inverse transform: the perfect-reconstruction tests' oracle.
#[cfg(test)]
fn inverse(p: &Dwt2dParams, coeffs: &[f32]) -> Vec<f32> {
    let mut img = coeffs.to_vec();
    let mut dims = Vec::new();
    let mut dim = p.dim;
    for _ in 0..p.levels {
        dims.push(dim);
        dim /= 2;
    }
    for &d in dims.iter().rev() {
        transform_level(&mut img, p.dim, d, false);
    }
    img
}

/// Runtime version: row kernel + column kernel per level. Each row/column
/// is one work-item (the congested-shared-memory structure of the
/// original maps to the per-line lifting here).
pub fn run(q: &Queue, p: &Dwt2dParams, _version: AppVersion) -> Vec<f32> {
    let full = p.dim;
    let img = Buffer::from_vec(generate_image(p));
    let mut dim = p.dim;
    for _ in 0..p.levels {
        let v = img.view();
        q.submit(&[reads_writes(&img)]).parallel_for("dwt_rows", Range::d1(dim), move |it| {
            let y = it.gid(0);
            let mut row = vec![0f32; dim];
            for x in 0..dim {
                row[x] = v.get(y * full + x);
            }
            fwd53(&mut row);
            for x in 0..dim {
                v.set(y * full + x, row[x]);
            }
        });
        let v = img.view();
        q.submit(&[reads_writes(&img)]).parallel_for("dwt_cols", Range::d1(dim), move |it| {
            let x = it.gid(0);
            let mut col = vec![0f32; dim];
            for y in 0..dim {
                col[y] = v.get(y * full + x);
            }
            fwd53(&mut col);
            for y in 0..dim {
                v.set(y * full + x, col[y]);
            }
        });
        dim /= 2;
    }
    egress(img)
}

/// Analytic work profile.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let mut cells = 0u64;
    let mut dim = p.dim as u64;
    for _ in 0..p.levels {
        cells += dim * dim;
        dim /= 2;
    }
    WorkProfile {
        f32_flops: cells * 2 * 6,
        f64_flops: 0,
        global_bytes: cells * 2 * 16,
        kernel_launches: p.levels as u64 * 2,
        transfer_bytes: (p.dim * p.dim * 4) as u64,
        hints: EfficiencyHints { compute: 0.8, memory: 0.5 },
    }
}

/// FPGA design: baseline only — the paper provides no optimized DWT2D
/// FPGA design (its shared memory stayed congested; Section 5.4). Only
/// the two kernels needed for the default algorithm are synthesised out
/// of the original fourteen.
pub fn fpga_design(size: InputSize, optimized: bool, _part: &FpgaPart) -> Option<Design> {
    if optimized {
        return None;
    }
    let p = pparams(size);
    let mk = |name: &str| {
        KernelBuilder::nd_range(name, 64)
            .loop_(
                LoopBuilder::new("line", p.dim as u64)
                    .body(OpMix {
                        f32_ops: 6,
                        global_read_bytes: 8,
                        global_write_bytes: 8,
                        local_reads: 4,
                        local_writes: 2,
                        ..OpMix::default()
                    })
                    .build(),
            )
            .local_array("line_buf", Scalar::F32, p.dim, AccessPattern::Irregular)
            .barriers(4)
            .build()
    };
    // One work-item lifts one full row/column, so the per-invocation
    // item count is the line count, not the cell count.
    Some(
        Design::new(format!("dwt2d-base-{size}"))
            .with(KernelInstance::new(mk("fdwt53_rows")).items(p.dim as u64).invoked(p.levels as u64))
            .with(KernelInstance::new(mk("fdwt53_cols")).items(p.dim as u64).invoked(p.levels as u64)),
    )
}

/// DPCT source model: 14 kernel versions, congested shared memory.
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "dwt2d".into(),
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::UsmMemAdvise,
            Construct::Barrier { provably_local: false, uses_local_scope: true },
            Construct::DynamicLocalAccessor { needed_bytes: 1024 * 4 },
            Construct::WorkGroupSize { size: 256, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dwt2dParams {
        Dwt2dParams { dim: 64, levels: 3 }
    }

    #[test]
    fn runtime_matches_golden() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let r = run(&q, &p, AppVersion::SyclBaseline);
        let g = golden(&p);
        for (a, b) in r.iter().zip(g.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn perfect_reconstruction() {
        // Forward then inverse recovers the input (the CDF 5/3 lifting
        // scheme is exactly invertible up to float rounding).
        let p = tiny();
        let original = generate_image(&p);
        let coeffs = golden(&p);
        let restored = inverse(&p, &coeffs);
        for (a, b) in original.iter().zip(restored.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn lowpass_concentrates_energy() {
        let p = Dwt2dParams { dim: 128, levels: 1 };
        let coeffs = golden(&p);
        let n = p.dim;
        let half = n / 2;
        let e = |x0: usize, y0: usize| -> f64 {
            let mut s = 0.0;
            for y in y0..y0 + half {
                for x in x0..x0 + half {
                    s += (coeffs[y * n + x] as f64).powi(2);
                }
            }
            s
        };
        let ll = e(0, 0);
        let hh = e(half, half);
        assert!(ll > 10.0 * hh, "LL = {ll}, HH = {hh}");
    }

    #[test]
    fn fwd53_preserves_mean_scaling() {
        let mut row: Vec<f32> = vec![4.0; 16];
        fwd53(&mut row);
        // A constant signal has zero highpass coefficients.
        for &h in &row[8..] {
            assert!(h.abs() < 1e-6);
        }
    }

    #[test]
    fn no_optimized_fpga_design_exists() {
        assert!(fpga_design(InputSize::S1, true, &FpgaPart::stratix10()).is_none());
        assert!(fpga_design(InputSize::S1, false, &FpgaPart::stratix10()).is_some());
    }

    #[test]
    fn baseline_fpga_design_fits() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            let d = fpga_design(InputSize::S2, false, &part).unwrap();
            fpga_sim::resources::check_fit(&d, &part).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn prop_fwd_inv_roundtrip() {
        // Seeded SplitMix64 stream stands in for a property-test
        // generator (offline build: no proptest).
        let mut s = 0xD272u64;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..256 {
            let values: Vec<f32> = (0..8)
                .map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32 * 200.0 - 100.0)
                .collect();
            let mut row = values.clone();
            fwd53(&mut row);
            inv53(&mut row);
            for (a, b) in values.iter().zip(row.iter()) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }
}
