//! Where — record filtering for data analytics.
//!
//! Paper relevance: `Where` is the library-dependence case study. Its
//! compaction pipeline needs a prefix-sum; CUDA uses the CUB-style
//! single-pass scan, DPCT migrates it to oneDPL's multi-pass scan (50 %
//! slower on the RTX 2080 — the reason Where is the one application that
//! underperforms across all sizes in Figure 2), and the FPGA version
//! replaces it with the paper's custom unrolled Single-Task scan
//! (Listing 2, up to 100× faster on Stratix 10 than the GPU-shaped one).

use altis_data::{InputSize, SeededRng, WhereParams};
use altis_data::paper_scale::where_q as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::KernelBuilder;
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::OpMix;
use hetero_rt::prelude::*;
use par_dpl::scan::{exclusive_scan, ScanFlavor};

use crate::common::{egress, fill_rows, AppVersion};

/// A data record (the Altis benchmark filters on integer fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Record {
    /// Primary field the predicate tests.
    pub value: u32,
    /// Payload field carried through the filter.
    pub payload: u32,
}

/// Generate the deterministic record table, filled across the pool.
pub fn generate_records(p: &WhereParams) -> Vec<Record> {
    let rng = SeededRng::new("where", p.n_records);
    fill_rows(p.n_records, 1, |first, part| fill_records(&rng, first, part))
}

/// Records `first..first + out.len()` into `out`, one draw each: bit for
/// bit what a serial pass from `rng`'s position puts there.
fn fill_records(rng: &SeededRng, first: usize, out: &mut [Record]) {
    let mut rng = rng.clone();
    rng.advance(first as u64);
    for (i, r) in (first..).zip(out) {
        *r = Record { value: rng.u32(100), payload: i as u32 };
    }
}

/// The benchmark predicate: keep records with `value <` selectivity.
#[inline]
fn predicate(p: &WhereParams, r: &Record) -> bool {
    r.value < p.selectivity_pct
}

/// Golden reference: plain filter.
pub fn golden(p: &WhereParams) -> Vec<Record> {
    generate_records(p)
        .into_iter()
        .filter(|r| predicate(p, r))
        .collect()
}

/// Scan flavour for a version/device combination: CUDA uses CUB, the
/// migrated SYCL uses oneDPL, and FPGA queues use the custom scan.
fn scan_flavor_for(version: AppVersion, device: &Device) -> ScanFlavor {
    if device.is_fpga() {
        ScanFlavor::FpgaCustom
    } else {
        match version {
            AppVersion::Reference => ScanFlavor::Cub,
            AppVersion::SyclBaseline | AppVersion::SyclOptimized => ScanFlavor::OneDpl,
        }
    }
}

/// Runtime version: flag kernel → scan (flavoured) → scatter kernel.
pub fn run(q: &Queue, p: &WhereParams, version: AppVersion) -> Vec<Record> {
    run_staged(q, p, version, |_| {})
}

/// [`run`] with a host hook between the scan and the scatter, handed the
/// flag buffer: the seam the SDC test corrupts a flag through. No array
/// is copied on the way — `values`, `offsets` and `records` are adopted
/// by their buffers, the scan reads the flags in place, the scatter
/// re-views the same flag buffer, and the output moves out.
fn run_staged(
    q: &Queue,
    p: &WhereParams,
    version: AppVersion,
    after_scan: impl FnOnce(&Buffer<u32>),
) -> Vec<Record> {
    let records = generate_records(p);
    let n = records.len();
    let flags_buf = Buffer::<u32>::new(n);
    let values = Buffer::from_vec(records.iter().map(|r| r.value).collect());
    let (fv, vv) = (flags_buf.view(), values.view());
    let sel = p.selectivity_pct;
    // Each work-item flags a contiguous block of records. Scalar on
    // purpose: an 8-wide body measured 1.02–1.62x of this loop, under
    // 1.5x in nine runs of ten (EXPERIMENTS.md "PR 24").
    const FLAG_CHUNK: usize = 4096;
    let range = Range::d1(n.div_ceil(FLAG_CHUNK).max(1));
    q.submit(&[reads(&values), writes(&flags_buf)]).parallel_for("where_flags", range, move |it| {
        let lo = it.gid(0) * FLAG_CHUNK;
        for i in lo..(lo + FLAG_CHUNK).min(n) {
            fv.set(i, u32::from(vv.get(i) < sel));
        }
    });

    // Scan on the host path of the selected library flavour, reading the
    // flags where the kernel left them.
    let mut offsets = vec![0u32; n];
    let total = flags_buf.read(|flags| {
        exclusive_scan(scan_flavor_for(version, q.device()), flags, &mut offsets);
        // A compaction can never select more than its input. Under the SDC
        // fault plans a stuck-at page or bit flip landing in `flags` between
        // launches inflates the scanned sum arbitrarily (up to ~2^32): clamp
        // before sizing the output so a corrupted count cannot demand a
        // multi-gigabyte allocation. The corrupted contents still reach
        // validation, which quarantines on divergence.
        if n == 0 {
            0
        } else {
            ((offsets[n - 1].wrapping_add(flags[n - 1])) as usize).min(n)
        }
    });
    after_scan(&flags_buf);

    // Scatter kernel. A flag that changed since the scan can drop a
    // record, write a slot twice, or point one past `total`, which the
    // checked store refuses: wrong output for validation to reject, never
    // a write out of bounds.
    let out = Buffer::<Record>::new(total.max(1));
    let offs = Buffer::from_vec(offsets);
    let recs = Buffer::from_vec(records);
    let (ov, offv, rv, fv) = (out.view(), offs.view(), recs.view(), flags_buf.view());
    let scatter = move |it: Item| {
        let i = it.gid(0);
        if fv.get(i) == 1 {
            ov.set(offv.get(i) as usize, rv.get(i));
        }
    };
    q.submit(&[reads(&flags_buf), reads(&offs), reads(&recs), writes(&out)])
        .parallel_for("where_scatter", Range::d1(n), scatter);
    let mut result = egress(out);
    result.truncate(total);
    result
}

/// Analytic work profile.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let n = p.n_records as u64;
    WorkProfile {
        f32_flops: 0,
        f64_flops: 0,
        // flags read/write + scan passes + scatter.
        global_bytes: n * (8 + 4 + 12 + 8),
        kernel_launches: 6,
        transfer_bytes: n * 8,
        // Row-wise record access gathers poorly on cache lines.
        hints: EfficiencyHints { compute: 0.8, memory: 0.3 },
    }
}

/// FPGA designs. Baseline keeps the GPU-shaped multi-pass scan (oneDPL
/// has no FPGA specialisation — the paper measures it up to 100× slower
/// than the custom one); optimized uses the Listing-2 custom scan plus
/// compute-unit replication for the flag/scatter kernels (Section 5.5:
/// 2×→4× and 20×→25× between parts).
pub fn fpga_design(size: InputSize, optimized: bool, part: &FpgaPart) -> Design {
    let p = pparams(size);
    let n = p.n_records as u64;
    let is_agilex = part.name == "Agilex";

    let flags = KernelBuilder::nd_range("where_flags", 64)
        .straight_line(OpMix {
            int_ops: 2,
            cmp_sel_ops: 1,
            global_read_bytes: 4,
            global_write_bytes: 4,
            ..OpMix::default()
        })
        .restrict()
        .build();
    let scatter = KernelBuilder::nd_range("where_scatter", 64)
        .straight_line(OpMix {
            int_ops: 2,
            cmp_sel_ops: 1,
            global_read_bytes: 12,
            global_write_bytes: 8,
            ..OpMix::default()
        })
        .restrict()
        .build();

    if !optimized {
        // GPU-shaped work-efficient scan on an FPGA: multiple ND-Range
        // passes with barriers, poorly pipelined — the structural reason
        // it loses 100× to the custom scan.
        let scan_pass = KernelBuilder::nd_range("onedpl_scan_pass", 128)
            .straight_line(OpMix {
                int_ops: 3,
                global_read_bytes: 8,
                global_write_bytes: 4,
                local_reads: 8,
                local_writes: 8,
                ..OpMix::default()
            })
            .local_array(
                "scan_tile",
                hetero_ir::ir::Scalar::I32,
                256,
                hetero_ir::ir::AccessPattern::Regular,
            )
            // A work-efficient scan barriers its tile at every tree
            // level (upsweep + downsweep).
            .barriers(32)
            .build();
        Design::new(format!("where-base-{size}"))
            .with(KernelInstance::new(flags).items(n))
            // Hierarchical scan: local pass, block-sums pass, add pass.
            .with(KernelInstance::new(scan_pass.clone()).items(n).invoked(3))
            .with(KernelInstance::new(scatter).items(n))
    } else {
        let custom_scan = par_dpl::scan::fpga_scan_kernel_ir(n);
        let (cu_flags, cu_scatter) = if is_agilex { (4, 24) } else { (2, 20) };
        Design::new(format!("where-opt-{size}"))
            .with(KernelInstance::new(flags).items(n).replicated(cu_flags))
            .with(KernelInstance::new(custom_scan))
            .with(KernelInstance::new(scatter).items(n).replicated(cu_scatter))
    }
}

/// DPCT source model: the library prefix-sum is the defining construct.
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "where".into(),
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: true },
            Construct::LibraryPrefixSum,
            Construct::UsmMemAdvise,
            Construct::WorkGroupSize { size: 256, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altis_data::where_q as params;

    fn tiny() -> WhereParams {
        WhereParams { n_records: 4096, selectivity_pct: 30 }
    }

    /// The table's specification: one serial pass, one draw per record.
    fn serial_records(n: usize) -> Vec<Record> {
        let mut rng = SeededRng::new("where", n);
        (0..n).map(|i| Record { value: rng.u32(100), payload: i as u32 }).collect()
    }

    #[test]
    fn record_filler_equals_the_serial_table_at_every_split() {
        let n = 45;
        let rng = SeededRng::new("where", n);
        for split in [0, 1, 7, n - 1, n] {
            let mut recs = vec![Record { value: u32::MAX, payload: u32::MAX }; n];
            let (head, tail) = recs.split_at_mut(split);
            fill_records(&rng, 0, head);
            fill_records(&rng, split, tail);
            assert_eq!(recs, serial_records(n), "split at record {split}");
        }
    }

    #[test]
    fn generated_records_equal_the_serial_table() {
        for n in [params(InputSize::S1).n_records, params(InputSize::S2).n_records, 1_237] {
            let p = WhereParams { n_records: n, selectivity_pct: 30 };
            assert!(generate_records(&p) == serial_records(n), "{n} records");
        }
    }

    #[test]
    fn runtime_matches_golden_for_all_versions() {
        let p = tiny();
        let g = golden(&p);
        for (device, version) in [
            (Device::cpu(), AppVersion::Reference),
            (Device::cpu(), AppVersion::SyclBaseline),
            (Device::stratix10(), AppVersion::SyclOptimized),
        ] {
            let q = Queue::new(device);
            assert_eq!(run(&q, &p, version), g);
        }
    }

    #[test]
    fn selectivity_is_roughly_30_percent() {
        let p = params(InputSize::S1);
        let g = golden(&p);
        let frac = g.len() as f64 / p.n_records as f64;
        assert!((frac - 0.30).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn output_preserves_input_order() {
        let p = tiny();
        let g = golden(&p);
        assert!(g.windows(2).all(|w| w[0].payload < w[1].payload));
    }

    #[test]
    fn custom_fpga_scan_crushes_gpu_shaped_scan() {
        // Section 5.3: up to 100× on Stratix 10.
        let part = FpgaPart::stratix10();
        let b = fpga_sim::simulate(&fpga_design(InputSize::S3, false, &part), &part);
        let o = fpga_sim::simulate(&fpga_design(InputSize::S3, true, &part), &part);
        let s = b.total_seconds / o.total_seconds;
        assert!(s > 5.0, "speedup = {s}");
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
    fn flag_flipped_between_scan_and_scatter_ends_typed() {
        // The scatter re-reads the flags the scan already consumed, so a
        // flip in between must stay inside the contract: a typed launch
        // error, or an output that validation rejects — never an untyped
        // panic, never more than the `total <= n` records sized before.
        //
        // The table: one whose last record the predicate drops.
        let p = (4096..)
            .map(|n| WhereParams { n_records: n, selectivity_pct: 30 })
            .find(|p| !predicate(p, generate_records(p).last().unwrap()))
            .unwrap();
        let (g, n) = (golden(&p), p.n_records);
        let q = Queue::new(Device::cpu());
        let run_flipped = |i: usize, to: u32| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_staged(&q, &p, AppVersion::SyclBaseline, |flags| flags.view().set(i, to))
            }))
        };

        // Flagged in after the scan counted it out: the last record's
        // offset is one past the output, which the checked store refuses.
        let payload = run_flipped(n - 1, 1).unwrap_err();
        let e = payload.downcast::<hetero_rt::Error>().expect("typed payload");
        assert!(
            matches!(*e, hetero_rt::Error::AccessOutOfBounds { offset, .. } if offset == g.len()),
            "{e:?}"
        );

        // Flagged out after the scan counted it in: the slot keeps the
        // default record, so the output has the golden's length and one
        // record the suite's validation rejects.
        let kept = g[0].payload as usize;
        let r = run_flipped(kept, 0).expect("a dropped record is not a launch error");
        assert_eq!((r.len(), r[0], &r[1..]), (g.len(), Record::default(), &g[1..]));
    }

    #[test]
    fn empty_input_is_handled() {
        let p = WhereParams { n_records: 0, selectivity_pct: 30 };
        let q = Queue::new(Device::cpu());
        assert!(run(&q, &p, AppVersion::SyclBaseline).is_empty());
    }
}
