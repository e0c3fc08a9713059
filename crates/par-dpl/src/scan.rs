//! Prefix-sum (scan) implementations.
//!
//! * [`exclusive_scan_onedpl_style`] — the work-efficient multi-pass
//!   scan a GPU library ships, as two launches: each block's total, a
//!   host scan of the totals, then each block scanned from its offset.
//!   It reads the input twice and writes once. `ScanFlavor::Cub` runs it
//!   too: CUB's single-pass chained scan saves the first read, which the
//!   paper measures as oneDPL being 50 % slower on the RTX 2080, and
//!   Figure 2 takes that factor from `core::migration`'s calibrated
//!   penalty, not from a host timing.
//! * [`exclusive_scan_fpga_custom`] — the paper's Listing 2: a
//!   Single-Task sequential recurrence with an unroll hint, II = 1. On
//!   the host this is a plain sequential scan; its FPGA cost comes from
//!   the IR descriptor in [`fpga_scan_kernel_ir`].

use std::sync::{Mutex, PoisonError};

use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::ir::{Kernel, OpMix};
use hetero_rt::{reads, writes, Buffer};

use crate::util::{block, for_blocks, BLOCK};

/// Which scan implementation a caller selected (plumbs through `Where`'s
/// device-specific dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanFlavor {
    /// oneDPL-style multi-pass parallel scan (GPU default after DPCT).
    OneDpl,
    /// CUB-style single-pass scan (CUDA's library); runs the oneDPL scan
    /// on the host, its pass saving is modelled.
    Cub,
    /// The paper's custom FPGA Single-Task scan (Listing 2).
    FpgaCustom,
}

/// oneDPL-style exclusive scan: a block-totals launch, a host scan of
/// the totals, then a scan-and-add launch.
pub fn exclusive_scan_onedpl_style(input: &[u32], output: &mut [u32]) {
    assert_eq!(input.len(), output.len(), "scan length mismatch");
    let blocks = input.len().div_ceil(BLOCK);
    let offsets = Buffer::<u32>::new(blocks);
    let ov = offsets.view();
    for_blocks("scan_block_totals", blocks, &[writes(&offsets)], |b| {
        ov.set(b, block(input, BLOCK, b).iter().fold(0u32, |a, &x| a.wrapping_add(x)));
    });
    offsets.write(|o| {
        let mut acc = 0u32;
        for t in o.iter_mut() {
            (*t, acc) = (acc, acc.wrapping_add(*t));
        }
    });
    // Each block's output is taken by one work-group, so its lock is
    // never contended.
    let outs: Vec<Mutex<&mut [u32]>> = output.chunks_mut(BLOCK).map(Mutex::new).collect();
    for_blocks("scan_and_add", blocks, &[reads(&offsets)], |b| {
        let mut out = outs[b].lock().unwrap_or_else(PoisonError::into_inner);
        let mut run = ov.get(b);
        for (o, &x) in out.iter_mut().zip(block(input, BLOCK, b)) {
            *o = run;
            run = run.wrapping_add(x);
        }
    });
}

/// The paper's custom FPGA scan (Listing 2): a Single-Task sequential
/// recurrence, unrolled by 2 in hardware. Functionally it is a plain
/// exclusive scan; note the paper's code computes
/// `prefix[i] = prefix[i-1] + results[i]`, i.e. an exclusive scan that
/// skips `results[0]` — we reproduce the standard exclusive semantics
/// the surrounding `Where` code expects.
pub fn exclusive_scan_fpga_custom(input: &[u32], output: &mut [u32]) {
    assert_eq!(input.len(), output.len(), "scan length mismatch");
    let mut run = 0u32;
    for (o, &i) in output.iter_mut().zip(input.iter()) {
        *o = run;
        run = run.wrapping_add(i);
    }
}

/// Kernel-IR descriptor of the custom FPGA scan over `n` elements:
/// a Single-Task loop with II = 1, unroll 2, restrict args, reading 4 B
/// and writing 4 B per iteration — exactly Listing 2's attributes.
pub fn fpga_scan_kernel_ir(n: u64) -> Kernel {
    let body = OpMix {
        int_ops: 1,
        global_read_bytes: 4,
        global_write_bytes: 4,
        ..OpMix::default()
    };
    let l = LoopBuilder::new("scan", n)
        .body(body)
        .ii(1)
        .unroll(2)
        .loop_carried_dep() // the recurrence — but an integer add chain
        .build();
    // Integer accumulation closes timing at II=1 on these parts (unlike
    // FP); the explicit ii(1) attribute records the author's request.
    KernelBuilder::single_task("exclusive_scan_custom")
        .loop_(l)
        .restrict()
        .build()
}

/// Dispatch helper used by `Where`.
pub fn exclusive_scan(flavor: ScanFlavor, input: &[u32], output: &mut [u32]) {
    match flavor {
        ScanFlavor::OneDpl | ScanFlavor::Cub => exclusive_scan_onedpl_style(input, output),
        ScanFlavor::FpgaCustom => exclusive_scan_fpga_custom(input, output),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_exclusive(input: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u32;
        for &x in input {
            out.push(acc);
            acc = acc.wrapping_add(x);
        }
        out
    }

    #[test]
    fn all_flavors_match_naive_on_small_input() {
        let input: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let expect = naive_exclusive(&input);
        for flavor in [ScanFlavor::OneDpl, ScanFlavor::Cub, ScanFlavor::FpgaCustom] {
            let mut out = vec![0; input.len()];
            exclusive_scan(flavor, &input, &mut out);
            assert_eq!(out, expect, "{flavor:?}");
        }
    }

    #[test]
    fn large_input_parallel_flavors_agree() {
        let input: Vec<u32> = (0..1_000_003).map(|i| (i % 7) as u32).collect();
        let expect = naive_exclusive(&input);
        for flavor in [ScanFlavor::OneDpl, ScanFlavor::Cub] {
            let mut out = vec![0; input.len()];
            exclusive_scan(flavor, &input, &mut out);
            assert_eq!(out, expect, "{flavor:?}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut out: Vec<u32> = vec![];
        exclusive_scan_onedpl_style(&[], &mut out);
        assert!(out.is_empty());
        let mut out = vec![99u32];
        exclusive_scan_onedpl_style(&[42], &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn wrapping_behaviour_is_consistent() {
        let input = vec![u32::MAX, 2, u32::MAX, 7];
        let expect = naive_exclusive(&input);
        for flavor in [ScanFlavor::OneDpl, ScanFlavor::Cub, ScanFlavor::FpgaCustom] {
            let mut out = vec![0; input.len()];
            exclusive_scan(flavor, &input, &mut out);
            assert_eq!(out, expect, "{flavor:?}");
        }
    }

    #[test]
    fn fpga_scan_ir_matches_listing2() {
        let k = fpga_scan_kernel_ir(1 << 20);
        assert!(k.args_restrict);
        assert_eq!(k.loops.len(), 1);
        let l = &k.loops[0];
        assert_eq!(l.attrs.initiation_interval, Some(1));
        assert_eq!(l.attrs.unroll, 2);
        assert_eq!(l.trip_count, 1 << 20);
    }

    #[test]
    fn prop_flavors_agree_with_naive() {
        let mut g = crate::testgen::Gen::new(0x5CA7);
        for _ in 0..crate::testgen::cases(64) {
            let input = g.u32_vec(0, 2000, 1000);
            let expect = naive_exclusive(&input);
            for flavor in [ScanFlavor::OneDpl, ScanFlavor::Cub, ScanFlavor::FpgaCustom] {
                let mut out = vec![0; input.len()];
                exclusive_scan(flavor, &input, &mut out);
                assert_eq!(out, expect, "{flavor:?}, n = {}", input.len());
            }
        }
    }
}
