//! Prefix-sum (scan) implementations in three flavours.
//!
//! * [`exclusive_scan_onedpl_style`] — the work-efficient multi-pass
//!   parallel scan a GPU library ships: per-chunk reduction pass, scan of
//!   chunk totals, then a per-chunk scan-and-add pass. Reads the input
//!   twice and writes once → more memory traffic than a single-pass scan,
//!   the structural reason the paper measures it 50 % slower than CUB on
//!   the RTX 2080.
//! * [`exclusive_scan_cub_style`] — single-pass chained scan in the
//!   spirit of CUB's decoupled look-back: chunks are scanned once, with
//!   each chunk consuming its predecessor's running total as soon as it
//!   is published. One read and one write per element.
//! * [`exclusive_scan_fpga_custom`] — the paper's Listing 2: a
//!   Single-Task sequential recurrence with an unroll hint, II = 1. On
//!   the host this is a plain sequential scan; its FPGA cost comes from
//!   the IR descriptor in [`fpga_scan_kernel_ir`].

use std::sync::atomic::{AtomicU64, Ordering};

use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::ir::{Kernel, OpMix};

/// Which scan implementation a caller selected (plumbs through `Where`'s
/// device-specific dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanFlavor {
    /// oneDPL-style multi-pass parallel scan (GPU default after DPCT).
    OneDpl,
    /// CUB-style single-pass scan (CUDA's library).
    Cub,
    /// The paper's custom FPGA Single-Task scan (Listing 2).
    FpgaCustom,
}


/// oneDPL-style exclusive scan: three phases, two full input reads.
pub fn exclusive_scan_onedpl_style(input: &[u32], output: &mut [u32]) {
    assert_eq!(input.len(), output.len(), "scan length mismatch");
    let n = input.len();
    if n == 0 {
        return;
    }
    let threads = crate::util::thread_count_for(n, 4096);
    let chunk = n.div_ceil(threads);

    // Phase 1: per-chunk reduction (first read of the input), on the
    // persistent runtime pool — no threads spawned per pass.
    let mut totals = vec![0u32; threads];
    hetero_rt::pool::parallel_parts(&mut totals, threads, |t, total| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        if lo < hi {
            *total = input[lo..hi].iter().fold(0u32, |a, &b| a.wrapping_add(b));
        }
    });

    // Phase 2: exclusive scan of chunk totals (tiny, sequential).
    let mut offsets = vec![0u32; threads];
    let mut acc = 0u32;
    for (o, &t) in offsets.iter_mut().zip(totals.iter()) {
        *o = acc;
        acc = acc.wrapping_add(t);
    }

    // Phase 3: per-chunk exclusive scan + offset (second read, one
    // write).
    let mut parts: Vec<&mut [u32]> = output.chunks_mut(chunk).collect();
    hetero_rt::pool::parallel_parts(&mut parts, threads, |t, out_chunk| {
        let lo = t * chunk;
        let mut run = offsets[t];
        for (o, &x) in out_chunk.iter_mut().zip(&input[lo..]) {
            *o = run;
            run = run.wrapping_add(x);
        }
    });
}

/// CUB-style single-pass chained exclusive scan: each chunk scans its
/// data once and publishes its running total; the next chunk spins until
/// the predecessor total is available (decoupled look-back, simplified
/// to chained look-back).
pub fn exclusive_scan_cub_style(input: &[u32], output: &mut [u32]) {
    assert_eq!(input.len(), output.len(), "scan length mismatch");
    let n = input.len();
    if n == 0 {
        return;
    }
    let threads = crate::util::thread_count_for(n, 4096);
    let chunk = n.div_ceil(threads);

    // published[t] = 1 + inclusive running total of chunks 0..=t
    // (0 = not yet published). Using +1 lets 0 mean "pending" while
    // still supporting genuine zero totals; u64 so the +1 cannot wrap
    // even when the u32 total is at its maximum.
    let published: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();

    // Runs on the persistent pool in *ordered* mode. The spin-wait on
    // the predecessor is only safe when part indices are handed out in
    // globally ascending order: by the time any thread works on chunk t,
    // chunk t-1 has already been claimed by a running thread that will
    // publish. The default stealing mode breaks that (a thief can hold
    // chunk t while t-1 is unclaimed and every other thread is spinning),
    // so this is the one caller of `parallel_parts_ordered`.
    let mut parts: Vec<&mut [u32]> = output.chunks_mut(chunk).collect();
    hetero_rt::pool::parallel_parts_ordered(&mut parts, threads, |t, out_chunk| {
        let lo = t * chunk;
        // Single pass over own chunk: exclusive scan into output
        // while computing the chunk total.
        let mut local = 0u32;
        for (k, o) in out_chunk.iter_mut().enumerate() {
            *o = local;
            local = local.wrapping_add(input[lo + k]);
        }
        // Wait for predecessor's running total (chunk 0 starts).
        let prefix = if t == 0 {
            0u32
        } else {
            loop {
                let v = published[t - 1].load(Ordering::Acquire);
                if v != 0 {
                    break (v - 1) as u32;
                }
                std::hint::spin_loop();
            }
        };
        // Publish own inclusive total for the successor.
        published[t].store(1 + u64::from(prefix.wrapping_add(local)), Ordering::Release);
        // Add the prefix to the chunk.
        if prefix != 0 {
            for o in out_chunk.iter_mut() {
                *o = o.wrapping_add(prefix);
            }
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
        ScanFlavor::OneDpl => exclusive_scan_onedpl_style(input, output),
        ScanFlavor::Cub => exclusive_scan_cub_style(input, output),
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
        let mut a = vec![0; input.len()];
        exclusive_scan_onedpl_style(&input, &mut a);
        assert_eq!(a, expect);
        let mut b = vec![0; input.len()];
        exclusive_scan_cub_style(&input, &mut b);
        assert_eq!(b, expect);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut out: Vec<u32> = vec![];
        exclusive_scan_cub_style(&[], &mut out);
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
