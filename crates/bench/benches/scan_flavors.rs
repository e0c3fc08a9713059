//! Micro-benchmark of the host prefix-sum flavours (the Section-3.3 /
//! 5.3 library study): the oneDPL-style two-launch scan, which the CUB
//! flavour also runs on the host (CUB's single-pass saving is a model
//! constant), vs. the sequential custom FPGA scan.

use altis_bench::timing::bench;
use par_dpl::scan::{exclusive_scan_fpga_custom, exclusive_scan_onedpl_style};
use std::hint::black_box;

fn main() {
    for n in [1usize << 16, 1 << 20, 1 << 22] {
        let input: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let mut out = vec![0u32; n];
        bench(&format!("onedpl_two_launch/{n}"), 20, || {
            exclusive_scan_onedpl_style(&input, &mut out);
            black_box(out[n - 1])
        });
        bench(&format!("fpga_custom_sequential/{n}"), 20, || {
            exclusive_scan_fpga_custom(&input, &mut out);
            black_box(out[n - 1])
        });
    }
}
