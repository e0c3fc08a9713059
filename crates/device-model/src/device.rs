//! Device descriptions (the paper's Table 2).
//!
//! Peak numbers are the published Table 2 values. FPGA entries carry a
//! frequency *range*; their actual throughput is decided by `fpga-sim`'s
//! design-specific Fmax model, so the spec here only contributes memory
//! bandwidth and launch behaviour for whole-application estimates.

/// Broad class used by the roofline to pick efficiency defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Multicore CPU.
    Cpu,
    /// Discrete GPU.
    Gpu,
    /// FPGA accelerator card.
    Fpga,
}

/// Static capability description of one accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name as used in the paper.
    pub name: &'static str,
    /// Device class.
    pub class: DeviceClass,
    /// Process node in nm (Table 2, reported for context only).
    pub process_nm: u32,
    /// Compute-unit description string (Table 2 column).
    pub compute_units: &'static str,
    /// Peak FP32 throughput in GFLOP/s.
    pub peak_f32_gflops: f64,
    /// Peak FP64 throughput in GFLOP/s.
    pub peak_f64_gflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub peak_mem_bw_gbs: f64,
    /// Host↔device interconnect bandwidth in GB/s (PCIe for all of the
    /// paper's accelerators; effectively infinite for the CPU itself).
    pub pcie_bw_gbs: f64,
    /// Fraction of peak compute a well-tuned dense kernel achieves.
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth a streaming kernel achieves.
    pub mem_efficiency: f64,
}

impl DeviceSpec {
    /// Xeon Gold 6128 (Table 2 row 1): 6 cores, 1.1 TFLOP/s, 128 GB/s.
    ///
    /// The efficiency factors are deliberately low: the Figure-5 CPU
    /// baseline is the *SYCL* suite running on the CPU OpenCL/TBB
    /// backend, which realises only a small fraction of the AVX-512
    /// peak on SIMT-shaped kernels. (This is the only way the paper's
    /// own data can be consistent — FPGAs with 77 GB/s beating a
    /// 128 GB/s CPU on memory-bound kernels requires the CPU software
    /// stack, not the silicon, to be the limiter.)
    pub fn xeon_gold_6128() -> Self {
        DeviceSpec {
            name: "Xeon Gold 6128 CPU",
            class: DeviceClass::Cpu,
            process_nm: 14,
            compute_units: "6 Cores",
            peak_f32_gflops: 1_100.0,
            // AVX-512 FP64 is half the FP32 rate.
            peak_f64_gflops: 550.0,
            peak_mem_bw_gbs: 128.0,
            pcie_bw_gbs: f64::INFINITY,
            compute_efficiency: 0.15,
            mem_efficiency: 0.35,
        }
    }

    /// RTX 2080 (Table 2 row 2): 46 SMs, 10.1 TFLOP/s, 448 GB/s.
    pub fn rtx_2080() -> Self {
        DeviceSpec {
            name: "RTX 2080 GPU",
            class: DeviceClass::Gpu,
            process_nm: 12,
            compute_units: "46 SMs",
            peak_f32_gflops: 10_100.0,
            // Consumer Turing: FP64 at 1/32 of FP32.
            peak_f64_gflops: 10_100.0 / 32.0,
            peak_mem_bw_gbs: 448.0,
            pcie_bw_gbs: 12.0,
            compute_efficiency: 0.60,
            mem_efficiency: 0.75,
        }
    }

    /// A100 (Table 2 row 3): 108 SMs, 19.5 TFLOP/s, 1555 GB/s.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100 GPU",
            class: DeviceClass::Gpu,
            process_nm: 7,
            compute_units: "108 SMs",
            peak_f32_gflops: 19_500.0,
            // A100 FP64 (non-tensor) is 9.7 TFLOP/s.
            peak_f64_gflops: 9_700.0,
            peak_mem_bw_gbs: 1_555.0,
            pcie_bw_gbs: 24.0,
            compute_efficiency: 0.60,
            mem_efficiency: 0.80,
        }
    }

    /// Data Center GPU Max 1100 "Ponte Vecchio" (Table 2 row 4):
    /// 56 Xe-cores, 22.2 TFLOP/s, 1229 GB/s.
    pub fn max_1100() -> Self {
        DeviceSpec {
            name: "Max 1100 GPU",
            class: DeviceClass::Gpu,
            process_nm: 10,
            compute_units: "56 Xe-cores",
            peak_f32_gflops: 22_200.0,
            // PVC runs FP64 at the FP32 rate.
            peak_f64_gflops: 22_200.0,
            peak_mem_bw_gbs: 1_229.0,
            pcie_bw_gbs: 24.0,
            compute_efficiency: 0.55,
            mem_efficiency: 0.75,
        }
    }

    /// BittWare 520N Stratix 10 (Table 2 row 5): 4713 user DSPs,
    /// 2.4–4.2 TFLOP/s attainable, 76.8 GB/s.
    pub fn stratix10() -> Self {
        DeviceSpec {
            name: "Stratix 10 FPGA",
            class: DeviceClass::Fpga,
            process_nm: 14,
            compute_units: "4713 DSPs (user logic)",
            // Midpoint of the attainable range; fpga-sim supplies
            // design-specific throughput where it matters.
            peak_f32_gflops: 3_300.0,
            peak_f64_gflops: 825.0,
            peak_mem_bw_gbs: 76.8,
            pcie_bw_gbs: 12.0,
            compute_efficiency: 0.80,
            mem_efficiency: 0.85,
        }
    }

    /// DE10 Agilex (Table 2 row 6): 4510 user DSPs, 2.3–5.0 TFLOP/s
    /// attainable, 85.3 GB/s.
    pub fn agilex() -> Self {
        DeviceSpec {
            name: "Agilex FPGA",
            class: DeviceClass::Fpga,
            process_nm: 10,
            compute_units: "4510 DSPs (user logic)",
            peak_f32_gflops: 3_650.0,
            peak_f64_gflops: 912.0,
            peak_mem_bw_gbs: 85.3,
            pcie_bw_gbs: 12.0,
            compute_efficiency: 0.80,
            mem_efficiency: 0.85,
        }
    }

    /// All six Table-2 devices, in the paper's row order.
    pub fn table2() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::xeon_gold_6128(),
            DeviceSpec::rtx_2080(),
            DeviceSpec::a100(),
            DeviceSpec::max_1100(),
            DeviceSpec::stratix10(),
            DeviceSpec::agilex(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_six_devices_in_paper_order() {
        let t = DeviceSpec::table2();
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].name, "Xeon Gold 6128 CPU");
        assert_eq!(t[1].name, "RTX 2080 GPU");
        assert_eq!(t[5].name, "Agilex FPGA");
    }

    #[test]
    fn peak_numbers_match_table2() {
        assert_eq!(DeviceSpec::rtx_2080().peak_f32_gflops, 10_100.0);
        assert_eq!(DeviceSpec::a100().peak_mem_bw_gbs, 1_555.0);
        assert_eq!(DeviceSpec::max_1100().peak_f32_gflops, 22_200.0);
        assert_eq!(DeviceSpec::stratix10().peak_mem_bw_gbs, 76.8);
        assert_eq!(DeviceSpec::agilex().peak_mem_bw_gbs, 85.3);
        assert_eq!(DeviceSpec::xeon_gold_6128().peak_mem_bw_gbs, 128.0);
    }

    #[test]
    fn fpga_bandwidth_is_the_bottleneck_story() {
        // The paper's size-3 conclusion rests on FPGAs having an order of
        // magnitude less memory bandwidth than the HBM GPUs.
        let s10 = DeviceSpec::stratix10();
        let a100 = DeviceSpec::a100();
        assert!(a100.peak_mem_bw_gbs / s10.peak_mem_bw_gbs > 15.0);
    }

    #[test]
    fn fp64_ratios_differ_by_class() {
        // RTX 2080 crawls at FP64; PVC runs it at full rate.
        let rtx = DeviceSpec::rtx_2080();
        assert!(rtx.peak_f64_gflops < rtx.peak_f32_gflops / 30.0);
        let pvc = DeviceSpec::max_1100();
        assert_eq!(pvc.peak_f64_gflops, pvc.peak_f32_gflops);
    }
}
