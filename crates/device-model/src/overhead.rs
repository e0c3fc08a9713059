//! Runtime-flavour overhead model.
//!
//! The paper's Figure 1 decomposes FDTD2D time into kernel and non-kernel
//! regions and finds the SYCL non-kernel region ~6.7× larger than CUDA's
//! at small sizes, caused by the oneAPI environment's extra underlying
//! CUDA API calls for context/event management plus JIT compilation. We
//! model each runtime flavour with three parameters: a fixed per-run
//! cost, a per-launch cost, and an interconnect efficiency for transfers.

use crate::device::DeviceSpec;
use crate::profile::WorkProfile;

/// The software stack a measurement runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeFlavor {
    /// Native CUDA (the original Altis).
    Cuda,
    /// DPC++/SYCL running over the CUDA backend (the migrated suite on
    /// the RTX 2080) — extra context/event management per launch and a
    /// larger fixed JIT/context cost per run.
    SyclOnCuda,
    /// DPC++/SYCL on a native Level-Zero/OpenCL backend (Intel GPUs and
    /// CPUs).
    SyclNative,
    /// SYCL on FPGA: the bitstream is compiled ahead of time, but the
    /// *first* enqueue pays board bring-up; per-launch costs are low.
    SyclFpga,
}

/// Overhead parameters of one flavour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OverheadModel {
    /// Fixed cost per application run (context creation, JIT, board
    /// bring-up), in microseconds.
    pub fixed_us: f64,
    /// Cost per kernel launch, in microseconds.
    pub per_launch_us: f64,
    /// Multiplier on transfer time (API inefficiency; 1.0 = raw PCIe).
    pub transfer_factor: f64,
    /// Fraction of the device's *achievable* (memcpy-measured) memory
    /// bandwidth this flavour's data path realises on a converted
    /// streaming kernel. Distinct from [`crate::DeviceSpec`]'s
    /// `mem_efficiency` (silicon + generic software ceiling): this is
    /// the runtime-flavour share of that ceiling, and it is measurable —
    /// the `roofline` bench reports each converted kernel's GB/s against
    /// the pool-parallel memcpy peak, and the native-CPU value below is
    /// anchored to its best stencil row (`fdtd2d_step` in
    /// `BENCH_roofline.json`).
    pub achieved_bw_fraction: f64,
}

impl RuntimeFlavor {
    /// The calibrated overhead model of this flavour.
    ///
    /// Calibration anchors (Figure 1, FDTD2D on the RTX 2080, with
    /// ~300 launches at size 1 and ~3000 at size 3):
    /// * CUDA non-kernel ≈ 0.4 ms at size 1 → ≈ 1 µs per stream launch
    ///   plus a small fixed context cost,
    /// * SYCL non-kernel ≈ 2.7 ms at size 1 (≈ 6.7× CUDA's) — the extra
    ///   context/event-management CUDA API calls the paper profiles put
    ///   most of the cost on the per-launch path.
    fn overheads(self) -> OverheadModel {
        match self {
            RuntimeFlavor::Cuda => OverheadModel {
                fixed_us: 40.0,
                per_launch_us: 1.0,
                transfer_factor: 1.0,
                // Mature driver, coalesced loads: most of memcpy.
                achieved_bw_fraction: 0.80,
            },
            RuntimeFlavor::SyclOnCuda => OverheadModel {
                fixed_us: 300.0,
                per_launch_us: 8.0,
                transfer_factor: 1.3,
                achieved_bw_fraction: 0.70,
            },
            RuntimeFlavor::SyclNative => OverheadModel {
                fixed_us: 200.0,
                per_launch_us: 4.0,
                transfer_factor: 1.1,
                // Measured: the FDTD2D stencil reaches
                // 0.44 of the pool-parallel memcpy peak (`roofline`
                // bench, BENCH_roofline.json, `frac_of_peak`).
                achieved_bw_fraction: 0.44,
            },
            RuntimeFlavor::SyclFpga => OverheadModel {
                // Bitstreams are compiled ahead of time; per-run cost is
                // board synchronisation only.
                fixed_us: 200.0,
                per_launch_us: 3.0,
                transfer_factor: 1.2,
                // A deep II=1 pipeline streams one load/store unit; the
                // paper's FPGA designs leave most DDR channels idle.
                achieved_bw_fraction: 0.25,
            },
        }
    }
}

/// Non-kernel time of a run, in seconds: fixed + launches + transfers.
pub fn non_kernel_seconds(
    profile: &WorkProfile,
    device: &DeviceSpec,
    flavor: RuntimeFlavor,
) -> f64 {
    let o = flavor.overheads();
    let launch_s = (o.fixed_us + o.per_launch_us * profile.kernel_launches as f64) * 1e-6;
    let transfer_s = if device.pcie_bw_gbs.is_infinite() {
        0.0
    } else {
        o.transfer_factor * profile.transfer_bytes as f64 / (device.pcie_bw_gbs * 1e9)
    };
    launch_s + transfer_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(launches: u64, transfer_bytes: u64) -> WorkProfile {
        WorkProfile {
            kernel_launches: launches,
            transfer_bytes,
            ..WorkProfile::empty()
        }
    }

    #[test]
    fn sycl_on_cuda_has_higher_overheads_than_cuda() {
        let c = RuntimeFlavor::Cuda.overheads();
        let s = RuntimeFlavor::SyclOnCuda.overheads();
        assert!(s.fixed_us > c.fixed_us);
        assert!(s.per_launch_us > c.per_launch_us);
        assert!(s.transfer_factor > c.transfer_factor);
    }

    #[test]
    fn achieved_bandwidth_fractions_are_ordered_and_sane() {
        let flavors = [
            RuntimeFlavor::Cuda,
            RuntimeFlavor::SyclOnCuda,
            RuntimeFlavor::SyclNative,
            RuntimeFlavor::SyclFpga,
        ];
        for f in flavors {
            let o = f.overheads();
            assert!(o.achieved_bw_fraction > 0.0 && o.achieved_bw_fraction < 1.0, "{f:?}");
        }
        // FPGA-vs-CPU comparisons rest on this ordering: a single deep
        // pipeline streams a smaller share of its DDR peak than the
        // lane-vectorized CPU data path streams of its memcpy peak.
        let cpu = RuntimeFlavor::SyclNative.overheads();
        let fpga = RuntimeFlavor::SyclFpga.overheads();
        assert!(fpga.achieved_bw_fraction < cpu.achieved_bw_fraction);
        // The CPU value is a measurement, not a guess: pinned to the
        // roofline bench's fdtd2d_step `frac_of_peak`.
        assert_eq!(cpu.achieved_bw_fraction, 0.44);
    }

    #[test]
    fn figure1_shape_small_size_overhead_dominates_sycl() {
        // With the launch count of FDTD2D size 1 (~300) and little data,
        // SYCL's non-kernel region is several times CUDA's (paper: ~6.7×
        // at size 1).
        let dev = DeviceSpec::rtx_2080();
        let p = profile(300, 800_000);
        let cuda = non_kernel_seconds(&p, &dev, RuntimeFlavor::Cuda);
        let sycl = non_kernel_seconds(&p, &dev, RuntimeFlavor::SyclOnCuda);
        let ratio = sycl / cuda;
        assert!(ratio > 4.0 && ratio < 12.0, "ratio = {ratio}");
    }

    #[test]
    fn launch_heavy_runs_scale_with_launch_count() {
        let dev = DeviceSpec::rtx_2080();
        let few = non_kernel_seconds(&profile(10, 0), &dev, RuntimeFlavor::SyclOnCuda);
        let many = non_kernel_seconds(&profile(2_000, 0), &dev, RuntimeFlavor::SyclOnCuda);
        assert!(many > 10.0 * few);
    }

    #[test]
    fn cpu_pays_no_transfer_cost() {
        let cpu = DeviceSpec::xeon_gold_6128();
        let t = non_kernel_seconds(&profile(1, 1 << 30), &cpu, RuntimeFlavor::SyclNative);
        // Only fixed + one launch.
        assert!(t < 2e-3);
    }
}
