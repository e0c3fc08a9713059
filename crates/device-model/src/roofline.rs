//! Roofline time estimation.
//!
//! Kernel time is `max(compute_time, memory_time)` with device and
//! application efficiency factors; non-kernel time comes from the
//! overhead model. The split mirrors the paper's Figure 1 decomposition
//! and lets Figure 2 and Figure 5 be computed from the same profiles.

use crate::device::DeviceSpec;
use crate::overhead::{non_kernel_seconds, RuntimeFlavor};
use crate::profile::WorkProfile;

/// Estimated run time, decomposed as in the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Kernel execution time, seconds.
    pub kernel_s: f64,
    /// Non-kernel time (launch overheads, transfers, runtime fixed
    /// costs), seconds.
    pub non_kernel_s: f64,
}

impl TimeBreakdown {
    /// Total run time, seconds.
    fn total_s(&self) -> f64 {
        self.kernel_s + self.non_kernel_s
    }

    /// Total in milliseconds (the unit of Figure 1).
    pub fn total_ms(&self) -> f64 {
        self.total_s() * 1e3
    }
}

/// Estimate the run time of `profile` on `device` under `flavor`.
pub fn estimate(
    profile: &WorkProfile,
    device: &DeviceSpec,
    flavor: RuntimeFlavor,
) -> TimeBreakdown {
    let eff_compute = device.compute_efficiency * profile.hints.compute;
    let eff_mem = device.mem_efficiency * profile.hints.memory;

    // Compute time: FP32 and FP64 queue on their respective pipes.
    let f32_s = profile.f32_flops as f64 / (device.peak_f32_gflops * 1e9 * eff_compute.max(1e-6));
    let f64_s = profile.f64_flops as f64 / (device.peak_f64_gflops * 1e9 * eff_compute.max(1e-6));
    let compute_s = f32_s + f64_s;

    let memory_s = profile.global_bytes as f64 / (device.peak_mem_bw_gbs * 1e9 * eff_mem.max(1e-6));

    TimeBreakdown {
        kernel_s: compute_s.max(memory_s),
        non_kernel_s: non_kernel_seconds(profile, device, flavor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EfficiencyHints;

    fn streaming_profile(bytes: u64) -> WorkProfile {
        WorkProfile {
            f32_flops: bytes / 4, // 0.25 flop/byte: memory-bound
            global_bytes: bytes,
            kernel_launches: 10,
            ..WorkProfile::empty()
        }
    }

    fn compute_profile(flops: u64) -> WorkProfile {
        WorkProfile {
            f32_flops: flops,
            global_bytes: flops / 100, // 100 flop/byte: compute-bound
            kernel_launches: 10,
            ..WorkProfile::empty()
        }
    }

    #[test]
    fn memory_bound_kernels_follow_bandwidth_ordering() {
        // A100 (1555 GB/s) must beat RTX 2080 (448) must beat
        // Stratix 10 (76.8) on a streaming kernel.
        let p = streaming_profile(1 << 30);
        let t_a100 = estimate(&p, &DeviceSpec::a100(), RuntimeFlavor::SyclOnCuda).kernel_s;
        let t_rtx = estimate(&p, &DeviceSpec::rtx_2080(), RuntimeFlavor::SyclOnCuda).kernel_s;
        let t_s10 = estimate(&p, &DeviceSpec::stratix10(), RuntimeFlavor::SyclFpga).kernel_s;
        assert!(t_a100 < t_rtx && t_rtx < t_s10);
    }

    #[test]
    fn compute_bound_kernels_follow_flops_ordering() {
        let p = compute_profile(1 << 36);
        let t_pvc = estimate(&p, &DeviceSpec::max_1100(), RuntimeFlavor::SyclNative).kernel_s;
        let t_rtx = estimate(&p, &DeviceSpec::rtx_2080(), RuntimeFlavor::SyclOnCuda).kernel_s;
        let t_cpu = estimate(&p, &DeviceSpec::xeon_gold_6128(), RuntimeFlavor::SyclNative).kernel_s;
        assert!(t_pvc < t_rtx && t_rtx < t_cpu);
    }

    #[test]
    fn fp64_punishes_consumer_gpus() {
        let p64 = WorkProfile { f64_flops: 1 << 33, kernel_launches: 1, ..WorkProfile::empty() };
        let rtx = estimate(&p64, &DeviceSpec::rtx_2080(), RuntimeFlavor::SyclOnCuda).kernel_s;
        let pvc = estimate(&p64, &DeviceSpec::max_1100(), RuntimeFlavor::SyclNative).kernel_s;
        assert!(rtx > 20.0 * pvc);
    }

    #[test]
    fn hints_scale_kernel_time() {
        let base = compute_profile(1 << 32);
        let hinted = WorkProfile { hints: EfficiencyHints { compute: 0.5, memory: 1.0 }, ..base };
        let dev = DeviceSpec::rtx_2080();
        let t0 = estimate(&base, &dev, RuntimeFlavor::Cuda).kernel_s;
        let t1 = estimate(&hinted, &dev, RuntimeFlavor::Cuda).kernel_s;
        assert!((t1 / t0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn small_problems_are_overhead_dominated() {
        // The Figure-5 small-size story: on a tiny problem the GPU's
        // advantage disappears because non-kernel time dominates.
        let tiny = WorkProfile {
            f32_flops: 1 << 18,
            global_bytes: 1 << 16,
            kernel_launches: 100,
            transfer_bytes: 1 << 16,
            ..WorkProfile::empty()
        };
        let t = estimate(&tiny, &DeviceSpec::a100(), RuntimeFlavor::SyclOnCuda);
        assert!(t.non_kernel_s > 10.0 * t.kernel_s);
    }

    #[test]
    fn breakdown_total_adds_up() {
        let p = streaming_profile(1 << 24);
        let t = estimate(&p, &DeviceSpec::rtx_2080(), RuntimeFlavor::Cuda);
        assert!((t.total_s() - (t.kernel_s + t.non_kernel_s)).abs() < 1e-15);
        assert!((t.total_ms() - t.total_s() * 1e3).abs() < 1e-12);
    }
}
