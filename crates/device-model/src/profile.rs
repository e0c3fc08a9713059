//! Work profiles: what a whole application run does, in model terms.

/// Application-specific efficiency hints, set by each Altis app to
/// describe how well its kernels map onto a generic device. These are
/// *structural* properties (divergence, access regularity), not
/// per-device fudge factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyHints {
    /// 0..1 — fraction of peak compute reachable given the kernel's
    /// instruction mix and divergence (1.0 = dense regular FMA code;
    /// branch-heavy estimators like ParticleFilter sit much lower).
    pub compute: f64,
    /// 0..1 — fraction of peak bandwidth reachable given access patterns
    /// (1.0 = fully coalesced streaming).
    pub memory: f64,
}

impl Default for EfficiencyHints {
    fn default() -> Self {
        EfficiencyHints { compute: 1.0, memory: 1.0 }
    }
}

/// Aggregate profile of one application run (all kernels, all launches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkProfile {
    /// FP32-equivalent FLOPs executed.
    pub f32_flops: u64,
    /// FP64 FLOPs executed.
    pub f64_flops: u64,
    /// Bytes moved to/from device global memory by kernels.
    pub global_bytes: u64,
    /// Number of kernel launches (each pays the launch overhead).
    pub kernel_launches: u64,
    /// Bytes transferred host↔device outside kernels.
    pub transfer_bytes: u64,
    /// Structural efficiency hints.
    pub hints: EfficiencyHints,
}

impl WorkProfile {
    /// Empty profile (useful as an accumulator seed).
    pub fn empty() -> Self {
        WorkProfile {
            f32_flops: 0,
            f64_flops: 0,
            global_bytes: 0,
            kernel_launches: 0,
            transfer_bytes: 0,
            hints: EfficiencyHints::default(),
        }
    }

    /// Accumulate another profile (kernels of the same run).
    pub fn merged(&self, o: &WorkProfile) -> WorkProfile {
        WorkProfile {
            f32_flops: self.f32_flops + o.f32_flops,
            f64_flops: self.f64_flops + o.f64_flops,
            global_bytes: self.global_bytes + o.global_bytes,
            kernel_launches: self.kernel_launches + o.kernel_launches,
            transfer_bytes: self.transfer_bytes + o.transfer_bytes,
            // Work-weighted hints would need the weights; keep the
            // minimum (conservative) of the two.
            hints: EfficiencyHints {
                compute: self.hints.compute.min(o.hints.compute),
                memory: self.hints.memory.min(o.hints.memory),
            },
        }
    }

    /// Total FLOPs regardless of precision.
    pub fn total_flops(&self) -> u64 {
        self.f32_flops + self.f64_flops
    }

    /// Arithmetic intensity in FLOP per global byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.global_bytes == 0 {
            f64::INFINITY
        } else {
            self.total_flops() as f64 / self.global_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_keeps_conservative_hints() {
        let a = WorkProfile {
            f32_flops: 10,
            hints: EfficiencyHints { compute: 0.9, memory: 0.5 },
            ..WorkProfile::empty()
        };
        let b = WorkProfile {
            f32_flops: 5,
            global_bytes: 100,
            hints: EfficiencyHints { compute: 0.4, memory: 0.8 },
            ..WorkProfile::empty()
        };
        let m = a.merged(&b);
        assert_eq!(m.f32_flops, 15);
        assert_eq!(m.global_bytes, 100);
        assert_eq!(m.hints.compute, 0.4);
        assert_eq!(m.hints.memory, 0.5);
    }

    #[test]
    fn intensity_handles_zero_bytes() {
        let p = WorkProfile { f32_flops: 10, ..WorkProfile::empty() };
        assert!(p.arithmetic_intensity().is_infinite());
    }
}
