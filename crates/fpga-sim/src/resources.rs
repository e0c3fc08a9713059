//! Resource estimation: ALM / BRAM (M20K) / DSP usage of a design.
//!
//! The estimator implements the scaling laws the paper narrates:
//!
//! * DSPs scale with the *spatial* op count — body ops × unroll × SIMD ×
//!   compute units (Section 5.2: "resource utilization scales
//!   approximately linearly with the vectorization factor").
//! * BRAM scales with local-array footprints × replication for port
//!   demand; dynamically-sized accessors are provisioned at 16 kB each
//!   (Section 4).
//! * Accessor objects passed by value synthesise member functions and
//!   cost extra logic (Section 4, the SRAD overflow).
//! * Irregular local memories add arbiters (ALMs).

use hetero_ir::ir::{AccessPattern, Kernel, KernelStyle, Loop, OpMix};

use crate::calibrate::*;
use crate::design::Design;
use crate::part::FpgaPart;

/// Absolute resource usage of a design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceUsage {
    /// Adaptive logic modules.
    pub alms: f64,
    /// M20K BRAM blocks.
    pub brams: f64,
    /// DSP blocks.
    pub dsps: f64,
}

impl ResourceUsage {
    /// Element-wise sum.
    fn plus(&self, o: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            alms: self.alms + o.alms,
            brams: self.brams + o.brams,
            dsps: self.dsps + o.dsps,
        }
    }

    /// Utilization fractions against a part (ALM, BRAM, DSP).
    pub fn utilization(&self, part: &FpgaPart) -> (f64, f64, f64) {
        (
            self.alms / part.alms_total as f64,
            self.brams / part.brams_total as f64,
            self.dsps / part.dsps_total as f64,
        )
    }
}

/// Why a design does not fit the part.
#[derive(Debug, Clone, PartialEq)]
pub struct FitError {
    /// Design name.
    pub design: String,
    /// Part name.
    pub part: &'static str,
    /// Offending resource and its utilization fraction.
    pub resource: &'static str,
    /// Utilization fraction that exceeded the limit.
    pub utilization: f64,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "design '{}' does not fit {}: {} at {:.1}% (limit {:.0}%)",
            self.design,
            self.part,
            self.resource,
            self.utilization * 100.0,
            FIT_LIMIT * 100.0
        )
    }
}

impl std::error::Error for FitError {}

/// Spatial op counts of a loop nest: ops that exist *as hardware*,
/// i.e. body ops × unroll factors along the nest (trip counts do not
/// consume area; unrolling does).
fn spatial_ops(l: &Loop) -> OpMix {
    let u = l.attrs.unroll.max(1) as u64;
    let mut m = l.body.scaled(u);
    for c in &l.children {
        // A child nested in an unrolled loop is replicated too.
        m = m.merged(&spatial_ops(c).scaled(u));
    }
    m
}

/// DSPs implied by a spatial op mix.
fn dsps_for(m: &OpMix) -> f64 {
    m.f32_ops as f64 * DSP_PER_F32_OP
        + m.f64_ops as f64 * DSP_PER_F64_OP
        + m.fdiv_ops as f64 * DSP_PER_FDIV
        + m.transcendental_ops as f64 * DSP_PER_TRANSCENDENTAL
}

/// Number of global-memory load/store units a kernel needs: one per
/// distinct access stream, approximated from whether the kernel reads
/// and/or writes global memory (min 1 each if used), plus one per
/// unroll-replicated stream.
fn lsu_count(kernel: &Kernel, spatial: &OpMix) -> f64 {
    let mut lsus = 0.0;
    if spatial.global_read_bytes > 0 {
        lsus += 1.0;
    }
    if spatial.global_write_bytes > 0 {
        lsus += 1.0;
    }
    // Heavier traffic ⇒ wider/more LSUs: one extra per 32 B of per-slot
    // traffic.
    lsus += ((spatial.global_bytes() as f64) / 32.0).min(4.0);
    let simd = match kernel.style {
        KernelStyle::NdRange { simd, .. } => simd.max(1) as f64,
        KernelStyle::SingleTask => 1.0,
    };
    lsus * simd
}

/// Resource usage of one kernel *per compute unit*.
pub fn kernel_resources(kernel: &Kernel) -> ResourceUsage {
    let mut spatial = kernel.straight_line;
    for l in &kernel.loops {
        spatial = spatial.merged(&spatial_ops(l));
    }
    let simd = match kernel.style {
        KernelStyle::NdRange { simd, .. } => simd.max(1) as f64,
        KernelStyle::SingleTask => 1.0,
    };

    // DSPs: datapath ops × SIMD lanes.
    let dsps = dsps_for(&spatial) * simd;

    // BRAM: local arrays (worst-case for dynamic accessors) + LSU
    // buffers. Port replication: irregular memories can't replicate, so
    // they pay arbiters in ALMs instead; banked/regular memories are
    // replicated per SIMD lane.
    let mut brams = 0.0;
    let mut arbiters = 0.0;
    for a in &kernel.local_arrays {
        let blocks = (a.synthesized_bytes() as f64 / M20K_BYTES as f64).ceil().max(1.0);
        match a.pattern {
            AccessPattern::Banked => brams += blocks * simd,
            AccessPattern::Regular => brams += blocks * simd * 1.5,
            AccessPattern::Irregular => {
                brams += blocks;
                arbiters += 1.0;
            }
        }
        if a.passed_as_accessor_object {
            // Member functions of the accessor get synthesised.
            arbiters += 0.5;
        }
    }
    let lsus = lsu_count(kernel, &spatial);
    brams += lsus * BRAM_PER_LSU;

    // ALMs: base control + datapath + integer ops + LSUs + arbiters.
    let fp_slots = (spatial.f32_ops + spatial.f64_ops + spatial.fdiv_ops
        + spatial.transcendental_ops) as f64;
    let alms = ALM_BASE_PER_KERNEL
        + fp_slots * ALM_PER_OP * simd
        + (spatial.int_ops + spatial.cmp_sel_ops) as f64 * ALM_PER_INT_OP * simd
        + lsus * ALM_PER_LSU
        + arbiters * ALM_PER_ARBITER
        + kernel.barriers as f64 * 200.0;

    ResourceUsage { alms, brams, dsps }
}

/// Total resource usage of a design on a part (including the shell).
pub fn design_resources(design: &Design) -> ResourceUsage {
    let mut total = ResourceUsage {
        alms: ALM_SHELL,
        brams: BRAM_SHELL,
        dsps: 0.0,
    };
    for inst in &design.instances {
        let per_cu = kernel_resources(&inst.kernel);
        let cu = inst.compute_units.max(1) as f64;
        total = total.plus(&ResourceUsage {
            alms: per_cu.alms * cu,
            brams: per_cu.brams * cu,
            dsps: per_cu.dsps * cu,
        });
    }
    total
}

/// Check whether a design fits a part.
pub fn check_fit(design: &Design, part: &FpgaPart) -> Result<ResourceUsage, FitError> {
    let usage = design_resources(design);
    let (alm_u, bram_u, dsp_u) = usage.utilization(part);
    let mut offending: Option<(&'static str, f64)> = None;
    for (name, u) in [("ALM", alm_u), ("BRAM", bram_u), ("DSP", dsp_u)] {
        if u > FIT_LIMIT && offending.is_none_or(|(_, worst)| u > worst) {
            offending = Some((name, u));
        }
    }
    match offending {
        Some((resource, utilization)) => Err(FitError {
            design: design.name.clone(),
            part: part.name,
            resource,
            utilization,
        }),
        None => Ok(usage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::KernelInstance;
    use hetero_ir::builder::{KernelBuilder, LoopBuilder};
    use hetero_ir::ir::Scalar;

    fn flops(n: u64) -> OpMix {
        OpMix { f32_ops: n, ..OpMix::default() }
    }

    #[test]
    fn dsps_scale_with_unroll_and_simd() {
        let mk = |unroll, simd| {
            let l = LoopBuilder::new("l", 1000).body(flops(2)).unroll(unroll).build();
            kernel_resources(&KernelBuilder::nd_range("k", 64).simd(simd).loop_(l).build()).dsps
        };
        let base = mk(1, 1);
        assert!((mk(4, 1) / base - 4.0).abs() < 0.01);
        assert!((mk(1, 4) / base - 4.0).abs() < 0.01);
        assert!((mk(2, 2) / base - 4.0).abs() < 0.01);
    }

    #[test]
    fn fp64_costs_more_dsps_than_fp32() {
        let k32 = KernelBuilder::single_task("a")
            .straight_line(OpMix { f32_ops: 10, ..OpMix::default() })
            .build();
        let k64 = KernelBuilder::single_task("b")
            .straight_line(OpMix { f64_ops: 10, ..OpMix::default() })
            .build();
        assert!(kernel_resources(&k64).dsps > 4.0 * kernel_resources(&k32).dsps);
    }

    #[test]
    fn dynamic_accessor_wastes_bram() {
        // PF Float's 8-byte shared scalar: static sizing needs 1 block,
        // the dynamic accessor provisions 16 kB.
        let dynamic = KernelBuilder::nd_range("k", 64)
            .dynamic_local_array("s", Scalar::F64, AccessPattern::Banked)
            .build();
        let static_ = KernelBuilder::nd_range("k", 64)
            .local_array("s", Scalar::F64, 1, AccessPattern::Banked)
            .build();
        let d = kernel_resources(&dynamic).brams;
        let s = kernel_resources(&static_).brams;
        assert!(d - s >= 5.0, "dynamic {d} vs static {s}");
    }

    #[test]
    fn irregular_memories_add_arbiters_not_replicas() {
        let irregular = KernelBuilder::nd_range("k", 64)
            .simd(4)
            .local_array("s", Scalar::F32, 4096, AccessPattern::Irregular)
            .build();
        let banked = KernelBuilder::nd_range("k", 64)
            .simd(4)
            .local_array("s", Scalar::F32, 4096, AccessPattern::Banked)
            .build();
        let ri = kernel_resources(&irregular);
        let rb = kernel_resources(&banked);
        assert!(ri.brams < rb.brams); // no per-lane replication
        assert!(ri.alms > rb.alms); // arbiter logic
    }

    #[test]
    fn replication_multiplies_design_resources() {
        let k = KernelBuilder::single_task("k").straight_line(flops(20)).build();
        let d1 = Design::new("d1").with(KernelInstance::new(k.clone()));
        let d4 = Design::new("d4").with(KernelInstance::new(k).replicated(4));
        let r1 = design_resources(&d1);
        let r4 = design_resources(&d4);
        assert!((r4.dsps / r1.dsps - 4.0).abs() < 0.01);
        // ALMs of the kernel logic (net of the fixed shell) scale 4×.
        let k1 = r1.alms - ALM_SHELL;
        let k4 = r4.alms - ALM_SHELL;
        assert!((k4 / k1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn oversized_design_fails_fit() {
        // CFD FP64 can be replicated at most twice (Section 5.1); model
        // an analogous blow-up: a fat FP64 kernel replicated 64×.
        let l = LoopBuilder::new("l", 10).body(OpMix { f64_ops: 40, ..OpMix::default() }).build();
        let k = KernelBuilder::single_task("fat").loop_(l).build();
        let d = Design::new("fat64").with(KernelInstance::new(k).replicated(64));
        let err = check_fit(&d, &FpgaPart::stratix10()).unwrap_err();
        assert_eq!(err.resource, "DSP");
        assert!(err.utilization > 1.0);
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn shell_is_included() {
        let d = Design::new("empty");
        let r = design_resources(&d);
        assert_eq!(r.alms, ALM_SHELL);
        assert_eq!(r.brams, BRAM_SHELL);
    }
}
