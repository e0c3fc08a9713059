//! Clock-frequency estimation.
//!
//! Achieved kernel Fmax on the paper's parts varies from ~102 MHz
//! (ParticleFilter's control-dominated Single-Task designs) to ~417 MHz
//! on Stratix 10 and ~554 MHz on Agilex (clean FDTD2D pipelines). Three
//! mechanisms dominate, and all three are modelled:
//!
//! 1. **Routing congestion**: beyond ~45 % ALM utilization, Fmax drops
//!    roughly linearly (derate up to 45 %).
//! 2. **Local-memory arbiters**: irregular shared-memory access inserts
//!    arbitration logic on the critical path (NW: 216 MHz).
//! 3. **Deep control**: Single-Task kernels with many loops (PF) have
//!    long control chains that cap Fmax well below the fabric's ability.

use hetero_ir::ir::{AccessPattern, Kernel, KernelStyle, Loop};

use crate::calibrate::*;
use crate::design::Design;
use crate::part::FpgaPart;
use crate::resources::design_resources;

fn count_loops(l: &Loop) -> usize {
    1 + l.children.iter().map(count_loops).sum::<usize>()
}

/// Structural Fmax derate of a single kernel (1.0 = no penalty).
fn kernel_fmax_derate(kernel: &Kernel) -> f64 {
    let mut derate: f64 = 1.0;
    if kernel
        .local_arrays
        .iter()
        .any(|a| a.pattern == AccessPattern::Irregular)
    {
        derate *= ARBITER_FMAX_DERATE;
    }
    if kernel.style == KernelStyle::SingleTask {
        let loops: usize = kernel.loops.iter().map(count_loops).sum();
        if loops >= DEEP_CONTROL_LOOP_THRESHOLD {
            derate *= DEEP_CONTROL_FMAX_DERATE;
        }
    }
    // Unrequested (compiler-chosen) IIs on loop-carried deps slightly
    // relax timing; requested II=1 on hard loops tightens it. Modelled
    // implicitly through congestion; nothing extra here.
    derate
}

/// Estimate the design's kernel clock on `part`, in MHz.
pub fn estimate_fmax(design: &Design, part: &FpgaPart) -> f64 {
    let usage = design_resources(design);
    let (alm_u, _, dsp_u) = usage.utilization(part);
    let pressure = alm_u.max(dsp_u);

    let congestion = if pressure <= CONGESTION_KNEE {
        1.0
    } else {
        let over = ((pressure - CONGESTION_KNEE) / (1.0 - CONGESTION_KNEE)).min(1.0);
        1.0 - CONGESTION_MAX_DERATE * over
    };

    let structural = design
        .instances
        .iter()
        .map(|i| kernel_fmax_derate(&i.kernel))
        .fold(1.0_f64, f64::min);

    part.base_fmax_mhz * congestion * structural
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::KernelInstance;
    use hetero_ir::builder::{KernelBuilder, LoopBuilder};
    use hetero_ir::ir::{OpMix, Scalar};

    fn small_kernel() -> Kernel {
        KernelBuilder::nd_range("k", 64)
            .straight_line(OpMix { f32_ops: 4, ..OpMix::default() })
            .build()
    }

    #[test]
    fn clean_small_designs_run_near_base_fmax() {
        let d = Design::new("clean").with(KernelInstance::new(small_kernel()));
        let f = estimate_fmax(&d, &FpgaPart::stratix10());
        assert!(f > 0.95 * FpgaPart::stratix10().base_fmax_mhz, "f = {f}");
    }

    #[test]
    fn agilex_clocks_higher_than_stratix_for_same_design() {
        let d = Design::new("d").with(KernelInstance::new(small_kernel()));
        assert!(estimate_fmax(&d, &FpgaPart::agilex()) > estimate_fmax(&d, &FpgaPart::stratix10()));
    }

    #[test]
    fn arbiters_cut_fmax() {
        let nw_like = KernelBuilder::nd_range("nw", 128)
            .local_array("diag", Scalar::I32, 128 * 128, AccessPattern::Irregular)
            .build();
        let d = Design::new("nw").with(KernelInstance::new(nw_like));
        let clean = Design::new("c").with(KernelInstance::new(small_kernel()));
        let p = FpgaPart::stratix10();
        assert!(estimate_fmax(&d, &p) < 0.85 * estimate_fmax(&clean, &p));
    }

    #[test]
    fn deep_single_task_control_caps_fmax() {
        // ParticleFilter shape: many sequential loops in one kernel.
        let mut b = KernelBuilder::single_task("pf");
        for i in 0..8 {
            b = b.loop_(LoopBuilder::new(&format!("l{i}"), 1000).build());
        }
        let d = Design::new("pf").with(KernelInstance::new(b.build()));
        let p = FpgaPart::stratix10();
        let f = estimate_fmax(&d, &p);
        assert!(f < 0.6 * p.base_fmax_mhz, "f = {f}");
    }

    #[test]
    fn congestion_derates_heavy_designs() {
        let fat = KernelBuilder::single_task("fat")
            .straight_line(OpMix { f32_ops: 3000, ..OpMix::default() })
            .build();
        let p = FpgaPart::agilex();
        let light = Design::new("l").with(KernelInstance::new(small_kernel()));
        let heavy = Design::new("h").with(KernelInstance::new(fat).replicated(2));
        assert!(estimate_fmax(&heavy, &p) < estimate_fmax(&light, &p));
    }
}
