//! Design-space exploration helpers.
//!
//! Section 5.1 describes the authors' replication strategy: "initially
//! optimize a single instance of a kernel before considering
//! replication, and subsequently, replicate the kernel as often as
//! possible, while ensuring that each further replication attempt
//! continues to provide substantial performance improvements". This
//! module implements that loop as an algorithm over the simulator, plus
//! a generic sweep utility the ablation benches build on.

use crate::design::Design;
use crate::part::FpgaPart;
use crate::resources::check_fit;
use crate::timing::simulate;

/// Outcome of one explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// The knob value (replication factor, unroll, …).
    pub knob: u32,
    /// Kernel time in seconds, `None` if the design did not fit.
    pub seconds: Option<f64>,
    /// ALM utilization fraction (reported even for non-fitting points).
    pub alm_utilization: f64,
}

/// Sweep a design-producing closure over knob values, simulating each
/// point that fits.
pub fn sweep(part: &FpgaPart, knobs: &[u32], mut mk: impl FnMut(u32) -> Design) -> Vec<DsePoint> {
    knobs
        .iter()
        .map(|&knob| {
            let design = mk(knob);
            let usage = crate::resources::design_resources(&design);
            let (alm, _, _) = usage.utilization(part);
            let seconds = check_fit(&design, part)
                .ok()
                .map(|_| simulate(&design, part).total_seconds);
            DsePoint { knob, seconds, alm_utilization: alm }
        })
        .collect()
}

/// The paper's replication strategy: starting from 1 compute unit,
/// double-and-probe upward while (a) the design still fits and (b) each
/// step still improves runtime by at least `min_gain` (e.g. 1.1 = 10 %).
/// Returns the chosen replication factor and its simulated time.
pub fn replicate_while_beneficial(
    part: &FpgaPart,
    min_gain: f64,
    mut mk: impl FnMut(u32) -> Design,
) -> (u32, f64) {
    let mut best_cu = 1u32;
    let mut best_t = match check_fit(&mk(1), part) {
        Ok(_) => simulate(&mk(1), part).total_seconds,
        Err(e) => panic!("even a single compute unit does not fit: {e}"),
    };
    let mut cu = 2u32;
    loop {
        let d = mk(cu);
        if check_fit(&d, part).is_err() {
            break;
        }
        let t = simulate(&d, part).total_seconds;
        if best_t / t < min_gain {
            break;
        }
        best_cu = cu;
        best_t = t;
        cu *= 2;
    }
    (best_cu, best_t)
}

/// Retarget a design tuned for one part onto another (the paper's
/// Section 5.5 procedure, S10 → Agilex): if the design does not fit the
/// new part, halve per-instance replication factors until it does; if
/// it fits with ample headroom, probe doubling each instance's
/// replication while runtime keeps improving by `min_gain`.
pub fn retarget(design: &Design, to: &FpgaPart, min_gain: f64) -> Result<Design, crate::FitError> {
    let mut current = design.clone();
    // Shrink phase: halve the largest replication factor until we fit.
    loop {
        match check_fit(&current, to) {
            Ok(_) => break,
            Err(e) => {
                let Some(idx) = current
                    .instances
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| i.compute_units > 1)
                    .max_by_key(|(_, i)| i.compute_units)
                    .map(|(i, _)| i)
                else {
                    return Err(e); // nothing left to shrink
                };
                current.instances[idx].compute_units /= 2;
            }
        }
    }
    // Grow phase: probe doubling each instance in turn while beneficial.
    let mut best_t = simulate(&current, to).total_seconds;
    loop {
        let mut improved = false;
        for idx in 0..current.instances.len() {
            let mut candidate = current.clone();
            candidate.instances[idx].compute_units *= 2;
            if check_fit(&candidate, to).is_err() {
                continue;
            }
            let t = simulate(&candidate, to).total_seconds;
            if best_t / t >= min_gain {
                current = candidate;
                best_t = t;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    // Rename so reports distinguish the retargeted variant.
    current.name = format!("{}@{}", design.name, to.name);
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::KernelInstance;
    use hetero_ir::builder::{KernelBuilder, LoopBuilder};
    use hetero_ir::ir::OpMix;

    fn compute_design(cu: u32) -> Design {
        let k = KernelBuilder::single_task("k")
            .loop_(
                LoopBuilder::new("main", 1 << 22)
                    .body(OpMix { f32_ops: 8, ..OpMix::default() })
                    .build(),
            )
            .build();
        Design::new(format!("cu{cu}")).with(KernelInstance::new(k).replicated(cu))
    }

    fn membound_design(cu: u32) -> Design {
        let k = KernelBuilder::single_task("k")
            .loop_(
                LoopBuilder::new("main", 1 << 20)
                    .body(OpMix {
                        f32_ops: 1,
                        global_read_bytes: 256,
                        global_write_bytes: 64,
                        ..OpMix::default()
                    })
                    .build(),
            )
            .build();
        Design::new(format!("m{cu}")).with(KernelInstance::new(k).replicated(cu))
    }

    #[test]
    fn sweep_reports_every_point() {
        let part = FpgaPart::stratix10();
        let points = sweep(&part, &[1, 2, 4], compute_design);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.seconds.is_some()));
        // Compute-bound: each doubling roughly halves the time.
        let t1 = points[0].seconds.unwrap();
        let t4 = points[2].seconds.unwrap();
        assert!(t1 / t4 > 3.0);
    }

    #[test]
    fn replication_strategy_stops_at_bandwidth_wall() {
        // A memory-bound kernel stops gaining from replication early:
        // the strategy must not keep replicating past the wall.
        let part = FpgaPart::stratix10();
        let (cu, _t) = replicate_while_beneficial(&part, 1.10, membound_design);
        assert!(cu <= 4, "kept replicating a memory-bound kernel: cu = {cu}");
    }

    #[test]
    fn replication_strategy_exploits_compute_bound_headroom() {
        let part = FpgaPart::stratix10();
        let (cu, t) = replicate_while_beneficial(&part, 1.10, compute_design);
        assert!(cu >= 4, "compute-bound kernel should replicate: cu = {cu}");
        assert!(t < simulate(&compute_design(1), &part).total_seconds / 2.0);
    }

    #[test]
    fn retarget_shrinks_oversized_designs() {
        // A design that fits Stratix 10 but overflows the smaller
        // Agilex must come back with reduced replication — the paper's
        // Section 5.5 direction for NW (16× → 8×) and PF (50× → 24×).
        let k = KernelBuilder::single_task("wide")
            .straight_line(OpMix { f64_ops: 8, ..OpMix::default() })
            .build();
        let d = Design::new("wide").with(KernelInstance::new(k).replicated(64));
        assert!(check_fit(&d, &FpgaPart::stratix10()).is_ok());
        assert!(check_fit(&d, &FpgaPart::agilex()).is_err());
        let r = retarget(&d, &FpgaPart::agilex(), 1.05).unwrap();
        assert!(check_fit(&r, &FpgaPart::agilex()).is_ok());
        assert!(r.instances[0].compute_units < 64);
        assert!(r.name.contains("Agilex"));
    }

    #[test]
    fn retarget_grows_when_headroom_allows() {
        // A compute-bound design with one CU grows when retargeted to a
        // part with room (CFD FP32's 4× → 8× direction).
        let r = retarget(&compute_design(1), &FpgaPart::agilex(), 1.10).unwrap();
        assert!(r.instances[0].compute_units > 1, "stayed at 1 CU");
    }

    #[test]
    fn retarget_fails_when_nothing_can_shrink() {
        let k = KernelBuilder::single_task("huge")
            .straight_line(OpMix { f64_ops: 5_000, ..OpMix::default() })
            .build();
        let d = Design::new("huge").with(KernelInstance::new(k));
        assert!(retarget(&d, &FpgaPart::agilex(), 1.1).is_err());
    }

    #[test]
    fn sweep_marks_unfittable_points() {
        let part = FpgaPart::agilex();
        let fat = |cu: u32| {
            let k = KernelBuilder::single_task("fat")
                .straight_line(OpMix { f64_ops: 50, ..OpMix::default() })
                .build();
            Design::new(format!("f{cu}")).with(KernelInstance::new(k).replicated(cu))
        };
        let points = sweep(&part, &[1, 64], fat);
        assert!(points[0].seconds.is_some());
        assert!(points[1].seconds.is_none());
        assert!(points[1].alm_utilization > points[0].alm_utilization);
    }
}
