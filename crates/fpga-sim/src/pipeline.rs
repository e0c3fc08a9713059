//! Loop-pipeline scheduling: cycles for Single-Task loop nests and
//! ND-Range datapaths.
//!
//! ## Single-Task loops
//!
//! A pipelined leaf loop with trip count `N`, unroll `U`, initiation
//! interval `II`, and `S` speculated iterations costs per entry
//!
//! ```text
//! depth + II·(ceil(N/U) - 1) + 1 + II·S
//! ```
//!
//! where `depth` is the pipeline fill latency derived from the body's op
//! mix. Loops containing child loops do not overlap iterations across
//! child entries (the conservative behaviour of the HLS scheduler): each
//! iteration pays the child's full cycles.
//!
//! ## Effective II
//!
//! The achieved II is the maximum of the requested II (default 1), the
//! loop-carried-dependence II, and the local-memory stall factor implied
//! by the worst access pattern (arbiters stall; see the paper's
//! Section 5.2 case taxonomy).
//!
//! ## ND-Range datapaths
//!
//! Work-groups stream their items through the datapath `SIMD` at a time;
//! each barrier drains the in-flight window. Per-item loop work uses the
//! same loop model.

use hetero_ir::ir::{AccessPattern, Kernel, KernelStyle, Loop, OpMix};

use crate::calibrate::*;

/// Pipeline fill latency implied by a body op mix.
fn body_depth(body: &OpMix) -> u64 {
    let fp_ops = body.f32_ops + body.f64_ops + body.fdiv_ops;
    PIPELINE_DEPTH_BASE
        + PIPELINE_DEPTH_PER_FP_OP * fp_ops
        + PIPELINE_DEPTH_PER_TRANSCENDENTAL * body.transcendental_ops
}

/// Stall multiplier implied by the worst local-memory access pattern.
fn local_stall_factor(pattern: Option<AccessPattern>) -> f64 {
    match pattern {
        Some(AccessPattern::Irregular) => ARBITER_STALL_FACTOR,
        Some(AccessPattern::Regular) => PORT_PRESSURE_STALL_FACTOR,
        Some(AccessPattern::Banked) | None => 1.0,
    }
}

/// Effective initiation interval of a loop given the kernel's
/// local-memory situation.
pub fn effective_ii(l: &Loop, pattern: Option<AccessPattern>) -> f64 {
    // An explicit [[intel::initiation_interval(R)]] request is honoured:
    // the author asserts the dependence closes in R cycles (e.g. the
    // custom scan's integer accumulator at II = 1, Listing 2). Without a
    // request, an unrestructured loop-carried dependence costs the FP
    // feedback latency.
    let base = match l.attrs.initiation_interval {
        Some(r) => r.max(1) as f64,
        None if l.loop_carried_dep => LOOP_CARRIED_FP_II as f64,
        None => 1.0,
    };
    let stall = if l.body.local_accesses() > 0 {
        local_stall_factor(pattern)
    } else {
        1.0
    };
    base * stall
}

/// Speculated iterations in effect for a loop (compiler default applies
/// to data-dependent exits unless overridden).
pub fn effective_speculation(l: &Loop) -> u32 {
    match l.attrs.speculated_iterations {
        Some(s) => s,
        None if l.data_dependent_exit => DEFAULT_SPECULATED_ITERATIONS,
        None => 0,
    }
}

/// Cycles for one entry of a Single-Task loop nest.
fn loop_cycles(l: &Loop, pattern: Option<AccessPattern>) -> f64 {
    let ii = effective_ii(l, pattern);
    let spec = effective_speculation(l) as f64;
    let unroll = l.attrs.unroll.max(1) as f64;
    let effective_trips = (l.trip_count as f64 / unroll).ceil().max(1.0);

    if l.children.is_empty() {
        let depth = body_depth(&l.body) as f64;
        depth + ii * (effective_trips - 1.0) + 1.0 + ii * spec
    } else {
        // Per iteration: body latency plus each child's full cycles.
        let child_cycles: f64 = l.children.iter().map(|c| loop_cycles(c, pattern)).sum();
        let body = body_depth(&l.body) as f64;
        // Outer loops with inner loops don't pipeline across entries;
        // speculation on the outer loop still wastes S iterations' worth.
        l.trip_count as f64 * (body + child_cycles) + spec * (body + child_cycles)
    }
}

/// Cycles for one entry of a loop nest inside an ND-Range kernel.
///
/// The oneAPI FPGA compiler pipelines *counted* ND-Range loops
/// reasonably well (one iteration per cycle, inflated by local-memory
/// stalls, and by the FP feedback latency for unrestructured
/// reductions), but loops with **data-dependent exits** do not pipeline
/// — each iteration pays most of its latency, only partially hidden by
/// work-item interleaving ([`NDRANGE_ITER_LATENCY`]). Unrolling divides
/// the iteration count by replicating the body spatially. This
/// asymmetry is the structural source of the paper's Single-Task
/// rewrites (Mandelbrot, ParticleFilter) and unrolling wins (LavaMD).
fn loop_cycles_nonpipelined(l: &Loop, pattern: Option<AccessPattern>) -> f64 {
    let unroll = l.attrs.unroll.max(1) as f64;
    let trips = (l.trip_count as f64 / unroll).ceil().max(1.0);
    let stall = if l.body.local_accesses() > 0 {
        local_stall_factor(pattern)
    } else {
        1.0
    };
    let per_iter = if l.data_dependent_exit {
        NDRANGE_ITER_LATENCY * stall
    } else if l.loop_carried_dep {
        LOOP_CARRIED_FP_II as f64 * stall
    } else {
        stall
    };
    let children: f64 = l
        .children
        .iter()
        .map(|c| loop_cycles_nonpipelined(c, pattern))
        .sum();
    trips * (per_iter + children)
}

/// Cycles for one invocation of a kernel instance.
///
/// * Single-Task: the loop nest runs once; `items` is ignored.
/// * ND-Range: `items` work-items stream through; per-item loop work is
///   serialised into the item's slot, barriers drain per group.
///
/// `compute_units` divides the work (replicated kernels share it).
pub fn kernel_cycles(kernel: &Kernel, items: u64, compute_units: u32) -> f64 {
    let cu = compute_units.max(1) as f64;
    let pattern = kernel.worst_local_pattern();
    match kernel.style {
        KernelStyle::SingleTask => {
            let body: f64 = kernel.loops.iter().map(|l| loop_cycles(l, pattern)).sum();
            let straight = body_depth(&kernel.straight_line) as f64;
            (straight + body) / cu
        }
        KernelStyle::NdRange { work_group_size, simd } => {
            let simd = simd.max(1) as f64;
            let items_f = items as f64;
            let groups = (items_f / work_group_size as f64).ceil().max(1.0);
            // Per-item issue cost: 1 slot per SIMD lane, inflated by the
            // per-item loop work (a loop inside an ND-range kernel
            // occupies the item's slot for its cycle count).
            let per_item_loops: f64 = kernel
                .loops
                .iter()
                .map(|l| loop_cycles_nonpipelined(l, pattern))
                .sum();
            let stall = if kernel.local_arrays.is_empty() {
                1.0
            } else {
                local_stall_factor(pattern)
            };
            // The stall prices the item's straight-line slot; loops carry
            // their own stall factors inside `loop_cycles_nonpipelined`.
            let issue = (items_f / simd) * (stall + per_item_loops);
            let drains = groups * kernel.barriers as f64 * BARRIER_DRAIN_CYCLES as f64;
            let fill = body_depth(&kernel.straight_line) as f64 + groups;
            (issue + drains + fill) / cu
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_ir::builder::{KernelBuilder, LoopBuilder};
    use hetero_ir::ir::Scalar;

    fn body(n: u64) -> OpMix {
        OpMix { f32_ops: n, ..OpMix::default() }
    }

    #[test]
    fn leaf_loop_ii1_is_near_trip_count() {
        let l = LoopBuilder::new("l", 10_000).body(body(2)).build();
        let c = loop_cycles(&l, None);
        assert!(c > 10_000.0 && c < 10_100.0, "c = {c}");
    }

    #[test]
    fn unrolling_divides_steady_state() {
        let l1 = LoopBuilder::new("l", 30_000).body(body(1)).build();
        let l30 = LoopBuilder::new("l", 30_000).body(body(1)).unroll(30).build();
        let r = loop_cycles(&l1, None) / loop_cycles(&l30, None);
        // Near-linear speedup with the unroll factor (the paper's LavaMD
        // observation).
        assert!(r > 25.0 && r <= 31.0, "r = {r}");
    }

    #[test]
    fn loop_carried_dep_forces_high_ii() {
        let l = LoopBuilder::new("acc", 1000).body(body(1)).loop_carried_dep().build();
        let c = loop_cycles(&l, None);
        assert!(c > 1000.0 * (LOOP_CARRIED_FP_II as f64) * 0.9);
    }

    #[test]
    fn speculation_costs_per_entry_and_lowering_helps() {
        // Mandelbrot shape: outer loop entering an escape-test inner loop
        // once per pixel; default speculation wastes S·II per entry.
        let make = |spec: Option<u32>| {
            let mut inner = LoopBuilder::new("iter", 100).body(body(3)).data_dependent_exit();
            if let Some(s) = spec {
                inner = inner.speculated(s);
            }
            LoopBuilder::new("pixels", 10_000).child(inner.build()).build()
        };
        let default = loop_cycles(&make(None), None);
        let tuned = loop_cycles(&make(Some(0)), None);
        assert!(default > tuned);
        // 4 wasted iterations per 100-trip inner loop ≈ 4 % + depth
        // effects.
        let gain = default / tuned;
        assert!(gain > 1.02 && gain < 1.2, "gain = {gain}");
    }

    #[test]
    fn irregular_local_memory_stalls_pipeline() {
        let mk = |pattern| {
            let l = LoopBuilder::new("l", 1000)
                .body(OpMix { local_reads: 2, local_writes: 1, f32_ops: 1, ..OpMix::default() })
                .build();
            let k = KernelBuilder::single_task("k")
                .loop_(l)
                .local_array("sh", Scalar::F32, 1024, pattern)
                .build();
            kernel_cycles(&k, 1, 1)
        };
        let banked = mk(AccessPattern::Banked);
        let irregular = mk(AccessPattern::Irregular);
        assert!(irregular / banked > 2.0, "{irregular} vs {banked}");
    }

    #[test]
    fn simd_divides_ndrange_issue() {
        let mk = |simd| {
            let k = KernelBuilder::nd_range("k", 64)
                .simd(simd)
                .straight_line(body(4))
                .build();
            kernel_cycles(&k, 1 << 16, 1)
        };
        let v1 = mk(1);
        let v4 = mk(4);
        let r = v1 / v4;
        assert!(r > 3.0 && r <= 4.2, "r = {r}");
    }

    #[test]
    fn compute_units_divide_cycles() {
        let k = KernelBuilder::nd_range("k", 64).straight_line(body(4)).build();
        let c1 = kernel_cycles(&k, 1 << 16, 1);
        let c4 = kernel_cycles(&k, 1 << 16, 4);
        assert!((c1 / c4 - 4.0).abs() < 0.2);
    }

    #[test]
    fn barriers_add_drain_cost() {
        let mk = |barriers| {
            let k = KernelBuilder::nd_range("k", 128)
                .straight_line(body(2))
                .barriers(barriers)
                .build();
            kernel_cycles(&k, 1 << 14, 1)
        };
        assert!(mk(16) > mk(0));
    }

    #[test]
    fn single_task_ignores_item_count() {
        let l = LoopBuilder::new("l", 5000).body(body(1)).build();
        let k = KernelBuilder::single_task("st").loop_(l).build();
        assert_eq!(kernel_cycles(&k, 1, 1), kernel_cycles(&k, 1 << 20, 1));
    }
}
