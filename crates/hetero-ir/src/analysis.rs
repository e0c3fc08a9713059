//! Static analyses over kernel descriptors: total trip counts, aggregated
//! op mixes, and per-kernel cost summaries consumed by the roofline
//! device models.

use crate::ir::{Kernel, KernelStyle, Loop, OpMix};

/// Aggregated cost of one loop (including children), for one entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LoopCost {
    /// Total iterations executed across the nest (unroll-invariant:
    /// unrolling changes scheduling, not work).
    iterations: u64,
    /// Aggregated op mix across the nest.
    mix: OpMix,
}

/// Aggregate the full cost of a loop nest for a single entry.
fn loop_cost(l: &Loop) -> LoopCost {
    let mut mix = l.body.scaled(l.trip_count);
    let mut iterations = l.trip_count;
    for c in &l.children {
        let cc = loop_cost(c);
        iterations += cc.iterations * l.trip_count;
        mix = mix.merged(&cc.mix.scaled(l.trip_count));
    }
    LoopCost { iterations, mix }
}

/// Whole-kernel cost for a given amount of launched work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Work-items the cost was scaled to (1 for Single-Task).
    pub work_items: u64,
    /// Total op mix.
    pub mix: OpMix,
    /// Total loop iterations.
    pub iterations: u64,
    /// Barrier executions.
    pub barriers: u64,
}

impl KernelCost {
    /// Total FLOPs.
    pub fn flops(&self) -> u64 {
        self.mix.flops()
    }

    /// Total global traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.mix.global_bytes()
    }

    /// Arithmetic intensity in FLOP/byte (0 if no global traffic).
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.global_bytes();
        if b == 0 {
            0.0
        } else {
            self.flops() as f64 / b as f64
        }
    }
}

/// Cost of executing `kernel` with `global_items` work-items (ignored and
/// treated as 1 for Single-Task kernels, whose descriptors already
/// describe the entire execution).
pub fn kernel_cost(kernel: &Kernel, global_items: u64) -> KernelCost {
    let per_item_scale = match kernel.style {
        KernelStyle::NdRange { .. } => global_items,
        KernelStyle::SingleTask => 1,
    };
    let mut mix = kernel.straight_line;
    let mut iterations = 0;
    for l in &kernel.loops {
        let lc = loop_cost(l);
        mix = mix.merged(&lc.mix);
        iterations += lc.iterations;
    }
    KernelCost {
        work_items: per_item_scale,
        mix: mix.scaled(per_item_scale),
        iterations: iterations * per_item_scale,
        barriers: kernel.barriers * per_item_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{KernelBuilder, LoopBuilder};

    fn flops_mix(n: u64) -> OpMix {
        OpMix { f32_ops: n, ..OpMix::default() }
    }

    #[test]
    fn nested_loop_cost_multiplies_trip_counts() {
        let inner = LoopBuilder::new("i", 10).body(flops_mix(2)).build();
        let outer = LoopBuilder::new("o", 5)
            .body(flops_mix(1))
            .child(inner)
            .build();
        let c = loop_cost(&outer);
        // Outer body: 5×1; inner body: 5×10×2.
        assert_eq!(c.mix.f32_ops, 5 + 100);
        assert_eq!(c.iterations, 5 + 50);
    }

    #[test]
    fn kernel_cost_scales_by_items_for_nd_range() {
        let l = LoopBuilder::new("l", 4).body(flops_mix(3)).build();
        let k = KernelBuilder::nd_range("k", 64).loop_(l).barriers(2).build();
        let c = kernel_cost(&k, 1000);
        assert_eq!(c.mix.f32_ops, 12_000);
        assert_eq!(c.barriers, 2000);
        assert_eq!(c.work_items, 1000);
    }

    #[test]
    fn single_task_ignores_global_items() {
        let l = LoopBuilder::new("l", 100).body(flops_mix(1)).build();
        let k = KernelBuilder::single_task("st").loop_(l).build();
        let c = kernel_cost(&k, 12345);
        assert_eq!(c.mix.f32_ops, 100);
        assert_eq!(c.work_items, 1);
    }

    #[test]
    fn arithmetic_intensity() {
        let m = OpMix { f32_ops: 100, global_read_bytes: 40, global_write_bytes: 10, ..OpMix::default() };
        let k = KernelBuilder::nd_range("k", 32)
            .straight_line(m)
            .build();
        let c = kernel_cost(&k, 1);
        assert!((c.arithmetic_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unroll_does_not_change_total_work() {
        let l1 = LoopBuilder::new("l", 30).body(flops_mix(7)).build();
        let l2 = LoopBuilder::new("l", 30).body(flops_mix(7)).unroll(30).build();
        assert_eq!(loop_cost(&l1).mix, loop_cost(&l2).mix);
    }
}
