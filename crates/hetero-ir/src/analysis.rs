//! Static analyses over kernel descriptors: total trip counts, aggregated
//! op mixes, and per-kernel cost summaries consumed by the roofline
//! device models — plus the launch-plan representation and pass pipeline
//! the `hetero-rt` graph optimizer lowers recorded launch graphs into
//! (see the "Plan representation" section below).

use std::fmt;

use crate::ir::{Kernel, KernelStyle, Loop, OpMix};

/// Aggregated cost of one loop (including children), for one entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopCost {
    /// Total iterations executed across the nest (unroll-invariant:
    /// unrolling changes scheduling, not work).
    pub iterations: u64,
    /// Aggregated op mix across the nest.
    pub mix: OpMix,
}

/// Aggregate the full cost of a loop nest for a single entry.
pub fn loop_cost(l: &Loop) -> LoopCost {
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

// ---------------------------------------------------------------------------
// Plan representation: lowered launch graphs and the optimization passes
// that rewrite them.
//
// A recorded launch graph (hetero-rt) lowers each node into a `PlanNode`:
// pure data — declared buffer bindings with access modes and footprints,
// and the (src, dst) pair when the node is a buffer copy. Passes rewrite a
// schedule over node *indices*; the runtime compiles the schedule back
// into an executable graph. Keeping the passes here, over plain data,
// makes every legality rule unit-testable without touching kernels.
// ---------------------------------------------------------------------------

/// Declared access mode of a plan node on one buffer object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAccess {
    /// The node only reads the object.
    Read,
    /// The node only writes the object.
    Write,
    /// The node both reads and writes the object.
    ReadWrite,
}

/// How far a node's accesses to one object may reach, the contract that
/// decides ping-pong legality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanFootprint {
    /// Accesses may touch any element (gathers, scatters). The safe
    /// default when nothing more precise was declared.
    Whole,
    /// Every work-item touches only its own canonical slice of the
    /// object, with the same item→slice mapping in every node sharing
    /// the object and range (item-disjoint accesses).
    Item,
    /// [`PlanFootprint::Item`], and the union over all items covers the
    /// entire object (a dense per-item overwrite).
    ItemDense,
}

/// One (object, access, footprint) declaration on a plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanBinding {
    /// Stable runtime object id of the buffer.
    pub object: u64,
    /// Declared access mode.
    pub access: PlanAccess,
    /// Declared access footprint.
    pub footprint: PlanFootprint,
}

impl PlanBinding {
    fn writes(&self) -> bool {
        matches!(self.access, PlanAccess::Write | PlanAccess::ReadWrite)
    }

    fn reads(&self) -> bool {
        matches!(self.access, PlanAccess::Read | PlanAccess::ReadWrite)
    }
}

/// One recorded launch in lowered form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Recorded launch name (diagnostics and the [`OptReport`]).
    pub name: String,
    /// Declared buffer bindings.
    pub bindings: Vec<PlanBinding>,
    /// `Some((src, dst))` when the node is a whole-buffer copy with a
    /// prepared O(1) swap alternative (the ping-pong rewrite target).
    pub copy: Option<(u64, u64)>,
}

impl PlanNode {
    fn written(&self) -> impl Iterator<Item = u64> + '_ {
        self.bindings.iter().filter(|b| b.writes()).map(|b| b.object)
    }

    fn reads_obj(&self, obj: u64) -> bool {
        self.bindings.iter().any(|b| b.object == obj && b.reads())
    }

    fn writes_obj(&self, obj: u64) -> bool {
        self.bindings.iter().any(|b| b.object == obj && b.writes())
    }
}

/// A lowered recorded graph: the nodes in recorded order plus the object
/// ids the recording declared as observable outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanGraph {
    /// Lowered nodes, in recorded order.
    pub nodes: Vec<PlanNode>,
    /// Objects observable after replay. Dead-launch elimination is
    /// disabled entirely when this is empty (nothing can be proven dead
    /// against an undeclared observation set).
    pub outputs: Vec<u64>,
}

/// One step of the optimized steady-state schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Launch recorded node `.0`.
    Launch(usize),
    /// Execute the O(1) buffer swap prepared by copy node `node` instead
    /// of its element-wise copy.
    Swap {
        /// Index of the rewritten copy node.
        node: usize,
    },
}

/// The compiled schedule a pass pipeline produces: a prologue executed
/// once before the first replay (hoisted loop-invariant nodes) and the
/// steady-state step sequence executed on every replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizedPlan {
    /// Node indices run once, in order, before the first steady replay.
    pub prologue: Vec<usize>,
    /// Per-replay step sequence.
    pub steady: Vec<PlanStep>,
}

impl OptimizedPlan {
    /// The schedule that replays an `n`-node recording as recorded: no
    /// prologue, one launch step per node. Every pass pipeline starts
    /// here, and a rejected rewrite falls back to it.
    pub fn verbatim(n: usize) -> Self {
        OptimizedPlan { prologue: Vec::new(), steady: (0..n).map(PlanStep::Launch).collect() }
    }
}

/// Deterministic record of what the pass pipeline rewrote. The same plan
/// always produces the same report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Names of nodes removed as dead launches.
    pub eliminated: Vec<String>,
    /// Names of copy nodes rewritten into O(1) swaps.
    pub swapped: Vec<String>,
    /// Names of loop-invariant nodes hoisted into the prologue.
    pub hoisted: Vec<String>,
    /// Kernel launches per replay before optimization.
    pub launches_before: usize,
    /// Kernel launches per replay after optimization (swap steps are
    /// O(1) schedule steps, not kernel launches; prologue launches run
    /// once, not per replay).
    pub launches_after: usize,
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph-opt: {} -> {} launches/replay",
            self.launches_before, self.launches_after
        )?;
        for n in &self.eliminated {
            writeln!(f, "  eliminated: {n}")?;
        }
        for n in &self.swapped {
            writeln!(f, "  swapped: {n}")?;
        }
        for n in &self.hoisted {
            writeln!(f, "  hoisted: {n}")?;
        }
        Ok(())
    }
}

/// One rewrite pass over an [`OptimizedPlan`] schedule.
pub trait PlanPass {
    /// Rewrite `sched` in place, appending what was done to `report`.
    fn run(&self, plan: &PlanGraph, sched: &mut OptimizedPlan, report: &mut OptReport);
}

/// Node indices that still participate in the schedule (prologue or any
/// steady step).
fn live_nodes(sched: &OptimizedPlan) -> Vec<usize> {
    let mut live = sched.prologue.clone();
    for step in &sched.steady {
        match step {
            PlanStep::Launch(node) | PlanStep::Swap { node } => live.push(*node),
        }
    }
    live
}

/// Dead-launch elimination: remove a launch when every object it writes
/// is neither a declared graph output nor read by any other live node
/// (replays loop, so "any other node" already covers later iterations).
/// Iterates to a fixpoint — removing one dead launch can orphan another.
/// Disabled entirely when the plan declares no outputs.
pub struct DeadLaunchElimination;

impl PlanPass for DeadLaunchElimination {
    fn run(&self, plan: &PlanGraph, sched: &mut OptimizedPlan, report: &mut OptReport) {
        if plan.outputs.is_empty() {
            return;
        }
        loop {
            let live = live_nodes(sched);
            let mut victim = None;
            for (pos, step) in sched.steady.iter().enumerate() {
                let &PlanStep::Launch(i) = step else { continue };
                let node = &plan.nodes[i];
                if node.bindings.is_empty() {
                    continue;
                }
                let mut written = node.written().peekable();
                if written.peek().is_none() {
                    continue;
                }
                let dead = written.all(|o| {
                    !plan.outputs.contains(&o)
                        && live.iter().all(|&j| j == i || !plan.nodes[j].reads_obj(o))
                });
                if dead {
                    victim = Some((pos, i));
                    break;
                }
            }
            let Some((pos, i)) = victim else { break };
            sched.steady.remove(pos);
            report.eliminated.push(plan.nodes[i].name.clone());
        }
    }
}

/// Loop-invariant hoisting: a non-copy launch whose bindings are all
/// pure writes, over objects no other live node writes, computes the
/// same values on every replay — run it once in the prologue instead.
pub struct InvariantHoist;

impl PlanPass for InvariantHoist {
    fn run(&self, plan: &PlanGraph, sched: &mut OptimizedPlan, report: &mut OptReport) {
        let live = live_nodes(sched);
        let mut picks: Vec<(usize, usize)> = Vec::new();
        for (pos, step) in sched.steady.iter().enumerate() {
            let &PlanStep::Launch(i) = step else { continue };
            let node = &plan.nodes[i];
            if node.copy.is_some() || node.bindings.is_empty() {
                continue;
            }
            if !node.bindings.iter().all(|b| b.access == PlanAccess::Write) {
                continue;
            }
            let sole_writer = node.bindings.iter().all(|b| {
                live.iter().all(|&j| j == i || !plan.nodes[j].writes_obj(b.object))
            });
            if sole_writer {
                picks.push((pos, i));
            }
        }
        for &(_, i) in &picks {
            sched.prologue.push(i);
            report.hoisted.push(plan.nodes[i].name.clone());
        }
        for &(pos, _) in picks.iter().rev() {
            sched.steady.remove(pos);
        }
    }
}

/// Ping-pong rewrite: replace a whole-buffer copy `src → dst` with an
/// O(1) storage swap. The swap gives `dst` exactly the value the copy
/// would have; the difference is that `src` is clobbered (it receives
/// the old `dst`). That is legal iff, walking the steady schedule
/// forward from the copy (wrapping around, because replays loop), the
/// *first* step touching `src` overwrites it densely without reading it
/// — and, when `src` is a declared output, that dense overwrite happens
/// later in the *same* replay (unwrapped), so `src` ends every replay
/// with the value it would have had anyway.
pub struct PingPongRewrite;

impl PingPongRewrite {
    fn swap_legal(plan: &PlanGraph, sched: &OptimizedPlan, p: usize, src: u64) -> bool {
        let n = sched.steady.len();
        for k in 1..n {
            let q = (p + k) % n;
            let wrapped = p + k >= n;
            match &sched.steady[q] {
                PlanStep::Swap { node } => {
                    let touches = match plan.nodes[*node].copy {
                        Some((s, d)) => s == src || d == src,
                        // Defensive: a swap step on a non-copy node
                        // cannot be reasoned about.
                        None => true,
                    };
                    if touches {
                        return false;
                    }
                }
                PlanStep::Launch(j) => {
                    let touching: Vec<&PlanBinding> =
                        plan.nodes[*j].bindings.iter().filter(|b| b.object == src).collect();
                    if touching.is_empty() {
                        continue;
                    }
                    let dense_overwrite = touching.iter().all(|b| {
                        b.access == PlanAccess::Write
                            && b.footprint == PlanFootprint::ItemDense
                    });
                    return dense_overwrite && (!wrapped || !plan.outputs.contains(&src));
                }
            }
        }
        // `src` is never rewritten: successive swaps would alternate
        // stale contents into `dst`, so the rewrite is illegal.
        false
    }
}

impl PlanPass for PingPongRewrite {
    fn run(&self, plan: &PlanGraph, sched: &mut OptimizedPlan, report: &mut OptReport) {
        for p in 0..sched.steady.len() {
            let PlanStep::Launch(i) = sched.steady[p] else { continue };
            let Some((src, _dst)) = plan.nodes[i].copy else { continue };
            if Self::swap_legal(plan, sched, p, src) {
                sched.steady[p] = PlanStep::Swap { node: i };
                report.swapped.push(plan.nodes[i].name.clone());
            }
        }
    }
}

/// Run `passes` in order over the verbatim schedule of `plan` and
/// return the compiled schedule plus the deterministic report.
fn run_passes(plan: &PlanGraph, passes: &[&dyn PlanPass]) -> (OptimizedPlan, OptReport) {
    let mut sched = OptimizedPlan::verbatim(plan.nodes.len());
    let mut report = OptReport { launches_before: plan.nodes.len(), ..OptReport::default() };
    for pass in passes {
        pass.run(plan, &mut sched, &mut report);
    }
    report.launches_after = sched
        .steady
        .iter()
        .filter(|s| matches!(s, PlanStep::Launch(_)))
        .count();
    (sched, report)
}

/// The pass pipeline, in its fixed order DLE → hoist → ping-pong:
/// elimination first so the later passes see only live nodes.
pub fn optimize_plan(plan: &PlanGraph) -> (OptimizedPlan, OptReport) {
    run_passes(plan, &[&DeadLaunchElimination, &InvariantHoist, &PingPongRewrite])
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

    // --- plan pass pipeline ---

    fn bind(object: u64, access: PlanAccess, footprint: PlanFootprint) -> PlanBinding {
        PlanBinding { object, access, footprint }
    }

    fn node(name: &str, bindings: Vec<PlanBinding>) -> PlanNode {
        PlanNode { name: name.to_string(), bindings, copy: None }
    }

    fn copy_node(name: &str, src: u64, dst: u64) -> PlanNode {
        PlanNode {
            name: name.to_string(),
            bindings: vec![
                bind(src, PlanAccess::Read, PlanFootprint::Item),
                bind(dst, PlanAccess::Write, PlanFootprint::ItemDense),
            ],
            copy: Some((src, dst)),
        }
    }

    fn launches(sched: &OptimizedPlan) -> usize {
        sched.steady.iter().filter(|s| matches!(s, PlanStep::Launch(_))).count()
    }

    #[test]
    fn dle_removes_unread_writes_and_keeps_outputs() {
        let plan = PlanGraph {
            nodes: vec![
                node("live", vec![bind(1, PlanAccess::Write, PlanFootprint::ItemDense)]),
                node("dead", vec![bind(2, PlanAccess::Write, PlanFootprint::ItemDense)]),
                // Feeds `dead` only — orphaned once `dead` goes, so the
                // fixpoint must remove it too.
                node("feeder", vec![bind(3, PlanAccess::Write, PlanFootprint::ItemDense)]),
            ],
            outputs: vec![1],
        };
        let mut plan = plan;
        plan.nodes[1].bindings.push(bind(3, PlanAccess::Read, PlanFootprint::Whole));
        let (sched, report) = run_passes(&plan, &[&DeadLaunchElimination]);
        assert_eq!(report.eliminated, vec!["dead".to_string(), "feeder".to_string()]);
        assert_eq!(launches(&sched), 1);
        assert_eq!(report.launches_after, 1);
    }

    #[test]
    fn dle_is_disabled_without_declared_outputs() {
        let plan = PlanGraph {
            nodes: vec![node("w", vec![bind(1, PlanAccess::Write, PlanFootprint::ItemDense)])],
            outputs: vec![],
        };
        let (_, report) = run_passes(&plan, &[&DeadLaunchElimination]);
        assert!(report.eliminated.is_empty());
        assert_eq!(report.launches_after, 1);
    }

    #[test]
    fn dle_keeps_nodes_without_bindings_or_writes() {
        let plan = PlanGraph {
            nodes: vec![
                node("opaque", vec![]),
                node("read_only", vec![bind(9, PlanAccess::Read, PlanFootprint::Whole)]),
            ],
            outputs: vec![1],
        };
        let (_, report) = optimize_plan(&plan);
        assert!(report.eliminated.is_empty());
    }

    #[test]
    fn hoist_moves_sole_writer_init_to_prologue() {
        let plan = PlanGraph {
            nodes: vec![
                node("init", vec![bind(1, PlanAccess::Write, PlanFootprint::ItemDense)]),
                node(
                    "use",
                    vec![
                        bind(1, PlanAccess::Read, PlanFootprint::Whole),
                        bind(2, PlanAccess::Write, PlanFootprint::ItemDense),
                    ],
                ),
            ],
            outputs: vec![2],
        };
        let (sched, report) = run_passes(&plan, &[&InvariantHoist]);
        assert_eq!(report.hoisted, vec!["init".to_string()]);
        assert_eq!(sched.prologue, vec![0]);
        assert_eq!(launches(&sched), 1);
    }

    #[test]
    fn hoist_rejects_shared_writers_and_readers() {
        let plan = PlanGraph {
            nodes: vec![
                // Resets an accumulator another node also writes — the
                // KMeans reset/accumulate shape; must stay per-replay.
                node("reset", vec![bind(1, PlanAccess::Write, PlanFootprint::ItemDense)]),
                node("accumulate", vec![bind(1, PlanAccess::ReadWrite, PlanFootprint::Whole)]),
            ],
            outputs: vec![1],
        };
        let (sched, report) = optimize_plan(&plan);
        assert!(report.hoisted.is_empty());
        assert!(sched.prologue.is_empty());
    }

    #[test]
    fn ping_pong_rewrites_copy_followed_by_dense_rewrite() {
        // copy(vars -> old); step densely rewrites vars — the CFD shape.
        let plan = PlanGraph {
            nodes: vec![
                copy_node("save", 1, 2),
                node(
                    "step",
                    vec![
                        bind(2, PlanAccess::Read, PlanFootprint::Item),
                        bind(1, PlanAccess::Write, PlanFootprint::ItemDense),
                    ],
                ),
            ],
            outputs: vec![1],
        };
        let (sched, report) = run_passes(&plan, &[&PingPongRewrite]);
        assert_eq!(report.swapped, vec!["save".to_string()]);
        assert!(matches!(sched.steady[0], PlanStep::Swap { node: 0 }));
        assert_eq!(report.launches_after, 1);
    }

    #[test]
    fn ping_pong_rejects_clobbering_a_live_source() {
        // src is an output and never densely rewritten after the copy:
        // swapping would leave src holding the old dst.
        let plan = PlanGraph {
            nodes: vec![
                copy_node("save", 1, 2),
                node("use", vec![bind(2, PlanAccess::Read, PlanFootprint::Whole)]),
            ],
            outputs: vec![1],
        };
        let (sched, report) = optimize_plan(&plan);
        assert!(report.swapped.is_empty());
        assert!(!sched.steady.iter().any(|s| matches!(s, PlanStep::Swap { .. })));
    }

    #[test]
    fn ping_pong_rejects_partial_or_reading_rewrites_of_src() {
        // First toucher of src reads it (ReadWrite): swap would feed it
        // stale data.
        let plan = PlanGraph {
            nodes: vec![
                copy_node("save", 1, 2),
                node("rmw", vec![bind(1, PlanAccess::ReadWrite, PlanFootprint::Item)]),
            ],
            outputs: vec![],
        };
        let (_, report) = optimize_plan(&plan);
        assert!(report.swapped.is_empty());
    }

    #[test]
    fn full_pipeline_report_is_deterministic_and_displayable() {
        let plan = PlanGraph {
            nodes: vec![
                node("dead", vec![bind(7, PlanAccess::Write, PlanFootprint::ItemDense)]),
                copy_node("save", 1, 2),
                node(
                    "step",
                    vec![
                        bind(2, PlanAccess::Read, PlanFootprint::Item),
                        bind(1, PlanAccess::Write, PlanFootprint::ItemDense),
                    ],
                ),
            ],
            outputs: vec![1],
        };
        let (s1, r1) = optimize_plan(&plan);
        let (s2, r2) = optimize_plan(&plan);
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
        assert_eq!(r1.eliminated, vec!["dead".to_string()]);
        assert_eq!(r1.swapped, vec!["save".to_string()]);
        let shown = r1.to_string();
        assert!(shown.contains("3 -> 1 launches/replay"));
        assert!(shown.contains("eliminated: dead"));
        assert!(shown.contains("swapped: save"));
    }

    /// No pass run: the schedule is the recording, one step per node.
    #[test]
    fn toggles_off_is_identity() {
        let plan = PlanGraph {
            nodes: vec![
                node("dead", vec![bind(7, PlanAccess::Write, PlanFootprint::ItemDense)]),
                node("a", vec![bind(1, PlanAccess::ReadWrite, PlanFootprint::Item)]),
            ],
            outputs: vec![1],
        };
        let (sched, report) = run_passes(&plan, &[]);
        assert_eq!(sched, OptimizedPlan::verbatim(2));
        assert_eq!(report.launches_before, 2);
        assert_eq!(report.launches_after, 2);
        assert!(report.eliminated.is_empty());
    }
}
