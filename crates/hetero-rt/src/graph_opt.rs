//! Graph optimizer: rewrite a recorded launch graph before replaying it.
//!
//! PR 5's record-and-replay executor replays the recorded plan
//! *verbatim*. This module lowers a recorded [`Graph`] into the
//! `hetero-ir` plan representation ([`hetero_ir::PlanGraph`]), runs the
//! pass pipeline ([`hetero_ir::optimize_plan`]) over it, and compiles
//! the optimized schedule back into executable graphs:
//!
//! * **Dead-launch elimination** — launches whose writes feed neither a
//!   declared graph output ([`GraphBuilder::output`]) nor any other
//!   launch are dropped. Only runs on graphs that declare outputs.
//! * **Loop-invariant hoisting** — pure-write launches over objects no
//!   other launch writes compute the same values every replay; they move
//!   to a prologue graph executed once.
//! * **Ping-pong rewrite** — a recorded whole-buffer copy
//!   ([`GraphBuilder::copy`]) becomes an O(1) storage swap
//!   ([`crate::Buffer::swap_contents`]) when the clobbered source is
//!   provably overwritten densely before its next read. CFD's
//!   save-state copy is the target (copy + 2 launches → swap + 2
//!   launches).
//!
//! # Armed-queue degradation contract
//!
//! The optimized steady schedule executes **only** on the fast replay
//! path. Whenever the queue is armed (fault plan, sanitizer,
//! redundancy, CPU fallback, integrity layer) or the device capability
//! snapshot mismatches, [`OptimizedGraph::replay`] routes through the
//! *original* recording's hardened [`Graph::submit_each`] path — every
//! recorded launch, with every PR 2–4 resilience check active.
//! This is sound in both directions because every rewrite preserves
//! buffer *contents* semantics: elimination changes only unobservable
//! intermediate schedules, hoisted launches are idempotent, and a swap
//! leaves the same observable values as the copy it replaced (the
//! clobbered source is densely rewritten within the replay). Replays
//! may therefore alternate between the optimized and hardened paths at
//! any boundary. Every rewrite is reported in a deterministic
//! [`OptReport`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hetero_ir::{
    optimize_plan, validate_translation, OptReport, OptimizedPlan, PlanGraph, PlanNode, PlanStep,
};

use crate::device::DeviceCaps;
use crate::error::Result;
use crate::graph::{lock, Access, Binding, Decl, Graph, GraphBuilder, Node};
use crate::queue::Queue;

/// Optimized schedules accepted by the independent translation-validation
/// checker since process start.
static TV_ACCEPTED: AtomicU64 = AtomicU64::new(0);

/// Optimized schedules *rejected* by the checker (and degraded to a
/// verbatim replay) since process start. Nonzero means a pass produced
/// an unjustifiable rewrite — the `prove` sweep gates on zero.
static TV_REJECTED: AtomicU64 = AtomicU64::new(0);

fn last_rejection_slot() -> &'static Mutex<Option<String>> {
    static SLOT: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Optimized schedules the translation-validation gate accepted.
pub fn tv_accepted() -> u64 {
    TV_ACCEPTED.load(Ordering::Relaxed)
}

/// Optimized schedules the translation-validation gate rejected.
pub fn tv_rejected() -> u64 {
    TV_REJECTED.load(Ordering::Relaxed)
}

/// The most recent rejection's rendered errors, for diagnostics.
pub fn last_tv_rejection() -> Option<String> {
    lock(last_rejection_slot()).clone()
}

/// Lower a recorded graph into the pure-data plan representation the
/// pass pipeline rewrites.
fn lower(g: &Graph) -> PlanGraph {
    PlanGraph {
        nodes: g
            .nodes()
            .iter()
            .map(|n| PlanNode {
                name: n.name.to_string(),
                bindings: n.bindings.clone(),
                copy: n.copy.as_ref().map(|c| (c.src, c.dst)),
            })
            .collect(),
        outputs: g.output_ids().to_vec(),
    }
}

/// Build the O(1) swap step for rewritten copy node `node`, or `None`
/// when the node carries no copy metadata.
fn build_swap(graph: &Graph, node: usize, caps: &DeviceCaps) -> Result<Option<Node>> {
    let nodes = graph.nodes();
    let Some(ci) = nodes[node].copy.clone() else { return Ok(None) };
    // The swap rebinds both storages: declare read-write on both objects
    // with whole footprints so phase derivation serialises it against
    // every launch touching either side.
    let bindings = [ci.src, ci.dst]
        .map(|object| Binding { object, decl: Decl::Whole(Access::ReadWrite) });
    let swap = Arc::clone(&ci.swap);
    let mut b = GraphBuilder::new(caps.clone());
    b.single_task(nodes[node].name, &bindings, move || {
        if let Err(e) = swap() {
            // Containment converts the typed payload into an error
            // return from the replay, as with any kernel failure.
            std::panic::panic_any(e);
        }
    });
    let (mut built, _) = b.finish()?;
    Ok(built.pop())
}

/// A recorded graph compiled through the optimizer pass pipeline.
///
/// Holds three executable artifacts: the untouched original recording
/// (the hardened degradation path), an optional prologue of hoisted
/// launches (runs once before the first fast replay), and the optimized
/// steady-state graph replayed every iteration.
pub struct OptimizedGraph {
    original: Graph,
    prologue: Option<Graph>,
    steady: Graph,
    report: OptReport,
    prologue_done: AtomicBool,
    replay_lock: Mutex<()>,
}

impl std::fmt::Debug for OptimizedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimizedGraph")
            .field("recorded", &self.original.len())
            .field("steady", &self.steady.len())
            .field("report", &self.report)
            .finish()
    }
}

impl OptimizedGraph {
    /// Lower `graph`, run the pass pipeline and compile the optimized
    /// schedule. Where no pass fires the steady graph is a node-for-node
    /// copy of the recording.
    pub fn compile(graph: Graph) -> Result<OptimizedGraph> {
        let plan = lower(&graph);
        let (mut sched, mut report) = optimize_plan(&plan);
        // Translation-validation gate: an independent checker re-derives
        // each pass's justification and happens-before preservation
        // between the original and optimized plans. A schedule it cannot
        // justify never executes — compile degrades it to a verbatim
        // node-for-node replay and counts the rejection for the CI sweep.
        match validate_translation(&plan, &sched, &report) {
            Ok(()) => {
                TV_ACCEPTED.fetch_add(1, Ordering::Relaxed);
            }
            Err(errs) => {
                TV_REJECTED.fetch_add(1, Ordering::Relaxed);
                let rendered =
                    errs.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ");
                *lock(last_rejection_slot()) = Some(rendered);
                let n = plan.nodes.len();
                sched = OptimizedPlan::verbatim(n);
                report = OptReport {
                    launches_before: n,
                    launches_after: n,
                    ..OptReport::default()
                };
            }
        }
        let caps = graph.device_caps().clone();
        let outputs = graph.output_ids().to_vec();

        let prologue = if sched.prologue.is_empty() {
            None
        } else {
            let nodes =
                sched.prologue.iter().map(|&i| graph.nodes()[i].replay_clone()).collect();
            Some(Graph::assemble(nodes, outputs.clone(), caps.clone()))
        };

        let mut nodes: Vec<Node> = Vec::new();
        for step in &sched.steady {
            match step {
                PlanStep::Launch(i) => nodes.push(graph.nodes()[*i].replay_clone()),
                PlanStep::Swap { node } => match build_swap(&graph, *node, &caps)? {
                    Some(n) => nodes.push(n),
                    None => nodes.push(graph.nodes()[*node].replay_clone()),
                },
            }
        }
        let steady = Graph::assemble(nodes, outputs, caps);
        Ok(OptimizedGraph {
            original: graph,
            prologue,
            steady,
            report,
            prologue_done: AtomicBool::new(false),
            replay_lock: Mutex::new(()),
        })
    }

    /// Execute one iteration. On a fully disarmed queue this replays the
    /// optimized steady graph (after running the hoisted prologue once);
    /// on an armed queue or capability mismatch it degrades to the
    /// original recording's hardened [`Graph::submit_each`] path — the
    /// optimized schedule never runs with a hardening layer active.
    pub fn replay(&self, q: &Queue) -> Result<()> {
        let _lock = lock(&self.replay_lock);
        if !self.original.fast_eligible(q) {
            // Graph::replay re-checks eligibility and routes through its
            // hardened submit_each path, counting the replay.
            return self.original.replay(q);
        }
        if let Some(p) = &self.prologue {
            if !self.prologue_done.load(Ordering::Acquire) {
                p.replay(q)?;
                self.prologue_done.store(true, Ordering::Release);
            }
        }
        self.steady.replay(q)
    }

    /// What the pass pipeline rewrote, deterministically.
    pub fn report(&self) -> &OptReport {
        &self.report
    }

    /// Nodes in the optimized steady graph. Swap steps count as nodes
    /// here (they occupy a schedule slot) but not as kernel launches in
    /// [`OptReport::launches_after`].
    pub fn steady_nodes(&self) -> usize {
        self.steady.len()
    }

    /// Fast single-wake-up replays of the optimized steady graph.
    pub fn fast_replays(&self) -> u64 {
        self.steady.fast_replays()
    }

    /// Replays that degraded to the hardened original recording.
    pub fn hardened_replays(&self) -> u64 {
        self.original.replays()
    }

    /// Times the hoisted prologue has executed (0 or 1).
    pub fn prologue_runs(&self) -> u64 {
        self.prologue.as_ref().map(Graph::replays).unwrap_or(0)
    }

    /// Aggregate launch statistics of the most recent steady replay.
    pub fn steady_stats(&self) -> crate::event::LaunchStats {
        self.steady.aggregate_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::device::Device;
    use crate::graph::{reads, reads_at, reads_writes_at, writes_at};
    use crate::prove::{at, IndexExpr};
    use crate::ndrange::Range;

    fn disarmed(q: Queue) -> Queue {
        q.with_fault_plan(None).with_sanitizer(false)
    }

    /// Every kernel here touches element `gid` of a buffer as long as
    /// its range.
    fn own() -> [IndexExpr; 1] {
        [at(0).item(0, 1)]
    }

    /// An armed queue must never run the optimized steady schedule: the
    /// replay degrades to the hardened original recording.
    #[test]
    fn armed_queue_degrades_to_hardened_original() {
        let q = disarmed(Queue::new(Device::cpu()));
        let n = 128;
        let a = Buffer::from_slice(&vec![3u32; n]);
        let x = Buffer::<u32>::new(n);
        let (av, xv) = (a.view(), x.view());
        let (ab, xb) = (a.clone(), x.clone());
        let av2 = a.view();
        let g = Graph::record(&q, move |g| {
            g.parallel_for("wx", Range::d1(n), &[reads(&ab), writes_at(&xb, own())], move |it| {
                xv.set(it.gid(0), av.get(it.gid(0)) + 1);
            })
            .parallel_for("wa", Range::d1(n), &[reads_writes_at(&ab, own(), own())], move |it| {
                av2.update(it.gid(0), |v| v + 1);
            })
            .output(&ab)
            .output(&xb);
        })
        .unwrap();
        let og = OptimizedGraph::compile(g).unwrap();

        let armed = q.clone().with_sanitizer(true);
        og.replay(&armed).unwrap();
        assert_eq!(og.fast_replays(), 0);
        assert_eq!(og.hardened_replays(), 1);
        assert!(x.to_vec().iter().all(|&v| v == 4));

        // Disarm again: the same graph switches to the fast optimized
        // path, continuing from the hardened replay's state.
        og.replay(&q).unwrap();
        assert_eq!(og.fast_replays(), 1);
        assert!(x.to_vec().iter().all(|&v| v == 5));
    }

    /// DLE removes a launch whose written buffer is unobservable, and
    /// keeps one alive solely because its buffer is a declared output.
    #[test]
    fn dead_launch_elimination_respects_declared_outputs() {
        let q = disarmed(Queue::new(Device::cpu()));
        let n = 64;
        let out = Buffer::<u32>::new(n);
        let scratch = Buffer::<u32>::new(n);
        let (ov, sv) = (out.view(), scratch.view());
        let (ob, sb) = (out.clone(), scratch.clone());
        let g = Graph::record(&q, move |g| {
            g.parallel_for("live", Range::d1(n), &[writes_at(&ob, own())], move |it| {
                ov.set(it.gid(0), 11);
            })
            .parallel_for("dead", Range::d1(n), &[writes_at(&sb, own())], move |it| {
                sv.set(it.gid(0), 99);
            })
            .output(&ob);
        })
        .unwrap();
        let og = OptimizedGraph::compile(g).unwrap();
        assert_eq!(og.report().eliminated, vec!["dead".to_string()]);
        og.replay(&q).unwrap();
        assert!(out.to_vec().iter().all(|&v| v == 11));
        // The dead launch never ran on the fast path.
        assert!(scratch.to_vec().iter().all(|&v| v == 0));

        // Same recording with scratch declared an output: nothing dies.
        let (ov, sv) = (out.view(), scratch.view());
        let (ob, sb) = (out.clone(), scratch.clone());
        let g2 = Graph::record(&q, move |g| {
            g.parallel_for("live", Range::d1(n), &[writes_at(&ob, own())], move |it| {
                ov.set(it.gid(0), 11);
            })
            .parallel_for("kept", Range::d1(n), &[writes_at(&sb, own())], move |it| {
                sv.set(it.gid(0), 99);
            })
            .output(&ob)
            .output(&sb);
        })
        .unwrap();
        let og2 = OptimizedGraph::compile(g2).unwrap();
        assert!(og2.report().eliminated.is_empty());
        og2.replay(&q).unwrap();
        assert!(scratch.to_vec().iter().all(|&v| v == 99));
    }

    /// Ping-pong: copy(src→dst) + dense rewrite of src becomes an O(1)
    /// swap, bit-equal to the copy-based recording — including views
    /// captured at record time (aliasing safety: the swap must retarget
    /// them, not leave them on the old allocation).
    #[test]
    fn ping_pong_swap_matches_copy_semantics() {
        let q = disarmed(Queue::new(Device::cpu()));
        let n = 500;
        let vars = Buffer::from_slice(&(0..n as u64).collect::<Vec<_>>());
        let old = Buffer::<u64>::new(n);
        let record = |vars: &Buffer<u64>, old: &Buffer<u64>| {
            let (ov2, vv2) = (old.view(), vars.view());
            let (vb, ob) = (vars.clone(), old.clone());
            Graph::record(&q, move |g| {
                g.copy("save", &vb, &ob)
                    .parallel_for(
                        "step",
                        Range::d1(n),
                        &[reads_at(&ob, own()), writes_at(&vb, own())],
                        move |it| {
                            let i = it.gid(0);
                            vv2.set(i, ov2.get(i) * 3 + 1);
                        },
                    )
                    .output(&vb);
            })
            .unwrap()
        };

        let baseline = record(&vars, &old);
        for _ in 0..4 {
            baseline.submit_each(&q).unwrap();
        }
        let expect = vars.to_vec();

        vars.write_from(&(0..n as u64).collect::<Vec<_>>());
        old.write_from(&vec![0; n]);
        let og = OptimizedGraph::compile(record(&vars, &old)).unwrap();
        assert_eq!(og.report().swapped, vec!["save".to_string()]);
        assert_eq!(og.report().launches_after, 1);
        for _ in 0..4 {
            og.replay(&q).unwrap();
        }
        assert_eq!(vars.to_vec(), expect);
        // `old` must hold the previous iteration's state, exactly as
        // the copy-based path would leave it.
        let prev: Vec<u64> = expect.iter().map(|&v| (v - 1) / 3).collect();
        assert_eq!(old.to_vec(), prev);
    }

    /// Hoisting runs a loop-invariant init launch exactly once.
    #[test]
    fn hoisted_prologue_runs_once() {
        let q = disarmed(Queue::new(Device::cpu()));
        let n = 32;
        let lut = Buffer::<u32>::new(n);
        let acc = Buffer::<u32>::new(n);
        let (lv, av) = (lut.view(), acc.view());
        let lv2 = lut.view();
        let (lb, ab) = (lut.clone(), acc.clone());
        let g = Graph::record(&q, move |g| {
            g.parallel_for("init_lut", Range::d1(n), &[writes_at(&lb, own())], move |it| {
                lv.set(it.gid(0), it.gid(0) as u32 * 10);
            })
            .parallel_for(
                "accumulate",
                Range::d1(n),
                &[reads_at(&lb, own()), reads_writes_at(&ab, own(), own())],
                move |it| {
                    let i = it.gid(0);
                    av.update(i, |v| v + lv2.get(i));
                },
            )
            .output(&ab);
        })
        .unwrap();
        let og = OptimizedGraph::compile(g).unwrap();
        assert_eq!(og.report().hoisted, vec!["init_lut".to_string()]);
        for _ in 0..3 {
            og.replay(&q).unwrap();
        }
        assert_eq!(og.prologue_runs(), 1);
        assert_eq!(og.fast_replays(), 3);
        let acc_v = acc.to_vec();
        assert!(acc_v.iter().enumerate().all(|(i, &v)| v == i as u32 * 30));
    }

    /// A recording no pass rewrites compiles to a verbatim replay.
    #[test]
    fn level_none_is_verbatim() {
        let q = disarmed(Queue::new(Device::cpu()));
        let n = 64;
        let x = Buffer::<u32>::new(n);
        let xv = x.view();
        let xb = x.clone();
        let g = Graph::record(&q, move |g| {
            g.parallel_for("w", Range::d1(n), &[reads_writes_at(&xb, own(), own())], move |it| {
                xv.update(it.gid(0), |v| v + 5);
            })
            .output(&xb);
        })
        .unwrap();
        let og = OptimizedGraph::compile(g).unwrap();
        assert_eq!(
            *og.report(),
            OptReport { launches_before: 1, launches_after: 1, ..OptReport::default() }
        );
        assert_eq!(og.steady_nodes(), 1);
        og.replay(&q).unwrap();
        og.replay(&q).unwrap();
        assert_eq!(og.prologue_runs(), 0);
        assert!(x.to_vec().iter().all(|&v| v == 10));
    }
}
