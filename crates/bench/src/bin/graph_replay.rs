//! `graph_replay` — record-and-replay overhead microbenchmark plus the
//! graph-equivalence matrix.
//!
//! Every comparison is [`paired`] — alternating runs, reported and
//! gated as the median pair ratio:
//!
//! * **microbench** — a recorded graph of 16 small kernels replayed
//!   back-to-back (`Graph::replay`: one pool wake-up per replay, no
//!   per-launch validation/chunking) against the same graph driven
//!   through the hardened per-launch path (`Graph::submit_each`). The
//!   per-launch overhead ratio is the headline number; `--gate X` exits
//!   nonzero when it falls below X.
//! * **FDTD2D end-to-end** — the paper's Figure 1 launch-overhead case
//!   study: `run_with(..., PerLaunch)` vs `run_with(..., Graph)` at
//!   size 1 and at a launch-bound configuration (tiny grid, thousands
//!   of steps) where the non-kernel share dominates and the win is
//!   well clear of scheduler noise.
//!
//! `--matrix` additionally runs the 5-app × 3-flavor graph-equivalence
//! matrix at size 1 (sequential / pooled per-launch / pooled graph, all
//! against golden) and fails on any diverging cell.
//!
//! Writes `BENCH_graph_replay.json` (or the path given as the first
//! positional argument).

use std::process::ExitCode;

use altis_bench::json::{arr, Obj};
use altis_bench::report::{self, Op, Report};
use altis_bench::timing::paired;
use altis_core::common::{AppVersion, ExecMode};
use altis_core::suite::graph_mode_matrix;
use altis_data::InputSize;
use hetero_rt::prelude::*;

const USAGE: &str = "graph_replay [out.json] [--gate X] [--matrix]";

// Two tiny groups per node: enough to engage the pool on both paths (a
// single-group launch runs inline and measures nothing), small enough
// that per-launch *overhead* — wake-ups, validation, arming checks —
// dominates the measurement instead of kernel work.
const NODES: usize = 16;
const ITEMS: usize = 8;
const GROUP: usize = 4;
/// Pairs per microbenchmark and per end-to-end comparison.
const ROUNDS: usize = 9;
/// Replays of the graph per timed sample.
const REPLAYS: usize = 2_000;

fn main() -> ExitCode {
    report::run(USAGE, &["--gate"], &["--matrix"], |args| {
        let gate: Option<f64> = args.opt("--gate")?;
        let mut report = Report::new("graph_replay");

        let q = Queue::new(Device::cpu());
        let bufs: Vec<Buffer<f32>> = (0..NODES).map(|_| Buffer::<f32>::new(ITEMS)).collect();
        let graph = Graph::record(&q, |g| {
            for buf in &bufs {
                let view = buf.view();
                // Each node owns its buffer: record-time dependency analysis
                // proves the nodes independent and coalesces them into one
                // phase — one pool wake-up executes all of them. The
                // in-order per-launch path below must submit (and wake the
                // pool for) each node separately; that gap *is* the recorded
                // graph's overhead advantage.
                g.nd_range(
                    "graph_storm",
                    NdRange::d1(ITEMS, GROUP),
                    &[reads_writes(buf)],
                    move |ctx: &GroupCtx| {
                        ctx.items(|item| {
                            let i = item.global_linear;
                            view.set(i, view.get(i).mul_add(1.0, 0.5));
                        });
                    },
                );
            }
        })
        .expect("record failed");
        assert_eq!(graph.phase_count(), 1, "independent nodes should share one phase");

        println!(
            "graph replay: {NODES}-node graph x {REPLAYS} replays, {ITEMS} items / {GROUP}-item groups, {} threads",
            report.threads()
        );
        let times = |f: &dyn Fn()| (0..REPLAYS).for_each(|_| f());

        let micro = paired(
            ROUNDS,
            || times(&|| graph.submit_each(&q).expect("submit failed")),
            || times(&|| graph.replay(&q).expect("replay failed")),
        );
        assert!(graph.fast_replays() > 0, "hardening disarmed but the fast path never ran");
        let per_launch_us = |s: f64| s / (REPLAYS * NODES) as f64 * 1e6;
        println!(
            "  replay     (single wake-up): {:>8.4}s total, {:>8.3} us/launch",
            micro.b_s,
            per_launch_us(micro.b_s)
        );
        println!(
            "  submit_each (per-launch):    {:>8.4}s total, {:>8.3} us/launch",
            micro.a_s,
            per_launch_us(micro.a_s)
        );
        println!(
            "  per-launch overhead ratio: {:.2}x (spread {:.1}%)",
            micro.ratio,
            micro.spread * 100.0
        );
        report
            .set("nodes", NODES)
            .set("replays", REPLAYS)
            .set("items_per_launch", ITEMS)
            .set("group_size", GROUP)
            .set("replay_total_s", micro.b_s)
            .set("submit_each_total_s", micro.a_s)
            .set("replay_us_per_launch", per_launch_us(micro.b_s))
            .set("submit_us_per_launch", per_launch_us(micro.a_s))
            .set("overhead_ratio", micro.ratio)
            .set("overhead_ratio_spread", micro.spread)
            .set("fast_replays", graph.fast_replays());

        let fdtd = |p: &altis_data::Fdtd2dParams, mode: ExecMode| {
            let out = altis_core::fdtd2d::run_with(&q, p, AppVersion::SyclOptimized, mode);
            assert!(out.ez.iter().all(|v| v.is_finite()));
        };
        let s1 = altis_data::fdtd2d(InputSize::S1);
        let fdtd_s1 =
            paired(ROUNDS, || fdtd(&s1, ExecMode::PerLaunch), || fdtd(&s1, ExecMode::Graph));
        println!(
            "  FDTD2D size 1: per-launch {:.1} ms, graph {:.1} ms, speedup {:.2}x",
            fdtd_s1.a_s * 1e3,
            fdtd_s1.b_s * 1e3,
            fdtd_s1.ratio
        );
        // Figure 1's overhead-bound regime, exaggerated: a grid small enough
        // that each kernel is under a microsecond (15 rows of one lane window
        // plus tail), over thousands of steps. Here the non-kernel share is
        // the majority of the runtime, so the recorded graph's advantage
        // stays measurable.
        let lb = altis_data::Fdtd2dParams { dim: 16, steps: 4_000 };
        let fdtd_lb =
            paired(ROUNDS, || fdtd(&lb, ExecMode::PerLaunch), || fdtd(&lb, ExecMode::Graph));
        println!(
            "  FDTD2D launch-bound (dim {}, {} steps): per-launch {:.1} ms, graph {:.1} ms, speedup {:.2}x",
            lb.dim,
            lb.steps,
            fdtd_lb.a_s * 1e3,
            fdtd_lb.b_s * 1e3,
            fdtd_lb.ratio
        );
        report
            .set("fdtd2d_s1_per_launch_s", fdtd_s1.a_s)
            .set("fdtd2d_s1_graph_s", fdtd_s1.b_s)
            .set("fdtd2d_s1_speedup", fdtd_s1.ratio)
            .set("fdtd2d_launch_bound_dim", lb.dim)
            .set("fdtd2d_launch_bound_steps", lb.steps)
            .set("fdtd2d_launch_bound_per_launch_s", fdtd_lb.a_s)
            .set("fdtd2d_launch_bound_graph_s", fdtd_lb.b_s)
            .set("fdtd2d_launch_bound_speedup", fdtd_lb.ratio);

        let mut matrix = None;
        if args.has("--matrix") {
            println!("  equivalence matrix (size 1):");
            let rows = graph_mode_matrix(InputSize::S1);
            for (name, flavor, ok) in &rows {
                println!("    {name:<10} {:<12} {}", flavor.label(), if *ok { "ok" } else { "DIVERGED" });
                if !ok {
                    eprintln!("graph matrix diverged from golden: {name} [{}]", flavor.label());
                }
            }
            let diverged = rows.iter().filter(|(_, _, ok)| !ok).count();
            report.gate("graph matrix cells diverged from golden", diverged as f64, Op::Eq, 0.0);
            matrix = Some(arr(rows.iter().map(|(name, flavor, ok)| {
                Obj::new().set("app", *name).set("flavor", flavor.label()).set("ok", *ok)
            })));
        }
        report.set("matrix", matrix);

        if let Some(g) = gate {
            if report.gate("replay overhead ratio", micro.ratio, Op::Ge, g) {
                println!("gate {g}x passed ({:.2}x)", micro.ratio);
            }
        }
        Ok(report.finish(&args.out("BENCH_graph_replay.json")))
    })
}
