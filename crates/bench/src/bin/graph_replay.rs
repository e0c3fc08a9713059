//! `graph_replay` — record-and-replay overhead microbenchmark plus the
//! graph-equivalence matrix.
//!
//! Two measurements:
//!
//! * **microbench** — a recorded graph of 16 small kernels replayed
//!   back-to-back (`Graph::replay`: one pool wake-up per replay, no
//!   per-launch validation/chunking) against the same graph driven
//!   through the hardened per-launch path (`Graph::submit_each`). The
//!   per-launch overhead ratio is the headline number; `--gate X` exits
//!   nonzero when it falls below X.
//! * **FDTD2D end-to-end** — the paper's Figure 1 launch-overhead case
//!   study: `run_with(..., PerLaunch)` vs `run_with(..., Graph)`,
//!   median of three, at size 1 and at a launch-bound configuration
//!   (tiny grid, thousands of steps) where the non-kernel share
//!   dominates and the win is well clear of scheduler noise.
//!
//! * **fusion microbench + fused end-to-end** — a recorded chain of
//!   four fusible elementwise kernels (plus one dead store) compiled
//!   with the optimizer off and on (`OptimizedGraph`): the full pipeline
//!   fuses the chain into a single launch and eliminates the dead store,
//!   and the replay-time ratio is reported. End-to-end, FDTD2D (3 → 2
//!   launches/step via hx+hy fusion) and CFD FP32 (copy + 2 launches →
//!   swap + 1 fused launch) run fused vs unfused at launch-bound
//!   configurations; `--fusion-gate X` exits nonzero when the FDTD2D
//!   fused speedup falls below X.
//!
//! `--matrix` additionally runs the 5-app × 4-flavor graph-equivalence
//! matrix at size 1 (sequential / pooled per-launch / pooled graph /
//! pooled graph-opt, all against golden) and fails on any diverging
//! cell.
//!
//! Writes `BENCH_graph_replay.json` (or the path given as the first
//! positional argument).
//!
//! Usage:
//! ```text
//! graph_replay [out.json] [--replays N] [--gate X] [--fusion-gate X] [--matrix]
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use altis_core::common::{AppVersion, ExecMode};
use altis_core::suite::graph_mode_matrix;
use altis_data::InputSize;
use hetero_rt::prelude::*;

// Two tiny groups per node: enough to engage the pool on both paths (a
// single-group launch runs inline and measures nothing), small enough
// that per-launch *overhead* — wake-ups, validation, arming checks —
// dominates the measurement instead of kernel work.
const NODES: usize = 16;
const ITEMS: usize = 8;
const GROUP: usize = 4;
const DEFAULT_REPLAYS: usize = 2_000;

/// Median of three timed runs of `rounds` back-to-back calls.
fn median3(rounds: usize, f: impl Fn()) -> Duration {
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..rounds {
                f();
            }
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[1]
}

fn fdtd2d_seconds(q: &Queue, p: &altis_data::Fdtd2dParams, mode: ExecMode) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let out = altis_core::fdtd2d::run_with(q, p, AppVersion::SyclOptimized, mode);
            let dt = t0.elapsed().as_secs_f64();
            assert!(out.ez.iter().all(|v| v.is_finite()));
            dt
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// `(median a, median b, median of a/b)` over `pairs` runs of each mode,
/// timed back to back in alternating order. With row kernels a fused
/// step saves one node dispatch — a few percent — which drift between
/// two separate measurements (this host's speed moves 5-12% within
/// seconds) would otherwise decide; the fusion gate reads the median
/// pair ratio.
fn fdtd2d_paired(
    q: &Queue,
    p: &altis_data::Fdtd2dParams,
    a: ExecMode,
    b: ExecMode,
    pairs: usize,
) -> (f64, f64, f64) {
    let once = |mode: ExecMode| {
        let t0 = Instant::now();
        let out = altis_core::fdtd2d::run_with(q, p, AppVersion::SyclOptimized, mode);
        let dt = t0.elapsed().as_secs_f64();
        assert!(out.ez.iter().all(|v| v.is_finite()));
        dt
    };
    let (mut ta, mut tb, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (x, y) = if i % 2 == 0 {
            let x = once(a);
            (x, once(b))
        } else {
            let y = once(b);
            (once(a), y)
        };
        ta.push(x);
        tb.push(y);
        ratio.push(x / y);
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(&mut ta), median(&mut tb), median(&mut ratio))
}

fn main() {
    // Like launch_storm: overhead comparison is meaningless on a
    // single-threaded pool; force at least 4 workers before the first
    // pool access caches the value.
    if std::env::var_os("HETERO_RT_THREADS").is_none() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("HETERO_RT_THREADS", hw.max(4).to_string());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_graph_replay.json".to_string();
    let mut replays = DEFAULT_REPLAYS;
    let mut gate: Option<f64> = None;
    let mut fusion_gate: Option<f64> = None;
    let mut matrix = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--replays" => {
                replays = it.next().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_REPLAYS)
            }
            "--gate" => gate = it.next().and_then(|v| v.parse().ok()),
            "--fusion-gate" => fusion_gate = it.next().and_then(|v| v.parse().ok()),
            "--matrix" => matrix = true,
            _ => out_path = a.clone(),
        }
    }

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

    let threads = hetero_rt::pool::auto_threads();
    println!(
        "graph replay: {NODES}-node graph x {replays} replays, {ITEMS} items / {GROUP}-item groups, {threads} threads"
    );

    let replayed = median3(replays, || graph.replay(&q).expect("replay failed"));
    let submitted = median3(replays, || graph.submit_each(&q).expect("submit failed"));
    assert!(
        graph.fast_replays() > 0,
        "hardening disarmed but the fast path never ran"
    );

    let launches = (replays * NODES) as f64;
    let replay_us = replayed.as_secs_f64() / launches * 1e6;
    let submit_us = submitted.as_secs_f64() / launches * 1e6;
    let ratio = submit_us / replay_us;
    println!("  replay     (single wake-up): {replayed:>10.3?} total, {replay_us:>8.3} us/launch");
    println!("  submit_each (per-launch):    {submitted:>10.3?} total, {submit_us:>8.3} us/launch");
    println!("  per-launch overhead ratio: {ratio:.2}x");

    let s1 = altis_data::fdtd2d(InputSize::S1);
    let fdtd_per_launch = fdtd2d_seconds(&q, &s1, ExecMode::PerLaunch);
    let fdtd_graph = fdtd2d_seconds(&q, &s1, ExecMode::Graph);
    let fdtd_speedup = fdtd_per_launch / fdtd_graph;
    println!(
        "  FDTD2D size 1: per-launch {:.1} ms, graph {:.1} ms, speedup {fdtd_speedup:.2}x",
        fdtd_per_launch * 1e3,
        fdtd_graph * 1e3
    );
    // Figure 1's overhead-bound regime, exaggerated: a grid small enough
    // that each kernel is under a microsecond (15 rows of one lane window
    // plus tail), over thousands of steps. Here the non-kernel share is
    // the majority of the runtime, so the recorded graph's advantage —
    // and the one node dispatch hx+hy fusion removes — stay measurable.
    let lb = altis_data::Fdtd2dParams { dim: 16, steps: 4_000 };
    let lb_per_launch = fdtd2d_seconds(&q, &lb, ExecMode::PerLaunch);
    let lb_graph = fdtd2d_seconds(&q, &lb, ExecMode::Graph);
    let lb_speedup = lb_per_launch / lb_graph;
    println!(
        "  FDTD2D launch-bound (dim {}, {} steps): per-launch {:.1} ms, graph {:.1} ms, speedup {lb_speedup:.2}x",
        lb.dim,
        lb.steps,
        lb_per_launch * 1e3,
        lb_graph * 1e3
    );

    // --- graph optimizer: fusion microbench ---
    //
    // Four elementwise kernels over the same range, each owning its
    // buffer, plus one dead store into an undeclared scratch buffer.
    // The full pipeline eliminates the dead store and fuses the chain
    // into a single launch; replaying both schedules back-to-back
    // isolates the per-node dispatch cost the fusion pass removes.
    const FUSE_NODES: usize = 4;
    let fuse_bufs: Vec<Buffer<f32>> = (0..FUSE_NODES).map(|_| Buffer::<f32>::new(ITEMS)).collect();
    let scratch = Buffer::<f32>::new(ITEMS);
    let record_fusible = || {
        Graph::record(&q, |g| {
            for buf in &fuse_bufs {
                let view = buf.view();
                g.parallel_for(
                    "fuse_storm",
                    Range::d1(ITEMS),
                    &[reads_writes_item(buf)],
                    move |it: Item| {
                        let i = it.gid(0);
                        view.set(i, view.get(i).mul_add(1.0, 0.5));
                    },
                );
            }
            let sv = scratch.view();
            g.parallel_for(
                "dead_store",
                Range::d1(ITEMS),
                &[writes_dense(&scratch)],
                move |it: Item| sv.set(it.gid(0), 0.0),
            );
            for buf in &fuse_bufs {
                g.output(buf);
            }
        })
        .expect("record failed")
    };
    let unfused = OptimizedGraph::compile(record_fusible(), GraphOptLevel::none())
        .expect("compile (level none) failed");
    let fused = OptimizedGraph::compile(record_fusible(), GraphOptLevel::full())
        .expect("compile (level full) failed");
    println!("  optimizer: {}", fused.report());
    assert_eq!(
        fused.report().eliminated,
        vec!["dead_store".to_string()],
        "dead store should be eliminated"
    );
    assert_eq!(fused.report().launches_after, 1, "chain should fuse to one launch");
    let t_unfused = median3(replays, || unfused.replay(&q).expect("unfused replay failed"));
    let t_fused = median3(replays, || fused.replay(&q).expect("fused replay failed"));
    let fusion_ratio = t_unfused.as_secs_f64() / t_fused.as_secs_f64();
    println!(
        "  fusion microbench ({FUSE_NODES}+1 nodes -> 1): unfused {t_unfused:>10.3?}, fused {t_fused:>10.3?}, ratio {fusion_ratio:.2}x"
    );

    // FDTD2D fused end-to-end at the launch-bound configuration: the
    // optimizer fuses hx+hy, cutting 3 launches/step to 2, on top of
    // the replay win already measured above.
    let (lb_graph_paired, lb_fused, fdtd_fused_speedup) =
        fdtd2d_paired(&q, &lb, ExecMode::Graph, ExecMode::GraphOptimized, 31);
    println!(
        "  FDTD2D launch-bound fused (31 alternating pairs): graph {:.1} ms, graph-opt {:.1} ms, fused speedup {fdtd_fused_speedup:.3}x",
        lb_graph_paired * 1e3,
        lb_fused * 1e3
    );

    // CFD fused end-to-end: the recorded save_state copy becomes an
    // O(1) buffer swap and flux+time_step fuse, so each replay runs one
    // launch instead of a full copy plus two launches. Small mesh, many
    // iterations keeps the run launch-bound.
    let cfd_p = altis_data::CfdParams { nelr: 256, iterations: 800 };
    let cfd_seconds = |mode: ExecMode| {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let out = altis_core::cfd::run_with::<f32>(&q, &cfd_p, AppVersion::SyclOptimized, mode);
                let dt = t0.elapsed().as_secs_f64();
                assert!(out.iter().all(|v| v.is_finite()));
                dt
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[1]
    };
    let cfd_graph_s = cfd_seconds(ExecMode::Graph);
    let cfd_fused_s = cfd_seconds(ExecMode::GraphOptimized);
    let cfd_fused_speedup = cfd_graph_s / cfd_fused_s;
    println!(
        "  CFD launch-bound (nelr {}, {} iters): graph {:.1} ms, graph-opt {:.1} ms, fused speedup {cfd_fused_speedup:.2}x",
        cfd_p.nelr,
        cfd_p.iterations,
        cfd_graph_s * 1e3,
        cfd_fused_s * 1e3
    );

    let mut matrix_json = String::from("null");
    if matrix {
        println!("  equivalence matrix (size 1):");
        let rows = graph_mode_matrix(InputSize::S1);
        let mut failed = Vec::new();
        matrix_json = String::from("[");
        for (i, (name, flavor, ok)) in rows.iter().enumerate() {
            println!("    {name:<10} {:<12} {}", flavor.label(), if *ok { "ok" } else { "DIVERGED" });
            if i > 0 {
                matrix_json.push_str(", ");
            }
            let _ = write!(
                matrix_json,
                "{{\"app\": \"{name}\", \"flavor\": \"{}\", \"ok\": {ok}}}",
                flavor.label()
            );
            if !ok {
                failed.push(format!("{name} [{}]", flavor.label()));
            }
        }
        matrix_json.push(']');
        if !failed.is_empty() {
            eprintln!("FAIL: graph matrix diverged from golden: {failed:?}");
            std::process::exit(1);
        }
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"benchmark\": \"graph_replay\",\n  \"nodes\": {NODES},\n  \"replays\": {replays},\n  \
         \"items_per_launch\": {ITEMS},\n  \"group_size\": {GROUP},\n  \"threads\": {threads},\n  \
         \"replay_total_s\": {:.6},\n  \"submit_each_total_s\": {:.6},\n  \
         \"replay_us_per_launch\": {:.3},\n  \"submit_us_per_launch\": {:.3},\n  \
         \"overhead_ratio\": {:.3},\n  \"fast_replays\": {},\n  \
         \"fdtd2d_s1_per_launch_s\": {:.6},\n  \"fdtd2d_s1_graph_s\": {:.6},\n  \
         \"fdtd2d_s1_speedup\": {:.3},\n  \
         \"fdtd2d_launch_bound_dim\": {},\n  \"fdtd2d_launch_bound_steps\": {},\n  \
         \"fdtd2d_launch_bound_per_launch_s\": {:.6},\n  \"fdtd2d_launch_bound_graph_s\": {:.6},\n  \
         \"fdtd2d_launch_bound_speedup\": {:.3},\n  \
         \"fusion_microbench_ratio\": {:.3},\n  \
         \"fdtd2d_launch_bound_fused_s\": {:.6},\n  \"fdtd2d_fused_speedup\": {:.3},\n  \
         \"cfd_nelr\": {},\n  \"cfd_iterations\": {},\n  \
         \"cfd_graph_s\": {:.6},\n  \"cfd_fused_s\": {:.6},\n  \"cfd_fused_speedup\": {:.3},\n  \
         \"matrix\": {matrix_json}\n}}\n",
        replayed.as_secs_f64(),
        submitted.as_secs_f64(),
        replay_us,
        submit_us,
        ratio,
        graph.fast_replays(),
        fdtd_per_launch,
        fdtd_graph,
        fdtd_speedup,
        lb.dim,
        lb.steps,
        lb_per_launch,
        lb_graph,
        lb_speedup,
        fusion_ratio,
        lb_fused,
        fdtd_fused_speedup,
        cfd_p.nelr,
        cfd_p.iterations,
        cfd_graph_s,
        cfd_fused_s,
        cfd_fused_speedup,
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write '{out_path}': {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if let Some(g) = gate {
        if ratio < g {
            eprintln!("FAIL: overhead ratio {ratio:.2}x below gate {g}x");
            std::process::exit(1);
        }
        println!("gate {g}x passed ({ratio:.2}x)");
    }
    if let Some(g) = fusion_gate {
        if fdtd_fused_speedup < g {
            eprintln!("FAIL: FDTD2D fused speedup {fdtd_fused_speedup:.3}x below gate {g}x");
            std::process::exit(1);
        }
        println!("fusion gate {g}x passed ({fdtd_fused_speedup:.3}x)");
    }
}
