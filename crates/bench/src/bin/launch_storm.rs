//! `launch_storm` — launch-overhead microbenchmark for the persistent
//! worker pool.
//!
//! Fires a storm of small kernel launches (default 10,000 launches of a
//! 4096-item / 64-group kernel) through the executor's direct-launch
//! entry (`run_groups_contained`, the one-node case of the walk every
//! launch and graph replay runs): workers park on a condvar between
//! launches, so a launch costs one mutex push + wake. Prints the per-launch
//! median, gates the pool's dispatch and allocation counts, and writes
//! `BENCH_launch_storm.json` (or the path given as the first argument).
//!
//! A second, *imbalanced* phase runs the walk's work-stealing spans on a
//! one-node launch whose per-group cost grows linearly with the group
//! index — the triangular cost profile of NW's wavefronts, where static
//! spans would leave the last worker holding most of the work. `--steal`
//! gates the measured wall against that static schedule's analytic cost.
//!
use std::process::ExitCode;
use std::time::Duration;

use altis_bench::report::{self, Op, Report};
use altis_bench::timing::{median, samples};
use hetero_rt::executor::{run_groups_contained, Parallelism};
use hetero_rt::{pool, Buffer, GroupCtx, NdRange};

const USAGE: &str = "launch_storm [out.json] [--launches N] [--steal]";
const ITEMS: usize = 4096;
const GROUP: usize = 64;
const ROUNDS: usize = 3;
const STEAL_GATE: f64 = 1.2;

fn main() -> ExitCode {
    report::run(USAGE, &["--launches"], &["--steal"], |args| {
        let launches: usize = args.get("--launches", 10_000)?;
        let mut report = Report::new("launch_storm");
        let threads = report.threads();

        let nd = NdRange::d1(ITEMS, GROUP);
        let buf = Buffer::<f32>::new(ITEMS);
        let view = buf.view();
        let kernel = |ctx: &GroupCtx| {
            ctx.items(|item| {
                let i = item.global_linear;
                view.set(i, (i as f32).mul_add(1.5, 0.25));
            });
        };
        println!(
            "launch storm: {launches} launches x {ITEMS} items / {GROUP}-item groups, {threads} threads"
        );

        // The pool's dispatched/allocated deltas across the storms: one
        // warm-up plus ROUNDS timed ones.
        let (d0, a0) = (pool::jobs_dispatched(), pool::jobs_allocated());
        let pooled = median(&samples(ROUNDS, || {
            for _ in 0..launches {
                let auto = Parallelism::Auto;
                run_groups_contained(nd, auto, 1 << 20, "storm", None, None, None, &kernel)
                    .expect("clean launch");
            }
        }));
        let dispatched = pool::jobs_dispatched() - d0;
        let allocated = pool::jobs_allocated() - a0;

        let per_launch_us = pooled / launches as f64 * 1e6;
        println!("  pooled (persistent pool): {pooled:>9.4}s total, {per_launch_us:>8.2} us/launch");
        println!(
            "  pool: {} worker threads spawned once; storms dispatched {dispatched} jobs, \
             allocated {allocated} job blocks",
            pool::spawned_threads(),
        );
        report
            .set("launches", launches)
            .set("items_per_launch", ITEMS)
            .set("group_size", GROUP)
            .set("pooled_total_s", pooled)
            .set("pooled_us_per_launch", per_launch_us)
            .set("pool_threads_spawned", pool::spawned_threads())
            .set("pooled_dispatch_delta", dispatched)
            .set("pooled_alloc_delta", allocated);
        // Accounting gates: every pooled launch dispatches exactly one
        // job (no double-count, no dropped empty-job count), and
        // thread-local scratch reuse keeps fresh job allocations to a
        // sliver of the dispatch count.
        let expected = ((ROUNDS + 1) * launches) as f64;
        report.gate("pooled jobs dispatched", dispatched as f64, Op::Eq, expected);
        report.gate("pooled job blocks allocated", allocated as f64, Op::Le, expected / 2.0);

        // Imbalanced phase: per-group cost ∝ group index — the triangular
        // profile of an NW wavefront — as a one-node walk of one-item
        // groups. Per-group cost is a simulated device-occupancy delay
        // (sleep, like a kernel holding an accelerator lane), not a CPU
        // spin: a spin would serialize on single-core CI boxes and
        // measure the OS scheduler's time-slicing instead of the walk's
        // schedule quality. Delays overlap across participants regardless
        // of host core count, so static whole-span chunking takes what its
        // last span sleeps — (2T−1)/T² of the summed delay (75% at T = 2,
        // ≈ 44% at T = 4) — by construction, and stealing is held against
        // that bound rather than against a second claim mode run beside
        // it. Without a steal the last span alone sleeps the bound, so the
        // gate cannot pass unless the walk steals.
        const STEAL_GROUPS: usize = 32;
        const STEAL_US_PER_STEP: u64 = 200;
        let wave = |ctx: &GroupCtx| {
            let g = ctx.group_linear() as u64;
            std::thread::sleep(Duration::from_micros((g + 1) * STEAL_US_PER_STEP));
        };
        let steal_nd = NdRange::d1(STEAL_GROUPS, 1);
        let stealing = median(&samples(ROUNDS, || {
            let auto = Parallelism::Auto;
            run_groups_contained(steal_nd, auto, 1 << 20, "wave", None, None, None, &wave)
                .expect("clean launch")
        }));
        let summed_steps = (STEAL_GROUPS * (STEAL_GROUPS + 1) / 2) as f64;
        let t = threads as f64;
        let static_bound =
            summed_steps * STEAL_US_PER_STEP as f64 * 1e-6 * (2.0 * t - 1.0) / (t * t);
        println!(
            "  imbalanced (cost ∝ group, {STEAL_GROUPS} groups, {STEAL_US_PER_STEP} us/step): \
             stealing {stealing:.4}s against a static bound of {static_bound:.4}s"
        );
        report
            .set("steal_items", STEAL_GROUPS)
            .set("steal_us_per_step", STEAL_US_PER_STEP)
            .set("steal_static_bound_s", static_bound)
            .set("steal_stealing_s", stealing);
        if args.has("--steal") {
            report.gate(
                "stealing wall x 1.2 on the imbalanced phase",
                stealing * STEAL_GATE,
                Op::Le,
                static_bound,
            );
        }
        Ok(report.finish(&args.out("BENCH_launch_storm.json")))
    })
}
