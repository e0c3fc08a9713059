//! `hook_overhead` — what the robustness layers cost a process that
//! never turns them on, on the `launch_storm` workload (many small
//! launches through the persistent pool).
//!
//! Each gate is one hook's own cost per launch held against the cost of
//! a pooled launch, and must stay **under 2%**:
//!
//! * **fault hooks** — the walk every launch runs consults an optional
//!   fault plan on every launch and work-group: an idle plan (rate 0, every
//!   hook runs, nothing injects) against no plan;
//! * **sanitizer hook** — every `GlobalView` accessor calls into
//!   `hetero_rt::sanitize` (one relaxed load and a predictable branch
//!   when disarmed): the ordinary `set` against `set_unhooked`, the
//!   same accessor with the hook compiled out.
//!
//! The SDC layer has no hook on a plain launch: it is scoped to the
//! launches of integrity queues, and `hetero-rt/tests/sdc.rs` pins by
//! count that a plain launch and a plain replay leave
//! `integrity::stats()` unchanged.
//!
//! Every comparison is [`paired`] launch by launch — one launch of each
//! arm per round, alternating which goes first — and read as the median
//! pair ratio: clock drift between separately timed blocks easily
//! exceeds the 2% being measured, while wake-up jitter on single
//! launches only widens a spread the median ignores. The fault and
//! sanitizer hooks are isolated on the walk's inline arm
//! (`Parallelism::Sequential`): pooled, a few nanoseconds per group
//! tip the work-stealing schedule into a different regime for the life
//! of the process and the same pair reads anywhere from −5% to +8%
//! (EXPERIMENTS.md, PR 13), which measures the pool, not the hook.
//!
//! A fourth section, `item_loop`, gates what the runtime itself charges
//! per work-item: a one-store `parallel_for` over a 1-D and a 2-D range
//! of 2^20 indices on the same inline path, in ns per work-item, each
//! **at most 5 ns**. The store is the whole body, so the number is the
//! work-item loop — id bookkeeping, the flat-range adapter, the checked
//! accessor — and a division or a thread-local access per item in it
//! fails the gate (about 11 ns either way with a `delinearize` per item).
//!
//! A fifth section, `lane_access`, prices a disarmed lane access: an
//! 8-wide stencil body (FDTD2D's hx update, `h - c·(a - b)`, through
//! `lanes::sweep` over `GlobalView`s) against the same stencil as a
//! plain slice loop, over a 256² plane on the calling thread, in ns per
//! element. The body's excess over the loop is **at most 1 ns** per
//! element: it read 0.32–0.63 ns in ten of ten runs on the stamped host,
//! and 1.6–2.1 ns while every lane access carried its armed-sanitizer
//! loop inline (EXPERIMENTS.md).
//!
//! Reported, not gated: the disarmed queue against the walk's
//! direct-launch entry, `run_groups_contained` (the whole queue layer —
//! retry loop and event bookkeeping — mostly predating the defense), and
//! DMR voting on top of an armed launch (two replica runs, a snapshot, a
//! restore and two digests: 1.3–2.1× the armed launch on the stamped
//! host).
//!
//! The armed launch itself — page-checksum verify and reseal per launch
//! — is gated: `sdc.armed_vs_disarmed_pct` pairs an integrity queue's
//! launch with a plain queue's, launch by launch, each on a buffer of
//! its own (a plain launch on a sealed buffer would fail the armed entry
//! verify), and must stay **at most 80%**. Paired, it read 33.6–60.1 % in
//! twenty-one runs on the stamped host (2 threads); timed seconds apart
//! from its baseline it had read 19.5–78.3 % (EXPERIMENTS.md).
//!
//! Writes `BENCH_hook_overhead.json` (or the positional argument).

use std::process::ExitCode;
use std::sync::Arc;

use altis_bench::json::Obj;
use altis_bench::report::{self, Op, Report};
use altis_bench::timing::{median, paired, samples, Paired};
use hetero_rt::executor::{run_groups_contained, Parallelism};
use hetero_rt::lanes::{self, Lanes};
use hetero_rt::{
    integrity, writes, Binding, Buffer, Device, FaultPlan, GlobalView, GroupCtx, Hardening,
    NdRange, Queue, Range, Redundancy,
};

const USAGE: &str = "hook_overhead [out.json] [--launches N]";
const ITEMS: usize = 4096;
const GROUP: usize = 64;
/// `sdc.armed_vs_disarmed_pct`'s bound: it read 33.6–60.1 % paired in
/// twenty-one runs on the stamped host.
const ARMED_PCT: f64 = 80.0;

/// One direct launch through the walk's one-node entry, monomorphised per
/// kernel so each arm's body inlines as it would in an application.
fn launch<K: Fn(&GroupCtx) + Sync>(how: Parallelism, plan: Option<&FaultPlan>, kernel: &K) {
    let nd = NdRange::d1(ITEMS, GROUP);
    run_groups_contained(nd, how, 1 << 20, "storm", plan, None, None, kernel)
        .expect("clean launch");
}

/// One launch through a queue, stating `bindings`.
fn enqueue<K: Fn(&GroupCtx) + Sync>(q: &Queue, bindings: &[Binding], kernel: &K) {
    q.submit(bindings)
        .nd_range("storm", NdRange::d1(ITEMS, GROUP), |ctx| kernel(ctx))
        .expect("clean launch");
}

/// The storm kernel: one store per work-item into `view`.
fn storm(view: GlobalView<f32>) -> impl Fn(&GroupCtx) + Sync {
    move |ctx| {
        ctx.items(|item| {
            let i = item.global_linear;
            view.set(i, (i as f32).mul_add(1.5, 0.25));
        });
    }
}

/// The `lane_access` plane's side: size 2's FDTD2D grid.
const SIDE: usize = 256;

/// FDTD2D's hx update at flat indices `i..i + W`.
struct HxBody<'a> {
    ez: &'a GlobalView<f32>,
    hx: &'a GlobalView<f32>,
}

impl lanes::Body for HxBody<'_> {
    #[inline]
    fn at<const W: usize>(&self, i: usize) {
        let h = self.hx.get_lanes::<W>(i);
        let d = self.ez.get_lanes(i + SIDE) - self.ez.get_lanes(i);
        self.hx.set_lanes(i, h - Lanes::splat(0.7) * d);
    }
}

/// One hx pass over the plane's `SIDE - 1` rows of `SIDE - 1`
/// elements, as a slice loop.
fn hx_slices(ez: &[f32], hx: &mut [f32]) {
    for row in (0..SIDE - 1).map(|y| y * SIDE) {
        for i in row..row + SIDE - 1 {
            hx[i] -= 0.7 * (ez[i + SIDE] - ez[i]);
        }
    }
}

/// The same pass through the lane body and its accessors.
fn hx_lanes(body: &HxBody) {
    for row in (0..SIDE - 1).map(|y| y * SIDE) {
        lanes::sweep(row, row + SIDE - 1, body);
    }
}

/// `lane_access`: ns per element of the body and of the slice loop, in
/// alternating pairs of 16-pass samples, and the body's excess.
fn lane_access(rounds: usize) -> (Obj, f64) {
    const PASSES: usize = 16;
    let ez_host: Vec<f32> = (0..SIDE * SIDE).map(|i| (i % 97) as f32 * 0.01).collect();
    let (ez, hx) = (Buffer::from_slice(&ez_host), Buffer::<f32>::new(SIDE * SIDE));
    let (ezv, hxv) = (ez.view(), hx.view());
    let body = HxBody { ez: &ezv, hx: &hxv };
    let mut hx_host = vec![0f32; SIDE * SIDE];
    lanes::force(true);
    let t = paired(
        rounds,
        || (0..PASSES).for_each(|_| hx_lanes(std::hint::black_box(&body))),
        || (0..PASSES).for_each(|_| hx_slices(&ez_host, std::hint::black_box(&mut hx_host))),
    );
    let elements = (PASSES * (SIDE - 1) * (SIDE - 1)) as f64;
    let (body_ns, slice_ns) = (t.a_s * 1e9 / elements, t.b_s * 1e9 / elements);
    println!(
        "  lane access       : {body_ns:>8.3} ns/element body, {slice_ns:.3} slice loop \
         ({:+.3} ns, {:.2}x, spread {:.1}%)",
        body_ns - slice_ns,
        t.ratio,
        t.spread * 100.0
    );
    let row = Obj::new()
        .set("elements_per_sample", elements)
        .set("body_ns_per_element", body_ns)
        .set("slice_ns_per_element", slice_ns)
        .set("excess_ns_per_element", body_ns - slice_ns)
        .set("ratio", t.ratio)
        .set("spread", t.spread);
    (row, body_ns - slice_ns)
}

fn main() -> ExitCode {
    report::run(USAGE, &["--launches"], &[], |args| {
        let launches: usize = args.get("--launches", 20_000)?;
        let mut report = Report::new("hook_overhead");
        println!(
            "hook overhead: {launches} paired launches x {ITEMS} items / {GROUP}-item groups, \
             {} threads",
            report.threads()
        );
        report
            .set("launches", launches)
            .set("items_per_launch", ITEMS)
            .set("group_size", GROUP)
            .set("target_pct", 2.0);

        let buf = Buffer::<f32>::new(ITEMS);
        let unhooked_view = buf.view();
        let kernel = storm(buf.view());
        let unhooked_kernel = move |ctx: &GroupCtx| {
            ctx.items(|item| {
                let i = item.global_linear;
                unhooked_view.set_unhooked(i, (i as f32).mul_add(1.5, 0.25));
            });
        };
        let us = |s: f64| s * 1e6;
        let pct = |ratio: f64| (ratio - 1.0) * 100.0;

        // The pooled launch every hook cost is held against: the bare
        // executor, paired with the same launch through a disarmed queue.
        assert!(!integrity::armed(), "benchmark must start disarmed");
        let q = Queue::new(Device::cpu());
        let pooled = Parallelism::Auto;
        let bound = [writes(&buf)];
        let layer =
            paired(launches, || enqueue(&q, &bound, &kernel), || launch(pooled, None, &kernel));
        let (disarmed_s, floor_s) = (layer.a_s, layer.b_s);
        println!("  executor direct   : {:>8.2} us/launch", us(floor_s));
        println!(
            "  queue, disarmed   : {:>8.2} us/launch  ({:+.2}% vs floor: whole queue layer)",
            us(disarmed_s),
            pct(layer.ratio)
        );

        // A hook isolated inline: its cost per launch is the pair ratio's
        // excess over the unhooked inline launch, as a share of a pooled one.
        let mut isolated = |name: &str, gate: &str, t: Paired| {
            let hook_s = (t.ratio - 1.0) * t.b_s;
            let overhead_pct = hook_s / floor_s * 100.0;
            println!(
                "  {name:<18}: {:>8.4} us/launch  ({overhead_pct:.3}% of a pooled launch; \
                 {:+.2}% inline, spread {:.1}%)",
                us(hook_s),
                pct(t.ratio),
                t.spread * 100.0
            );
            report.set(
                name,
                Obj::new()
                    .set("hooked_inline_us_per_launch", us(t.a_s))
                    .set("unhooked_inline_us_per_launch", us(t.b_s))
                    .set("inline_overhead_pct", pct(t.ratio))
                    .set("spread", t.spread)
                    .set("hook_us_per_launch", us(hook_s))
                    .set("overhead_pct", overhead_pct),
            );
            report.gate(gate, overhead_pct, Op::Lt, 2.0);
        };
        let inline = Parallelism::Sequential;
        // On the heap, as a queue holds its plan.
        let idle_plan = Arc::new(FaultPlan::new(1, 0.0));
        let fault = paired(
            launches,
            || launch(inline, Some(&idle_plan), &kernel),
            || launch(inline, None, &kernel),
        );
        assert_eq!(idle_plan.injected(), 0, "an idle plan must never inject");
        isolated("fault", "idle fault plan overhead_pct", fault);
        let sanitizer = paired(
            launches,
            || launch(inline, None, &kernel),
            || launch(inline, None, &unhooked_kernel),
        );
        assert!(
            hetero_rt::sanitize::take_last_reports().is_empty(),
            "a disarmed sanitizer must never record"
        );
        isolated("sanitizer", "disarmed sanitizer hook overhead_pct", sanitizer);

        // What a work-item costs when its body is one store. The value
        // stored mixes every id the loop carries, so none is dead code.
        let side = 1usize << 10;
        let cells = Buffer::<u32>::new(side * side);
        let cv = cells.view();
        let qi = Queue::new(Device::cpu()).with_parallelism(inline);
        let mut item_loop = Obj::new().set("items", side * side);
        for (key, range) in [("d1", Range::d1(side * side)), ("d2", Range::d2(side, side))] {
            let per_launch = samples(30, || {
                qi.parallel_for("item_loop", range, |it| {
                    cv.set(it.global_linear, (it.gid(0) ^ it.gid(1)) as u32);
                })
            });
            let ns = median(&per_launch) * 1e9 / (side * side) as f64;
            println!("  item loop, {key}     : {ns:>8.2} ns/work-item (one store, inline)");
            item_loop.push(&format!("{key}_ns_per_item"), ns);
            report.gate(&format!("item_loop {key} ns per work-item"), ns, Op::Le, 5.0);
        }
        report.set("item_loop", item_loop);
        let (lane_row, excess_ns) = lane_access(31);
        report.set("lane_access", lane_row);
        report.gate("lane_access excess ns per element", excess_ns, Op::Le, 1.0);

        // The same launch on integrity queues, on a buffer of its own: the
        // first launch seals it, every one verifies and reseals it. Paired
        // launch by launch with the plain queue, whose launches keep `buf`:
        // a plain write to a sealed buffer would fail the next entry verify.
        let sealed_buf = Buffer::<f32>::new(ITEMS);
        let sealed_kernel = storm(sealed_buf.view());
        let sealed_bound = [writes(&sealed_buf)];
        let sealed = Hardening { integrity: true, ..Hardening::NONE };
        let voted = Hardening { redundancy: Redundancy::Dmr, ..sealed.clone() };
        let (qa, qd) = (Queue::hardened(Device::cpu(), sealed), Queue::hardened(Device::cpu(), voted));
        let armed_launch = || enqueue(&qa, &sealed_bound, &sealed_kernel);
        let armed = paired(launches, armed_launch, || enqueue(&q, &bound, &kernel));
        let dmr = paired(launches, || enqueue(&qd, &sealed_bound, &sealed_kernel), armed_launch);
        let armed_pct = pct(armed.ratio);
        println!(
            "  queue, armed      : {:>8.2} us/launch  ({armed_pct:+.2}% vs disarmed, spread {:.1}%)",
            us(armed.a_s),
            armed.spread * 100.0
        );
        println!("  queue, armed + DMR: {:>8.2} us/launch  ({:.2}x armed)", us(dmr.a_s), dmr.ratio);
        report.set(
            "sdc",
            Obj::new()
                .set("executor_direct_us_per_launch", us(floor_s))
                .set("queue_disarmed_us_per_launch", us(disarmed_s))
                .set("queue_armed_us_per_launch", us(armed.a_s))
                .set("queue_armed_dmr_us_per_launch", us(dmr.a_s))
                .set("queue_layer_vs_floor_pct", pct(layer.ratio))
                .set("armed_vs_disarmed_pct", armed_pct)
                .set("armed_vs_disarmed_spread", armed.spread)
                .set("dmr_vs_armed_ratio", dmr.ratio),
        );
        report.gate("armed integrity launch vs disarmed pct", armed_pct, Op::Le, ARMED_PCT);
        Ok(report.finish(&args.out("BENCH_hook_overhead.json")))
    })
}
