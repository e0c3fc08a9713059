//! `stream_storm` — sustained windowed-streaming throughput, tail
//! latency, and the live-fault containment gates.
//!
//! For each streaming-converted app (SRAD, FDTD2D, KMeans, PF Naive):
//!
//! 1. **Golden trail** — run the stream fault-free and record every
//!    window's state digest. This is the bit-exactness oracle for the
//!    faulted runs (and the clean-throughput baseline).
//! 2. **Live-fault storm** — re-run the same window sequence with a
//!    seeded *transient-launch* fault plan on the primary queue at each
//!    rate (default 0.01 and 0.05 faults/launch; transient-only so the
//!    rate axis is per-launch-meaningful — the runtime's panic faults
//!    are permanent per work group and are exercised separately).
//!    *Gates*:
//!    * the stream survives every window (faults are contained to
//!      windows; only cancellation may stop a stream),
//!    * zero `Dropped` verdicts (no window is lost),
//!    * every `Delivered` window's digest is bit-equal to the golden
//!      trail at the same index,
//!    * every non-`Delivered` window traces back to injected faults
//!      (`non_delivered <= faults injected`), and at the high rate
//!      faults were actually exercised (`non_delivered > 0`).
//!
//!    A third run per app has a *permanently stuck work-group* (group 0
//!    of the window graph's first kernel panics every time): no window
//!    can deliver from the primary path, so every one exercises
//!    checkpoint rollback — that run is where rollback cost is
//!    measured. Same containment and bit-exactness gates apply, plus a
//!    count: every rollback replays exactly one window
//!    (`replayed == rollbacks`), because each recovery seals the state
//!    it recovered.
//!
//! Reports per-(app, rate): windows/sec, p50/p99 window latency,
//! rollback count and mean rollback cost, and per app the stuck-group
//! run's windows/sec over the clean run's (`stuck_over_clean`). Writes
//! `BENCH_stream_storm.json` (or the path given as the first argument).
//!
//! Per app it also splits a clean window into its state digest and the
//! rest: `window_us` (mean clean window), `digest_us` (median of
//! [`DIGEST_CALLS`] `AppStream::digest` calls on the warmed stream) and
//! `digest_frac`. *Gate*: FDTD2D's digest costs at most
//! [`DIGEST_NS_PER_WORD`] per 4-byte word of carried state, a per-unit
//! cost like `hook_overhead`'s `item_loop`, not a share of a window that
//! moves with the kernels. Splitting the rest into replay, copies and
//! runner waits is left to span tracing inside the runtime (ROADMAP).
//!
//! Default 1280 windows per run: 4 apps x (2 rates + the stuck-group
//! run) x 1280 = 15360 faulted windows per full run.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use altis_bench::json::{arr, Obj};
use altis_bench::report::{self, Op, Report};
use altis_bench::timing::{median, percentile};
use altis_core::streaming::{open_stream, StreamScenario, STREAM_APPS};
use altis_data::InputSize;
use hetero_rt::{FaultKind, FaultPlan, StreamConfig};

const USAGE: &str = "stream_storm [out.json] [--windows N] [--rate R]... [--seed N]";

/// Digest calls timed per app on the warmed clean stream.
const DIGEST_CALLS: usize = 500;
/// Bound on FDTD2D's stage digest per 4-byte word of carried state.
const DIGEST_NS_PER_WORD: f64 = 1.5;

/// Fault-free run: per-window digest trail, clean throughput, and the
/// median cost of one state digest afterwards, in µs. `Err` says why the
/// oracle could not be built.
fn golden_trail(app: &str, windows: u64, cfg: StreamConfig) -> Result<(Vec<u64>, f64, f64), String> {
    let mut s = open_stream(app, InputSize::S1, cfg, &StreamScenario::default())
        .map_err(|e| format!("{app}: clean stream failed to open: {e}"))?
        .ok_or_else(|| format!("{app}: no streaming conversion"))?;
    let mut trail = Vec::with_capacity(windows as usize);
    let t0 = Instant::now();
    for w in 0..windows {
        let r = s
            .next_window()
            .map_err(|e| format!("{app}: clean stream died at window {w}: {e}"))?;
        if !r.verdict.is_delivered() {
            return Err(format!(
                "{app}: fault-free stream produced a non-Delivered window {w}: {:?}",
                r.verdict
            ));
        }
        trail.push(r.digest);
    }
    let clean_wps = windows as f64 / t0.elapsed().as_secs_f64();
    let digest_us: Vec<f64> = (0..DIGEST_CALLS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(s.digest());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Ok((trail, clean_wps, median(&digest_us)))
}

/// First kernel of each app's window graph, in [`STREAM_APPS`] order:
/// the stuck-group run panics its work-group 0. (Named, not drawn from a
/// per-(kernel, group) rate: a row kernel's launch is a single group at
/// size 1, so a 1% draw finds no site.)
const STUCK_KERNELS: [&str; 4] =
    ["srad_1", "fdtd_hx", "stream_map_centers", "pf_propagate_weight"];

/// Live-fault run against the golden trail; records every gate under
/// the run's tag and returns its row, rollback count and windows/sec.
/// `stuck = None` injects transient launch failures (per-launch rate,
/// absorbed by window retry); `Some(kernel)` makes work-group 0 of
/// `kernel` panic on every launch — the permanent stuck-group run that
/// exercises rollback on every window (`rate` is then only a label).
fn faulted_run(
    app: &str,
    cfg: StreamConfig,
    seed: u64,
    rate: f64,
    stuck: Option<&'static str>,
    trail: &[u64],
    report: &mut Report,
) -> Result<(Obj, u64, f64), String> {
    let (kind, plan) = match stuck {
        None => (
            "transient",
            FaultPlan::new(seed, rate).with_kinds(&[FaultKind::LaunchTransient]),
        ),
        Some(kernel) => ("stuck-group", FaultPlan::panic_at(kernel, 0)),
    };
    let tag = format!("{app} {kind} {rate}");
    let windows = trail.len() as u64;
    let plan = Arc::new(plan);
    let scenario = StreamScenario { fault: Some(plan.clone()), ..StreamScenario::default() };
    let mut s = open_stream(app, InputSize::S1, cfg, &scenario)
        .map_err(|e| format!("{tag}: faulted stream failed to open: {e}"))?
        .ok_or_else(|| format!("{tag}: no streaming conversion"))?;
    let mut lat_us = Vec::with_capacity(trail.len());
    let mut diverged = 0u64;
    let t0 = Instant::now();
    for (w, golden) in trail.iter().enumerate() {
        // Faults are contained to windows; only cancellation may stop a
        // stream.
        let r = s.next_window().map_err(|e| format!("{tag}: stream died at window {w}: {e}"))?;
        lat_us.push(r.micros as f64);
        diverged += u64::from(r.verdict.is_delivered() && r.digest != *golden);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let st = s.stats();
    let injected = plan.injected();
    // Whatever was delivered is golden, no window is lost, and every
    // non-Delivered window traces back to an injected fault.
    report.gate(&format!("{tag}: delivered windows off the golden trail"), diverged as f64, Op::Eq, 0.0);
    report.gate(&format!("{tag}: windows dropped"), st.dropped as f64, Op::Eq, 0.0);
    report.gate(&format!("{tag}: verdicts"), st.windows as f64, Op::Eq, windows as f64);
    report.gate(
        &format!("{tag}: non-delivered windows within injected faults"),
        st.non_delivered() as f64,
        Op::Le,
        injected as f64,
    );
    if stuck.is_none() && rate >= 0.05 {
        // Injection is live: at the high rate some window needed containment.
        report.gate(&format!("{tag}: windows contained"), st.non_delivered() as f64, Op::Ge, 1.0);
    }
    if stuck.is_some() {
        // Each recovery seals what it recovered: the next rollback
        // restores the window before and replays one.
        report.gate(
            &format!("{tag}: windows replayed per rollback"),
            st.replayed as f64,
            Op::Eq,
            st.rollbacks as f64,
        );
    }
    let windows_per_s = windows as f64 / wall_s;
    let (p50_us, p99_us) = (percentile(&lat_us, 0.50), percentile(&lat_us, 0.99));
    let rollback_cost_us = if st.rollbacks > 0 {
        st.rollback_nanos as f64 / 1e3 / st.rollbacks as f64
    } else {
        0.0
    };
    println!(
        "    {kind:>11} rate {rate:>4}: {windows_per_s:>8.1} w/s, p50 {p50_us:>7.1} us, p99 {p99_us:>8.1} us, \
         {} retried + {} quarantined / {injected} injected, {} rollbacks ({rollback_cost_us:.1} us each)",
        st.retried, st.quarantined, st.rollbacks
    );
    let row = Obj::new()
        .set("kind", kind)
        .set("rate", rate)
        .set("wall_s", wall_s)
        .set("windows_per_s", windows_per_s)
        .set("p50_us", p50_us)
        .set("p99_us", p99_us)
        .set("delivered", st.delivered)
        .set("retried", st.retried)
        .set("quarantined", st.quarantined)
        .set("dropped", st.dropped)
        .set("rollbacks", st.rollbacks)
        .set("replayed", st.replayed)
        .set("checkpoints", st.checkpoints)
        .set("injected", injected)
        .set("rollback_cost_us", rollback_cost_us);
    Ok((row, st.rollbacks, windows_per_s))
}

fn main() -> ExitCode {
    report::run(USAGE, &["--windows", "--rate", "--seed"], &[], |args| {
        let windows: u64 = args.get("--windows", 1_280)?;
        let mut rates: Vec<f64> = args.all("--rate")?;
        if rates.is_empty() {
            rates = vec![0.01, 0.05];
        }
        let seed: u64 = args.get("--seed", 0xA1715)?;
        let cfg = StreamConfig::default();
        let mut report = Report::new("stream_storm");
        println!(
            "stream storm: {} apps x {:?} faults/launch x {windows} windows (checkpoint every {})",
            STREAM_APPS.len(),
            rates,
            cfg.checkpoint_every
        );
        report
            .set("windows_per_run", windows)
            .set("checkpoint_every", cfg.checkpoint_every)
            .set("seed", seed);

        let mut apps = Vec::new();
        let (mut total_windows, mut total_rollbacks) = (0u64, 0u64);
        for (app, stuck_kernel) in STREAM_APPS.iter().zip(STUCK_KERNELS) {
            let (trail, clean_wps, digest_us) = match golden_trail(app, windows, cfg) {
                Ok(t) => t,
                Err(why) => {
                    report.require(&why, false);
                    continue;
                }
            };
            let window_us = 1e6 / clean_wps;
            let digest_frac = digest_us / window_us;
            println!(
                "  {app}: clean {clean_wps:>8.1} windows/s, window {window_us:>6.1} us, \
                 digest {digest_us:>6.1} us ({:.1} %)",
                digest_frac * 100.0
            );
            if *app == "FDTD2D" {
                let dim = altis_data::fdtd2d(InputSize::S1).dim;
                let ns_per_word = digest_us * 1e3 / (3 * dim * dim) as f64;
                println!("  {app}: digest {ns_per_word:.2} ns per 4-byte word");
                report.gate(
                    "FDTD2D: stage digest ns per 4-byte word",
                    ns_per_word,
                    Op::Le,
                    DIGEST_NS_PER_WORD,
                );
            }
            // The rate sweep, then a permanently stuck group: every
            // window rolls back, so that run measures rollback cost
            // under sustained load.
            let sweep = rates.iter().map(|&r| (r, None)).chain([(1.0, Some(stuck_kernel))]);
            let mut runs = Vec::new();
            let mut stuck_over_clean = 0.0;
            for (i, (rate, stuck)) in sweep.enumerate() {
                match faulted_run(app, cfg, seed + i as u64, rate, stuck, &trail, &mut report) {
                    Ok((row, rollbacks, wps)) => {
                        runs.push(row);
                        total_windows += windows;
                        total_rollbacks += rollbacks;
                        if stuck.is_some() {
                            stuck_over_clean = wps / clean_wps;
                        }
                    }
                    Err(why) => {
                        report.require(&why, false);
                    }
                }
            }
            println!("  {app}: stuck-group / clean windows/s {stuck_over_clean:.3}");
            apps.push(
                Obj::new()
                    .set("app", *app)
                    .set("clean_windows_per_s", clean_wps)
                    .set("window_us", window_us)
                    .set("digest_us", digest_us)
                    .set("digest_frac", digest_frac)
                    .set("stuck_over_clean", stuck_over_clean)
                    .set("runs", arr(runs)),
            );
        }
        // The rollback-cost measurement is live.
        report.gate("windows rolled back across all runs", total_rollbacks as f64, Op::Ge, 1.0);
        report.set("apps", arr(apps)).set("total_faulted_windows", total_windows);
        if report.passed() {
            println!("all gates passed over {total_windows} faulted windows");
        }
        Ok(report.finish(&args.out("BENCH_stream_storm.json")))
    })
}
