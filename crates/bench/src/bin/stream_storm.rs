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
//!    measured. Same containment and bit-exactness gates apply.
//! 3. **Backpressure** — drive one app through `run_piped` with `Shed`
//!    ingress and a tiny pipe so overrun windows shed instead of
//!    queuing. *Gate*: every window still gets a verdict and the final
//!    stream digest equals the golden trail's final digest (shed
//!    windows advance carried state on the clean path).
//!
//! Reports per-(app, rate): windows/sec, p50/p99 window latency,
//! rollback count and mean rollback cost. Writes
//! `BENCH_stream_storm.json` (or the path given as the first argument).
//!
//! Usage:
//! ```text
//! stream_storm [out.json] [--windows N] [--rate R]... [--seed N]
//!              [--skip-shed]
//! ```
//! Default 1280 windows per (app, rate): 4 apps x 2 rates x 1280 =
//! 10240 faulted windows per full run.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use altis_core::streaming::{open_stream, StreamScenario, STREAM_APPS};
use altis_data::InputSize;
use hetero_rt::{FaultKind, FaultPlan, StreamConfig};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Fault-free run: per-window digest trail plus clean throughput.
fn golden_trail(app: &str, windows: u64, cfg: StreamConfig) -> (Vec<u64>, f64) {
    let mut s = open_stream(app, InputSize::S1, cfg, &StreamScenario::default())
        .unwrap_or_else(|e| fail(&format!("{app}: clean stream failed to open: {e}")))
        .unwrap_or_else(|| fail(&format!("{app}: no streaming conversion")));
    let mut trail = Vec::with_capacity(windows as usize);
    let t0 = Instant::now();
    for w in 0..windows {
        let r = s
            .next_window()
            .unwrap_or_else(|e| fail(&format!("{app}: clean stream died at window {w}: {e}")));
        if !r.verdict.is_delivered() {
            fail(&format!(
                "{app}: fault-free stream produced a non-Delivered window {w}: {:?}",
                r.verdict
            ));
        }
        trail.push(r.digest);
    }
    let clean_wps = windows as f64 / t0.elapsed().as_secs_f64();
    (trail, clean_wps)
}

struct FaultedResult {
    kind: &'static str,
    rate: f64,
    wall_s: f64,
    windows_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    delivered: u64,
    retried: u64,
    quarantined: u64,
    rollbacks: u64,
    replayed: u64,
    checkpoints: u64,
    injected: u64,
    rollback_cost_us: f64,
}

/// First kernel of each app's window graph, in [`STREAM_APPS`] order:
/// the stuck-group run panics its work-group 0. (Named, not drawn from a
/// per-(kernel, group) rate: a row kernel's launch is a single group at
/// size 1, so a 1% draw finds no site.)
const STUCK_KERNELS: [&str; 4] =
    ["srad_1", "fdtd_hx", "stream_map_centers", "pf_propagate_weight"];

/// Live-fault run against the golden trail; applies every gate.
/// `stuck = None` injects transient launch failures (per-launch rate,
/// absorbed by window retry); `Some(kernel)` makes work-group 0 of
/// `kernel` panic on every launch — the permanent stuck-group run that
/// exercises rollback on every window (`rate` is then only a label).
fn faulted_run(
    app: &str,
    windows: u64,
    cfg: StreamConfig,
    seed: u64,
    rate: f64,
    stuck: Option<&'static str>,
    trail: &[u64],
) -> FaultedResult {
    let (kind_label, plan) = match stuck {
        None => (
            "transient",
            FaultPlan::new(seed, rate).with_kinds(&[FaultKind::LaunchTransient]),
        ),
        Some(kernel) => ("stuck-group", FaultPlan::panic_at(kernel, 0)),
    };
    let plan = Arc::new(plan);
    let scenario = StreamScenario { fault: Some(plan.clone()), ..StreamScenario::default() };
    let mut s = open_stream(app, InputSize::S1, cfg, &scenario)
        .unwrap_or_else(|e| fail(&format!("{app}: faulted stream failed to open: {e}")))
        .unwrap_or_else(|| fail(&format!("{app}: no streaming conversion")));
    let mut lat_us = Vec::with_capacity(windows as usize);
    let t0 = Instant::now();
    for w in 0..windows {
        let r = s.next_window().unwrap_or_else(|e| {
            fail(&format!(
                "{app} rate {rate}: stream died at window {w}: {e} — faults must be contained"
            ))
        });
        lat_us.push(r.micros as f64);
        // The bit-exactness gate: whatever was delivered is golden.
        if r.verdict.is_delivered() && r.digest != trail[w as usize] {
            fail(&format!(
                "{app} rate {rate}: window {w} Delivered but diverged from the golden trail"
            ));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let st = s.stats();
    if st.dropped != 0 {
        fail(&format!("{app} rate {rate}: {} window(s) Dropped", st.dropped));
    }
    if st.windows != windows {
        fail(&format!("{app} rate {rate}: {} verdicts for {windows} windows", st.windows));
    }
    let injected = plan.injected();
    if st.non_delivered() > injected {
        fail(&format!(
            "{app} rate {rate}: {} non-Delivered windows but only {injected} injected faults \
             — a healthy window was not delivered",
            st.non_delivered()
        ));
    }
    if stuck.is_none() && rate >= 0.05 && st.non_delivered() == 0 {
        fail(&format!(
            "{app} rate {rate}: no window ever needed containment — injection is not live"
        ));
    }
    lat_us.sort_by(|a, b| a.total_cmp(b));
    FaultedResult {
        kind: kind_label,
        rate,
        wall_s,
        windows_per_s: windows as f64 / wall_s,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        delivered: st.delivered,
        retried: st.retried,
        quarantined: st.quarantined,
        rollbacks: st.rollbacks,
        replayed: st.replayed,
        checkpoints: st.checkpoints,
        injected,
        rollback_cost_us: if st.rollbacks > 0 {
            st.rollback_nanos as f64 / 1e3 / st.rollbacks as f64
        } else {
            0.0
        },
    }
}

/// Backpressure phase: a small pipe with `Shed` ingress. Overrun
/// windows shed (clean-path state advance) instead of queuing, and the
/// final digest must still match the golden trail's.
fn shed_run(app: &str, windows: u64, cfg: StreamConfig, trail: &[u64]) -> (u64, u64) {
    use altis_core::streaming::{clean_queue, primary_queue, StreamScenario};
    use hetero_rt::{run_piped, Ingress, StreamRunner};
    // run_piped needs the concrete runner, not the boxed facade; SRAD
    // is the representative app for the shed gate.
    assert_eq!(app, "SRAD");
    let scenario = StreamScenario::default();
    let (primary, clean) = (primary_queue(&scenario), clean_queue(None));
    let p = altis_data::srad(InputSize::S1);
    let stage = altis_core::srad::streaming::SradStream::new(&p, &primary, &clean)
        .unwrap_or_else(|e| fail(&format!("shed phase: SRAD stream failed to open: {e}")));
    let initial = altis_core::srad::streaming::SradStream::initial_state(&p);
    let mut runner = StreamRunner::new(stage, initial, cfg);
    let mut verdicts = 0u64;
    let stats = run_piped(&mut runner, windows, 2, Ingress::Shed, |_r| {
        verdicts += 1;
    })
    .unwrap_or_else(|e| fail(&format!("shed phase: stream died: {e}")));
    if verdicts != windows || stats.windows != windows {
        fail(&format!("shed phase: {verdicts} verdicts for {windows} windows"));
    }
    if stats.dropped != 0 {
        fail(&format!("shed phase: {} window(s) Dropped", stats.dropped));
    }
    if runner.digest() != trail[windows as usize - 1] {
        fail("shed phase: final digest diverged from the golden trail — shed windows must advance state");
    }
    (stats.delivered, stats.shed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_stream_storm.json".to_string();
    let mut windows = 1_280u64;
    let mut rates: Vec<f64> = Vec::new();
    let mut seed = 0xA1715u64;
    let mut skip_shed = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--windows" => windows = it.next().and_then(|v| v.parse().ok()).unwrap_or(windows),
            "--rate" => {
                if let Some(r) = it.next().and_then(|v| v.parse().ok()) {
                    rates.push(r);
                }
            }
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--skip-shed" => skip_shed = true,
            other => out_path = other.to_string(),
        }
    }
    if rates.is_empty() {
        rates = vec![0.01, 0.05];
    }
    let cfg = StreamConfig::default();
    println!(
        "stream storm: {} apps x {:?} faults/launch x {windows} windows (checkpoint every {})",
        STREAM_APPS.len(),
        rates,
        cfg.checkpoint_every
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"benchmark\": \"stream_storm\",\n  \"windows_per_run\": {windows},\n  \
         \"checkpoint_every\": {},\n  \"seed\": {seed},\n  \"apps\": [\n",
        cfg.checkpoint_every
    );
    let mut total_windows = 0u64;
    let mut total_rollbacks = 0u64;
    for (ai, app) in STREAM_APPS.iter().enumerate() {
        let (trail, clean_wps) = golden_trail(app, windows, cfg);
        println!("  {app}: clean {clean_wps:>8.1} windows/s");
        let mut runs = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            runs.push(faulted_run(app, windows, cfg, seed + ri as u64, rate, None, &trail));
            total_windows += windows;
        }
        // A permanently stuck group: every window rolls back, so this
        // run measures rollback cost under sustained load.
        runs.push(faulted_run(
            app,
            windows,
            cfg,
            seed + rates.len() as u64,
            1.0,
            Some(STUCK_KERNELS[ai]),
            &trail,
        ));
        total_windows += windows;
        total_rollbacks += runs.iter().map(|r| r.rollbacks).sum::<u64>();
        for r in &runs {
            println!(
                "    {:>11} rate {:>4}: {:>8.1} w/s, p50 {:>7.1} us, p99 {:>8.1} us, \
                 {} retried + {} quarantined / {} injected, {} rollbacks ({:.1} us each)",
                r.kind,
                r.rate,
                r.windows_per_s,
                r.p50_us,
                r.p99_us,
                r.retried,
                r.quarantined,
                r.injected,
                r.rollbacks,
                r.rollback_cost_us
            );
        }
        let _ = writeln!(
            json,
            "    {{\"app\": \"{app}\", \"clean_windows_per_s\": {clean_wps:.1}, \"runs\": ["
        );
        for (i, r) in runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"kind\": \"{}\", \"rate\": {}, \"wall_s\": {:.3}, \"windows_per_s\": {:.1}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"delivered\": {}, \"retried\": {}, \
                 \"quarantined\": {}, \"dropped\": 0, \"rollbacks\": {}, \"replayed\": {}, \
                 \"checkpoints\": {}, \"injected\": {}, \"rollback_cost_us\": {:.1}}}{}",
                r.kind,
                r.rate,
                r.wall_s,
                r.windows_per_s,
                r.p50_us,
                r.p99_us,
                r.delivered,
                r.retried,
                r.quarantined,
                r.rollbacks,
                r.replayed,
                r.checkpoints,
                r.injected,
                r.rollback_cost_us,
                if i + 1 < runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "    ]}}{}",
            if ai + 1 < STREAM_APPS.len() { "," } else { "" }
        );
    }
    if total_rollbacks == 0 {
        fail("no run ever exercised checkpoint rollback — the cost measurement is not live");
    }
    let mut shed_json = "null".to_string();
    if !skip_shed {
        let (trail, _) = golden_trail("SRAD", windows, cfg);
        let (delivered, shed) = shed_run("SRAD", windows, cfg, &trail);
        println!(
            "  backpressure (SRAD, pipe capacity 2, Shed ingress): {delivered} delivered, \
             {shed} shed, final state golden"
        );
        shed_json = format!(
            "{{\"app\": \"SRAD\", \"pipe_capacity\": 2, \"windows\": {windows}, \
             \"delivered\": {delivered}, \"shed\": {shed}, \"dropped\": 0, \
             \"final_digest_golden\": true}}"
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"total_faulted_windows\": {total_windows},\n  \"backpressure\": {shed_json}\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("cannot write '{out_path}': {e}");
        std::process::exit(1);
    }
    println!("all gates passed over {total_windows} faulted windows; wrote {out_path}");
}
