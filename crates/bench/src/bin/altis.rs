//! `altis` — the suite runner, mirroring the original Altis CLI.
//!
//! ```text
//! altis list
//! altis run <app> [--size 1|2|3] [--device cpu|gpu|fpga]
//!                 [--version baseline|optimized]
//! altis run all [--size 1]
//! altis run <app|all> --stream [--windows N] [--fault-rate R] [--seed N]
//! ```
//!
//! Runs the selected application(s) end-to-end on the portable runtime,
//! verifies the output against the golden reference, and reports wall
//! times (min/mean over [`ITERATIONS`] runs, Altis-style).
//!
//! With `--stream`, the streaming-converted apps (SRAD, FDTD2D, KMeans,
//! PF Naive) run as unbounded window sequences under windowed fault
//! containment instead of one batch pass: per-window verdicts
//! (delivered/retried/quarantined/dropped), checkpoint/rollback
//! recovery, and throughput + p99 window latency are reported.
//! `--fault-rate` arms transient launch faults on the primary queue to
//! watch containment live; `all` streams every converted app and skips
//! the rest.

use std::process::ExitCode;
use std::time::Instant;

use altis_bench::report::{self, Args, UsageError, SIZES, VERSIONS};
use altis_core::common::AppVersion;
use altis_core::streaming::{open_stream, supports_streaming, StreamScenario};
use altis_core::suite::{all_apps, AppEntry};
use altis_data::InputSize;
use hetero_rt::prelude::*;

const USAGE: &str = "\n  altis list\n  altis run <app|all> [--size 1|2|3] [--device cpu|gpu|fpga] \
     [--version baseline|optimized]\n  altis run <app|all> --stream \
     [--windows N] [--fault-rate R] [--seed N]";
const VALUE_FLAGS: [&str; 6] =
    ["--size", "--device", "--version", "--windows", "--fault-rate", "--seed"];

/// Verified runs per app; the report is their min and mean.
const ITERATIONS: usize = 3;

struct Options {
    size: InputSize,
    device: Device,
    version: AppVersion,
    stream: bool,
    windows: u64,
    fault_rate: f64,
    seed: u64,
}

fn parse_options(args: &Args) -> std::result::Result<Options, UsageError> {
    let devices = [("cpu", Device::cpu()), ("gpu", Device::rtx_2080()), ("fpga", Device::stratix10())];
    let opts = Options {
        size: args.choice("--size", &SIZES)?.unwrap_or(InputSize::S1),
        device: args.choice("--device", &devices)?.unwrap_or_else(Device::cpu),
        version: args.choice("--version", &VERSIONS)?.unwrap_or(AppVersion::SyclOptimized),
        stream: args.has("--stream"),
        windows: args.get("--windows", 64)?,
        fault_rate: args.get("--fault-rate", 0.0)?,
        seed: args.get("--seed", 1)?,
    };
    if opts.windows == 0 || !(0.0..=1.0).contains(&opts.fault_rate) {
        return Err(UsageError("--windows must be positive, --fault-rate within [0, 1]".into()));
    }
    Ok(opts)
}

fn run_app(app: &AppEntry, opts: &Options) -> bool {
    let queue = Queue::with_profiling(opts.device.clone());
    let mut times = Vec::with_capacity(ITERATIONS);
    let mut ok = true;
    for _ in 0..ITERATIONS {
        let t0 = Instant::now();
        ok &= (app.verify)(&queue, opts.size, opts.version);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!(
        "{:<12} {:<8} {:>10.1} ms min {:>10.1} ms mean   {}",
        app.name,
        opts.size.to_string(),
        min,
        mean,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// Drive `app` as a window stream and report per-verdict counts plus
/// throughput and p99 window latency. Returns false on containment
/// failure (dropped windows, dead stream) — never on contained faults.
fn stream_app(app: &AppEntry, opts: &Options) -> bool {
    // Transient-only injection: the panic/alloc kinds are stateless per
    // (kernel, group) and would pin a permanently stuck group at any
    // rate, hiding the rate axis. The full mixed matrix lives in
    // `matrix --stream`.
    let scenario = if opts.fault_rate > 0.0 {
        StreamScenario {
            fault: Some(std::sync::Arc::new(
                FaultPlan::new(opts.seed, opts.fault_rate).with_kinds(&[FaultKind::LaunchTransient]),
            )),
            ..StreamScenario::default()
        }
    } else {
        StreamScenario::default()
    };
    let mut runner = match open_stream(app.name, opts.size, StreamConfig::default(), &scenario) {
        Ok(Some(r)) => r,
        Ok(None) => unreachable!("caller filters on supports_streaming"),
        Err(e) => {
            println!("{:<12} {:<8} stream failed to open: {e}", app.name, opts.size.to_string());
            return false;
        }
    };
    let mut lat_us: Vec<u64> = Vec::with_capacity(opts.windows as usize);
    let t0 = Instant::now();
    for w in 0..opts.windows {
        match runner.next_window() {
            Ok(r) => lat_us.push(r.micros),
            Err(e) => {
                println!(
                    "{:<12} {:<8} stream died at window {w}: {e}",
                    app.name,
                    opts.size.to_string()
                );
                return false;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    let p99 = lat_us[((lat_us.len() - 1) * 99) / 100];
    let st = runner.stats();
    let ok = st.dropped == 0;
    println!(
        "{:<12} {:<8} {:>8.0} win/s {:>8} us p99   delivered {} retried {} quarantined {} \
         dropped {} rollbacks {}   {}",
        app.name,
        opts.size.to_string(),
        opts.windows as f64 / wall,
        p99,
        st.delivered,
        st.retried,
        st.quarantined,
        st.dropped,
        st.rollbacks,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

fn main() -> ExitCode {
    quiet_broken_pipe();
    report::run(USAGE, &VALUE_FLAGS, &["--stream"], |args| match args.positional() {
        [cmd] if cmd == "list" => {
            println!("Altis-SYCL-rs Level-2 applications:");
            for app in all_apps() {
                println!("  {}", app.name);
            }
            Ok(ExitCode::SUCCESS)
        }
        [cmd, target] if cmd == "run" => run(target, &parse_options(args)?),
        _ => Err(UsageError("expected `list` or `run <app|all>`".into())),
    })
}

fn run(target: &str, opts: &Options) -> std::result::Result<ExitCode, UsageError> {
    // hetero-san layer 2: fail fast on defective kernel IR before
    // running anything.
    if let Err(errs) = altis_core::suite::verify_suite_ir() {
        eprintln!("static IR verification failed:");
        for e in errs {
            eprintln!("  {e}");
        }
        return Ok(ExitCode::FAILURE);
    }
    if opts.stream {
        println!(
            "streaming: {} windows, fault rate {}, seed {}",
            opts.windows, opts.fault_rate, opts.seed
        );
    } else {
        println!(
            "device: {}   version: {:?}   iterations: {}",
            opts.device, opts.version, ITERATIONS
        );
    }
    let apps = all_apps();
    let selected: Vec<&AppEntry> = if target == "all" {
        apps.iter().filter(|a| !opts.stream || supports_streaming(a.name)).collect()
    } else {
        let matched: Vec<&AppEntry> =
            apps.iter().filter(|a| a.name.eq_ignore_ascii_case(target)).collect();
        if matched.is_empty() {
            return Err(UsageError(format!("unknown app '{target}'; try `altis list`")));
        }
        if let Some(a) = matched.iter().find(|a| opts.stream && !supports_streaming(a.name)) {
            return Err(UsageError(format!(
                "app '{}' has no streaming conversion; streaming apps: SRAD, FDTD2D, KMeans, \
                 PF Naive",
                a.name
            )));
        }
        matched
    };
    let mut all_ok = true;
    for app in selected {
        all_ok &= if opts.stream { stream_app(app, opts) } else { run_app(app, opts) };
    }
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Exit quietly when stdout is closed early (`altis run all | head`).
fn quiet_broken_pipe() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str);
        if msg.is_some_and(|m| m.contains("Broken pipe")) {
            std::process::exit(0);
        }
        default_hook(info);
    }));
}
