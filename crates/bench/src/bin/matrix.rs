//! `matrix` — every hardened cell of the suite in one table.
//!
//! Runs the thirteen configurations on armed queues and holds each run
//! to its tier's pass rule (`altis_core::suite::Tier`): `--hardening
//! sanitize` runs the race detector (every run race-free and correct),
//! `resilient` seeded fail-stop faults under bounded retry (correct, or
//! stopped by a typed error), `sdc` seeded silent faults against the
//! integrity layer and DMR voting (correct, corrected or quarantined).
//! A cell is one seed × rate × app × size × version; each builds its own
//! fault plan from its seed and rate, and both flags repeat. After each
//! cell a probe launch checks that the shared pool still computes
//! exactly.
//!
//! Two modes replay the resilient tier through other front ends, at
//! size 1. `--serve` sends one JSON job line per configuration through
//! the service protocol to an in-process scheduler: every job must get
//! exactly one typed verdict, none uncontained. `--stream` drives the
//! streaming apps' live window streams under transient, panic and mixed
//! faults: every window gets a verdict, none is dropped, and every
//! delivered window is bit-equal to the fault-free trail.
//!
//! Before any cell runs, every configuration's kernel IR is verified
//! statically and the committed golden-checksum registry is re-derived
//! at the sizes the cells run — once per invocation. The last stdout
//! line is a JSON verdict; the exit status is nonzero if a cell failed,
//! the IR did not verify or the registry drifted. `--write-golden`
//! regenerates the registry and exits.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use altis_bench::json::Obj;
use altis_bench::report::{
    self, golden_registry_ok, validation_summary, verdict, Args, UsageError, SIZES, VERSIONS,
};
use altis_core::common::AppVersion;
use altis_core::streaming::{open_stream, StreamScenario, STREAM_APPS};
use altis_core::suite::{
    all_apps, compute_golden_registry, golden_registry_path, matrix, pool_is_healthy,
    render_golden_registry, verify_suite_ir, Matrix, SdcOutcome, Tier,
};
use altis_data::InputSize;
use hetero_rt::FaultKind::{self, KernelPanic, LaunchTransient};
use hetero_rt::{FaultPlan, StreamConfig};
use hetero_serve::{
    json, JobRequest, MonotonicClock, ResultSink, Scheduler, ServeConfig, Verdict,
};

const USAGE: &str = "matrix [--hardening sanitize|resilient|sdc] [--seed N]... [--seeds N] \
     [--rate R]...\n\x20             [--size 1|2|3|all] [--version baseline|optimized|both] \
     [--serve | --stream [--windows N]] [--write-golden]";
const VALUE_FLAGS: [&str; 7] =
    ["--hardening", "--seed", "--seeds", "--rate", "--size", "--version", "--windows"];

/// The fault kinds of the stream cells: each fail-stop kind alone, then
/// both.
const STREAM_CELLS: [(&str, &[FaultKind]); 3] = [
    ("transient", &[LaunchTransient]),
    ("panic", &[KernelPanic]),
    ("mixed", &[LaunchTransient, KernelPanic]),
];

/// The coordinates a row starts with: app, size, version, seed, rate,
/// tier.
fn key(app: &str, size: InputSize, version: &str, seed: u64, rate: f64, tier: &str) -> String {
    format!("{app:<12} {} {version:<9} {seed:>4} {rate:<5} {tier:<9}", size.index())
}

/// The table so far.
#[derive(Default)]
struct Tally {
    cells: u64,
    failed: u64,
    /// Faults the cells' plans injected, where a cell can count them.
    injected: Option<u64>,
}

impl Tally {
    /// Print one row and count it.
    fn row(&mut self, key: &str, passed: bool, verdict: &str, injected: Option<u64>, detail: &str) {
        self.cells += 1;
        self.failed += u64::from(!passed);
        if let Some(n) = injected {
            *self.injected.get_or_insert(0) += n;
        }
        let pass = if passed { "ok" } else { "FAIL" };
        let injected = injected.map_or("-".to_string(), |n| n.to_string());
        println!("  {key} {pass:<4} {verdict:<11} {injected:>4}  {detail}");
    }
}

/// The batch cells of `m`.
fn batch(m: &Matrix, t: &mut Tally) {
    for cell in matrix(m) {
        let (verdict, detail) = match &cell.outcome {
            SdcOutcome::Correct => ("correct", String::new()),
            SdcOutcome::Corrected { events } => ("corrected", format!("{events} events")),
            SdcOutcome::Quarantined { reason, .. } => ("quarantined", reason.clone()),
            SdcOutcome::Uncontained { what } => ("uncontained", what.clone()),
        };
        let detail = if cell.pool_healthy { detail } else { format!("POOL BROKEN; {detail}") };
        let version = VERSIONS.iter().find(|(_, v)| *v == cell.version).map_or("?", |(l, _)| l);
        let k = key(cell.app, cell.size, version, cell.seed, cell.rate, cell.tier.label());
        t.row(&k, cell.passed(), verdict, Some(cell.injected), &detail);
    }
}

/// `--serve`: per seed × rate, one job line per configuration through
/// the protocol parser and a fresh in-process scheduler.
fn serve(seeds: &[u64], rates: &[f64], t: &mut Tally) {
    for &seed in seeds {
        for &rate in rates {
            let s = Scheduler::new(ServeConfig::default(), Arc::new(MonotonicClock::new()));
            let results = Arc::new(Mutex::new(Vec::new()));
            let r = results.clone();
            let sink: ResultSink = Arc::new(move |res| r.lock().unwrap().push(res));
            let apps = all_apps();
            for (i, app) in apps.iter().enumerate() {
                // The actual wire line, through the protocol stack.
                let line = format!(
                    "{{\"id\":{i},\"tenant\":\"matrix\",\"app\":\"{}\",\"size\":1,\
                     \"hardening\":\"resilient\",\"fault_seed\":{seed},\"fault_rate\":{rate}}}",
                    json::escape(app.name)
                );
                let parsed = json::parse(&line).expect("matrix emits valid protocol lines");
                let req = JobRequest::from_json(&parsed).expect("matrix emits valid job requests");
                s.submit(req, sink.clone());
            }
            s.wait_idle();
            let stats = s.stats();
            s.shutdown();
            let mut got = std::mem::take(&mut *results.lock().unwrap());
            got.sort_by_key(|res| res.id);
            if got.len() != apps.len()
                || stats.unaccounted() != 0
                || stats.uncontained != 0
                || !pool_is_healthy()
            {
                eprintln!(
                    "matrix --serve: seed {seed} rate {rate}: {} verdicts for {} jobs, \
                     {stats:?}, or the pool broke",
                    got.len(),
                    apps.len()
                );
                t.failed += 1;
            }
            for res in &got {
                // The matrix is admitted unconditionally, with no deadline
                // and a 1024-deep queue: a rejection, shed or deadline is
                // as much a breach as an uncontained run.
                let (passed, detail) = match &res.verdict {
                    Verdict::Completed => (true, String::new()),
                    Verdict::Corrected { events } => (true, format!("{events} events")),
                    Verdict::Quarantined { reason } => {
                        (!reason.starts_with("UNCONTAINED"), reason.clone())
                    }
                    other => (false, format!("{other:?}")),
                };
                let k = key(&res.app, InputSize::S1, "baseline", seed, rate, "serve");
                t.row(&k, passed, res.verdict.label(), None, &detail);
            }
        }
    }
}

/// The fault-free digest trail of `app`'s first `windows` windows.
fn clean_trail(app: &str, windows: u64) -> Result<Vec<u64>, String> {
    let cfg = StreamConfig::default();
    let mut s = open_stream(app, InputSize::S1, cfg, &StreamScenario::default())
        .map_err(|e| format!("failed to open: {e}"))?
        .ok_or("no streaming conversion")?;
    (0..windows)
        .map(|w| match s.next_window() {
            Ok(r) if r.verdict.is_delivered() => Ok(r.digest),
            other => Err(format!("clean window {w}: {other:?}")),
        })
        .collect()
}

/// One stream cell: `app`'s first `trail.len()` windows under `plan`.
/// `Ok` with the verdict counts when every window got a verdict, none
/// was dropped, every delivered one equals `trail` and the pool is
/// healthy; `Err` with the counts and the violations otherwise.
fn stream_cell(app: &str, plan: Arc<FaultPlan>, trail: &[u64]) -> Result<String, String> {
    let scenario = StreamScenario { fault: Some(plan), ..StreamScenario::default() };
    let mut s = open_stream(app, InputSize::S1, StreamConfig::default(), &scenario)
        .map_err(|e| format!("failed to open: {e}"))?
        .ok_or("no streaming conversion")?;
    // Faults quarantine windows, never the stream.
    let mut violations = String::new();
    for (w, want) in trail.iter().enumerate() {
        match s.next_window() {
            Ok(r) if r.verdict.is_delivered() && r.digest != *want => {
                violations += &format!("; window {w} delivered off the clean trail");
            }
            Ok(_) => {}
            Err(e) => {
                violations += &format!("; stream died at window {w}: {e}");
                break;
            }
        }
    }
    let st = s.stats();
    if st.windows != trail.len() as u64 || st.dropped != 0 {
        violations += &format!("; {} verdicts, {} dropped", st.windows, st.dropped);
    }
    if !pool_is_healthy() {
        violations += "; pool broken";
    }
    let counts = format!(
        "{} delivered, {} retried, {} quarantined, {} shed, {} rollbacks",
        st.delivered, st.retried, st.quarantined, st.shed, st.rollbacks
    );
    if violations.is_empty() {
        Ok(counts)
    } else {
        Err(counts + &violations)
    }
}

/// `--stream`: per streaming app × seed × rate × fault kind, `windows`
/// windows against the app's clean trail.
fn stream(seeds: &[u64], rates: &[f64], windows: u64, t: &mut Tally) {
    for app in STREAM_APPS {
        let trail = match clean_trail(app, windows) {
            Ok(trail) => trail,
            Err(why) => {
                eprintln!("matrix --stream: {app}: {why}");
                t.failed += 1;
                continue;
            }
        };
        for &seed in seeds {
            for &rate in rates {
                for (kind, kinds) in STREAM_CELLS {
                    let plan = Arc::new(FaultPlan::new(seed, rate).with_kinds(kinds));
                    let k = key(app, InputSize::S1, "-", seed, rate, kind);
                    let (passed, verdict, detail) = match stream_cell(app, plan.clone(), &trail) {
                        Ok(counts) => (true, "contained", counts),
                        Err(why) => (false, "broken", why),
                    };
                    t.row(&k, passed, verdict, Some(plan.injected()), &detail);
                }
            }
        }
    }
}

fn main() -> ExitCode {
    report::run(USAGE, &VALUE_FLAGS, &["--serve", "--stream", "--write-golden"], |args| {
        args.no_positional()?;
        if args.has("--write-golden") {
            let path = golden_registry_path();
            let rows = compute_golden_registry();
            if let Err(e) = std::fs::write(&path, render_golden_registry(&rows)) {
                eprintln!("cannot write {}: {e}", path.display());
                return Ok(ExitCode::FAILURE);
            }
            println!("wrote {} rows to {}", rows.len(), path.display());
            return Ok(ExitCode::SUCCESS);
        }
        let m = matrix_args(args)?;
        let mode = match (args.has("--serve"), args.has("--stream")) {
            (false, false) => "batch",
            (true, false) => "serve",
            (false, true) => "stream",
            (true, true) => return Err(UsageError("--serve and --stream are exclusive".into())),
        };
        if mode != "batch" && m.tier != Tier::Resilient {
            return Err(UsageError(format!("--{mode} replays the resilient tier only")));
        }
        let windows: u64 = args.get("--windows", 40)?;

        let ir_ok = match verify_suite_ir() {
            Ok(n) => {
                println!("matrix: static IR verification: {n} kernel instances clean");
                true
            }
            Err(errs) => {
                errs.iter().for_each(|e| eprintln!("matrix: IR: {e}"));
                false
            }
        };
        let sizes = if mode == "batch" { m.sizes.clone() } else { vec![InputSize::S1] };
        let golden_ok = golden_registry_ok("matrix", &sizes);

        println!(
            "matrix {mode}: {} tier, seeds {:?} x rates {:?}; \
             columns: app size version seed rate tier pass verdict injected detail",
            m.tier.label(),
            m.seeds,
            m.rates
        );
        let t0 = Instant::now();
        let mut t = Tally::default();
        match mode {
            "batch" => batch(&m, &mut t),
            "serve" => serve(&m.seeds, &m.rates, &mut t),
            _ => stream(&m.seeds, &m.rates, windows, &mut t),
        }
        let injected = t.injected.map_or("-".to_string(), |n| n.to_string());
        println!(
            "matrix {mode}: {} cells in {:.2?}, {} failed, {injected} faults injected; {}",
            t.cells,
            t0.elapsed(),
            t.failed,
            validation_summary()
        );
        let mut line = Obj::new()
            .set("harness", "matrix")
            .set("mode", mode)
            .set("tier", m.tier.label())
            .set("cells", t.cells)
            .set("failed", t.failed);
        if let Some(n) = t.injected {
            line = line.set("faults_injected", n);
        }
        let line = line
            .set("ir", if ir_ok { "ok" } else { "failed" })
            .set("golden_registry", if golden_ok { "ok" } else { "drifted" });
        Ok(verdict(line, "passed", t.failed == 0 && ir_ok && golden_ok))
    })
}

/// The batch matrix the flags select: `--hardening` (default
/// resilient), `--size` (default 1; `all` for three), `--version`
/// (default optimized; `both` for two), `--seed N` (repeatable) or
/// `--seeds N` for `1..=N` (default 1), `--rate R` (repeatable, default
/// 0.05). The sanitizer tier runs at seed 0, rate 0.
fn matrix_args(args: &Args) -> Result<Matrix, UsageError> {
    let sizes = match args.opt::<String>("--size")?.as_deref() {
        Some("all") => InputSize::all().to_vec(),
        _ => vec![args.choice("--size", &SIZES)?.unwrap_or(InputSize::S1)],
    };
    let versions = match args.opt::<String>("--version")?.as_deref() {
        Some("both") => VERSIONS.map(|(_, v)| v).to_vec(),
        _ => vec![args.choice("--version", &VERSIONS)?.unwrap_or(AppVersion::SyclOptimized)],
    };
    let mut seeds: Vec<u64> = args.all("--seed")?;
    if let Some(n) = args.opt::<u64>("--seeds")? {
        seeds.extend(1..=n);
    }
    if seeds.is_empty() {
        seeds.push(1);
    }
    let mut rates: Vec<f64> = args.all("--rate")?;
    if rates.is_empty() {
        rates.push(0.05);
    }
    let tier = args.choice("--hardening", &Tier::ALL)?.unwrap_or(Tier::Resilient);
    if tier == Tier::Sanitize {
        // The sanitizer tier injects nothing: one cell per configuration.
        (seeds, rates) = (vec![0], vec![0.0]);
    }
    Ok(Matrix {
        tier,
        apps: Vec::new(),
        sizes,
        versions,
        seeds,
        rates,
    })
}
