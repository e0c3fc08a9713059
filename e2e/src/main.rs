//! `e2e` — the end-to-end benchmark of the Altis-SYCL-rs reproduction:
//! seven workloads over the batch, bandwidth-bound, launch-bound,
//! hardened, serve and stream paths, measured from outside through
//! public functions, every output validated. See `README.md` beside
//! this package for why each workload exists and how layers map to
//! end-to-end metrics.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0|1   one workload; the last
//!                                                     stdout line is the result
//! e2e run [--seed N] [--seconds S] [--workload W]... [--trace] [--out FILE]
//!                                                     every workload, one table
//! e2e compare A.json B.json                           judge run B against run A
//! ```
//!
//! With `--trace 1` (or `run --trace`) the result carries the per-layer
//! metrics and a Chrome trace per workload is written next to the build.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use hetero_serve::json::{self, Json};

mod compare;
mod driver;
mod host;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::to_line;

const USAGE: &str = "usage: e2e --workload W --seed N --seconds S --trace 0|1\n       \
                     e2e run [--seed N] [--seconds S] [--workload W]... [--trace] [--out FILE]\n       \
                     e2e compare A.json B.json";

/// Flags shared by the contract form, `run` and `worker`.
struct Flags {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// `worker` only: set up, report the set-up time and stop.
    setup_only: bool,
    out: Option<String>,
}

fn parse_flags(args: &[String], trace_takes_value: bool) -> Result<Flags, String> {
    let mut f = Flags {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        traced: false,
        setup_only: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => f.workloads.push(value()?.clone()),
            "--seed" => {
                f.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                f.seconds = value()?
                    .parse()
                    .map_err(|_| format!("{a} takes a number of seconds"))?;
                if !(f.seconds > 0.0 && f.seconds <= 3600.0) {
                    return Err(format!("{a} must be in (0, 3600]"));
                }
            }
            "--trace" if trace_takes_value => {
                f.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--trace" => f.traced = true,
            "--setup-only" => f.setup_only = true,
            "--out" => f.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(bad) = f.workloads.iter().find(|w| !spec::is_workload(w)) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{bad}' (one of {})",
            names.join(", ")
        ));
    }
    Ok(f)
}

fn static_names(chosen: &[String]) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| chosen.is_empty() || chosen.iter().any(|c| c == n))
        .collect()
}

fn print_outcome(workload: &str, out: &report::Outcome) {
    println!(
        "{workload}: {} ({} operations attempted, {} failed)",
        if out.correct() {
            "correct"
        } else {
            "NOT CORRECT"
        },
        out.attempted,
        out.failed
    );
    if let Some(w) = spec::WORKLOADS.iter().find(|w| w.name == workload) {
        println!("  why: {}", w.why);
    }
    for (name, unit, value) in &out.metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    for note in out.notes.iter().take(8) {
        println!("  ! {note}");
    }
}

/// The contract form: one workload, result object on the last line.
fn contract(f: &Flags) -> Result<bool, String> {
    let [workload] = static_names(&f.workloads)[..] else {
        return Err("give exactly one --workload".to_string());
    };
    let plan = driver::Plan {
        workloads: vec![workload],
        seed: f.seed,
        seconds: f.seconds,
        traced: f.traced,
    };
    println!("host: {}", to_line(&host::stamp(f.seed, f.seconds)));
    let measured = driver::execute(&plan);
    let out = measured[0].outcome(f.traced);
    print_outcome(workload, &out);
    if f.traced {
        println!("trace: {}", driver::trace_path(workload).display());
    }
    println!("{}", to_line(&out.to_json()));
    Ok(out.correct())
}

/// Every workload (or the chosen ones), one table, one JSON document.
fn run(f: &Flags) -> Result<bool, String> {
    let plan = driver::Plan {
        workloads: static_names(&f.workloads),
        seed: f.seed,
        seconds: f.seconds,
        traced: f.traced,
    };
    let host = host::stamp(f.seed, f.seconds);
    println!("host: {}", to_line(&host));
    let measured = driver::execute(&plan);
    let mut all_correct = true;
    for m in &measured {
        let out = m.outcome(f.traced);
        all_correct &= out.correct();
        print_outcome(m.workload, &out);
        if f.traced {
            println!("  trace: {}", driver::trace_path(m.workload).display());
        }
    }
    let path = match &f.out {
        Some(p) => std::path::PathBuf::from(p),
        None => driver::output_dir().join(format!(
            "run-seed{}{}.json",
            f.seed,
            if f.traced { "-traced" } else { "" }
        )),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = to_line(&driver::run_document(&plan, &measured));
    std::fs::write(&path, doc + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// A worker process: measure one workload, print the report as one line.
fn worker(f: &Flags, started: Instant) -> Result<bool, String> {
    let [workload] = &f.workloads[..] else {
        return Err("worker takes exactly one --workload".to_string());
    };
    let job = workloads::Job {
        workload: workload.clone(),
        seed: f.seed,
        budget: (!f.setup_only).then(|| Duration::from_secs_f64(f.seconds)),
        trace_path: f.traced.then(|| driver::trace_path(workload)),
        started,
    };
    let rep = workloads::run(&job)?;
    println!("{}", to_line(&rep.to_json()));
    Ok(true)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two run files".to_string());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(text.trim()).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    for (side, doc) in [("A", &a), ("B", &b)] {
        if let Some(h) = doc.get("host") {
            println!("{side}: {}", to_line(h));
        }
    }
    let (rows, ok) = compare::compare(&a, &b);
    print!("{}", compare::render(&rows));
    println!(
        "{}",
        if ok {
            "no regression"
        } else {
            "REGRESSION (or nothing to compare)"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..], false).and_then(|f| run(&f)),
        Some("worker") => parse_flags(&args[1..], true).and_then(|f| worker(&f, started)),
        Some("compare") => compare_files(&args[1..]),
        Some(a) if a.starts_with("--") => parse_flags(&args, true).and_then(|f| contract(&f)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
