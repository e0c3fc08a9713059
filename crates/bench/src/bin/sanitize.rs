//! `sanitize` — hetero-san layer 1 over the whole suite.
//!
//! Runs every suite configuration under the dynamic race detector and
//! asserts zero reports: the runtime's "work-groups are independent"
//! parallelisation claim, checked against what the application kernels
//! actually do. Before anything runs, the static IR verifier
//! (hetero-san layer 2) sweeps every configuration's kernel
//! descriptors.
//!
//! Without `--size` the full 13-configuration x 3-size matrix runs.
//! Exits nonzero if any run reports a race, fails verification, or
//! breaks containment.

use std::process::ExitCode;
use std::time::Instant;

use altis_bench::report::{self, golden_registry_ok, validation_summary, Suite, RUN_TIMEOUT};
use altis_core::common::AppVersion;
use altis_core::suite::{run_resilient, verify_suite_ir, ResilienceOutcome};
use hetero_rt::prelude::*;

const USAGE: &str = "sanitize [--size 1|2|3|all] [--version baseline|optimized|both]";

fn main() -> ExitCode {
    // Default on for every queue the applications construct themselves;
    // the explicitly-built queues below opt in regardless.
    std::env::set_var("HETERO_RT_SANITIZE", "1");

    report::run(USAGE, &["--size", "--version"], &[], |args| {
        args.no_positional()?;
        let suite = Suite::from_args(args, AppVersion::SyclOptimized, 1)?;

        match verify_suite_ir() {
            Ok(n) => println!("static IR verification: {n} kernel instances clean"),
            Err(errs) => {
                eprintln!("static IR verification failed:");
                for e in errs {
                    eprintln!("  {e}");
                }
                return Ok(ExitCode::FAILURE);
            }
        }
        // Scoped to the sizes this matrix runs, so the check stays cheap.
        if !golden_registry_ok("sanitize", &suite.sizes) {
            return Ok(ExitCode::FAILURE);
        }

        let mut failures = 0usize;
        let mut runs = 0usize;
        for (_, app, size, version) in suite.cells() {
            runs += 1;
            let q = Queue::new(Device::cpu()).with_sanitizer(true);
            let t0 = Instant::now();
            let outcome = run_resilient(app, q, size, version, RUN_TIMEOUT);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (verdict, detail) = match &outcome {
                ResilienceOutcome::Correct => ("clean", String::new()),
                ResilienceOutcome::TypedError(e) => ("RACE/ERROR", e.to_string()),
                ResilienceOutcome::Incorrect => {
                    ("INCORRECT", "result diverged from golden".to_string())
                }
                ResilienceOutcome::Panicked(m) => ("PANICKED", m.clone()),
                ResilienceOutcome::TimedOut => ("TIMEOUT", String::new()),
            };
            if outcome != ResilienceOutcome::Correct {
                failures += 1;
            }
            println!(
                "{:<12} {:<8} {:<14} {:>10.1} ms  {verdict} {detail}",
                app.name,
                size.to_string(),
                format!("{version:?}"),
                ms
            );
        }
        println!(
            "sanitize: {runs} runs, {failures} failures{}; {}",
            if failures == 0 { " — suite is race-clean" } else { "" },
            validation_summary()
        );
        Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
    })
}
