//! `sdc` — end-to-end silent-data-corruption defense harness.
//!
//! Runs the suite configurations under seeded *silent* fault plans
//! (memory bit-flips and stuck-at pages that corrupt data without
//! raising any error themselves) and asserts the defense contract:
//! every run must end **Correct**, **Corrected** (the integrity layer
//! detected the corruption and retry/voting absorbed it), or
//! **Quarantined** (the output was rejected loudly — validation failure
//! or a typed `DataCorruption`/`ReplicaDivergence` error). A run that
//! ends any other way — an untyped panic, a hang, or wrong output that
//! nothing flagged — is a defense failure and fails the harness.
//!
//! Unlike `chaos` (which drives the env-configured plan), each run here
//! builds an explicit `FaultPlan::sdc(seed, rate)` so one process can
//! sweep many seeds, and queues arm the integrity layer plus DMR
//! voting via `with_integrity` / `with_redundancy`.
//!
//! Before the matrix, the committed golden-checksum registry
//! (`tests/golden_checksums.tsv`) is re-derived and compared, so a
//! silently drifting reference implementation fails just as loudly as
//! a corrupted run.
//!
//! Defaults: seeds 1..=5, all three sizes, optimized versions, DMR,
//! rate 0.05. `--write-golden` regenerates the registry and exits.
//! The last stdout line is a one-line JSON verdict; the exit status is
//! nonzero if any run was undefended or the registry drifted.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use altis_bench::json::Obj;
use altis_bench::report::{
    self, golden_registry_ok, validation_summary, verdict, Suite, RUN_TIMEOUT,
};
use altis_core::common::AppVersion;
use altis_core::suite::{
    compute_golden_registry, golden_registry_path, render_golden_registry, run_sdc, SdcOutcome,
};
use altis_data::InputSize;
use hetero_rt::{integrity, Device, FaultPlan, Queue, Redundancy, RetryPolicy};

const USAGE: &str = "sdc [--seeds N | --seed N] [--size 1|2|3|all]\n\
     \x20          [--version baseline|optimized|both] [--rate R] [--skip-golden] [--write-golden]";
const VALUE_FLAGS: [&str; 5] = ["--seeds", "--seed", "--size", "--version", "--rate"];

fn main() -> ExitCode {
    report::run(USAGE, &VALUE_FLAGS, &["--skip-golden", "--write-golden"], |args| {
        args.no_positional()?;
        let suite = Suite::from_args(args, AppVersion::SyclOptimized, 5)?;
        let redundancy = Redundancy::Dmr;
        let rate: f64 = args.get("--rate", 0.05)?;
        let skip_golden = args.has("--skip-golden");

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

        // The whole registry whatever `--size` says: the check re-derives
        // every reference output, so it doubles as a warm-up of the
        // (cached, host-side) goldens.
        let golden_ok = if skip_golden {
            println!("sdc: golden-checksum registry check skipped (--skip-golden)");
            true
        } else {
            golden_registry_ok("sdc", &InputSize::all())
        };

        println!(
            "sdc: {} seed(s) x {} size(s), rate {rate}, {redundancy:?}, timeout {}s/run",
            suite.seeds.len(),
            suite.sizes.len(),
            RUN_TIMEOUT.as_secs()
        );

        let (mut correct, mut corrected, mut quarantined, mut uncontained) = (0u32, 0u32, 0u32, 0u32);
        let (mut flips, mut stuck) = (0u64, 0u64);
        let t0 = Instant::now();
        for (seed, app, size, version) in suite.cells() {
            let plan = Arc::new(FaultPlan::sdc(seed, rate));
            let q = Queue::new(Device::cpu())
                .with_integrity(true)
                .with_redundancy(redundancy)
                .with_retry_policy(RetryPolicy::resilient())
                .with_fault_plan(Some(Arc::clone(&plan)));
            let outcome = run_sdc(app, q, size, version, RUN_TIMEOUT);
            flips += plan.flips_injected();
            stuck += plan.stuck_applications();
            let detail = match &outcome {
                SdcOutcome::Correct => {
                    correct += 1;
                    "correct".to_string()
                }
                SdcOutcome::Corrected { events } => {
                    corrected += 1;
                    format!("corrected ({events} events)")
                }
                SdcOutcome::Quarantined { reason } => {
                    quarantined += 1;
                    format!("quarantined: {reason}")
                }
                SdcOutcome::Uncontained { what } => {
                    uncontained += 1;
                    format!("UNDEFENDED: {what}")
                }
            };
            println!(
                "  seed {seed:<3} {:<12} size {} [{} flips, {} stuck]  {detail}",
                app.name,
                size.index(),
                plan.flips_injected(),
                plan.stuck_applications()
            );
        }
        integrity::disarm();
        let _ = integrity::take_scrub_reports();

        let runs = correct + corrected + quarantined + uncontained;
        println!(
            "sdc: {runs} runs in {:.2?}: {correct} correct, {corrected} corrected, \
             {quarantined} quarantined, {uncontained} undefended; {flips} flips + {stuck} \
             stuck pages injected, {} detections / {} corrections total; {}",
            t0.elapsed(),
            integrity::detections_total(),
            integrity::corrected_total(),
            validation_summary()
        );
        let registry = match (skip_golden, golden_ok) {
            (true, _) => "skipped",
            (_, true) => "ok",
            _ => "drifted",
        };
        let line = Obj::new()
            .set("harness", "sdc")
            .set("runs", runs)
            .set("correct", correct)
            .set("corrected", corrected)
            .set("quarantined", quarantined)
            .set("uncontained", uncontained)
            .set("flips_injected", flips)
            .set("stuck_pages", stuck)
            .set("golden_registry", registry);
        Ok(verdict(line, "defended", uncontained == 0 && golden_ok))
    })
}
