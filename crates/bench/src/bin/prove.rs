//! `prove` — the static-verification CI sweep.
//!
//! Two phases, both load-bearing (each can fail the run), every gate an
//! exact count:
//!
//! * **App binding sweep** — every suite configuration runs against its
//!   golden reference, then the 5-app × 3-flavor graph-equivalence
//!   matrix records every graph-converted app once per cell. Each
//!   recorded launch that states index sets has its bindings inferred at
//!   record time; afterwards the prove counters must read exactly what
//!   those recordings hold ([`CONTRACTS`]), every one of them proven in
//!   bounds.
//! * **FPGA design sweep** — all 26 designs (13 configurations ×
//!   baseline/optimized) through the static IR verifier, with the
//!   explicit [`DPCT_BASELINE_DEVIATIONS`] allowlist: unmatched
//!   findings fail, and so do stale allowlist entries that no longer
//!   fire.
//!
//! Writes `BENCH_prove.json` (or the first positional arg).

use std::process::ExitCode;

use altis_bench::json::Obj;
use altis_bench::report::{self, Op, Report};
use altis_core::common::AppVersion;
use altis_core::suite::{all_apps, graph_mode_matrix, verify_suite_ir, DPCT_BASELINE_DEVIATIONS};
use altis_data::InputSize;
use hetero_rt::prelude::*;
use hetero_rt::prove;

const USAGE: &str = "prove [out.json]";

// What phase 1 must count, derived from the recordings. Launches that
// state index sets, per run: FDTD2D 3, SRAD 2, CFD 2 + 2 (the even and
// the odd step of its state ping-pong), KMeans 4, ParticleFilter 1 + 1.
// The 13-app sweep records those five plus CFD FP64 and PF Float (21);
// each of the matrix's three flavors records the five again (15). Every
// one of them proves all its accesses in bounds.
const CONTRACTS: u64 = 21 + 3 * 15;

fn main() -> ExitCode {
    report::run(USAGE, &[], &[], |args| Ok(sweep(&args.out("BENCH_prove.json"))))
}

fn sweep(out_path: &str) -> ExitCode {
    let mut report = Report::new("prove");

    // --- Phase 1: app binding sweep -------------------------------------
    println!("== binding-contract sweep (13 apps) ==");
    let q = Queue::new(Device::cpu());
    let apps = all_apps();
    let mut apps_ok = 0usize;
    for app in &apps {
        let ok = (app.verify)(&q, InputSize::S1, AppVersion::SyclOptimized);
        println!("  {:<12} {}", app.name, if ok { "ok" } else { "FAILED" });
        apps_ok += usize::from(ok);
    }
    report.gate("apps verified against golden", apps_ok as f64, Op::Eq, apps.len() as f64);
    // The matrix additionally records every graph app under each of its
    // three flavors.
    let mut diverged = 0usize;
    for (name, flavor, ok) in graph_mode_matrix(InputSize::S1) {
        if !ok {
            eprintln!("prove: graph matrix cell {name}/{flavor:?} diverged");
            diverged += 1;
        }
    }
    report.gate("graph matrix cells diverged", diverged as f64, Op::Eq, 0.0);
    let (inferred, proven) = (prove::contracts_inferred(), prove::contracts_proven_in_bounds());
    println!("  contracts inferred {inferred}, proven in bounds {proven}");
    // Every recording inferred and every proof still closing: a count
    // that moves names the recording that moved.
    report.gate("contracts inferred", inferred as f64, Op::Eq, CONTRACTS as f64);
    report.gate("contracts proven in bounds", proven as f64, Op::Eq, CONTRACTS as f64);

    // --- Phase 2: FPGA design sweep with the explicit allowlist --------
    println!("== FPGA design sweep (26 designs, {} allowlisted deviations) ==", DPCT_BASELINE_DEVIATIONS.len());
    let (fpga_checked, fpga_findings) = match verify_suite_ir() {
        Ok(n) => {
            println!("  {n} kernel instances verified");
            (n, 0)
        }
        Err(errs) => {
            for e in &errs {
                println!("  FAILED: {e}");
            }
            (0, errs.len())
        }
    };
    report.gate("FPGA verifier findings outside the allowlist", fpga_findings as f64, Op::Eq, 0.0);

    // --- Report ---------------------------------------------------------
    let passed = report.passed();
    report
        .set(
            "sweep",
            Obj::new()
                .set("apps_verified", apps_ok)
                .set("contracts_inferred", inferred)
                .set("contracts_proven_in_bounds", proven)
                .set("fpga_instances_checked", fpga_checked)
                .set("fpga_allowlist_entries", DPCT_BASELINE_DEVIATIONS.len()),
        )
        .set("passed", passed);
    if passed {
        println!("prove: all gates passed");
    }
    report.finish(out_path)
}
