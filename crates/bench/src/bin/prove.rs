//! `prove` — the static-verification CI sweep plus the proof-gated
//! bounds-check elision benchmark.
//!
//! Four phases, all load-bearing (each can fail the run):
//!
//! * **App binding sweep** — every suite configuration runs against its
//!   golden reference with contract enforcement force-enabled
//!   ([`prove::force_enable`], so the sweep is meaningful in release
//!   builds too), then the 5-app × 4-flavor graph-equivalence matrix
//!   records every graph-converted app once per cell. Afterwards the
//!   prove counters must read exactly what those recordings hold
//!   ([`CONTRACTS`], [`CERTIFICATES`], [`TV_ACCEPTED`]), with zero
//!   violations and zero rejections by the independent
//!   translation-validation checker.
//! * **FPGA design sweep** — all 26 designs (13 configurations ×
//!   baseline/optimized) through the static IR verifier, with the
//!   explicit [`DPCT_BASELINE_DEVIATIONS`] allowlist: unmatched
//!   findings fail, and so do stale allowlist entries that no longer
//!   fire.
//! * **Record-check overhead** — the full infer + cross-check of a
//!   representative stencil contract is timed standalone; its
//!   per-replay amortization (three checks per recording, spread over
//!   a size-1 FDTD2D run's replays) must stay under 1% of a replay.
//! * **Elision benchmark** — FDTD2D, SRAD and ParticleFilter replayed
//!   over *identical* recorded schedules with the elision kill switch
//!   off (fully checked accessors) and on (certified kernels run their
//!   scalar accesses unchecked on the fast path). Gate: the proven path
//!   must win by `--gate` (default 1.05×) on at least one configuration
//!   of the default route. FDTD2D's and SRAD's row kernels sweep in lane
//!   windows there, which stay checked (one check per 8 elements), so
//!   those rows read about 1×; ParticleFilter's CDF walk still pays one
//!   check per element. The same FDTD2D/SRAD configurations through the
//!   rows' scalar arms (`lanes::force(false)`) are reported for
//!   information and not gated. A sanitized replay of the same certified
//!   graph is also run to confirm the armed-queue fallback stays fully
//!   checked and bit-equal.
//!
//! Writes `BENCH_prove_elision.json` (or the first positional arg).

use std::process::ExitCode;
use std::time::Instant;

use altis_bench::json::{arr, Obj};
use altis_bench::report::{self, Op, Report};
use altis_bench::timing::{paired, Paired};
use altis_core::common::{AppVersion, ExecMode};
use altis_core::suite::{all_apps, graph_mode_matrix, verify_suite_ir, DPCT_BASELINE_DEVIATIONS};
use altis_data::InputSize;
use hetero_ir::{PlanAccess, PlanFootprint};
use hetero_rt::prelude::*;
use hetero_rt::{elide, prove};

const USAGE: &str = "prove [out.json] [--gate X]";

// What phase 1 must count, derived from the recordings. Contracts per
// recording: FDTD2D 3, SRAD 2, CFD 3 (the save copy carries one),
// KMeans 4, ParticleFilter 1 + 1; certificates: 3, 2, 2, 3, 2 (CFD's
// `compute_flux` and KMeans' `accumulate` are ungated). The 13-app
// sweep records those five plus CFD FP64 and PF Float (19 / 16); each
// of the matrix's four flavors records the five again (14 / 12). Only
// `GraphOptimized` compiles through the validator: one plan per app,
// two for ParticleFilter.
const CONTRACTS: u64 = 19 + 4 * 14;
const CERTIFICATES: u64 = 16 + 4 * 12;
const TV_ACCEPTED: u64 = 6;

struct ElisionRow {
    app: &'static str,
    config: String,
    /// `a` is the checked replay, `b` the proven one, seven alternating
    /// pairs: host drift between two separate measurements cannot pass
    /// (or fail) a row.
    t: Paired,
    /// Default-route rows count toward the gate; scalar-arm rows are
    /// reported only.
    gated: bool,
}

impl ElisionRow {
    fn measure(app: &'static str, config: String, gated: bool, run: impl Fn()) -> Self {
        let with = |proven: bool| {
            elide::set_enabled(proven);
            run();
        };
        let t = paired(7, || with(false), || with(true));
        elide::set_enabled(true);
        ElisionRow { app, config, t, gated }
    }
}

fn main() -> ExitCode {
    report::run(USAGE, &["--gate"], &[], |args| {
        Ok(sweep(args.get("--gate", 1.05)?, &args.out("BENCH_prove_elision.json")))
    })
}

fn sweep(gate: f64, out_path: &str) -> ExitCode {
    let mut report = Report::new("prove");
    // Enforcement on for the whole process — this is the point of the
    // sweep: release builds check every recorded contract too.
    prove::force_enable();

    // --- Phase 1: app binding sweep under enforcement ------------------
    println!("== binding-contract sweep (13 apps, enforcement on) ==");
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
    // four flavors; GraphOptimized is where the translation-validation
    // gate lives.
    let mut diverged = 0usize;
    for (name, flavor, ok) in graph_mode_matrix(InputSize::S1) {
        if !ok {
            eprintln!("prove: graph matrix cell {name}/{flavor:?} diverged");
            diverged += 1;
        }
    }
    report.gate("graph matrix cells diverged", diverged as f64, Op::Eq, 0.0);
    let (checked, violations, certs) = (
        prove::contracts_checked(),
        prove::violations_found(),
        prove::certificates_issued(),
    );
    let (tv_ok, tv_rej) = (hetero_rt::graph_opt::tv_accepted(), hetero_rt::graph_opt::tv_rejected());
    println!(
        "  contracts checked {checked}, violations {violations}, certificates {certs}, \
         tv accepted {tv_ok}, tv rejected {tv_rej}"
    );
    // Enforcement wired, no violations, every proof still closing, and
    // the translation validator ran over every optimized plan and
    // accepted it: a count that moves names the recording that moved.
    report.gate("contracts checked", checked as f64, Op::Eq, CONTRACTS as f64);
    report.gate("binding-contract violations", violations as f64, Op::Eq, 0.0);
    report.gate("elision certificates issued", certs as f64, Op::Eq, CERTIFICATES as f64);
    report.gate("optimized plans accepted by TV", tv_ok as f64, Op::Eq, TV_ACCEPTED as f64);
    if !report.gate("optimized plans rejected by TV", tv_rej as f64, Op::Eq, 0.0) {
        eprintln!("prove: {}", hetero_rt::graph_opt::last_tv_rejection().unwrap_or_default());
    }

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

    // --- Phase 3: record-check overhead --------------------------------
    // The FDTD2D hx contract (the largest spec in the suite's hot
    // recording path): full inference + cross-check, timed standalone.
    let n = 256usize;
    let nn = n * n;
    let own = |off: usize| prove::at(off).item(0, 1).item(1, n);
    let spec = prove::LaunchSpec::new()
        .slot("ez", nn, vec![own(n).into(), own(0).into()], vec![])
        .slot("hx", nn, vec![own(0).into(), own(0).into()], vec![own(0).into()]);
    let declared = [
        (PlanAccess::Read, PlanFootprint::Whole),
        (PlanAccess::ReadWrite, PlanFootprint::Item),
    ];
    let reps = 2_000u32;
    let t0 = Instant::now();
    for _ in 0..reps {
        let inferred = prove::infer_contract("fdtd_hx", [n - 1, n - 1, 1], &spec);
        assert!(prove::check_contract(&inferred, &declared).is_empty());
    }
    let check_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    println!("== record-check overhead: {check_us:.1} µs per contract ==");

    // --- Phase 4: elision benchmark ------------------------------------
    println!("== proof-gated elision: checked vs proven fast-path replay ==");
    let mut rows: Vec<ElisionRow> = Vec::new();
    let fdtd_configs = [(256usize, 100usize), (512, 100)];
    let srad_configs = [(256usize, 16usize), (512, 16)];
    // Default route first (gated), then the same rows through their
    // scalar arms (information only).
    for (arm, lanes_on) in [("lanes", true), ("scalar", false)] {
        hetero_rt::lanes::force(lanes_on);
        for (dim, steps) in fdtd_configs {
            let p = altis_data::Fdtd2dParams { dim, steps };
            rows.push(ElisionRow::measure("FDTD2D", format!("dim={dim} steps={steps} {arm}"), lanes_on, || {
                let out = altis_core::fdtd2d::run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::Graph);
                assert!(out.ez.iter().all(|v| v.is_finite()));
            }));
        }
        for (dim, iterations) in srad_configs {
            let p = altis_data::SradParams { dim, iterations, lambda: 0.5 };
            rows.push(ElisionRow::measure("SRAD", format!("dim={dim} iters={iterations} {arm}"), lanes_on, || {
                let out = altis_core::srad::run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::Graph);
                assert!(out.iter().all(|v| v.is_finite()));
            }));
        }
    }
    hetero_rt::lanes::force(true);
    let pf = altis_data::particlefilter(InputSize::S2);
    rows.push(ElisionRow::measure(
        "PF",
        format!("particles={} frames={}", pf.n_particles, pf.frames),
        true,
        || {
            use altis_core::particlefilter::{run_with, PfVariant};
            let out = run_with(&q, &pf, PfVariant::Float, AppVersion::SyclOptimized, ExecMode::Graph);
            assert!(out.xe.iter().all(|v| v.is_finite()));
        },
    ));
    for r in &rows {
        println!(
            "  {:<7} {:<29} checked {:>8.4}s  proven {:>8.4}s  speedup {:.3}x{}",
            r.app,
            r.config,
            r.t.a_s,
            r.t.b_s,
            r.t.ratio,
            if r.gated { "" } else { "  (not gated)" }
        );
    }
    let best = rows.iter().filter(|r| r.gated).map(|r| r.t.ratio).fold(0.0f64, f64::max);
    report.gate("best default-route proven-path speedup", best, Op::Ge, gate);

    // Amortization: one size-1 FDTD2D recording runs 3 contract checks
    // and replays `steps` times; the per-replay share of the checks must
    // be negligible against a measured replay.
    let (dim, steps) = fdtd_configs[0];
    let replay_s = rows[0].t.b_s / steps as f64;
    let amortized_frac = (3.0 * check_us * 1e-6 / steps as f64) / replay_s;
    println!(
        "  record-check amortization at dim={dim}: {:.5}% of one replay",
        amortized_frac * 100.0
    );
    report.gate("record-check share of one replay", amortized_frac, Op::Le, 0.01);

    // Fallback verification: the same certified FDTD2D run on a
    // sanitizer-armed queue must still succeed (checked accessors, no
    // arming) and agree with the fast-path result bit-for-bit.
    let p = altis_data::Fdtd2dParams { dim: 128, steps: 20 };
    let fast = altis_core::fdtd2d::run_with(&q, &p, AppVersion::SyclOptimized, ExecMode::Graph);
    let sanitized = Queue::new(Device::cpu()).with_sanitizer(true);
    let safe = altis_core::fdtd2d::run_with(&sanitized, &p, AppVersion::SyclOptimized, ExecMode::Graph);
    if report.require("armed-queue fallback bit-equal to the proven fast path", fast.ez == safe.ez) {
        println!("  armed-queue fallback verified: checked replay bit-equal to proven replay");
    }

    // --- Report ---------------------------------------------------------
    let passed = report.passed();
    report
        .set(
            "sweep",
            Obj::new()
                .set("apps_verified", apps_ok)
                // Phase 1's counts alone: the elision bench records more
                // graphs, and how many depends on its row list, not on
                // the suite.
                .set("contracts_checked", checked)
                .set("violations_found", prove::violations_found())
                .set("certificates_issued", certs)
                .set("tv_accepted", tv_ok)
                .set("tv_rejected", hetero_rt::graph_opt::tv_rejected())
                .set("fpga_instances_checked", fpga_checked)
                .set("fpga_allowlist_entries", DPCT_BASELINE_DEVIATIONS.len()),
        )
        .set("record_check_us", check_us)
        .set("record_check_amortized_frac", amortized_frac)
        .set(
            "elision",
            arr(rows.iter().map(|r| {
                Obj::new()
                    .set("app", r.app)
                    .set("config", r.config.as_str())
                    .set("gated", r.gated)
                    .set("checked_s", r.t.a_s)
                    .set("proven_s", r.t.b_s)
                    .set("speedup", r.t.ratio)
                    .set("spread", r.t.spread)
            })),
        )
        .set("best_speedup", best)
        .set("gate", gate)
        .set("passed", passed);
    if passed {
        println!("prove: all gates passed (best elision speedup {best:.3}x >= {gate:.2}x)");
    }
    report.finish(out_path)
}
