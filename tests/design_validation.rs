//! Integration: structural validation of every hand-authored FPGA
//! design in the suite, build-report generation, and the replication
//! strategy applied to real designs.

use altis_core::suite::all_apps;
use altis_data::InputSize;
use fpga_sim::FpgaPart;
use hetero_ir::printer::{validate_kernel, ValidationError};

#[test]
fn every_suite_kernel_passes_structural_validation() {
    let parts = [FpgaPart::stratix10(), FpgaPart::agilex()];
    for app in all_apps() {
        for part in &parts {
            for optimized in [false, true] {
                let Some(design) = (app.fpga_design)(InputSize::S2, optimized, part) else {
                    continue;
                };
                design.validate().unwrap_or_else(|e| panic!("{}: {e}", design.name));
                for inst in &design.instances {
                    let errs = validate_kernel(&inst.kernel);
                    // Baselines may legitimately carry the SIMD-with-
                    // irregular smell (that is what the refactoring
                    // fixes); everything else must be clean.
                    let hard: Vec<_> = errs
                        .iter()
                        .filter(|e| !matches!(e, ValidationError::SimdWithIrregularLocal { .. }))
                        .collect();
                    assert!(
                        hard.is_empty(),
                        "{} / kernel {}: {:?}",
                        design.name,
                        inst.kernel.name,
                        hard
                    );
                }
            }
        }
    }
}

#[test]
fn build_reports_render_for_all_optimized_designs() {
    let part = FpgaPart::stratix10();
    for app in all_apps() {
        let Some(design) = (app.fpga_design)(InputSize::S3, true, &part) else {
            continue;
        };
        let report = fpga_sim::build_report(&design, &part);
        assert!(report.contains("Fmax"), "{}: no Fmax in report", design.name);
        assert!(!report.contains("FIT FAILED"), "{}:\n{report}", design.name);
        // Every kernel of the design appears in the report.
        for inst in &design.instances {
            assert!(
                report.contains(inst.kernel.name.as_str()),
                "{}: kernel {} missing from report",
                design.name,
                inst.kernel.name
            );
        }
    }
}

#[test]
fn replication_strategy_agrees_with_paper_scale_choices() {
    // Run the Section-5.1 strategy on the CFD FP32 flux kernel shape
    // and check it lands in the small-replication regime the paper
    // chose (4× on Stratix 10), not at the fit limit.
    use fpga_sim::{Design, KernelInstance};
    use hetero_ir::builder::KernelBuilder;
    use hetero_ir::ir::OpMix;

    let part = FpgaPart::stratix10();
    // The pipe-fed flux kernel (reads decoupled, as in the optimized
    // design): compute-limited at one copy, bandwidth-limited soon after.
    let mk = |cu: u32| {
        let flux = KernelBuilder::nd_range("flux", 64)
            .simd(2)
            .straight_line(OpMix {
                f32_ops: 150,
                fdiv_ops: 6,
                pipe_reads: 1,
                global_write_bytes: 20,
                ..OpMix::default()
            })
            .restrict()
            .build();
        Design::new(format!("cfd-flux-cu{cu}"))
            .with(KernelInstance::new(flux).items(1 << 21).replicated(cu))
    };
    let (cu, _t) = fpga_sim::replicate_while_beneficial(&part, 1.10, mk);
    // Memory bandwidth caps the gain: the strategy stops well before
    // the DSP/ALM fit limit (which would allow dozens of copies).
    assert!((2..=16).contains(&cu), "strategy chose cu = {cu}");
}

#[test]
fn dse_sweep_covers_fit_failures_gracefully() {
    use fpga_sim::{Design, KernelInstance};
    use hetero_ir::builder::{KernelBuilder, LoopBuilder};
    use hetero_ir::ir::{AccessPattern, OpMix, Scalar};

    let part = FpgaPart::agilex();
    let points = fpga_sim::sweep(&part, &[1, 4, 16, 256], |cu| {
        let k = KernelBuilder::single_task("fat")
            .straight_line(OpMix { f64_ops: 40, ..OpMix::default() })
            .build();
        Design::new(format!("p{cu}")).with(KernelInstance::new(k).replicated(cu))
    });
    assert_eq!(points.len(), 4);
    assert!(points[0].seconds.is_some());
    assert!(points[3].seconds.is_none(), "256 replicas of an FP64 kernel cannot fit");
    // Utilization grows monotonically with replication.
    assert!(points.windows(2).all(|w| w[1].alm_utilization > w[0].alm_utilization));

    for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
        // LavaMD's unroll factor (Case 1): every point fits, and each
        // step buys time for area.
        let unroll = fpga_sim::sweep(&part, &[1, 4, 8, 16, 30, 64, 128], |u| {
            let inner = LoopBuilder::new("particles_j", 128)
                .body(OpMix { f32_ops: 11, transcendental_ops: 1, local_reads: 4, ..OpMix::default() })
                .unroll(u)
                .build();
            let nbrs = LoopBuilder::new("neighbors", 19).child(inner).build();
            let k = KernelBuilder::nd_range("lavamd_force", 128)
                .loop_(nbrs)
                .local_array("stage", Scalar::F32, 128 * 4, AccessPattern::Banked)
                .restrict()
                .build();
            Design::new(format!("lavamd-u{u}")).with(KernelInstance::new(k).items(128_000))
        });
        let secs: Vec<f64> = unroll.iter().map(|p| p.seconds.expect("every unroll fits")).collect();
        assert!(secs.windows(2).all(|w| w[1] < w[0]), "{}: unroll times {secs:?}", part.name);
        assert!(unroll.windows(2).all(|w| w[1].alm_utilization > w[0].alm_utilization));

        // Mandelbrot's speculated iterations: each one costs time on a
        // data-dependent exit, so the paper's 0 is the fastest setting.
        let spec = fpga_sim::sweep(&part, &[0, 1, 2, 4, 8, 16], |n| {
            let inner = LoopBuilder::new("escape", 2300)
                .body(OpMix { f32_ops: 7, cmp_sel_ops: 2, ..OpMix::default() })
                .speculated(n)
                .data_dependent_exit()
                .build();
            let pixels = LoopBuilder::new("pixels", 1 << 16).ii(1).child(inner).build();
            let k = KernelBuilder::single_task("mandel").loop_(pixels).restrict().build();
            Design::new(format!("mandel-s{n}")).with(KernelInstance::new(k))
        });
        let secs: Vec<f64> = spec.iter().map(|p| p.seconds.expect("every setting fits")).collect();
        assert!(secs.windows(2).all(|w| w[1] > w[0]), "{}: speculation times {secs:?}", part.name);
    }
}

#[test]
fn every_s10_design_retargets_to_agilex() {
    // Section 5.5 as an algorithm: each Stratix-10-tuned optimized
    // design must come out of the retarget procedure fitting the
    // smaller Agilex part.
    let s10 = FpgaPart::stratix10();
    let agx = FpgaPart::agilex();
    for app in all_apps() {
        let Some(design) = (app.fpga_design)(InputSize::S2, true, &s10) else {
            continue;
        };
        let retargeted = fpga_sim::retarget(&design, &agx, 1.10)
            .unwrap_or_else(|e| panic!("{}: {e}", design.name));
        fpga_sim::resources::check_fit(&retargeted, &agx)
            .unwrap_or_else(|e| panic!("{}: {e}", retargeted.name));
        // Retargeted designs clock higher on the newer part, as Table 3
        // reports for every application.
        let f_s10 = fpga_sim::estimate_fmax(&design, &s10);
        let f_agx = fpga_sim::estimate_fmax(&retargeted, &agx);
        assert!(f_agx > f_s10, "{}: {f_agx} <= {f_s10}", retargeted.name);
    }
}
