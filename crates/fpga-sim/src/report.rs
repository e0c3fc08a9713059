//! Table-3-style reporting: resource utilization and Fmax per design on
//! both parts.

use crate::design::Design;
use crate::fmax::estimate_fmax;
use crate::part::FpgaPart;
use crate::resources::design_resources;

/// One row of the paper's Table 3 for one part.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Application / design name.
    pub design: String,
    /// Part name.
    pub part: &'static str,
    /// ALM utilization percentage.
    pub alm_pct: f64,
    /// BRAM utilization percentage.
    pub bram_pct: f64,
    /// DSP utilization percentage.
    pub dsp_pct: f64,
    /// Achieved kernel clock in MHz.
    pub fmax_mhz: f64,
}

/// Produce the Table-3 row for a design on a part.
pub fn table3_row(design: &Design, part: &FpgaPart) -> Table3Row {
    let usage = design_resources(design);
    let (alm, bram, dsp) = usage.utilization(part);
    Table3Row {
        design: design.name.clone(),
        part: part.name,
        alm_pct: alm * 100.0,
        bram_pct: bram * 100.0,
        dsp_pct: dsp * 100.0,
        fmax_mhz: estimate_fmax(design, part),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::KernelInstance;
    use hetero_ir::builder::{KernelBuilder, LoopBuilder};
    use hetero_ir::ir::OpMix;

    fn demo_design() -> Design {
        let l = LoopBuilder::new("l", 10_000)
            .body(OpMix { f32_ops: 8, global_read_bytes: 16, ..OpMix::default() })
            .unroll(4)
            .build();
        Design::new("demo").with(KernelInstance::new(
            KernelBuilder::single_task("k").loop_(l).restrict().build(),
        ))
    }

    #[test]
    fn utilization_percentages_are_plausible() {
        let row = table3_row(&demo_design(), &FpgaPart::stratix10());
        assert!(row.alm_pct > 0.0 && row.alm_pct < 100.0);
        assert!(row.bram_pct > 0.0 && row.bram_pct < 100.0);
        assert!(row.dsp_pct >= 0.0 && row.dsp_pct < 100.0);
        assert!(row.fmax_mhz > 100.0 && row.fmax_mhz < 600.0);
    }

    #[test]
    fn same_design_has_higher_utilization_on_smaller_agilex() {
        // Table 3: Agilex's utilization percentages are mostly higher
        // because the part is smaller.
        let d = demo_design();
        let s10 = table3_row(&d, &FpgaPart::stratix10());
        let agx = table3_row(&d, &FpgaPart::agilex());
        assert!(agx.alm_pct > s10.alm_pct);
        assert!(agx.fmax_mhz > s10.fmax_mhz);
    }
}
