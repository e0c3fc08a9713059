//! Local-memory system modelling: banks, ports, replication, and
//! arbiters — the detailed layer behind the paper's Section-5.2 case
//! taxonomy (Case 1: banks cleanly; Case 2: port-heavy but regular;
//! Case 3: arbiters required).
//!
//! The FPGA compiler provisions a memory system for each local array:
//! M20K blocks arranged into banks, optionally replicated so that each
//! unrolled/vectorised consumer has a private read port. When the access
//! pattern defeats banking, the compiler inserts arbiters that serialise
//! the port requests — which both stalls the pipeline (timing model) and
//! spends logic (resource model). This module exposes the structural
//! computation behind those effects so designs can be inspected and
//! tested at this level, not just end-to-end.

use hetero_ir::ir::{AccessPattern, LocalArrayDecl};

use crate::calibrate::M20K_BYTES;

/// Ports physically available on one M20K block (true dual-port).
const PORTS_PER_BLOCK: u32 = 2;

/// The memory system the compiler would synthesise for one local array
/// under a given concurrent-access demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySystem {
    /// Concurrent read ports demanded by the (unrolled/vectorised) body.
    pub read_ports_demanded: u32,
    /// Concurrent write ports demanded.
    pub write_ports_demanded: u32,
    /// Banks the array is split into (regular patterns only).
    pub banks: u32,
    /// Replicas of each bank (to multiply read ports).
    pub replicas: u32,
    /// M20K blocks consumed in total.
    pub m20k_blocks: u32,
    /// Arbiters inserted (irregular patterns; 0 for stall-free systems).
    pub arbiters: u32,
    /// Whether the resulting system is stall-free.
    pub stall_free: bool,
}

/// Plan the memory system for `array` accessed with `reads_per_cycle`
/// and `writes_per_cycle` concurrent accesses (i.e. after unrolling and
/// vectorisation multiply the body's per-iteration access counts).
pub fn plan_memory_system(
    array: &LocalArrayDecl,
    reads_per_cycle: u32,
    writes_per_cycle: u32,
) -> MemorySystem {
    let base_blocks = (array.synthesized_bytes() as f64 / M20K_BYTES as f64).ceil().max(1.0) as u32;
    let effective = if array.len.is_none() || array.passed_as_accessor_object {
        AccessPattern::Irregular
    } else {
        array.pattern
    };
    match effective {
        AccessPattern::Banked => {
            // Independent lanes hit disjoint banks: split into enough
            // banks that each lane owns a port, replicate for reads
            // beyond the dual-port budget.
            let banks = writes_per_cycle.max(1).next_power_of_two();
            let reads_per_bank = reads_per_cycle.div_ceil(banks);
            let replicas = reads_per_bank.div_ceil(PORTS_PER_BLOCK).max(1);
            MemorySystem {
                read_ports_demanded: reads_per_cycle,
                write_ports_demanded: writes_per_cycle,
                banks,
                replicas,
                m20k_blocks: base_blocks.max(banks) * replicas,
                arbiters: 0,
                stall_free: true,
            }
        }
        AccessPattern::Regular => {
            // Port-heavy but analysable: replication works, at a higher
            // block cost (the compiler double-pumps and duplicates).
            let replicas = (reads_per_cycle + writes_per_cycle)
                .div_ceil(PORTS_PER_BLOCK)
                .max(1);
            MemorySystem {
                read_ports_demanded: reads_per_cycle,
                write_ports_demanded: writes_per_cycle,
                banks: 1,
                replicas,
                m20k_blocks: base_blocks * replicas,
                arbiters: 0,
                stall_free: true,
            }
        }
        AccessPattern::Irregular => {
            // Data-dependent addressing: banking is impossible, so every
            // port beyond the physical two goes through an arbiter and
            // the system stalls.
            let total = reads_per_cycle + writes_per_cycle;
            let arbiters = total.saturating_sub(PORTS_PER_BLOCK).max(if total > 1 { 1 } else { 0 });
            MemorySystem {
                read_ports_demanded: reads_per_cycle,
                write_ports_demanded: writes_per_cycle,
                banks: 1,
                replicas: 1,
                m20k_blocks: base_blocks,
                arbiters,
                stall_free: total <= 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_ir::ir::Scalar;

    fn array(pattern: AccessPattern, len: usize) -> LocalArrayDecl {
        LocalArrayDecl {
            name: "a".into(),
            elem: Scalar::F32,
            len: Some(len),
            pattern,
            passed_as_accessor_object: false,
        }
    }

    #[test]
    fn case1_banked_replicates_stall_free() {
        // LavaMD's stage array under 30x unroll: 30 concurrent reads.
        let sys = plan_memory_system(&array(AccessPattern::Banked, 512), 30, 1);
        assert!(sys.stall_free);
        assert_eq!(sys.arbiters, 0);
        assert!(sys.replicas >= 15, "need replicas for 30 reads: {sys:?}");
    }

    #[test]
    fn case2_regular_costs_blocks_linearly() {
        // SRAD-style port-heavy regular access: more ports, more blocks,
        // still stall-free.
        let narrow = plan_memory_system(&array(AccessPattern::Regular, 4096), 2, 1);
        let wide = plan_memory_system(&array(AccessPattern::Regular, 4096), 12, 4);
        assert!(narrow.stall_free && wide.stall_free);
        assert!(wide.m20k_blocks > 2 * narrow.m20k_blocks);
    }

    #[test]
    fn case3_irregular_gets_arbiters_and_stalls() {
        // NW's diagonal tile: data-dependent addressing.
        let sys = plan_memory_system(&array(AccessPattern::Irregular, 289), 3, 1);
        assert!(!sys.stall_free);
        assert!(sys.arbiters >= 1);
        // No replication is possible: block count equals footprint.
        assert_eq!(sys.replicas, 1);
    }

    #[test]
    fn dynamic_accessor_is_treated_irregular_and_big() {
        let dynamic = LocalArrayDecl {
            name: "d".into(),
            elem: Scalar::F64,
            len: None,
            pattern: AccessPattern::Banked,
            passed_as_accessor_object: false,
        };
        let sys = plan_memory_system(&dynamic, 4, 1);
        assert!(!sys.stall_free);
        // 16 kB worst case → several M20K blocks.
        assert!(sys.m20k_blocks >= 6, "{sys:?}");
    }

    #[test]
    fn single_port_irregular_is_fine() {
        let sys = plan_memory_system(&array(AccessPattern::Irregular, 64), 1, 0);
        assert!(sys.stall_free);
        assert_eq!(sys.arbiters, 0);
    }

    #[test]
    fn unrolling_a_banked_array_grows_blocks_not_arbiters() {
        // The Case-1 story: unroll factors multiply block usage but the
        // system never arbitrates.
        let mut last_blocks = 0;
        for unroll in [1u32, 4, 8, 16, 30] {
            let sys = plan_memory_system(&array(AccessPattern::Banked, 512), unroll, 1);
            assert_eq!(sys.arbiters, 0, "unroll {unroll}");
            assert!(sys.m20k_blocks >= last_blocks);
            last_blocks = sys.m20k_blocks;
        }
    }
}
