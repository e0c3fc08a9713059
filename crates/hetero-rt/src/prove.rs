//! Record-time binding derivation — the runtime bridge to the static
//! prover in [`hetero_ir::prove`].
//!
//! A recorded launch states the index sets its kernel touches, once, in
//! its bindings ([`reads_at`](crate::graph::reads_at) and friends). At
//! `Graph::record` time, in every build profile, the builder runs
//! [`hetero_ir::infer_contract`] over them and the recorded range and
//! stores the inferred access mode as the launch's binding — there is
//! no second, hand-written declaration for the prover to cross-check.
//!
//! The counters below are what the `prove` CI sweep gates as exact
//! counts. Every element access stays bounds-checked whatever the proof
//! says; `contracts_proven_in_bounds` is a count, not a licence.

use std::sync::atomic::{AtomicU64, Ordering};

pub use hetero_ir::prove::{
    at, bounded, infer_contract, AffineVar, ContractReport, Index, IndexExpr, LaunchSpec,
    SlotReport, SlotSpec,
};

/// Launches whose bindings were inferred from index sets since process
/// start.
static INFERRED: AtomicU64 = AtomicU64::new(0);

/// Inferred contracts whose every access was proven in bounds.
static PROVEN: AtomicU64 = AtomicU64::new(0);

/// Number of launch contracts inferred since process start.
pub fn contracts_inferred() -> u64 {
    INFERRED.load(Ordering::Relaxed)
}

/// Number of inferred contracts proven in bounds since process start.
pub fn contracts_proven_in_bounds() -> u64 {
    PROVEN.load(Ordering::Relaxed)
}

pub(crate) fn note_inferred(report: &ContractReport) {
    INFERRED.fetch_add(1, Ordering::Relaxed);
    if report.proven_in_bounds() {
        PROVEN.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let spec = LaunchSpec::new().slot(4, vec![], vec![at(0).item(0, 1).into()]);
        let (inferred, proven) = (contracts_inferred(), contracts_proven_in_bounds());
        note_inferred(&infer_contract("k", [4, 1, 1], &spec));
        assert!(contracts_inferred() > inferred);
        assert!(contracts_proven_in_bounds() > proven);
    }
}
