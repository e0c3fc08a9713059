//! Suite-level containment: applications driven under seeded fault
//! injection must end bit-correct or with a typed error — never an
//! unclassified panic, a hang, or a poisoned worker pool. The full
//! 13-app × seed × rate matrix runs in `scripts/verify.sh` through the
//! `matrix` binary; this test keeps a small slice of the same
//! `suite::matrix` in the tier-1 suite.

use altis_core::common::AppVersion;
use altis_core::suite::{matrix, Cell, Matrix, SdcOutcome, Tier};
use altis_data::InputSize;

/// The resilient tier's cells for `apps` × `seeds` at `rate`.
fn resilient(apps: &[&'static str], seeds: Vec<u64>, rate: f64) -> Vec<Cell> {
    matrix(&Matrix {
        tier: Tier::Resilient,
        apps: apps.to_vec(),
        sizes: vec![InputSize::S1],
        versions: vec![AppVersion::SyclBaseline],
        seeds,
        rates: vec![rate],
    })
    .collect()
}

#[test]
fn injected_faults_stay_contained_across_apps() {
    let picks = ["Mandelbrot", "NW", "SRAD", "KMeans"];
    let cells = resilient(&picks, vec![1, 2], 0.05);
    assert_eq!(cells.len(), picks.len() * 2);
    // Every cell passes its tier's rule, and the shared pool computed
    // exactly after each.
    for c in &cells {
        assert!(c.passed(), "{} seed {}: {:?}", c.app, c.seed, c);
    }
}

#[test]
fn zero_rate_plan_changes_nothing() {
    let cells = resilient(&["Mandelbrot"], vec![7], 0.0);
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].outcome, SdcOutcome::Correct);
    assert_eq!(cells[0].injected, 0);
}
