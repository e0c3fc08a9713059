//! # altis-bench — the reproduction harness
//!
//! One function per table/figure of the paper's evaluation, returning
//! structured rows. The `repro` binary prints them; the plain-`main`
//! benches and the `src/bin` microbenchmarks measure through [`timing`]
//! and write through [`report`]; integration tests assert the headline
//! shapes.

#![warn(missing_docs)]

// Geomean accumulators index fixed-size arrays by size slot; the
// indexed form matches the [s1, s2, s3] layout.
#![allow(clippy::needless_range_loop)]

pub mod harness;
pub mod json;
pub mod report;
pub mod timing;

pub use harness::*;
pub use json::results_json;
