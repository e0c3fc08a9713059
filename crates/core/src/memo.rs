//! The validated-output memo behind [`crate::suite::check`]: a small
//! process-wide set of the output fingerprints
//! ([`crate::suite::Fingerprint`]) whose outputs have already passed the
//! real golden comparison, so an output seen before is recognised
//! instead of compared again.
//!
//! The set is bounded by construction — 13 configurations × 3 sizes ×
//! [`WAYS`] fingerprints, under 3 KiB whatever is run — so it has no
//! byte budget and no knob.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fingerprints kept per `(config, size)`.
const WAYS: usize = 8;
/// 13 configurations × 3 sizes.
pub(crate) const KEYS: usize = 39;

/// The fingerprints one `(config, size)` has had accepted: at most
/// [`WAYS`], the oldest making room for a newcomer.
#[derive(Clone, Copy)]
struct Accepted {
    fps: [u64; WAYS],
    inserted: usize,
}

impl Accepted {
    fn holds(&self, fp: u64) -> bool {
        self.fps[..self.inserted.min(WAYS)].contains(&fp)
    }
}

static MEMO: Mutex<[Accepted; KEYS]> =
    Mutex::new([Accepted { fps: [0; WAYS], inserted: 0 }; KEYS]);
static REFERENCE_RUNS: AtomicU64 = AtomicU64::new(0);
static RECOGNISED: AtomicU64 = AtomicU64::new(0);

fn table() -> std::sync::MutexGuard<'static, [Accepted; KEYS]> {
    // Every update leaves the table valid, so a poisoned lock is usable.
    MEMO.lock().unwrap_or_else(|p| p.into_inner())
}

/// Whether `fp` is an output `key` has already had accepted; a hit is
/// counted.
pub(crate) fn recognises(key: usize, fp: u64) -> bool {
    let hit = table()[key].holds(fp);
    if hit {
        RECOGNISED.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// Record that the golden comparison accepted the output behind `fp`.
pub(crate) fn remember(key: usize, fp: u64) {
    let mut table = table();
    let a = &mut table[key];
    // Two threads can miss on the same output at once.
    if !a.holds(fp) {
        a.fps[a.inserted % WAYS] = fp;
        a.inserted += 1;
    }
}

/// Count one golden comparison (each computes a fresh reference).
pub(crate) fn count_reference_run() {
    REFERENCE_RUNS.fetch_add(1, Ordering::Relaxed);
}

/// How often validation consulted golden and how often it did not have to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationStats {
    /// Golden comparisons run.
    pub reference_runs: u64,
    /// Outputs accepted as bit-equal to an already validated one.
    pub recognised: u64,
}

/// Process-wide validation counters since start.
pub fn validation_stats() -> ValidationStats {
    ValidationStats {
        reference_runs: REFERENCE_RUNS.load(Ordering::Relaxed),
        recognised: RECOGNISED.load(Ordering::Relaxed),
    }
}
