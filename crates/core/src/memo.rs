//! The validated-output memo behind [`crate::suite::check`]: a fast
//! fingerprint of an app output, and a small process-wide set of the
//! fingerprints whose outputs have already passed the real golden
//! comparison, so an output seen before is recognised instead of
//! compared again.
//!
//! The set is bounded by construction — 13 configurations × 3 sizes ×
//! [`WAYS`] fingerprints, under 3 KiB whatever is run — so it has no
//! byte budget and no knob.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::suite::mix64;

/// The four lanes of [`crate::suite::Output::fingerprint`]: 8 bytes a
/// step, four independent multiply chains (the registry's `digest_words`
/// is one dependent two-multiply chain per 4-byte element). A step is a
/// bijection of its lane and so is the final fold, so a change confined
/// to one 8-byte word always changes the result; every field's length
/// goes in ahead of its data, so fields cannot trade elements.
pub(crate) struct Lanes([u64; 4]);

pub(crate) fn pack(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

impl Lanes {
    /// `kind` keeps equal bits of different output kinds apart (an f32
    /// 1.0 is not an f64 1.0).
    pub(crate) fn new(kind: u64) -> Self {
        let seed = 0xA076_1D64_78BD_642F;
        Lanes([mix64(seed, kind), seed, !seed, seed.rotate_left(32)])
    }

    /// The added constant keeps a lane from resting at zero, where runs
    /// of zero words would otherwise leave no trace.
    fn step(h: u64, w: u64) -> u64 {
        let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD6E8_FEB8_6659_FD93);
        x ^ (x >> 32)
    }

    /// Absorb one field of `n` 8-byte words, its length first.
    pub(crate) fn words(mut self, n: usize, word: impl Fn(usize) -> u64) -> Self {
        let h = &mut self.0;
        h[0] = Self::step(h[0], n as u64);
        let whole = n - n % 4;
        for i in (0..whole).step_by(4) {
            for (l, h) in h.iter_mut().enumerate() {
                *h = Self::step(*h, word(i + l));
            }
        }
        for i in whole..n {
            h[i % 4] = Self::step(h[i % 4], word(i));
        }
        self
    }

    /// Absorb one field of 4-byte values, two to a word.
    pub(crate) fn words32<T: Copy>(self, v: &[T], bits: impl Fn(T) -> u32) -> Self {
        let n = v.len();
        let s = self.words(n / 2, |i| pack(bits(v[2 * i]), bits(v[2 * i + 1])));
        // The odd value out, as a field of one word or none.
        s.words(n % 2, |_| u64::from(bits(v[n - 1])))
    }

    pub(crate) fn finish(self) -> u64 {
        self.0.into_iter().fold(0, mix64)
    }
}

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
