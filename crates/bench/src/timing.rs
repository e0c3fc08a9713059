//! The one way this crate takes a measurement: how the worker pool is
//! sized, how a closure is timed, how two variants are compared, and
//! the order statistics every reported number goes through.
//!
//! No external benchmarking crate — the repo builds fully offline. The
//! median and quartile conventions are those of `e2e/src/stats.rs`
//! (Python's `statistics.median` / `quantiles(v, n=4)`), so a spread
//! computed here reads the same as one computed by the end-to-end
//! benchmark.

use std::time::{Duration, Instant};

/// Cores the OS gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size the worker pool and return its width: an explicit
/// `HETERO_RT_THREADS` is honoured, otherwise every core up to four —
/// never more workers than cores, which would time the OS scheduler.
/// Must run before the first pool access, which caches the value.
pub fn pin_threads() -> usize {
    if std::env::var_os("HETERO_RT_THREADS").is_none() {
        std::env::set_var("HETERO_RT_THREADS", nproc().min(4).to_string());
    }
    hetero_rt::pool::auto_threads()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the exclusive method; `None` for
/// fewer than two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread reported
/// beside every compared number. 0 when undefined.
pub fn iqr_frac(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile of `v`, `p` as a fraction (`0.99` is p99);
/// 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    s[((s.len() as f64 * p).ceil() as usize).clamp(1, s.len()) - 1]
}

fn timed<R>(f: &mut impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Seconds taken by each of `n` calls of `f`, after one untimed warm-up
/// call (the first pooled launch spawns the workers).
pub fn samples<R>(n: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    std::hint::black_box(f());
    (0..n.max(1)).map(|_| timed(&mut f)).collect()
}

/// Two variants compared as alternating pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Median seconds of one call of the first variant.
    pub a_s: f64,
    /// Median seconds of one call of the second variant.
    pub b_s: f64,
    /// Median of `a / b` within a round, balanced over which ran first:
    /// how many times faster `b` is, or `a`'s cost relative to a
    /// baseline `b`.
    pub ratio: f64,
    /// Interquartile distance of the per-round ratios as a share of
    /// their median.
    pub spread: f64,
}

/// Time `a` and `b` back to back for `rounds` rounds after one warm-up
/// call of each, alternating which runs first. This host's speed drifts
/// 5–12% within seconds; drift common to a pair cancels in its ratio,
/// so comparisons gate on [`Paired::ratio`], never on two medians taken
/// apart.
pub fn paired<A, B>(
    rounds: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Paired {
    std::hint::black_box((a(), b()));
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for round in 0..rounds.max(1) {
        if round % 2 == 0 {
            ta.push(timed(&mut a));
            tb.push(timed(&mut b));
        } else {
            tb.push(timed(&mut b));
            ta.push(timed(&mut a));
        }
    }
    let ratios: Vec<f64> = ta.iter().zip(&tb).map(|(x, y)| x / y).collect();
    // Running second can be worth a few percent by itself (the workers
    // are still awake), with opposite sign in rounds led by `a` and by
    // `b`: a median over both kinds would land on whichever has one
    // sample more. Take each kind's median, then their geometric mean.
    let led_by = |first: usize| {
        median(&ratios.iter().skip(first).step_by(2).copied().collect::<Vec<_>>())
    };
    let ratio = if ratios.len() > 1 { (led_by(0) * led_by(1)).sqrt() } else { led_by(0) };
    Paired { a_s: median(&ta), b_s: median(&tb), ratio, spread: iqr_frac(&ratios) }
}

/// Time `f` for `iters` iterations (after one warm-up call), print the
/// median as `name  median <time>`, and return it.
pub fn bench<R>(name: &str, iters: usize, f: impl FnMut() -> R) -> Duration {
    let s = samples(iters, f);
    let median = Duration::from_secs_f64(median(&s));
    println!("{name:<44} median {median:>12.3?}  (n={})", s.len());
    median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive_for_real_work() {
        let d = bench("timing_selftest", 3, || {
            (0..10_000u64).map(std::hint::black_box).sum::<u64>()
        });
        assert!(d > Duration::ZERO);
    }
}
