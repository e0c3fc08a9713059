//! Parallel reductions (sum / min) over slices.
//!
//! Deterministic chunked tree reductions: each thread reduces a
//! contiguous chunk, then the chunk results reduce sequentially in chunk
//! order, so f32 sums are reproducible run-to-run (important for the
//! suite's regression tests).

fn chunked_reduce<T, F>(data: &[T], identity: T, f: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let n = data.len();
    if n == 0 {
        return identity;
    }
    let threads = crate::util::thread_count_for(n, 8192);
    if threads == 1 {
        return data.iter().fold(identity, |a, &b| f(a, b));
    }
    let chunk = n.div_ceil(threads);
    let mut partials = vec![identity; threads];
    hetero_rt::pool::parallel_parts(&mut partials, threads, |t, p| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        if lo < hi {
            *p = data[lo..hi].iter().fold(identity, |a, &b| f(a, b));
        }
    });
    partials.into_iter().fold(identity, f)
}

/// Parallel sum of f32 values (deterministic chunk order).
///
/// Deliberately **not** lane-vectorized: f32 addition is order-sensitive
/// and this fold's chunk-order tree is the reproducibility contract the
/// regression suites pin (DESIGN.md §10's refusal rule).
pub fn reduce_sum(data: &[f32]) -> f32 {
    chunked_reduce(data, 0.0f32, |a, b| a + b)
}

/// Parallel minimum; returns `f32::INFINITY` for empty input. The fold
/// names `f32::min` directly so it inlines: through a run-time `fn`
/// pointer the same loop read a third of this bandwidth.
pub fn reduce_min(data: &[f32]) -> f32 {
    chunked_reduce(data, f32::INFINITY, f32::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_sequential() {
        let data: Vec<f32> = (0..100_000).map(|i| (i % 13) as f32 * 0.25).collect();
        let seq: f32 = data.iter().sum();
        let par = reduce_sum(&data);
        assert!((par - seq).abs() < seq.abs() * 1e-4);
    }

    #[test]
    fn min_matches_sequential() {
        let data: Vec<f32> = (0..50_000).map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 - 500.0).collect();
        assert_eq!(reduce_min(&data), data.iter().copied().fold(f32::INFINITY, f32::min));
    }

    #[test]
    fn empty_inputs_yield_identities() {
        assert_eq!(reduce_sum(&[]), 0.0);
        assert_eq!(reduce_min(&[]), f32::INFINITY);
    }

    #[test]
    fn reduction_is_deterministic() {
        let data: Vec<f32> = (0..200_000).map(|i| (i as f32).sin()).collect();
        let a = reduce_sum(&data);
        let b = reduce_sum(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn prop_min_bounds_all_elements() {
        let mut g = crate::testgen::Gen::new(0x4ED0);
        for _ in 0..crate::testgen::cases(64) {
            let data = g.f32_vec(1, 500, -1e6, 1e6);
            let lo = reduce_min(&data);
            assert!(data.contains(&lo));
            assert!(data.iter().all(|&x| lo <= x));
        }
    }
}
