//! The weighted dot product ParticleFilter's estimate step calls.

/// Weighted dot product: `Σ a[i]·b[i]`, in parallel with deterministic
/// chunked combination (per-chunk sums added in chunk order).
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let dot = |lo: usize, hi: usize| -> f32 {
        a[lo..hi].iter().zip(&b[lo..hi]).map(|(x, y)| x * y).sum()
    };
    let threads = crate::util::thread_count_for(n, 8192);
    if threads == 1 {
        return dot(0, n);
    }
    let chunk = n.div_ceil(threads);
    let mut partials = vec![0f32; threads];
    hetero_rt::pool::parallel_parts(&mut partials, threads, |t, p| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        if lo < hi {
            *p = dot(lo, hi);
        }
    });
    partials.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_basic() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![4.0f32, 5.0, 6.0];
        assert!((dot_f32(&a, &b) - 32.0).abs() < 1e-6);
    }

    #[test]
    fn chunked_dot_matches_sequential() {
        let a: Vec<f32> = (0..200_000).map(|i| (i % 10) as f32).collect();
        let b: Vec<f32> = (0..200_000).map(|i| (i % 7) as f32 * 0.5).collect();
        let seq: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_f32(&a, &b) - seq).abs() < seq.abs() * 1e-4);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dot_f32(&[], &[]), 0.0);
    }
}
