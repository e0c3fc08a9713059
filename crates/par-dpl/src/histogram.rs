//! Parallel histogram — per-thread private bins merged at the end, the
//! standard GPU-library formulation.

/// Histogram of `u32` keys into `bins` buckets by modulo (the integer
/// bucketing the record-filtering workloads use).
pub fn histogram_u32_mod(data: &[u32], bins: usize) -> Vec<u64> {
    assert!(bins > 0, "histogram needs at least one bin");
    let n = data.len();
    let threads = crate::util::thread_count_for(n, 8192);
    let chunk = n.div_ceil(threads).max(1);
    let mut partials = vec![vec![0u64; bins]; threads];
    hetero_rt::pool::parallel_parts(&mut partials, threads, |t, part| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        for &v in &data[lo..hi.max(lo)] {
            part[v as usize % bins] += 1;
        }
    });
    let mut out = vec![0u64; bins];
    for part in partials {
        for (o, p) in out.iter_mut().zip(part) {
            *o += p;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_histogram_matches_sequential() {
        let data: Vec<u32> = (0..50_000).map(|i| i * 7 + 3).collect();
        let par = histogram_u32_mod(&data, 10);
        let mut seq = vec![0u64; 10];
        for &v in &data {
            seq[v as usize % 10] += 1;
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_input_yields_zero_bins() {
        assert_eq!(histogram_u32_mod(&[], 4), vec![0; 4]);
    }

    #[test]
    fn prop_total_count_preserved() {
        let mut g = crate::testgen::Gen::new(0x4157);
        for _ in 0..crate::testgen::cases(64) {
            let data = g.u32_vec(0, 2000, 1000);
            assert_eq!(histogram_u32_mod(&data, 7).iter().sum::<u64>(), data.len() as u64);
        }
    }
}
