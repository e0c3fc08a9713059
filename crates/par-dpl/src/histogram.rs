//! Parallel histogram: each work-group counts its block into a private
//! table, publishes it once, and the tables merge on the host in group
//! order — the standard GPU-library formulation.

use hetero_rt::{writes, Buffer};

use crate::util::{block, for_blocks, BLOCK};

/// Histogram of `u32` keys into `bins` buckets by modulo (the integer
/// bucketing the record-filtering workloads use). A block holds at least
/// `bins` keys, so the published tables never outgrow the input by more
/// than one table.
pub fn histogram_u32_mod(data: &[u32], bins: usize) -> Vec<u64> {
    assert!(bins > 0, "histogram needs at least one bin");
    let per = BLOCK.max(bins);
    let blocks = data.len().div_ceil(per);
    let tables = Buffer::<u32>::new(blocks * bins);
    let tv = tables.view();
    for_blocks("histogram_u32_mod", blocks, &[writes(&tables)], |b| {
        let mut table = vec![0u32; bins];
        for &v in block(data, per, b) {
            table[v as usize % bins] += 1;
        }
        tv.copy_from_slice(b * bins, &table);
    });
    let mut out = vec![0u64; bins];
    tables.read(|t| {
        for table in t.chunks(bins) {
            for (o, &c) in out.iter_mut().zip(table) {
                *o += u64::from(c);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential(data: &[u32], bins: usize) -> Vec<u64> {
        let mut seq = vec![0u64; bins];
        for &v in data {
            seq[v as usize % bins] += 1;
        }
        seq
    }

    #[test]
    fn mod_histogram_matches_sequential() {
        let data: Vec<u32> = (0..50_000).map(|i| i * 7 + 3).collect();
        assert_eq!(histogram_u32_mod(&data, 10), sequential(&data, 10));
    }

    #[test]
    fn tables_wider_than_a_block_still_merge() {
        let data: Vec<u32> = (0..100_000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let bins = BLOCK + 3;
        assert_eq!(histogram_u32_mod(&data, bins), sequential(&data, bins));
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
