//! Parallel minimum over a slice: one partial per block, folded on the
//! host in block order.

use hetero_rt::{writes, Buffer};

use crate::util::{block, for_blocks, BLOCK};

/// Parallel minimum; returns `f32::INFINITY` for empty input. The fold
/// names `f32::min` directly so it inlines: through a run-time `fn`
/// pointer the same loop read a third of this bandwidth.
pub fn reduce_min(data: &[f32]) -> f32 {
    let blocks = data.len().div_ceil(BLOCK);
    let partials = Buffer::<f32>::new(blocks);
    let pv = partials.view();
    for_blocks("reduce_min", blocks, &[writes(&partials)], |b| {
        pv.set(b, block(data, BLOCK, b).iter().copied().fold(f32::INFINITY, f32::min));
    });
    partials.read(|p| p.iter().copied().fold(f32::INFINITY, f32::min))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_matches_sequential() {
        let data: Vec<f32> = (0..50_000).map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 - 500.0).collect();
        assert_eq!(reduce_min(&data), data.iter().copied().fold(f32::INFINITY, f32::min));
    }

    #[test]
    fn empty_inputs_yield_identities() {
        assert_eq!(reduce_min(&[]), f32::INFINITY);
    }

    #[test]
    fn reduction_is_deterministic() {
        let data: Vec<f32> = (0..200_000).map(|i| (i as f32).sin()).collect();
        let a = reduce_min(&data);
        let b = reduce_min(&data);
        assert_eq!(a.to_bits(), b.to_bits());
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
