//! Buffer-level reduction helpers — the `sycl::reduction` convenience
//! layer. Altis' SRAD needs whole-buffer reductions between kernels;
//! these helpers run them as two stages, a device kernel folding blocks
//! into partials and a host fold of the partials, which is the shape the
//! migrated code uses.
//!
//! # The pinned association
//!
//! Floating-point results depend on the order of the fold, so the order
//! is part of the contract and never depends on the schedule: the buffer
//! is cut into blocks of [`WG`] consecutive elements (the last one padded
//! with `identity`); each block folds left to right starting from
//! `identity` (`acc = op(acc, x)`, padding slots included); the blocks'
//! partials fold the same way, in ascending block order, on the host.
//! A work-item folds [`SIDE`] blocks side by side so their dependency
//! chains overlap — each block's own order is untouched, which is why
//! [`moments_f32`] equals two separate reductions bit for bit.
//!
//! # Parallel granularity
//!
//! The pool schedules whole work-groups, and a `parallel_for` group is a
//! chunk of 256 work-items, so one group folds 256 × [`SIDE`] × [`WG`] =
//! 128 Ki elements: a buffer below that size is reduced by a single
//! thread, and a 1 Mi-element one has eight groups to share. That was
//! sized on a 2-thread host only (SRAD's 16 Ki–256 Ki images, where a
//! launch is over before a second thread wakes); on a host with more
//! threads it is unverified and may leave them idle.

use crate::buffer::Buffer;
use crate::graph::{reads, writes};
use crate::ndrange::Range;
use crate::queue::Queue;

/// Elements per block: one partial each.
const WG: usize = 128;

/// Blocks one work-item folds side by side.
const SIDE: usize = 4;

/// Fold `S` consecutive blocks starting at block `first`, element `j` of
/// each in turn; `elem(i)` is element `i` of the padded buffer.
#[inline]
fn fold_side<const K: usize, const S: usize>(
    first: usize,
    identity: f32,
    elem: impl Fn(usize) -> f32,
    step: impl Fn([f32; K], f32) -> [f32; K],
) -> [[f32; K]; S] {
    let mut acc = [[identity; K]; S];
    for j in 0..WG {
        for (s, a) in acc.iter_mut().enumerate() {
            *a = step(*a, elem((first + s) * WG + j));
        }
    }
    acc
}

/// The one reduction kernel: `K` accumulators per block, each starting
/// at `identity` and advanced by `step` once per element, partials
/// folded per accumulator with `op` on the host.
fn fold_blocks<const K: usize>(
    q: &Queue,
    name: &'static str,
    data: &Buffer<f32>,
    identity: f32,
    step: impl Fn([f32; K], f32) -> [f32; K] + Sync + Copy,
    op: impl Fn(f32, f32) -> f32,
) -> [f32; K] {
    let n = data.len();
    if n == 0 {
        return [identity; K];
    }
    let blocks = n.div_ceil(WG);
    // Accumulator `k` of block `b` at `k * blocks + b`.
    let partials = Buffer::<f32>::new(K * blocks);
    let (dv, pv) = (data.view(), partials.view());
    let publish = move |b: usize, acc: [f32; K]| {
        for (k, &a) in acc.iter().enumerate() {
            pv.set(k * blocks + b, a);
        }
    };
    let bindings = [reads(data), writes(&partials)];
    let range = Range::d1(blocks.div_ceil(SIDE));
    q.submit(&bindings).parallel_for(name, range, move |it| {
        let first = it.gid(0) * SIDE;
        if (first + SIDE) * WG <= n {
            let acc = fold_side::<K, SIDE>(first, identity, |i| dv.get(i), step);
            for (s, &a) in acc.iter().enumerate() {
                publish(first + s, a);
            }
        } else {
            // The buffer's tail: fewer than SIDE blocks, the last padded.
            for b in first..blocks {
                let padded = |i| if i < n { dv.get(i) } else { identity };
                let [acc] = fold_side::<K, 1>(b, identity, padded, step);
                publish(b, acc);
            }
        }
    });
    partials.read(|p| {
        std::array::from_fn(|k| p[k * blocks..][..blocks].iter().copied().fold(identity, &op))
    })
}

/// Sum and sum of squares of an f32 buffer in one pass (SRAD's ROI
/// moments): bit-equal to a sum over the buffer and one over the squared
/// buffer, because both chains keep the pinned association (the square
/// is rounded to `f32` before it is added; no FMA).
pub fn moments_f32(q: &Queue, data: &Buffer<f32>) -> (f32, f32) {
    let step = |[a, b]: [f32; 2], v: f32| [a + v, b + v * v];
    let [sum, sum_sq] = fold_blocks(q, "moments_f32", data, 0.0, step, |a, b| a + b);
    (sum, sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    /// The pinned association, written out on the host: blocks of 128
    /// padded with `identity`, each folded left to right from
    /// `identity`, partials folded in ascending order.
    fn pinned(data: &[f32], identity: f32, op: impl Fn(f32, f32) -> f32) -> f32 {
        let partials = data.chunks(128).map(|block| {
            let acc = block.iter().fold(identity, |a, &v| op(a, v));
            (block.len()..128).fold(acc, |a, _| op(a, identity))
        });
        partials.fold(identity, &op)
    }

    fn ragged(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 2_654_435_761) % 20_011) as f32 * 1.3e-3 - 9.7).collect()
    }

    #[test]
    fn sum_matches_sequential() {
        let q = Queue::new(Device::cpu());
        let data: Vec<f32> = (0..10_000).map(|i| (i % 7) as f32).collect();
        let b = Buffer::from_slice(&data);
        let expect: f32 = data.iter().sum();
        assert!((moments_f32(&q, &b).0 - expect).abs() < expect * 1e-5);
    }

    #[test]
    fn non_multiple_of_group_size_pads_with_identity() {
        let q = Queue::new(Device::cpu());
        let data: Vec<f32> = (0..1_001).map(|_| 1.0).collect();
        let b = Buffer::from_slice(&data);
        assert_eq!(moments_f32(&q, &b).0, 1_001.0);
    }

    #[test]
    fn sum_of_squares() {
        let q = Queue::new(Device::cpu());
        let b = Buffer::from_slice(&[1.0f32, 2.0, 3.0]);
        let (sum, sum_sq) = moments_f32(&q, &b);
        assert_eq!(sum, 6.0);
        assert!((sum_sq - 14.0).abs() < 1e-6);
    }

    #[test]
    fn every_helper_keeps_the_pinned_association_bit_for_bit() {
        let q = Queue::new(Device::cpu());
        let add = |a: f32, b: f32| a + b;
        let mut inputs: Vec<Vec<f32>> =
            [1, 127, 128, 129, 511, 512, 513, 1000, 16_384, 65_613].map(ragged).to_vec();
        inputs.push(vec![-0.0; 300]);
        let mut with_nan = ragged(777);
        with_nan[400] = f32::NAN;
        inputs.push(with_nan);
        for data in &inputs {
            let b = Buffer::from_slice(data);
            let squares: Vec<f32> = data.iter().map(|&v| v * v).collect();
            let (sum, sum_sq) = moments_f32(&q, &b);
            let n = data.len();
            assert_eq!(sum.to_bits(), pinned(data, 0.0, add).to_bits(), "sum, n = {n}");
            assert_eq!(sum_sq.to_bits(), pinned(&squares, 0.0, add).to_bits(), "sum_sq, n = {n}");
        }
    }

    #[test]
    fn empty_buffer_returns_identity() {
        let q = Queue::new(Device::cpu());
        let b = Buffer::<f32>::new(0);
        assert_eq!(moments_f32(&q, &b), (0.0, 0.0));
    }
}
