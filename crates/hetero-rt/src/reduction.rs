//! Buffer-level reduction helpers — the `sycl::reduction` convenience
//! layer. Altis' SRAD and ParticleFilter both need whole-buffer
//! reductions between kernels; these helpers run them as proper
//! two-stage ND-Range kernels (per-group tree reduction into partials,
//! then a final fold), which is the shape the migrated code uses.

use crate::buffer::Buffer;
use crate::group_algorithms::group_reduce;
use crate::ndrange::NdRange;
use crate::queue::Queue;

/// Work-group size used by the reduction kernels.
const WG: usize = 128;

/// Reduce an f32 buffer with `op` (plus `identity`) on the device queue.
///
/// Runs a per-group tree reduction kernel followed by a host fold of the
/// per-group partials (exactly the two-stage structure of the original
/// CUDA reductions). Deterministic for a fixed buffer length.
pub fn reduce_f32(
    q: &Queue,
    data: &Buffer<f32>,
    identity: f32,
    op: impl Fn(f32, f32) -> f32 + Sync + Copy,
) -> f32 {
    let n = data.len();
    if n == 0 {
        return identity;
    }
    let padded = n.div_ceil(WG) * WG;
    let groups = padded / WG;
    // Iterative apps (SRAD, ParticleFilter) call this every timestep with
    // the same `n`: route the partials scratch through the queue's
    // recycling slab instead of the allocator.
    let partials = q.recycled_buffer::<f32>(groups);
    let (dv, pv) = (data.view(), partials.view());
    q.nd_range("reduce_f32", NdRange::d1(padded, WG), move |ctx| {
        let vals = ctx.private_array::<f32>();
        ctx.items(|it| {
            let i = it.global_linear;
            vals.set(it.local_linear, if i < n { dv.get(i) } else { identity });
        });
        let r = group_reduce(ctx, &vals, identity, op);
        pv.set(ctx.group_linear(), r);
    })
    .unwrap_or_else(|e| std::panic::panic_any(e));
    let out = partials.read(|p| p.iter().copied().fold(identity, op));
    q.recycle_buffer(partials);
    out
}

/// Sum of an f32 buffer (the common case).
pub fn sum_f32(q: &Queue, data: &Buffer<f32>) -> f32 {
    reduce_f32(q, data, 0.0, |a, b| a + b)
}

/// Sum of squares of an f32 buffer (SRAD's second moment).
pub fn sum_sq_f32(q: &Queue, data: &Buffer<f32>) -> f32 {
    let n = data.len();
    if n == 0 {
        return 0.0;
    }
    let squared = q.recycled_buffer::<f32>(n);
    let (dv, sv) = (data.view(), squared.view());
    q.parallel_for("square", crate::ndrange::Range::d1(n), move |it| {
        let v = dv.get(it.gid(0));
        sv.set(it.gid(0), v * v);
    });
    let out = sum_f32(q, &squared);
    q.recycle_buffer(squared);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    #[test]
    fn sum_matches_sequential() {
        let q = Queue::new(Device::cpu());
        let data: Vec<f32> = (0..10_000).map(|i| (i % 7) as f32).collect();
        let b = Buffer::from_slice(&data);
        let expect: f32 = data.iter().sum();
        assert!((sum_f32(&q, &b) - expect).abs() < expect * 1e-5);
    }

    #[test]
    fn non_multiple_of_group_size_pads_with_identity() {
        let q = Queue::new(Device::cpu());
        let data: Vec<f32> = (0..1_001).map(|_| 1.0).collect();
        let b = Buffer::from_slice(&data);
        assert_eq!(sum_f32(&q, &b), 1_001.0);
    }

    #[test]
    fn max_reduction() {
        let q = Queue::new(Device::cpu());
        let data: Vec<f32> = (0..5_000).map(|i| ((i * 37) % 1000) as f32).collect();
        let b = Buffer::from_slice(&data);
        let m = reduce_f32(&q, &b, f32::NEG_INFINITY, f32::max);
        assert_eq!(m, 999.0);
    }

    #[test]
    fn sum_of_squares() {
        let q = Queue::new(Device::cpu());
        let b = Buffer::from_slice(&[1.0f32, 2.0, 3.0]);
        assert!((sum_sq_f32(&q, &b) - 14.0).abs() < 1e-6);
    }

    #[test]
    fn repeated_reductions_reuse_scratch() {
        let q = Queue::new(Device::cpu());
        let b = Buffer::from_slice(&vec![2.0f32; 4096]);
        let before = q.slab_stats();
        for _ in 0..10 {
            assert_eq!(sum_f32(&q, &b), 8192.0);
            assert!((sum_sq_f32(&q, &b) - 16384.0).abs() < 1e-2);
        }
        let after = q.slab_stats();
        // Each iteration retires its scratch and the next picks it up:
        // only the first pass through each size class may miss.
        assert!(
            after.reuses - before.reuses >= 25,
            "reduction scratch should come from the slab: {after:?}"
        );
    }

    #[test]
    fn empty_buffer_returns_identity() {
        let q = Queue::new(Device::cpu());
        let b = Buffer::<f32>::new(0);
        assert_eq!(sum_f32(&q, &b), 0.0);
        assert_eq!(sum_sq_f32(&q, &b), 0.0);
    }
}
