//! Width-generic SIMD lanes for kernel inner loops.
//!
//! `std::simd` is unstable and this build is offline, so vector width is
//! expressed the portable way: [`Lanes`], a fixed-size array whose
//! elementwise operator loops LLVM reliably autovectorizes at `-O` (the
//! idiom `sycl::vec<float, 8>` lowers to on CPU targets). The wide width
//! is [`LANES`] = 8: one AVX2 register of `f32`, the `float8` shape the
//! Altis-SYCL FPGA ports unroll to.
//!
//! # One body, two widths
//!
//! A lane kernel writes its arithmetic once, as a [`Body`] generic over
//! the width `W`. Lane ops are plain elementwise ops in the written
//! order — no FMA contraction, no horizontal reassociation — so `W = 1`
//! *is* the scalar kernel and the two widths are bit-identical by
//! construction. (Order-sensitive `f32` sums are refused vectorization
//! and keep their chunk-order tree, DESIGN.md §10.) [`sweep`] owns "wide
//! blocks, then a narrow tail"; `HETERO_RT_LANES=0` or [`force`] makes it
//! run `W = 1` throughout — the same launches, ranges and bindings at
//! scalar width, which is how `roofline` times the scalar baseline.
//!
//! The lane accessors on [`crate::GlobalView`] amortize the bounds check
//! to one per block but record **per-element** sanitizer accesses (out
//! of line, while armed), so race reports do not depend on the width a
//! kernel ran at.

// Indexed `for k in 0..W` loops on purpose: "lane k of the output is
// exactly this expression of lane k of the inputs" is the bit-exactness
// contract, and the shape LLVM's loop vectorizer recognizes.
#![allow(clippy::needless_range_loop, clippy::assign_op_pattern)]

use std::sync::atomic::{AtomicU8, Ordering};

/// The wide width [`sweep`] runs a [`Body`] at.
pub const LANES: usize = 8;

/// Tri-state: 0 = unresolved, 1 = enabled, 2 = disabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether [`sweep`] runs wide blocks. Resolved once from
/// `HETERO_RT_LANES` (default: enabled; `0`, `off` or `false` disable),
/// overridable at runtime with [`force`].
#[inline]
fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => resolve(),
    }
}

#[cold]
fn resolve() -> bool {
    let on = match std::env::var("HETERO_RT_LANES") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false"),
        Err(_) => true,
    };
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Force wide blocks on or off, overriding the environment. Used by the
/// roofline benchmark to time both widths of the same kernel in one
/// process, and by the route-parity test.
pub fn force(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// `W` lanes of `T`. Arithmetic is elementwise with per-lane rounding
/// identical to the scalar op sequence (no FMA); `Lanes<T, 1>` is the
/// scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Lanes<T, const W: usize>(pub [T; W]);

impl<T: Copy, const W: usize> Lanes<T, W> {
    /// Broadcast `v` into every lane.
    #[inline]
    pub fn splat(v: T) -> Self {
        Lanes([v; W])
    }
}

macro_rules! lane_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<T: Copy + std::ops::$trait<Output = T>, const W: usize> std::ops::$trait
            for Lanes<T, W>
        {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: Self) -> Self {
                let mut out = self.0;
                for k in 0..W {
                    out[k] = out[k] $op rhs.0[k];
                }
                Lanes(out)
            }
        }
    };
}
lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);
lane_binop!(Div, div, /);

impl<const W: usize> Lanes<f32, W> {
    /// Elementwise clamp, same semantics as `f32::clamp` per lane.
    #[inline]
    pub fn clamp(self, lo: f32, hi: f32) -> Self {
        let mut out = self.0;
        for k in 0..W {
            out[k] = out[k].clamp(lo, hi);
        }
        Lanes(out)
    }
}

/// A kernel's arithmetic over the `W` consecutive elements starting at
/// `x`, said once for every width.
pub trait Body {
    /// Run the kernel on elements `x..x + W`.
    fn at<const W: usize>(&self, x: usize);
}

/// Run `body` over `lo..hi`: at `W = LANES` while a whole block fits,
/// at `W = 1` for what is left — or at `W = 1` throughout with the lane
/// switch off. Every index is covered exactly once, in ascending order.
#[inline]
pub fn sweep(lo: usize, hi: usize, body: &impl Body) {
    let mut x = lo;
    if enabled() {
        while x + LANES <= hi {
            body.at::<LANES>(x);
            x += LANES;
        }
    }
    while x < hi {
        body.at::<1>(x);
        x += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn f32_ops_match_scalar_sequence_bitwise() {
        let a: [f32; LANES] = std::array::from_fn(|k| (k as f32 + 1.0) * 0.3);
        let b: [f32; LANES] = std::array::from_fn(|k| (k as f32 - 3.5) * 1.7);
        let v = ((Lanes(a) - Lanes(b)) * Lanes::splat(0.7) + Lanes(b)) / Lanes(a);
        for k in 0..LANES {
            let s = ((a[k] - b[k]) * 0.7 + b[k]) / a[k];
            assert_eq!(v.0[k].to_bits(), s.to_bits(), "lane {k}");
            let one = ((Lanes([a[k]]) - Lanes([b[k]])) * Lanes::splat(0.7) + Lanes([b[k]]))
                / Lanes([a[k]]);
            assert_eq!(one.0[0].to_bits(), s.to_bits(), "W = 1, element {k}");
        }
        assert_eq!(Lanes([-1.0f32, 0.5, 2.0]).clamp(0.0, 1.0).0, [0.0, 0.5, 1.0]);
    }

    struct Trace(RefCell<Vec<(usize, usize)>>);

    impl Body for Trace {
        fn at<const W: usize>(&self, x: usize) {
            self.0.borrow_mut().push((x, W));
        }
    }

    /// The only test in this crate that flips the switch.
    #[test]
    fn sweep_covers_every_index_exactly_once_under_either_switch_state() {
        for on in [false, true] {
            force(on);
            for lo in [0, 1, 5] {
                for len in 0..=3 * LANES + 1 {
                    let trace = Trace(RefCell::new(Vec::new()));
                    sweep(lo, lo + len, &trace);
                    let calls = trace.0.into_inner();
                    let covered: Vec<usize> =
                        calls.iter().flat_map(|&(x, w)| x..x + w).collect();
                    assert_eq!(covered, (lo..lo + len).collect::<Vec<_>>(), "on {on} len {len}");
                    let wide = calls.iter().filter(|c| c.1 == LANES).count();
                    assert_eq!(wide, if on { len / LANES } else { 0 }, "on {on} len {len}");
                }
            }
        }
    }
}
