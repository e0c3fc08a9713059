//! Fixed-width SIMD lanes for kernel inner loops.
//!
//! `std::simd` is unstable and this build is offline, so vector width is
//! expressed the portable way: small fixed-size array structs whose
//! elementwise operator loops LLVM reliably autovectorizes at `-O`
//! (the same idiom `sycl::vec<float, 8>` lowers to on CPU targets). The
//! width is fixed at [`LANES`] = 8 — one AVX2 register of `f32`/`u32`,
//! two NEON registers — matching the `float8`/`uint8` shapes the
//! Altis-SYCL FPGA ports unroll to.
//!
//! # Bit-exactness policy
//!
//! Converted kernels must stay bit-identical to their scalar form, so
//! lane ops are **plain elementwise ops in the original per-element
//! order** — no FMA contraction (each `*` and `+` stays a separate
//! rounding, exactly as the scalar loop rounds), no horizontal
//! reassociation of `f32` sums. Horizontal folds exist only where the
//! op is order-insensitive up to documented IEEE caveats (`f32` min).
//! Order-sensitive `f32` sum reductions are *refused* vectorization and
//! keep their deterministic chunk-order tree (see DESIGN.md §10).
//!
//! # One kernel, two arms
//!
//! A converted launch has one kernel: a coarse work-item (a lattice row,
//! a block of records) whose body is a lane sweep guarded by [`enabled`]
//! plus a scalar arm for the remainder (enforced by the `lanes-remainder`
//! lint). `HETERO_RT_LANES=0` disables all lane sweeps at once — the
//! scalar arms then run the full range of the same launches, which is
//! also how the roofline benchmark measures the scalar baseline
//! in-process via [`force`].
//!
//! Lane accessors on [`crate::GlobalView`] amortize the bounds check to
//! one per [`LANES`] elements but still record **per-element** sanitizer
//! accesses while a sanitized launch is armed, so race reports are
//! identical whether a kernel ran its lane path or its scalar path.

// Lane bodies are written as indexed `for k in 0..LANES` loops on
// purpose: the index form states "lane k of the output is exactly this
// expression of lane k of the inputs", which is the bit-exactness
// contract, and it is the shape LLVM's loop vectorizer recognizes.
// Iterator/assign-op rewrites obscure that without changing codegen.
#![allow(clippy::needless_range_loop, clippy::assign_op_pattern)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Fixed lane width of every vector struct in this module.
pub const LANES: usize = 8;

/// Tri-state: 0 = unresolved, 1 = enabled, 2 = disabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether lane paths are enabled. Resolved once from `HETERO_RT_LANES`
/// (default: enabled; `0`, `off` or `false` disable), overridable at
/// runtime with [`force`].
#[inline]
pub fn enabled() -> bool {
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

/// Force lane paths on or off, overriding the environment. Used by the
/// roofline benchmark to measure scalar and lane variants of the same
/// kernel in one process, and by tests pinning lane/scalar equality.
pub fn force(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

macro_rules! lane_struct {
    ($(#[$doc:meta])* $name:ident, $elem:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[repr(transparent)]
        pub struct $name(pub [$elem; LANES]);

        impl $name {
            /// Broadcast `v` into every lane.
            #[inline]
            pub fn splat(v: $elem) -> Self {
                $name([v; LANES])
            }

            /// The underlying lane array.
            #[inline]
            pub fn to_array(self) -> [$elem; LANES] {
                self.0
            }
        }

        impl From<[$elem; LANES]> for $name {
            #[inline]
            fn from(a: [$elem; LANES]) -> Self {
                $name(a)
            }
        }
    };
}

macro_rules! lane_binop {
    ($name:ident, $trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for $name {
            type Output = $name;
            #[inline]
            fn $method(self, rhs: $name) -> $name {
                let mut out = self.0;
                for k in 0..LANES {
                    out[k] = out[k] $op rhs.0[k];
                }
                $name(out)
            }
        }
    };
}

lane_struct!(
    /// Eight `f32` lanes. Arithmetic is elementwise with per-lane
    /// rounding identical to the scalar op sequence (no FMA).
    F32x8,
    f32
);
lane_binop!(F32x8, Add, add, +);
lane_binop!(F32x8, Sub, sub, -);
lane_binop!(F32x8, Mul, mul, *);
lane_binop!(F32x8, Div, div, /);

impl F32x8 {
    /// Elementwise `f32::min` (NaN-ignoring, like the scalar fold).
    #[inline]
    pub fn min(self, rhs: F32x8) -> F32x8 {
        let mut out = self.0;
        for k in 0..LANES {
            out[k] = out[k].min(rhs.0[k]);
        }
        F32x8(out)
    }

    /// Elementwise clamp, same semantics as `f32::clamp` per lane.
    #[inline]
    pub fn clamp(self, lo: f32, hi: f32) -> F32x8 {
        let mut out = self.0;
        for k in 0..LANES {
            out[k] = out[k].clamp(lo, hi);
        }
        F32x8(out)
    }
}

lane_struct!(
    /// Eight `u32` lanes: the load / store shape of `Where`'s flag
    /// kernel, whose comparisons are written per lane.
    U32x8,
    u32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_ops_match_scalar_sequence_bitwise() {
        let a: [f32; LANES] = std::array::from_fn(|k| (k as f32 + 1.0) * 0.3);
        let b: [f32; LANES] = std::array::from_fn(|k| (k as f32 - 3.5) * 1.7);
        let v = (F32x8(a) - F32x8(b)) * F32x8::splat(0.7) + F32x8(b);
        for k in 0..LANES {
            let s = (a[k] - b[k]) * 0.7 + b[k];
            assert_eq!(v.0[k].to_bits(), s.to_bits(), "lane {k}");
        }
    }

    #[test]
    fn force_overrides_environment() {
        force(false);
        assert!(!enabled());
        force(true);
        assert!(enabled());
    }
}
