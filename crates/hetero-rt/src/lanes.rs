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
//! reassociation of `f32` sums. Horizontal folds exist only for types
//! whose op is fully associative and commutative (`u32` wrapping adds)
//! or order-insensitive up to documented IEEE caveats (`f32` min/max).
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

    /// Elementwise `f32::max`.
    #[inline]
    pub fn max(self, rhs: F32x8) -> F32x8 {
        let mut out = self.0;
        for k in 0..LANES {
            out[k] = out[k].max(rhs.0[k]);
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

    /// Elementwise `self < rhs` as `u32` 0/1 lanes — the compaction
    /// flag shape (`u32::from(a < b)` per lane).
    #[inline]
    pub fn lt_flags(self, rhs: F32x8) -> U32x8 {
        let mut out = [0u32; LANES];
        for k in 0..LANES {
            out[k] = u32::from(self.0[k] < rhs.0[k]);
        }
        U32x8(out)
    }
}

lane_struct!(
    /// Eight `u32` lanes; arithmetic is wrapping (fully associative and
    /// commutative, so horizontal folds are bit-exact in any order).
    U32x8,
    u32
);

impl U32x8 {
    /// Elementwise wrapping add.
    #[inline]
    pub fn wrapping_add(self, rhs: U32x8) -> U32x8 {
        let mut out = self.0;
        for k in 0..LANES {
            out[k] = out[k].wrapping_add(rhs.0[k]);
        }
        U32x8(out)
    }

    /// Horizontal wrapping sum. Wrapping addition is associative and
    /// commutative, so this equals the sequential fold bit-for-bit.
    #[inline]
    pub fn hsum_wrapping(self) -> u32 {
        self.0.iter().fold(0u32, |a, &b| a.wrapping_add(b))
    }

    /// Elementwise `% m` (lane bucket indices for histograms). Takes a
    /// scalar modulus, so it is deliberately not `std::ops::Rem`.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, m: u32) -> U32x8 {
        let mut out = self.0;
        for k in 0..LANES {
            out[k] %= m;
        }
        U32x8(out)
    }

    /// In-lane exclusive wrapping prefix plus the lane-group total:
    /// `out[k] = self[0] + … + self[k-1]`. Wrapping adds make this
    /// bit-equal to the scalar running prefix.
    #[inline]
    pub fn prefix_exclusive_wrapping(self) -> (U32x8, u32) {
        let mut out = [0u32; LANES];
        let mut acc = 0u32;
        for k in 0..LANES {
            out[k] = acc;
            acc = acc.wrapping_add(self.0[k]);
        }
        (U32x8(out), acc)
    }
}

lane_struct!(
    /// Eight `i32` lanes; wrapping arithmetic like [`U32x8`].
    I32x8,
    i32
);

impl I32x8 {
    /// Elementwise wrapping add.
    #[inline]
    pub fn wrapping_add(self, rhs: I32x8) -> I32x8 {
        let mut out = self.0;
        for k in 0..LANES {
            out[k] = out[k].wrapping_add(rhs.0[k]);
        }
        I32x8(out)
    }
}

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
    fn u32_horizontal_sum_is_order_free() {
        let a: [u32; LANES] = std::array::from_fn(|k| u32::MAX - k as u32 * 1_000_000);
        let seq = a.iter().fold(0u32, |x, &y| x.wrapping_add(y));
        assert_eq!(U32x8(a).hsum_wrapping(), seq);
    }

    #[test]
    fn exclusive_prefix_matches_running_scalar() {
        let a: [u32; LANES] = std::array::from_fn(|k| (k as u32 + 1).wrapping_mul(0x9E37_79B9));
        let (pre, total) = U32x8(a).prefix_exclusive_wrapping();
        let mut acc = 0u32;
        for k in 0..LANES {
            assert_eq!(pre.0[k], acc);
            acc = acc.wrapping_add(a[k]);
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn lt_flags_match_scalar_compare() {
        let a = F32x8([1.0, 2.0, 3.0, f32::NAN, -1.0, 0.0, 5.5, -0.0]);
        let b = F32x8::splat(2.5);
        let f = a.lt_flags(b);
        for k in 0..LANES {
            assert_eq!(f.0[k], u32::from(a.0[k] < b.0[k]), "lane {k}");
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
