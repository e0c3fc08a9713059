//! Fluent construction of kernel descriptors.
//!
//! The Altis applications build one descriptor per kernel variant; the
//! builders keep those construction sites short and readable.

use crate::ir::{
    AccessPattern, Kernel, KernelStyle, LocalArrayDecl, Loop, LoopAttrs, OpMix, Scalar,
};

/// Builder for [`Loop`]s.
#[derive(Debug, Clone)]
pub struct LoopBuilder {
    l: Loop,
}

impl LoopBuilder {
    /// Start a loop named `name` running `trip_count` iterations.
    pub fn new(name: &str, trip_count: u64) -> Self {
        LoopBuilder {
            l: Loop {
                name: name.to_string(),
                trip_count,
                attrs: LoopAttrs::none(),
                body: OpMix::default(),
                children: Vec::new(),
                data_dependent_exit: false,
                loop_carried_dep: false,
                barriers: 0,
            },
        }
    }

    /// Set the per-iteration body op mix.
    pub fn body(mut self, body: OpMix) -> Self {
        self.l.body = body;
        self
    }

    /// Request an initiation interval (`[[intel::initiation_interval]]`).
    pub fn ii(mut self, ii: u32) -> Self {
        self.l.attrs.initiation_interval = Some(ii);
        self
    }

    /// Request speculated iterations (`[[intel::speculated_iterations]]`).
    pub fn speculated(mut self, s: u32) -> Self {
        self.l.attrs.speculated_iterations = Some(s);
        self
    }

    /// Unroll by `n` (`#pragma unroll n`).
    pub fn unroll(mut self, n: u32) -> Self {
        self.l.attrs.unroll = n.max(1);
        self
    }

    /// Mark the exit condition as data-dependent (escape-style loops).
    pub fn data_dependent_exit(mut self) -> Self {
        self.l.data_dependent_exit = true;
        self
    }

    /// Mark a loop-carried dependence (unrestructured reductions).
    pub fn loop_carried_dep(mut self) -> Self {
        self.l.loop_carried_dep = true;
        self
    }

    /// Set the number of work-group barriers the body executes per
    /// iteration (ND-Range kernels).
    pub fn barriers(mut self, n: u64) -> Self {
        self.l.barriers = n;
        self
    }

    /// Nest a child loop, entered once per iteration.
    pub fn child(mut self, child: Loop) -> Self {
        self.l.children.push(child);
        self
    }

    /// Finish the loop.
    pub fn build(self) -> Loop {
        self.l
    }
}

/// Builder for [`Kernel`]s.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    k: Kernel,
}

impl KernelBuilder {
    /// Start an ND-Range kernel descriptor.
    pub fn nd_range(name: &str, work_group_size: usize) -> Self {
        KernelBuilder {
            k: Kernel {
                name: name.to_string(),
                style: KernelStyle::NdRange { work_group_size, simd: 1 },
                loops: Vec::new(),
                straight_line: OpMix::default(),
                local_arrays: Vec::new(),
                barriers: 0,
                args_restrict: false,
                dominant_type: Scalar::F32,
            },
        }
    }

    /// Start a Single-Task kernel descriptor.
    pub fn single_task(name: &str) -> Self {
        KernelBuilder {
            k: Kernel {
                name: name.to_string(),
                style: KernelStyle::SingleTask,
                loops: Vec::new(),
                straight_line: OpMix::default(),
                local_arrays: Vec::new(),
                barriers: 0,
                args_restrict: false,
                dominant_type: Scalar::F32,
            },
        }
    }

    /// Set the SIMD vectorisation factor (`num_simd_work_items`);
    /// meaningful for ND-Range kernels only.
    pub fn simd(mut self, simd: u32) -> Self {
        if let KernelStyle::NdRange { work_group_size, .. } = self.k.style {
            self.k.style = KernelStyle::NdRange { work_group_size, simd: simd.max(1) };
        }
        self
    }

    /// Add a top-level loop.
    pub fn loop_(mut self, l: Loop) -> Self {
        self.k.loops.push(l);
        self
    }

    /// Set straight-line (out-of-loop) work.
    pub fn straight_line(mut self, m: OpMix) -> Self {
        self.k.straight_line = m;
        self
    }

    /// Declare a statically-sized local array.
    pub fn local_array(
        mut self,
        name: &str,
        elem: Scalar,
        len: usize,
        pattern: AccessPattern,
    ) -> Self {
        self.k.local_arrays.push(LocalArrayDecl {
            name: name.to_string(),
            elem,
            len: Some(len),
            pattern,
            passed_as_accessor_object: false,
        });
        self
    }

    /// Declare a dynamically-sized local array (a DPCT accessor, before
    /// the paper's static-sizing refactor).
    pub fn dynamic_local_array(mut self, name: &str, elem: Scalar, pattern: AccessPattern) -> Self {
        self.k.local_arrays.push(LocalArrayDecl {
            name: name.to_string(),
            elem,
            len: None,
            pattern,
            passed_as_accessor_object: true,
        });
        self
    }

    /// Set the per-work-item barrier count.
    pub fn barriers(mut self, n: u64) -> Self {
        self.k.barriers = n;
        self
    }

    /// Mark kernel arguments as non-aliasing.
    pub fn restrict(mut self) -> Self {
        self.k.args_restrict = true;
        self
    }

    /// Set the dominant datapath scalar type.
    pub fn dominant(mut self, s: Scalar) -> Self {
        self.k.dominant_type = s;
        self
    }

    /// Finish the kernel.
    pub fn build(self) -> Kernel {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_nested_loops() {
        let inner = LoopBuilder::new("inner", 8192)
            .body(OpMix { f32_ops: 3, ..OpMix::default() })
            .speculated(0)
            .data_dependent_exit()
            .build();
        let outer = LoopBuilder::new("outer", 8192).child(inner.clone()).build();
        let k = KernelBuilder::single_task("mandelbrot")
            .loop_(outer)
            .restrict()
            .build();
        assert_eq!(k.loops[0].children[0], inner);
        assert!(k.args_restrict);
        assert_eq!(k.style, KernelStyle::SingleTask);
    }

    #[test]
    fn simd_only_applies_to_nd_range() {
        let k = KernelBuilder::nd_range("k", 64).simd(4).build();
        assert_eq!(k.style, KernelStyle::NdRange { work_group_size: 64, simd: 4 });
        let st = KernelBuilder::single_task("s").simd(4).build();
        assert_eq!(st.style, KernelStyle::SingleTask);
    }

    #[test]
    fn dynamic_local_array_is_accessor_object() {
        let k = KernelBuilder::nd_range("k", 32)
            .dynamic_local_array("sh", Scalar::F64, AccessPattern::Banked)
            .build();
        assert!(k.local_arrays[0].len.is_none());
        assert!(k.local_arrays[0].passed_as_accessor_object);
        let k2 = KernelBuilder::nd_range("k", 32)
            .local_array("sh", Scalar::F64, 1, AccessPattern::Banked)
            .build();
        assert!(k2.local_arrays[0].len.is_some());
        assert_eq!(k2.synthesized_local_bytes(), 8);
    }

    #[test]
    fn unroll_clamps_to_one() {
        let l = LoopBuilder::new("l", 10).unroll(0).build();
        assert_eq!(l.attrs.unroll, 1);
    }
}
