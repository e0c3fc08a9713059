//! The loop-nest kernel IR.
//!
//! A [`Kernel`] is a named loop nest plus declarations of the memory it
//! touches. The IR deliberately abstracts *work structure*, not program
//! semantics: it is detailed enough for an FPGA pipeline scheduler
//! (initiation intervals, speculated iterations, unrolling, local-memory
//! port pressure) and for roofline models (FLOP and byte counts), but it
//! does not encode data values — the executable kernels in `altis-core`
//! do that.

/// Element scalar types, used for resource costing (an FP64 FMA costs
/// roughly four Stratix 10 DSPs, an FP32 FMA one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// 32-bit integer (signed or not — same hardware cost).
    I32,
    /// 8-bit integer.
    I8,
}

impl Scalar {
    /// Size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Scalar::F32 | Scalar::I32 => 4,
            Scalar::F64 => 8,
            Scalar::I8 => 1,
        }
    }
}

/// Per-iteration operation mix of one loop body.
///
/// Counts are *per iteration of the owning loop before unrolling*; the
/// analyses scale by trip counts and unroll factors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpMix {
    /// FP32 add/sub/mul/FMA ops (an FMA counts as 2 FLOPs but 1 op slot).
    pub f32_ops: u64,
    /// FP64 ops.
    pub f64_ops: u64,
    /// FP division / sqrt / rsqrt (long-latency, pipelined units).
    pub fdiv_ops: u64,
    /// Transcendentals (exp, log, sin, cos, pow).
    pub transcendental_ops: u64,
    /// Integer ALU ops.
    pub int_ops: u64,
    /// Compare/select/branch-shaped ops (control divergence proxy).
    pub cmp_sel_ops: u64,
    /// Bytes read from global memory.
    pub global_read_bytes: u64,
    /// Bytes written to global memory.
    pub global_write_bytes: u64,
    /// Local (shared) memory reads, in accesses (element-sized).
    pub local_reads: u64,
    /// Local (shared) memory writes, in accesses.
    pub local_writes: u64,
    /// Pipe reads (FPGA dataflow designs).
    pub pipe_reads: u64,
    /// Pipe writes.
    pub pipe_writes: u64,
}

impl OpMix {
    /// Total floating-point operations (FMA counted as 2).
    pub fn flops(&self) -> u64 {
        self.f32_ops + self.f64_ops + 4 * self.fdiv_ops + 8 * self.transcendental_ops
    }

    /// Total global-memory traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Total local-memory accesses.
    pub fn local_accesses(&self) -> u64 {
        self.local_reads + self.local_writes
    }

    /// Element-wise sum of two mixes.
    pub fn merged(&self, o: &OpMix) -> OpMix {
        OpMix {
            f32_ops: self.f32_ops + o.f32_ops,
            f64_ops: self.f64_ops + o.f64_ops,
            fdiv_ops: self.fdiv_ops + o.fdiv_ops,
            transcendental_ops: self.transcendental_ops + o.transcendental_ops,
            int_ops: self.int_ops + o.int_ops,
            cmp_sel_ops: self.cmp_sel_ops + o.cmp_sel_ops,
            global_read_bytes: self.global_read_bytes + o.global_read_bytes,
            global_write_bytes: self.global_write_bytes + o.global_write_bytes,
            local_reads: self.local_reads + o.local_reads,
            local_writes: self.local_writes + o.local_writes,
            pipe_reads: self.pipe_reads + o.pipe_reads,
            pipe_writes: self.pipe_writes + o.pipe_writes,
        }
    }

    /// Mix scaled by a constant factor (e.g. unrolling).
    pub fn scaled(&self, k: u64) -> OpMix {
        OpMix {
            f32_ops: self.f32_ops * k,
            f64_ops: self.f64_ops * k,
            fdiv_ops: self.fdiv_ops * k,
            transcendental_ops: self.transcendental_ops * k,
            int_ops: self.int_ops * k,
            cmp_sel_ops: self.cmp_sel_ops * k,
            global_read_bytes: self.global_read_bytes * k,
            global_write_bytes: self.global_write_bytes * k,
            local_reads: self.local_reads * k,
            local_writes: self.local_writes * k,
            pipe_reads: self.pipe_reads * k,
            pipe_writes: self.pipe_writes * k,
        }
    }
}

/// How a local array is indexed — determines whether the FPGA memory
/// system can be banked/replicated stall-free or needs arbiters (the
/// paper's Section 5.2 "Case 1/2/3" taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Consecutive or compile-time-known stride: banks cleanly (Case 1).
    Banked,
    /// Many independent arrays / heavy port demand but regular (Case 2).
    Regular,
    /// Data-dependent or wavefront-diagonal indexing: arbiters required
    /// (Case 3, the NW situation).
    Irregular,
}

/// A local (shared) memory array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalArrayDecl {
    /// Diagnostic name.
    pub name: String,
    /// Element type.
    pub elem: Scalar,
    /// Number of elements, if statically known. `None` models DPCT's
    /// dynamically-sized accessors, for which the FPGA compiler must
    /// assume a worst-case 16 kB footprint (paper Section 4).
    pub len: Option<usize>,
    /// Access-pattern class.
    pub pattern: AccessPattern,
    /// Whether the kernel receives the array as an accessor *object*
    /// rather than a pointer — synthesising accessor member functions
    /// and wasting resources (paper Section 4, SRAD case).
    pub passed_as_accessor_object: bool,
}

impl LocalArrayDecl {
    /// Footprint in bytes the FPGA compiler must provision: the static
    /// size when known, otherwise the 16 kB worst case DPCT accessors
    /// force.
    pub fn synthesized_bytes(&self) -> usize {
        const DYNAMIC_ACCESSOR_ASSUMED_BYTES: usize = 16 * 1024;
        match self.len {
            Some(n) => n * self.elem.bytes(),
            None => DYNAMIC_ACCESSOR_ASSUMED_BYTES,
        }
    }
}

/// Per-loop scheduling attributes; `None` means "compiler default", which
/// the FPGA scheduler resolves conservatively (the paper's point about
/// default speculated iterations in Mandelbrot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopAttrs {
    /// `[[intel::initiation_interval(R)]]` — requested II.
    pub initiation_interval: Option<u32>,
    /// `[[intel::speculated_iterations(S)]]`.
    pub speculated_iterations: Option<u32>,
    /// `#pragma unroll N` (1 = no unrolling).
    pub unroll: u32,
}

impl LoopAttrs {
    /// Attributes with no requests and no unrolling.
    pub fn none() -> Self {
        LoopAttrs { initiation_interval: None, speculated_iterations: None, unroll: 1 }
    }
}

/// A counted loop with a body op-mix and child loops.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Diagnostic name.
    pub name: String,
    /// Iterations executed per entry of this loop.
    pub trip_count: u64,
    /// Scheduling attributes.
    pub attrs: LoopAttrs,
    /// Work done by the body itself, per iteration (excluding children).
    pub body: OpMix,
    /// Nested loops, entered once per iteration of this loop.
    pub children: Vec<Loop>,
    /// Whether the loop's exit condition is data-dependent (e.g. the
    /// Mandelbrot escape test), putting it on the critical path and
    /// motivating speculated iterations.
    pub data_dependent_exit: bool,
    /// True when an iteration reads a value the previous iteration wrote
    /// (loop-carried dependence) — forces II > 1 unless the reduction is
    /// restructured.
    pub loop_carried_dep: bool,
    /// Work-group barriers executed by the body, per iteration (ND-Range
    /// kernels). A barrier inside a loop whose iteration count diverges
    /// across work-items is undefined behaviour in SYCL; the static
    /// verifier rejects that combination.
    pub barriers: u64,
}

/// ND-Range or Single-Task execution style (the central dichotomy of the
/// paper's FPGA work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelStyle {
    /// SIMT-style kernel: many work-items in work-groups.
    NdRange {
        /// Work-group size (product over dimensions).
        work_group_size: usize,
        /// `[[intel::num_simd_work_items]]` vectorisation factor.
        simd: u32,
    },
    /// Single logical thread; loops are pipelined.
    SingleTask,
}

/// A kernel descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (matches the executable kernel's launch name).
    pub name: String,
    /// Execution style.
    pub style: KernelStyle,
    /// Top-level loops. For ND-Range kernels, these describe *one
    /// work-item's* execution; total work scales by the global size.
    /// For Single-Task kernels they describe the whole kernel.
    pub loops: Vec<Loop>,
    /// Work executed outside any loop (once per work-item / per kernel).
    pub straight_line: OpMix,
    /// Local arrays used.
    pub local_arrays: Vec<LocalArrayDecl>,
    /// Barriers per work-item execution (ND-Range only).
    pub barriers: u64,
    /// Whether pointer arguments are marked non-aliasing
    /// (`[[intel::kernel_args_restrict]]`) — a general optimisation the
    /// paper applies to all FPGA kernels.
    pub args_restrict: bool,
    /// Scalar type dominating the datapath (for DSP costing).
    pub dominant_type: Scalar,
}

impl Kernel {
    /// Total bytes of local memory the FPGA compiler will synthesise.
    pub fn synthesized_local_bytes(&self) -> usize {
        self.local_arrays.iter().map(|a| a.synthesized_bytes()).sum()
    }

    /// Worst access pattern across local arrays (drives arbiter
    /// insertion). Dynamically-sized accessors and accessor objects
    /// passed by value are treated as irregular: the developer cannot
    /// control their banking/replication (paper Section 4), so the
    /// memory system they get is arbiter-laden.
    pub fn worst_local_pattern(&self) -> Option<AccessPattern> {
        let mut worst = None;
        for a in &self.local_arrays {
            let effective = if a.len.is_none() || a.passed_as_accessor_object {
                AccessPattern::Irregular
            } else {
                a.pattern
            };
            worst = Some(match (worst, effective) {
                (None, p) => p,
                (Some(AccessPattern::Irregular), _) | (_, AccessPattern::Irregular) => {
                    AccessPattern::Irregular
                }
                (Some(AccessPattern::Regular), _) | (_, AccessPattern::Regular) => {
                    AccessPattern::Regular
                }
                _ => AccessPattern::Banked,
            });
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(f32_ops: u64, grb: u64) -> OpMix {
        OpMix { f32_ops, global_read_bytes: grb, ..OpMix::default() }
    }

    #[test]
    fn opmix_flops_weights_divisions_and_transcendentals() {
        let m = OpMix {
            f32_ops: 10,
            fdiv_ops: 2,
            transcendental_ops: 1,
            ..OpMix::default()
        };
        assert_eq!(m.flops(), 10 + 8 + 8);
    }

    #[test]
    fn opmix_merge_and_scale() {
        let a = mix(3, 8).merged(&mix(4, 16));
        assert_eq!(a.f32_ops, 7);
        assert_eq!(a.global_bytes(), 24);
        let b = a.scaled(2);
        assert_eq!(b.f32_ops, 14);
        assert_eq!(b.global_read_bytes, 48);
    }

    #[test]
    fn dynamic_accessor_assumes_16kib() {
        let d = LocalArrayDecl {
            name: "s".into(),
            elem: Scalar::F64,
            len: None,
            pattern: AccessPattern::Banked,
            passed_as_accessor_object: false,
        };
        // PF Float's double scalar: 8 B of data, 16 kB synthesised.
        assert_eq!(d.synthesized_bytes(), 16 * 1024);
        let s = LocalArrayDecl { len: Some(1), ..d };
        assert_eq!(s.synthesized_bytes(), 8);
    }

    #[test]
    fn worst_pattern_prefers_irregular() {
        let mk = |pattern| LocalArrayDecl {
            name: "a".into(),
            elem: Scalar::F32,
            len: Some(16),
            pattern,
            passed_as_accessor_object: false,
        };
        let k = Kernel {
            name: "k".into(),
            style: KernelStyle::SingleTask,
            loops: vec![],
            straight_line: OpMix::default(),
            local_arrays: vec![mk(AccessPattern::Banked), mk(AccessPattern::Irregular)],
            barriers: 0,
            args_restrict: true,
            dominant_type: Scalar::F32,
        };
        assert_eq!(k.worst_local_pattern(), Some(AccessPattern::Irregular));
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(Scalar::F32.bytes(), 4);
        assert_eq!(Scalar::F64.bytes(), 8);
        assert_eq!(Scalar::I8.bytes(), 1);
    }
}
