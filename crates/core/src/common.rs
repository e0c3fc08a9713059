//! Shared types for all applications.

use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::{Mutex, PoisonError};

/// Which implementation stage of an application to run, mirroring the
/// paper's migration pipeline on the GPU side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppVersion {
    /// Golden reference (verification only; plays the role of the
    /// original CUDA output).
    Reference,
    /// As-migrated SYCL (DPCT output after functional fixes).
    SyclBaseline,
    /// GPU-optimised SYCL (Section 3.3).
    SyclOptimized,
}

/// How an iterative application drives its timestep loop.
///
/// The five launch-heavy apps (FDTD2D, SRAD, CFD, KMeans,
/// ParticleFilter) expose a `run_with` entry point taking this mode.
/// Each records its step once; the mode only chooses the executor of
/// that recording ([`Step`]), so results agree per the golden-checksum
/// registry and the suite's graph matrix pins that equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Submit every recorded kernel through the queue each iteration
    /// ([`hetero_rt::Graph::submit_each`]), paying validation, chunk
    /// planning and dispatch per launch — the as-migrated shape of the
    /// DPCT output.
    #[default]
    PerLaunch,
    /// Replay the recording every iteration with a single worker-pool
    /// wake-up ([`hetero_rt::Graph::replay`]).
    Graph,
    /// A second name for [`ExecMode::Graph`]: the graph optimizer it
    /// once selected is gone, and the name stays only because the pinned
    /// `e2e` benchmark spells it.
    GraphOptimized,
}

/// One app step, recorded once and executed the way an [`ExecMode`]
/// says. Drop it before [`egress`]: the recording holds views of the
/// run's buffers.
pub(crate) enum Step {
    PerLaunch(hetero_rt::Graph),
    Replay(hetero_rt::Graph),
}

impl Step {
    /// Pick `mode`'s executor for a recording. A recording error unwinds
    /// with the typed [`hetero_rt::Error`] as payload, as a failed launch
    /// does.
    pub(crate) fn compile(graph: hetero_rt::Result<hetero_rt::Graph>, mode: ExecMode) -> Step {
        let g = graph.unwrap_or_else(|e| std::panic::panic_any(e));
        match mode {
            ExecMode::PerLaunch => Step::PerLaunch(g),
            ExecMode::Graph | ExecMode::GraphOptimized => Step::Replay(g),
        }
    }

    /// Execute the step once on `q`.
    pub(crate) fn run(&self, q: &hetero_rt::Queue) {
        match self {
            Step::PerLaunch(g) => g.submit_each(q),
            Step::Replay(g) => g.replay(q),
        }
        .unwrap_or_else(|e| std::panic::panic_any(e))
    }
}

/// Terminal egress of a run-scoped buffer: move its contents out as the
/// run's result. [`hetero_rt::Buffer::into_vec`] only takes the move as
/// sole owner, so the assertion makes the debug-profile app tests fail
/// when a later change leaves a view, kernel closure or graph alive past
/// this point and silently reintroduces the whole-array copy.
pub(crate) fn egress<T: Copy + Default + Send + 'static>(buf: hetero_rt::Buffer<T>) -> Vec<T> {
    debug_assert!(
        buf.is_sole_owner(),
        "egress would copy: a view, kernel closure or graph is still alive"
    );
    buf.into_vec()
}

/// `rows` rows of `width` values, filled in contiguous row ranges across
/// the pool (`hetero_rt::pool::run`, one index per range):
/// `fill(first, part)` writes rows `first..` into `part`. A generator
/// whose values are a fixed number of draws each jumps to its first row
/// by `SeededRng::advance`, so the split changes no bit. Eight ranges a
/// thread: with one, a worker that wakes late finds the submitter
/// already running its range and the fill runs serially. A panic in
/// `fill` is re-raised here once every range is done or retired.
pub(crate) fn fill_rows<T: Clone + Default + Send>(
    rows: usize,
    width: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
) -> Vec<T> {
    let mut out = vec![T::default(); rows * width];
    if out.is_empty() {
        return out;
    }
    let threads = hetero_rt::pool::auto_threads().min(rows);
    let per = rows.div_ceil(8 * threads);
    // Each range is claimed once, so its lock is never contended.
    let parts: Vec<Mutex<&mut [T]>> = out.chunks_mut(per * width).map(Mutex::new).collect();
    let (_, payload) = hetero_rt::pool::run(parts.len(), &|t| {
        fill(t * per, &mut parts[t].lock().unwrap_or_else(PoisonError::into_inner));
    });
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
    out
}

/// Which FPGA design of an application to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpgaVariant {
    /// Functionally-correct but unoptimised design (Section 4 output).
    Baseline,
    /// Optimised design (Section 5 techniques applied).
    Optimized,
}

/// Floating-point abstraction so CFD ships genuine FP32 and FP64
/// variants from one implementation (the paper benchmarks both).
pub trait Real:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Default
    + Send
    + Sync
    + std::fmt::Debug
    + 'static
{
    /// Convert from f64 (for constants and data generation).
    fn from_f64(v: f64) -> Self;
    /// Convert to f64 (for verification and norms).
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Type label for kernel naming and IR costing.
    const IS_F64: bool;
}

impl Real for f32 {
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    fn abs(self) -> Self {
        f32::abs(self)
    }
    const IS_F64: bool = false;
}

impl Real for f64 {
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    fn abs(self) -> Self {
        f64::abs(self)
    }
    const IS_F64: bool = true;
}

/// Relative L2 error between two vectors (verification helper).
pub(crate) fn rel_l2_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch in rel_l2_error");
    let mut num = 0.0;
    let mut den = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        num += (x - y) * (x - y);
        den += x * x;
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// Convenience: relative L2 error over any `Real` slices.
pub fn rel_l2_error_t<T: Real>(a: &[T], b: &[T]) -> f64 {
    let af: Vec<f64> = a.iter().map(|x| x.to_f64()).collect();
    let bf: Vec<f64> = b.iter().map(|x| x.to_f64()).collect();
    rel_l2_error(&af, &bf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_roundtrip() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::from_f64(2.25), 2.25);
        // Compile-time check that the type tags are set correctly.
        const _: () = assert!(!<f32 as Real>::IS_F64 && <f64 as Real>::IS_F64);
        assert_eq!(Real::sqrt(4.0f32), 2.0);
        assert_eq!(Real::abs(-3.0f64), 3.0);
    }

    #[test]
    fn l2_error_zero_for_identical() {
        let v = vec![1.0, -2.0, 3.0];
        assert_eq!(rel_l2_error(&v, &v), 0.0);
    }

    #[test]
    fn l2_error_detects_difference() {
        let a = vec![1.0, 0.0];
        let b = vec![1.0, 0.1];
        assert!(rel_l2_error(&a, &b) > 0.05);
    }

    #[test]
    fn l2_error_handles_zero_baseline() {
        let a = vec![0.0, 0.0];
        let b = vec![0.0, 0.5];
        assert!(rel_l2_error(&a, &b) > 0.0);
    }
}
