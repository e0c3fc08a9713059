//! Suite registry: the thirteen benchmark configurations of Figure 2
//! (twelve applications, CFD in FP32 and FP64), with uniform entry
//! points for the harness — plus the hardened verdict [`matrix`], which
//! runs configurations on armed queues and classifies how each run
//! ended.

use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use altis_data::InputSize;
use device_model::WorkProfile;
use fpga_sim::{Design, FpgaPart};
use hetero_ir::dpct::CudaModule;
use hetero_rt::fold::{mix, Fold};
use hetero_rt::prelude::*;

use crate::common::{AppVersion, ExecMode};
use crate::memo;
pub use crate::memo::{validation_stats, ValidationStats};
use crate::particlefilter::PfVariant;

/// One suite entry.
pub struct AppEntry {
    /// Display name, matching the paper's figure labels.
    pub name: &'static str,
    /// Analytic work profile at a size.
    pub work_profile: fn(InputSize) -> WorkProfile,
    /// DPCT source model.
    pub cuda_module: fn() -> CudaModule,
    /// FPGA design; `None` when the paper provides no such variant
    /// (DWT2D has no optimized FPGA design).
    pub fpga_design: fn(InputSize, bool, &FpgaPart) -> Option<Design>,
    /// Run the app on the runtime and compare against its golden
    /// reference; returns true when the results agree.
    pub verify: fn(&Queue, InputSize, AppVersion) -> bool,
    /// Deterministic digest of the *reference* output at a size
    /// (host-side, never touches the runtime). Committed in
    /// `tests/golden_checksums.tsv` and checked by the `matrix` harness
    /// binary, so a silently drifting reference implementation or data
    /// generator fails loudly.
    pub golden_digest: fn(InputSize) -> u64,
    /// Run the app and validate its output end-to-end: cheap structural
    /// invariants first (cluster indices in range, boundary rows shaped
    /// by the gap penalty, finite values), then the golden comparison.
    /// [`run_sdc`] quarantines any [`Validation::Invalid`] result.
    pub validate: fn(&Queue, InputSize, AppVersion) -> Validation,
}

/// End-to-end verdict of one app run's output (see [`AppEntry::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validation {
    /// Output satisfies its invariants and matches the reference.
    Valid,
    /// Output violates an invariant or diverges from the reference; the
    /// string names the first failed check.
    Invalid(String),
}

fn validation_from(matches_reference: bool) -> Validation {
    if matches_reference {
        Validation::Valid
    } else {
        Validation::Invalid("output diverged from the golden reference".to_string())
    }
}

// --- digests and fingerprints ----------------------------------------------
//
// Registry digests are computed over *reference* outputs (deterministic,
// host-side, sequential), never over app outputs: several kernels
// accumulate f32 atomically, so their bit patterns may depend on the
// schedule even when numerically correct. Fingerprints are taken of app
// outputs and stream states and compared only within a process: the
// validated-output memo, where a schedule-dependent bit pattern only
// costs a miss, and stream trails and seals.

fn digest_words<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut h = 0xA076_1D64_78BD_642Fu64;
    let mut n = 0u64;
    for w in words {
        h = mix(h, w);
        n += 1;
    }
    mix(h, n)
}

fn digest_f32s(v: &[f32]) -> u64 {
    digest_words(v.iter().map(|x| x.to_bits() as u64))
}

fn digest_f64s(v: &[f64]) -> u64 {
    digest_words(v.iter().map(|x| x.to_bits()))
}

/// A 64-bit fingerprint: the runtime's four-lane [`Fold`], framed by
/// field. Every field's length goes in ahead of its data, so fields
/// cannot trade elements.
pub(crate) struct Fingerprint(Fold);

pub(crate) fn pack(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

impl Fingerprint {
    pub(crate) fn new(kind: u64) -> Self {
        Fingerprint(Fold::new(kind))
    }

    /// Absorb one field of `n` 8-byte words, its length first.
    pub(crate) fn words(self, n: usize, word: impl Fn(usize) -> u64) -> Self {
        Fingerprint(self.0.words(1, |_| n as u64).words(n, word))
    }

    /// Absorb one field of 4-byte values, two to a word.
    pub(crate) fn words32<T: Copy>(self, v: &[T], bits: impl Fn(T) -> u32) -> Self {
        let n = v.len();
        let s = self.words(n / 2, |i| pack(bits(v[2 * i]), bits(v[2 * i + 1])));
        // The odd value out, as a field of one word or none.
        s.words(n % 2, |_| u64::from(bits(v[n - 1])))
    }

    pub(crate) fn finish(self) -> u64 {
        self.0.finish()
    }

    /// [`Output::F32`]'s fingerprint, and SRAD's stream stage's.
    pub(crate) fn f32s(v: &[f32]) -> Self {
        Fingerprint::new(1).words32(v, f32::to_bits)
    }

    /// [`Output::Fields`]' fingerprint, and FDTD2D's stream stage's.
    pub(crate) fn fields(o: &crate::fdtd2d::Fields) -> Self {
        let f = Fingerprint::new(5).words32(&o.ez, f32::to_bits);
        f.words32(&o.hx, f32::to_bits).words32(&o.hy, f32::to_bits)
    }
}

// --- outputs, and the one validation path ------------------------------------

/// The thirteen configuration names in Figure 2's order ([`all_apps`]
/// carries the same names; a unit test holds the two together).
pub(crate) const CONFIGS: [&str; 13] = [
    "CFD FP32", "CFD FP64", "DWT2D", "FDTD2D", "KMeans", "LavaMD", "Mandelbrot", "NW",
    "PF Naive", "PF Float", "Raytracing", "SRAD", "Where",
];

/// What one run of a configuration produced, in the shape its app
/// returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// CFD FP32, DWT2D, Raytracing, SRAD.
    F32(Vec<f32>),
    /// CFD FP64.
    F64(Vec<f64>),
    /// Mandelbrot.
    U32(Vec<u32>),
    /// NW.
    I32(Vec<i32>),
    /// FDTD2D.
    Fields(crate::fdtd2d::Fields),
    /// KMeans.
    Kmeans(crate::kmeans::KmeansOutput),
    /// LavaMD.
    Forces(Vec<crate::lavamd::ForceOut>),
    /// PF Naive, PF Float.
    Pf(crate::particlefilter::PfOutput),
    /// Where.
    Records(Vec<crate::where_q::Record>),
}

impl Output {
    /// The registry digest (`tests/golden_checksums.tsv`): one
    /// [`digest_words`] fold over every field, element by element.
    pub(crate) fn digest(&self) -> u64 {
        let f = |x: &f32| u64::from(x.to_bits());
        match self {
            Output::F32(v) => digest_f32s(v),
            Output::F64(v) => digest_f64s(v),
            Output::U32(v) => digest_words(v.iter().map(|&x| u64::from(x))),
            Output::I32(v) => digest_words(v.iter().map(|&x| x as u32 as u64)),
            Output::Fields(o) => digest_words(o.ez.iter().chain(&o.hx).chain(&o.hy).map(f)),
            Output::Kmeans(o) => digest_words(
                o.centers.iter().map(f).chain(o.membership.iter().map(|&m| u64::from(m))),
            ),
            Output::Forces(v) => {
                digest_words(v.iter().flat_map(|o| [o.v, o.fx, o.fy, o.fz].map(|x| f(&x))))
            }
            Output::Pf(o) => digest_words(o.xe.iter().chain(&o.ye).map(f)),
            Output::Records(v) => {
                digest_words(v.iter().flat_map(|r| [u64::from(r.value), u64::from(r.payload)]))
            }
        }
    }

    /// [`Fingerprint`] of every bit of every field, for the
    /// validated-output memo (not the registry digest, which is several
    /// times slower).
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            Output::F32(v) => Fingerprint::f32s(v),
            Output::F64(v) => Fingerprint::new(2).words(v.len(), |i| v[i].to_bits()),
            Output::U32(v) => Fingerprint::new(3).words32(v, |x| x),
            Output::I32(v) => Fingerprint::new(4).words32(v, |x| x as u32),
            Output::Fields(o) => Fingerprint::fields(o),
            Output::Kmeans(o) => {
                Fingerprint::new(6).words32(&o.centers, f32::to_bits).words32(&o.membership, |m| m)
            }
            Output::Forces(v) => Fingerprint::new(7).words(2 * v.len(), |i| {
                let o = &v[i / 2];
                let [lo, hi] = if i % 2 == 0 { [o.v, o.fx] } else { [o.fy, o.fz] };
                pack(lo.to_bits(), hi.to_bits())
            }),
            Output::Pf(o) => {
                Fingerprint::new(8).words32(&o.xe, f32::to_bits).words32(&o.ye, f32::to_bits)
            }
            Output::Records(v) => {
                Fingerprint::new(9).words(v.len(), |i| pack(v[i].value, v[i].payload))
            }
        }
        .finish()
    }
}

/// Run `config` on `q`. `mode` is the route of the five graph-converted
/// apps ([`GRAPH_FLAVOR_APPS`]; their plain `run` is `ExecMode::Graph`)
/// and of CFD FP64, and means nothing to the other seven.
// lint:allow(unused-pub) test oracle: tests/validation_memo.rs damages each configuration's output to show the memo never changes a verdict
pub fn run_output(
    config: &str,
    q: &Queue,
    size: InputSize,
    v: AppVersion,
    mode: ExecMode,
) -> Output {
    use crate::particlefilter::run_with as pf;
    match config {
        "CFD FP32" => Output::F32(crate::cfd::run_with(q, &altis_data::cfd(size), v, mode)),
        "CFD FP64" => Output::F64(crate::cfd::run_with(q, &altis_data::cfd(size), v, mode)),
        "DWT2D" => Output::F32(crate::dwt2d::run(q, &altis_data::dwt2d(size), v)),
        "FDTD2D" => Output::Fields(crate::fdtd2d::run_with(q, &altis_data::fdtd2d(size), v, mode)),
        "KMeans" => Output::Kmeans(crate::kmeans::run_with(q, &altis_data::kmeans(size), v, mode)),
        "LavaMD" => Output::Forces(crate::lavamd::run(q, &altis_data::lavamd(size), v)),
        "Mandelbrot" => Output::U32(crate::mandelbrot::run(q, &altis_data::mandelbrot(size), v)),
        "NW" => Output::I32(crate::nw::run(q, &altis_data::nw(size), v)),
        "PF Naive" => {
            Output::Pf(pf(q, &altis_data::particlefilter(size), PfVariant::Naive, v, mode))
        }
        "PF Float" => Output::Pf(crate::particlefilter::run(
            q,
            &altis_data::particlefilter(size),
            PfVariant::Float,
            v,
        )),
        "Raytracing" => Output::F32(crate::raytracing::run(q, &altis_data::raytracing(size), v)),
        "SRAD" => Output::F32(crate::srad::run_with(q, &altis_data::srad(size), v, mode)),
        "Where" => Output::Records(crate::where_q::run(q, &altis_data::where_q(size), v)),
        _ => panic!("{config} is not one of the thirteen configurations"),
    }
}

/// Invariants an output must satisfy whatever the reference says:
/// KMeans assigns every point to one of `k` finite centres; NW's origin
/// scores 0 and its first row and column step by the gap penalty.
fn broken_invariant(config: &str, size: InputSize, out: &Output) -> Option<String> {
    match (config, out) {
        ("KMeans", Output::Kmeans(r)) => {
            let k = altis_data::kmeans(size).k;
            if let Some(&m) = r.membership.iter().find(|&&m| m as usize >= k) {
                return Some(format!("membership {m} out of range (k = {k})"));
            }
            if r.centers.iter().any(|c| !c.is_finite()) {
                return Some("non-finite cluster center".to_string());
            }
        }
        ("NW", Output::I32(r)) => {
            let p = altis_data::nw(size);
            let n = p.len + 1;
            if r.first() != Some(&0) {
                return Some("NW origin cell must score 0".to_string());
            }
            if (1..n).any(|i| [r[i], r[i * n]] != [-p.penalty * i as i32; 2]) {
                return Some("NW boundary row/column must step by the gap penalty".to_string());
            }
        }
        _ => {}
    }
    None
}

/// Each configuration's comparison against a freshly computed golden
/// reference, with its tolerance. The only copy; [`check`] is the only
/// caller.
fn matches_golden(config: &str, size: InputSize, out: &Output) -> bool {
    use crate::common::rel_l2_error_t as rel_l2;
    memo::count_reference_run();
    match (config, &golden(config, size), out) {
        ("CFD FP32" | "DWT2D", Output::F32(g), Output::F32(r)) => rel_l2(g, r) < 1e-4,
        ("CFD FP64", Output::F64(g), Output::F64(r)) => rel_l2(g, r) < 1e-10,
        ("SRAD", Output::F32(g), Output::F32(r)) => rel_l2(g, r) < 1e-3,
        ("FDTD2D", Output::Fields(g), Output::Fields(r)) => r.ez == g.ez,
        ("KMeans", Output::Kmeans(g), Output::Kmeans(r)) => {
            r.membership == g.membership && rel_l2(&g.centers, &r.centers) < 1e-4
        }
        ("LavaMD", Output::Forces(g), Output::Forces(r)) => {
            let potential = |f: &[crate::lavamd::ForceOut]| f.iter().map(|f| f.v).collect();
            let (g, r): (Vec<f32>, Vec<f32>) = (potential(g), potential(r));
            rel_l2(&g, &r) < 1e-4
        }
        ("PF Naive" | "PF Float", Output::Pf(g), Output::Pf(r)) => {
            r.xe.iter().zip(&g.xe).all(|(a, b)| (a - b).abs() < 0.05)
        }
        ("Mandelbrot" | "NW" | "Raytracing" | "Where", g, r) => r == g,
        _ => panic!("{config} does not produce this kind of output"),
    }
}

/// Validate one output of `config` at `size`: structural invariants
/// first, always; then the validated-output memo; on a miss the golden
/// comparison, whose pass is remembered.
///
/// A hit proves bit-equality (up to a 64-bit fingerprint over every
/// field) with an output the real comparison accepted in this process,
/// so it returns `Valid` without running `golden()`. Every `Invalid`
/// comes from a reference computed for this call, and a damaged memo
/// entry can only turn a hit into a miss.
pub fn check(config: &str, size: InputSize, out: &Output) -> Validation {
    if let Some(why) = broken_invariant(config, size, out) {
        return Validation::Invalid(why);
    }
    let Some(at) = CONFIGS.iter().position(|c| *c == config) else {
        panic!("{config} is not one of the thirteen configurations");
    };
    const _: () = assert!(CONFIGS.len() * 3 == memo::KEYS);
    let (key, fp) = (at * 3 + size.index() - 1, out.fingerprint());
    if memo::recognises(key, fp) {
        return Validation::Valid;
    }
    // The reference runs with the memo unlocked.
    let verdict = validation_from(matches_golden(config, size, out));
    if verdict == Validation::Valid {
        memo::remember(key, fp);
    }
    verdict
}

fn validate(config: &str, q: &Queue, size: InputSize, v: AppVersion) -> Validation {
    check(config, size, &run_output(config, q, size, v, ExecMode::Graph))
}

fn verify(config: &str, q: &Queue, size: InputSize, v: AppVersion) -> bool {
    validate(config, q, size, v) == Validation::Valid
}

/// The golden reference of `config` at `size`: host-side, sequential,
/// never touches the runtime.
fn golden(config: &str, size: InputSize) -> Output {
    use crate::particlefilter::golden as pf;
    match config {
        "CFD FP32" => Output::F32(crate::cfd::golden(&altis_data::cfd(size))),
        "CFD FP64" => Output::F64(crate::cfd::golden(&altis_data::cfd(size))),
        "DWT2D" => Output::F32(crate::dwt2d::golden(&altis_data::dwt2d(size))),
        "FDTD2D" => Output::Fields(crate::fdtd2d::golden(&altis_data::fdtd2d(size))),
        "KMeans" => Output::Kmeans(crate::kmeans::golden(&altis_data::kmeans(size))),
        "LavaMD" => Output::Forces(crate::lavamd::golden(&altis_data::lavamd(size))),
        "Mandelbrot" => Output::U32(crate::mandelbrot::golden(&altis_data::mandelbrot(size))),
        "NW" => Output::I32(crate::nw::golden(&altis_data::nw(size))),
        "PF Naive" => Output::Pf(pf(&altis_data::particlefilter(size), PfVariant::Naive)),
        "PF Float" => Output::Pf(pf(&altis_data::particlefilter(size), PfVariant::Float)),
        "Raytracing" => Output::F32(crate::raytracing::golden(&altis_data::raytracing(size))),
        "SRAD" => Output::F32(crate::srad::golden(&altis_data::srad(size))),
        "Where" => Output::Records(crate::where_q::golden(&altis_data::where_q(size))),
        _ => panic!("{config} is not one of the thirteen configurations"),
    }
}

/// All thirteen configurations in Figure 2's order.
pub fn all_apps() -> Vec<AppEntry> {
    vec![
        AppEntry {
            name: "CFD FP32",
            work_profile: |s| crate::cfd::work_profile(s, false),
            cuda_module: || crate::cfd::cuda_module(false),
            fpga_design: |s, opt, p| Some(crate::cfd::fpga_design(s, false, opt, p)),
            verify: |q, s, v| verify("CFD FP32", q, s, v),
            golden_digest: |s| golden("CFD FP32", s).digest(),
            validate: |q, s, v| validate("CFD FP32", q, s, v),
        },
        AppEntry {
            name: "CFD FP64",
            work_profile: |s| crate::cfd::work_profile(s, true),
            cuda_module: || crate::cfd::cuda_module(true),
            fpga_design: |s, opt, p| Some(crate::cfd::fpga_design(s, true, opt, p)),
            verify: |q, s, v| verify("CFD FP64", q, s, v),
            golden_digest: |s| golden("CFD FP64", s).digest(),
            validate: |q, s, v| validate("CFD FP64", q, s, v),
        },
        AppEntry {
            name: "DWT2D",
            work_profile: crate::dwt2d::work_profile,
            cuda_module: crate::dwt2d::cuda_module,
            fpga_design: crate::dwt2d::fpga_design,
            verify: |q, s, v| verify("DWT2D", q, s, v),
            golden_digest: |s| golden("DWT2D", s).digest(),
            validate: |q, s, v| validate("DWT2D", q, s, v),
        },
        AppEntry {
            name: "FDTD2D",
            work_profile: crate::fdtd2d::work_profile,
            cuda_module: crate::fdtd2d::cuda_module,
            fpga_design: |s, opt, p| Some(crate::fdtd2d::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("FDTD2D", q, s, v),
            golden_digest: |s| golden("FDTD2D", s).digest(),
            validate: |q, s, v| validate("FDTD2D", q, s, v),
        },
        AppEntry {
            name: "KMeans",
            work_profile: crate::kmeans::work_profile,
            cuda_module: crate::kmeans::cuda_module,
            fpga_design: |s, opt, p| Some(crate::kmeans::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("KMeans", q, s, v),
            golden_digest: |s| golden("KMeans", s).digest(),
            validate: |q, s, v| validate("KMeans", q, s, v),
        },
        AppEntry {
            name: "LavaMD",
            work_profile: crate::lavamd::work_profile,
            cuda_module: crate::lavamd::cuda_module,
            fpga_design: |s, opt, p| Some(crate::lavamd::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("LavaMD", q, s, v),
            golden_digest: |s| golden("LavaMD", s).digest(),
            validate: |q, s, v| validate("LavaMD", q, s, v),
        },
        AppEntry {
            name: "Mandelbrot",
            work_profile: crate::mandelbrot::work_profile,
            cuda_module: crate::mandelbrot::cuda_module,
            fpga_design: |s, opt, p| Some(crate::mandelbrot::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("Mandelbrot", q, s, v),
            golden_digest: |s| golden("Mandelbrot", s).digest(),
            validate: |q, s, v| validate("Mandelbrot", q, s, v),
        },
        AppEntry {
            name: "NW",
            work_profile: crate::nw::work_profile,
            cuda_module: crate::nw::cuda_module,
            fpga_design: |s, opt, p| Some(crate::nw::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("NW", q, s, v),
            golden_digest: |s| golden("NW", s).digest(),
            validate: |q, s, v| validate("NW", q, s, v),
        },
        AppEntry {
            name: "PF Naive",
            work_profile: |s| crate::particlefilter::work_profile(s, PfVariant::Naive),
            cuda_module: || crate::particlefilter::cuda_module(PfVariant::Naive),
            fpga_design: |s, opt, p| {
                Some(crate::particlefilter::fpga_design(s, PfVariant::Naive, opt, p))
            },
            verify: |q, s, v| verify("PF Naive", q, s, v),
            golden_digest: |s| golden("PF Naive", s).digest(),
            validate: |q, s, v| validate("PF Naive", q, s, v),
        },
        AppEntry {
            name: "PF Float",
            work_profile: |s| crate::particlefilter::work_profile(s, PfVariant::Float),
            cuda_module: || crate::particlefilter::cuda_module(PfVariant::Float),
            fpga_design: |s, opt, p| {
                Some(crate::particlefilter::fpga_design(s, PfVariant::Float, opt, p))
            },
            verify: |q, s, v| verify("PF Float", q, s, v),
            golden_digest: |s| golden("PF Float", s).digest(),
            validate: |q, s, v| validate("PF Float", q, s, v),
        },
        AppEntry {
            name: "Raytracing",
            work_profile: crate::raytracing::work_profile,
            cuda_module: crate::raytracing::cuda_module,
            fpga_design: |s, opt, p| Some(crate::raytracing::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("Raytracing", q, s, v),
            golden_digest: |s| golden("Raytracing", s).digest(),
            validate: |q, s, v| validate("Raytracing", q, s, v),
        },
        AppEntry {
            name: "SRAD",
            work_profile: crate::srad::work_profile,
            cuda_module: crate::srad::cuda_module,
            fpga_design: |s, opt, p| Some(crate::srad::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("SRAD", q, s, v),
            golden_digest: |s| golden("SRAD", s).digest(),
            validate: |q, s, v| validate("SRAD", q, s, v),
        },
        AppEntry {
            name: "Where",
            work_profile: crate::where_q::work_profile,
            cuda_module: crate::where_q::cuda_module,
            fpga_design: |s, opt, p| Some(crate::where_q::fpga_design(s, opt, p)),
            verify: |q, s, v| verify("Where", q, s, v),
            golden_digest: |s| golden("Where", s).digest(),
            validate: |q, s, v| validate("Where", q, s, v),
        },
    ]
}

/// hetero-san layer 2 entry point: statically verify the IR descriptors
/// of every suite configuration — each FPGA design (baseline and
/// optimized) against the limits of the FPGA device class it targets.
/// Harness binaries call this at startup so a defective descriptor
/// (barrier in a divergent loop, local memory over capacity, overflowing
/// work totals, misdeclared access patterns, ...) fails fast instead of
/// skewing every downstream schedule and roofline.
///
/// *Baseline* designs model unmodified DPCT output, whose documented
/// pathologies (paper Sections 4 and 5) are exactly what the
/// optimization passes remove. Each tolerated finding is named
/// explicitly in [`DPCT_BASELINE_DEVIATIONS`] by app and rule, so the
/// tolerance cannot silently widen; anything unmatched — and *any*
/// finding in an optimized design — is a descriptor bug. Every
/// allowlist entry must also *fire*: an entry no design triggers any
/// more is stale and fails the sweep until it is removed.
pub fn verify_suite_ir() -> std::result::Result<usize, Vec<String>> {
    let part = FpgaPart::stratix10();
    let fpga = [hetero_ir::DeviceLimits::fpga()];
    let mut checked = 0usize;
    let mut errors = Vec::new();
    let mut hits = [0usize; DPCT_BASELINE_DEVIATIONS.len()];
    for app in all_apps() {
        for opt in [false, true] {
            let Some(d) = (app.fpga_design)(InputSize::S1, opt, &part) else { continue };
            for inst in &d.instances {
                checked += 1;
                for e in hetero_ir::verify_kernel(&inst.kernel, &fpga) {
                    match DPCT_BASELINE_DEVIATIONS
                        .iter()
                        .position(|k| k.covers(app.name, opt, &e))
                    {
                        Some(i) => hits[i] += 1,
                        None => errors.push(format!("{} [{}]: {e}", app.name, d.name)),
                    }
                }
            }
        }
    }
    for (k, &h) in DPCT_BASELINE_DEVIATIONS.iter().zip(&hits) {
        if h == 0 {
            errors.push(format!(
                "stale allowlist entry: {} / {} never fired — remove it",
                k.app, k.rule
            ));
        }
    }
    if errors.is_empty() {
        Ok(checked)
    } else {
        Err(errors)
    }
}

/// The explicit allowlist of verifier findings the unmodified-DPCT
/// baseline designs are *known* to carry — the paper's documented
/// pathologies, named per app and rule so nothing else rides along.
const DPCT_BASELINE_DEVIATIONS: &[hetero_ir::KnownDeviation] = &[
    hetero_ir::KnownDeviation {
        app: "SRAD",
        rule: "misdeclared-access-pattern",
        baseline_only: true,
        why: "DPCT emits dynamic accessors whose declared banked pattern \
              the scattered stencil gathers do not honour (Section 5.4)",
    },
    hetero_ir::KnownDeviation {
        app: "SRAD",
        rule: "work-group-over-capacity",
        baseline_only: true,
        why: "256-item migrated work-groups exceed the FPGA class maximum \
              before the static-sizing refactor (Section 5.2)",
    },
    hetero_ir::KnownDeviation {
        app: "KMeans",
        rule: "work-group-over-capacity",
        baseline_only: true,
        why: "migrated GPU work-group sizing retained on the FPGA part \
              until the optimized design resizes it (Section 5.2)",
    },
    hetero_ir::KnownDeviation {
        app: "PF Naive",
        rule: "misdeclared-access-pattern",
        baseline_only: true,
        why: "the CDF-walk accessor declares a streaming pattern the \
              data-dependent binary search violates (Section 5.4)",
    },
    hetero_ir::KnownDeviation {
        app: "PF Float",
        rule: "misdeclared-access-pattern",
        baseline_only: true,
        why: "same CDF-walk accessor mismatch as PF Naive (Section 5.4)",
    },
];

/// How one fault-injected run of a suite configuration ended. The
/// containment contract of the runtime is that every run ends `Correct`
/// or with a `TypedError` — never wrong output, an unclassified panic,
/// a hang, or a poisoned worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceOutcome {
    /// The app completed and its results matched the golden reference.
    Correct,
    /// The app surfaced a typed runtime [`Error`]: returned by a launch,
    /// or raised as a panic payload by an infallible wrapper.
    TypedError(Error),
    /// The app completed but its results diverged from the reference —
    /// the outcome fault injection must never cause (injected faults
    /// either retry cleanly or abort the run with a typed error).
    Incorrect,
    /// The app panicked with a payload that is not a typed [`Error`]:
    /// containment failed.
    Panicked(String),
}

/// A typed [`Error`] payload is what it carries; any other panic is a
/// containment failure, reported with its message.
fn classify_payload(payload: Box<dyn std::any::Any + Send>) -> ResilienceOutcome {
    match hetero_rt::fault::classify_panic("<host>", 0, payload) {
        Error::KernelPanicked { kernel: "<host>", message, .. } => {
            ResilienceOutcome::Panicked(message)
        }
        e => ResilienceOutcome::TypedError(e),
    }
}

/// How a caught `verify` call ended.
fn resilience_outcome(r: std::thread::Result<bool>) -> ResilienceOutcome {
    match r {
        Ok(true) => ResilienceOutcome::Correct,
        Ok(false) => ResilienceOutcome::Incorrect,
        Err(payload) => classify_payload(payload),
    }
}

/// Run one configuration's verify function on `queue` on the calling
/// thread and classify how it ended. This is the serving layer's
/// execution path — deadlines there are enforced by a
/// [`hetero_rt::CancelToken`] attached to the queue (the runtime stops
/// the launch and surfaces a typed `Error::Canceled`), so no thread
/// needs to be leaked per overrun and the worker executes jobs back to
/// back.
pub fn run_resilient_inline(
    app: &AppEntry,
    queue: &Queue,
    size: InputSize,
    version: AppVersion,
) -> ResilienceOutcome {
    let verify = app.verify;
    resilience_outcome(std::panic::catch_unwind(AssertUnwindSafe(|| verify(queue, size, version))))
}

/// Flavor-aware [`run_resilient_inline`]: `PerLaunch` runs the app's
/// default verify under `version`; the graph modes run the
/// graph-converted route via [`verify_graph_flavor`] (which pins its
/// own per-app version choices, so `version` is ignored there).
/// Returns `None` when a graph mode is requested for an app without a
/// graph conversion — the serving layer rejects such jobs at admission.
pub fn run_flavored_inline(
    app: &AppEntry,
    queue: &Queue,
    size: InputSize,
    version: AppVersion,
    mode: ExecMode,
) -> Option<ResilienceOutcome> {
    if mode == ExecMode::PerLaunch {
        return Some(run_resilient_inline(app, queue, size, version));
    }
    let name = app.name;
    if !GRAPH_FLAVOR_APPS.contains(&name) {
        return None;
    }
    Some(resilience_outcome(std::panic::catch_unwind(AssertUnwindSafe(|| {
        verify_graph_flavor(name, queue, size, mode).expect("graph-converted app")
    }))))
}

/// How one validated run ended (see [`run_sdc`]): the outcome of every
/// [`matrix`] cell, whose [`Tier`] says which endings pass. Under
/// silent-data-corruption injection the defense contract is that every
/// run ends in one of the first three states, never with silently wrong
/// output accepted as success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdcOutcome {
    /// Output validated and no corruption was detected or corrected
    /// along the way: the injection window missed (or the rate was 0).
    Correct,
    /// Output validated, and the integrity/redundancy machinery
    /// detected or out-voted `events` corruptions to get there.
    Corrected {
        /// Detections plus voted-out divergences during this run.
        events: u64,
    },
    /// The run was stopped and its output rejected: validation failed
    /// (structural invariant or golden mismatch) or the runtime raised
    /// a typed error ([`Error::DataCorruption`],
    /// [`Error::ReplicaDivergence`], exhausted retries, ...). The
    /// result never reaches a consumer.
    Quarantined {
        /// The failed check or typed error text.
        reason: String,
        /// The typed error that stopped the run, if one did.
        error: Option<Error>,
    },
    /// Defense failure: an untyped panic or a hang. (A *silently wrong*
    /// output is reported as `Quarantined` here only because `validate`
    /// caught it.)
    Uncontained {
        /// What escaped classification.
        what: String,
    },
}

/// How a caught `validate` call ended, given what its launches absorbed
/// on the run's own ledger: detected corruptions retried past, and
/// divergent replicas outvoted.
fn sdc_outcome(r: std::thread::Result<Validation>, ledger: &ResilienceLedger) -> SdcOutcome {
    match r {
        Ok(Validation::Valid) => {
            let s = ledger.snapshot();
            match s.detections_absorbed + s.divergences_corrected {
                0 => SdcOutcome::Correct,
                events => SdcOutcome::Corrected { events },
            }
        }
        Ok(Validation::Invalid(reason)) => SdcOutcome::Quarantined { reason, error: None },
        Err(payload) => match classify_payload(payload) {
            ResilienceOutcome::TypedError(e) => {
                SdcOutcome::Quarantined { reason: e.to_string(), error: Some(e) }
            }
            other => SdcOutcome::Uncontained {
                what: format!("{other:?}"),
            },
        },
    }
}

/// `queue` accounting to a ledger of the run's own, and the ledger. The
/// run's counts are folded into `queue`'s ledger, if it has one, by
/// [`fold_ledger`].
fn own_ledger(queue: &Queue) -> (Queue, Arc<ResilienceLedger>) {
    let ledger = Arc::new(ResilienceLedger::new());
    (queue.clone().with_resilience_ledger(Some(Arc::clone(&ledger))), ledger)
}

fn fold_ledger(queue: &Queue, run: &ResilienceLedger) {
    if let Some(outer) = queue.resilience_ledger() {
        outer.absorb(&run.snapshot());
    }
}

/// Run one configuration's validator on `queue` under a watchdog and
/// classify how it ended. A run past `timeout` is
/// [`SdcOutcome::Uncontained`]; its runaway thread is leaked (the
/// watchdog exists to *diagnose* hangs). Detection/correction activity
/// is counted on the run's own ledger, so runs may overlap.
fn run_sdc(
    app: &AppEntry,
    queue: Queue,
    size: InputSize,
    version: AppVersion,
    timeout: Duration,
) -> SdcOutcome {
    let validate = app.validate;
    let (q, ledger) = own_ledger(&queue);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| validate(&q, size, version)));
        let _ = tx.send(r);
    });
    match rx.recv_timeout(timeout) {
        Ok(r) => {
            fold_ledger(&queue, &ledger);
            sdc_outcome(r, &ledger)
        }
        Err(_) => SdcOutcome::Uncontained {
            what: format!("timed out after {timeout:?}"),
        },
    }
}

/// [`run_sdc`] without the watchdog thread (see [`run_resilient_inline`]
/// for why the serving layer wants that).
pub fn run_sdc_inline(
    app: &AppEntry,
    queue: &Queue,
    size: InputSize,
    version: AppVersion,
) -> SdcOutcome {
    let validate = app.validate;
    let (q, ledger) = own_ledger(queue);
    let r = std::panic::catch_unwind(AssertUnwindSafe(|| validate(&q, size, version)));
    fold_ledger(queue, &ledger);
    sdc_outcome(r, &ledger)
}

// --- the hardened verdict matrix -------------------------------------------

/// A hardening tier of [`matrix`]: what arms a cell's queue, and which
/// endings of the run pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The race detector and no faults.
    Sanitize,
    /// Fail-stop faults under bounded retry.
    Resilient,
    /// Silent faults against integrity and DMR voting.
    Sdc,
}

impl Tier {
    /// Every tier, by its spelling.
    pub const ALL: [(&'static str, Tier); 3] =
        [("sanitize", Tier::Sanitize), ("resilient", Tier::Resilient), ("sdc", Tier::Sdc)];

    /// The tier's spelling.
    pub fn label(self) -> &'static str {
        Tier::ALL.iter().find(|(_, t)| *t == self).map_or("?", |(l, _)| l)
    }

    /// The hardening of one cell, with a plan of its own drawn from
    /// `(seed, rate)` (the sanitizer tier injects nothing).
    pub fn hardening(self, seed: u64, rate: f64) -> Hardening {
        match self {
            Tier::Sanitize => Hardening::sanitizer(),
            Tier::Resilient => Hardening::resilient(Some(Arc::new(FaultPlan::new(seed, rate)))),
            Tier::Sdc => Hardening::sdc(Some(Arc::new(FaultPlan::sdc(seed, rate)))),
        }
    }

    /// The pass rule. Sanitized runs must be race-free and correct.
    /// Resilient runs end correct or stopped by a typed error, never with
    /// wrong output. SDC runs end correct, corrected or quarantined,
    /// never uncontained.
    pub fn passes(self, outcome: &SdcOutcome) -> bool {
        match self {
            Tier::Sanitize => *outcome == SdcOutcome::Correct,
            Tier::Resilient => matches!(
                outcome,
                SdcOutcome::Correct | SdcOutcome::Quarantined { error: Some(_), .. }
            ),
            Tier::Sdc => !matches!(outcome, SdcOutcome::Uncontained { .. }),
        }
    }
}

/// The cells [`matrix`] runs: seed × rate × app × size × version, at one
/// tier.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// How every cell's queue is armed.
    pub tier: Tier,
    /// Configuration names; all thirteen when empty.
    pub apps: Vec<&'static str>,
    /// Input sizes.
    pub sizes: Vec<InputSize>,
    /// App versions.
    pub versions: Vec<AppVersion>,
    /// Fault-plan seeds.
    pub seeds: Vec<u64>,
    /// Fault-plan rates.
    pub rates: Vec<f64>,
}

/// The watchdog of one [`matrix`] cell: a run past it is a hang.
const CELL_TIMEOUT: Duration = Duration::from_secs(900);

/// One run of [`matrix`].
#[derive(Debug, Clone)]
pub struct Cell {
    /// Configuration name.
    pub app: &'static str,
    /// Input size.
    pub size: InputSize,
    /// App version.
    pub version: AppVersion,
    /// Fault-plan seed.
    pub seed: u64,
    /// Fault-plan rate.
    pub rate: f64,
    /// The tier the cell ran at.
    pub tier: Tier,
    /// How the run ended.
    pub outcome: SdcOutcome,
    /// Faults the cell's plan injected.
    pub injected: u64,
    /// Whether the shared pool still computed exactly after the run.
    pub pool_healthy: bool,
}

impl Cell {
    /// The tier's pass rule held and the pool survived.
    pub fn passed(&self) -> bool {
        self.pool_healthy && self.tier.passes(&self.outcome)
    }
}

/// Run `m`'s cells in order, seeds outermost and versions innermost,
/// each validated on a queue of its own under one watchdog
/// ([`run_sdc`]), and check the shared pool after each.
pub fn matrix(m: &Matrix) -> impl Iterator<Item = Cell> + '_ {
    let apps: Vec<AppEntry> =
        all_apps().into_iter().filter(|a| m.apps.is_empty() || m.apps.contains(&a.name)).collect();
    let mut cells = Vec::new();
    for &seed in &m.seeds {
        for &rate in &m.rates {
            for app in 0..apps.len() {
                for &size in &m.sizes {
                    cells.extend(m.versions.iter().map(|&v| (seed, rate, app, size, v)));
                }
            }
        }
    }
    cells.into_iter().map(move |(seed, rate, app, size, version)| {
        let hardening = m.tier.hardening(seed, rate);
        let plan = hardening.fault.clone();
        let queue = Queue::hardened(Device::cpu(), hardening);
        let outcome = run_sdc(&apps[app], queue, size, version, CELL_TIMEOUT);
        Cell {
            app: apps[app].name,
            size,
            version,
            seed,
            rate,
            tier: m.tier,
            outcome,
            injected: plan.map_or(0, |p| p.injected()),
            pool_healthy: pool_is_healthy(),
        }
    })
}

/// A plain launch through the shared pool still produces exact results:
/// what a fault that wedged or poisoned the pool would break.
pub fn pool_is_healthy() -> bool {
    let q = Queue::new(Device::cpu());
    let b = Buffer::<usize>::new(4096);
    let v = b.view();
    let r = q.submit(&[writes(&b)]).try_parallel_for("pool_probe", Range::d1(4096), move |it| {
        v.set(it.gid(0), it.gid(0) ^ 0xA5A5);
    });
    r.is_ok() && b.to_vec().iter().enumerate().all(|(i, &x)| x == i ^ 0xA5A5)
}

// --- graph-equivalence matrix ----------------------------------------------

/// Execution flavor of one [`graph_mode_matrix`] cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFlavor {
    /// Sequential queue, per-launch submission: the bit-deterministic
    /// baseline every other flavor is compared against.
    Sequential,
    /// Pooled queue, per-launch submission.
    PerLaunch,
    /// Pooled queue, recorded-graph replay.
    Graph,
}

impl GraphFlavor {
    /// Display label used by the `graph_replay` bench and verify.sh.
    pub fn label(self) -> &'static str {
        match self {
            GraphFlavor::Sequential => "sequential",
            GraphFlavor::PerLaunch => "per-launch",
            GraphFlavor::Graph => "graph",
        }
    }
}

/// One matrix cell: app name, execution flavor, matched-golden.
pub type GraphMatrixRow = (&'static str, GraphFlavor, bool);

/// The apps with a record-and-replay graph conversion: the only routes
/// for which a `Graph` execution flavor can be requested
/// (the serving layer rejects graph-flavored jobs for any other app).
pub const GRAPH_FLAVOR_APPS: [&str; 5] =
    ["FDTD2D", "SRAD", "CFD FP32", "KMeans", "PF Naive"];

/// Mode-aware verification for one graph-converted app: run it on `q`
/// under the given execution mode and check the output against the
/// golden reference with the suite's own tolerances. These are the
/// bodies of the [`graph_mode_matrix`] cells, factored out so the
/// serving layer can execute a single `(app, flavor)` pair on demand.
/// Returns `None` when `name` is not in [`GRAPH_FLAVOR_APPS`].
fn verify_graph_flavor(
    name: &str,
    q: &Queue,
    size: InputSize,
    mode: ExecMode,
) -> Option<bool> {
    // SyclBaseline keeps KMeans on the four-kernel path (SyclOptimized
    // would reroute to the piped dataflow on pipe-capable devices, which
    // has its own structure and no graph).
    let version = match name {
        "KMeans" | "PF Naive" => AppVersion::SyclBaseline,
        _ => AppVersion::SyclOptimized,
    };
    GRAPH_FLAVOR_APPS.contains(&name).then(|| {
        check(name, size, &run_output(name, q, size, version, mode)) == Validation::Valid
    })
}

/// The graph-equivalence matrix: every graph-converted app (FDTD2D,
/// SRAD, CFD FP32, KMeans, PF Naive) under a sequential queue, a pooled
/// per-launch queue, and a pooled graph-replay queue, each checked
/// against its golden reference with the suite's own tolerances. This
/// is the record-and-replay correctness gate: a graph that reorders a
/// dependent launch, replays a stale chunk plan, or skips a kernel
/// fails here before any perf number is believed.
pub fn graph_mode_matrix(size: InputSize) -> Vec<GraphMatrixRow> {
    let seq = Queue::new(Device::cpu())
        .with_parallelism(hetero_rt::executor::Parallelism::Sequential);
    let pooled = Queue::new(Device::cpu());
    let cells: [(&Queue, GraphFlavor, ExecMode); 3] = [
        (&seq, GraphFlavor::Sequential, ExecMode::PerLaunch),
        (&pooled, GraphFlavor::PerLaunch, ExecMode::PerLaunch),
        (&pooled, GraphFlavor::Graph, ExecMode::Graph),
    ];
    let mut rows = Vec::new();
    for (q, flavor, mode) in cells {
        for name in GRAPH_FLAVOR_APPS {
            let ok = verify_graph_flavor(name, q, size, mode)
                .expect("GRAPH_FLAVOR_APPS lists only graph-converted apps");
            rows.push((name, flavor, ok));
        }
    }
    rows
}

// --- golden-checksum registry ----------------------------------------------

/// Path of the committed golden-checksum registry
/// (`tests/golden_checksums.tsv` at the workspace root), checked by the
/// `matrix` harness binary. Regenerate with `matrix --write-golden`.
pub fn golden_registry_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden_checksums.tsv")
}

/// One registry row: configuration name, 1-based size index, digest.
pub type GoldenRow = (String, usize, u64);

/// Compute every configuration's reference digest at every size
/// (13 × 3 rows, suite order). Host-side only; never touches a queue.
pub fn compute_golden_registry() -> Vec<GoldenRow> {
    let mut rows = Vec::new();
    for app in all_apps() {
        for size in InputSize::all() {
            rows.push((app.name.to_string(), size.index(), (app.golden_digest)(size)));
        }
    }
    rows
}

/// Render registry rows as the committed TSV format:
/// `name \t size-index \t 16-hex-digit digest`, one row per line, with
/// a leading `#` comment header.
pub fn render_golden_registry(rows: &[GoldenRow]) -> String {
    let mut out =
        String::from("# Altis golden-output digests: app\tsize\tdigest\n# Regenerate with: cargo run --release -p altis-bench --bin matrix -- --write-golden\n");
    for (name, size, digest) in rows {
        out.push_str(&format!("{name}\t{size}\t{digest:016x}\n"));
    }
    out
}

/// Parse the committed TSV format back into rows; `#` lines and blank
/// lines are ignored. Errors name the offending line.
fn parse_golden_registry(text: &str) -> std::result::Result<Vec<GoldenRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split('\t');
        let (Some(name), Some(size), Some(digest), None) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(format!("line {}: expected 3 tab-separated fields", i + 1));
        };
        let size: usize = size
            .parse()
            .map_err(|e| format!("line {}: bad size index: {e}", i + 1))?;
        let digest = u64::from_str_radix(digest, 16)
            .map_err(|e| format!("line {}: bad digest: {e}", i + 1))?;
        rows.push((name.to_string(), size, digest));
    }
    Ok(rows)
}

/// Check freshly computed digests against the committed registry at
/// `sizes` — what the `matrix` binary runs once at startup, scoped to
/// the sizes its cells exercise so the check stays cheap. Returns the
/// number of rows checked, or one message per drifted / missing / stale
/// row: a drift means a reference implementation or data generator
/// changed output without the registry being regenerated — exactly the
/// silent drift the registry exists to catch. Committed rows at other
/// sizes are ignored; stale rows are reported only within `sizes`.
pub fn check_golden_registry_sizes(
    sizes: &[InputSize],
) -> std::result::Result<usize, Vec<String>> {
    let path = golden_registry_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return Err(vec![format!("cannot read {}: {e}", path.display())]),
    };
    let committed = parse_golden_registry(&text).map_err(|e| vec![e])?;
    let mut computed = Vec::new();
    for app in all_apps() {
        for &size in sizes {
            computed.push((app.name.to_string(), size.index(), (app.golden_digest)(size)));
        }
    }
    let mut errors = Vec::new();
    for (name, size, digest) in &computed {
        match committed.iter().find(|(n, s, _)| n == name && s == size) {
            None => errors.push(format!("{name} size {size}: missing from registry")),
            Some((_, _, want)) if want != digest => errors.push(format!(
                "{name} size {size}: digest {digest:016x} != committed {want:016x}"
            )),
            Some(_) => {}
        }
    }
    for (name, size, _) in &committed {
        let in_scope = sizes.iter().any(|s| s.index() == *size);
        if in_scope && !computed.iter().any(|(n, s, _)| n == name && s == size) {
            errors.push(format!("{name} size {size}: stale registry row"));
        }
    }
    if errors.is_empty() {
        Ok(computed.len())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_ir_verifies_statically() {
        // Every configuration's FPGA-design IR must pass the static
        // verifier. The exact count names the design that moved; `Ok`
        // also means every allowlist entry fired (a stale one is an
        // error), so the five below are the five the designs carry.
        let checked = verify_suite_ir().unwrap_or_else(|errs| panic!("{}", errs.join("\n")));
        assert_eq!(checked, 50, "kernel instances verified");
        assert_eq!(DPCT_BASELINE_DEVIATIONS.len(), 5);
    }

    #[test]
    fn verifier_flags_dpct_pathologies_in_baseline_designs() {
        // The tolerance in verify_suite_ir is not vacuous: the static
        // verifier *does* flag DPCT's output. The baseline SRAD design
        // (pre static-sizing refactor) carries dynamic accessors that
        // claim a banked pattern and 256-item work-groups over the FPGA
        // maximum.
        let part = FpgaPart::stratix10();
        let apps = all_apps();
        let srad = apps.iter().find(|a| a.name == "SRAD").unwrap();
        let d = (srad.fpga_design)(InputSize::S1, false, &part).unwrap();
        let fpga = [hetero_ir::DeviceLimits::fpga()];
        let errs: Vec<_> = d
            .instances
            .iter()
            .flat_map(|i| hetero_ir::verify_kernel(&i.kernel, &fpga))
            .collect();
        assert!(errs
            .iter()
            .any(|e| matches!(e, hetero_ir::VerifyError::MisdeclaredAccessPattern { .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, hetero_ir::VerifyError::WorkGroupOverCapacity { .. })));

        // The optimized design removes every pathology.
        let d = (srad.fpga_design)(InputSize::S1, true, &part).unwrap();
        let errs: Vec<_> = d
            .instances
            .iter()
            .flat_map(|i| hetero_ir::verify_kernel(&i.kernel, &fpga))
            .collect();
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn suite_has_thirteen_configurations() {
        let apps = all_apps();
        assert_eq!(apps.len(), 13);
        let names: Vec<_> = apps.iter().map(|a| a.name).collect();
        assert_eq!(names, CONFIGS);
    }

    #[test]
    fn every_app_has_profiles_and_modules() {
        for app in all_apps() {
            let p = (app.work_profile)(InputSize::S1);
            assert!(p.kernel_launches > 0, "{}", app.name);
            let m = (app.cuda_module)();
            assert!(!m.constructs.is_empty(), "{}", app.name);
        }
    }

    #[test]
    fn only_dwt2d_lacks_an_optimized_fpga_design() {
        let part = FpgaPart::stratix10();
        for app in all_apps() {
            let d = (app.fpga_design)(InputSize::S1, true, &part);
            if app.name == "DWT2D" {
                assert!(d.is_none());
            } else {
                assert!(d.is_some(), "{}", app.name);
            }
        }
    }

    fn harness_entry(verify: fn(&Queue, InputSize, AppVersion) -> bool) -> AppEntry {
        AppEntry {
            name: "harness-probe",
            work_profile: crate::mandelbrot::work_profile,
            cuda_module: crate::mandelbrot::cuda_module,
            fpga_design: |s, opt, p| Some(crate::mandelbrot::fpga_design(s, opt, p)),
            verify,
            golden_digest: |_| 0,
            validate: |_, _, _| Validation::Valid,
        }
    }

    fn sdc_entry(validate: fn(&Queue, InputSize, AppVersion) -> Validation) -> AppEntry {
        AppEntry { validate, ..harness_entry(|_, _, _| true) }
    }

    #[test]
    fn graph_matrix_matches_golden_at_size_1() {
        let rows = graph_mode_matrix(InputSize::S1);
        // 5 apps × 3 flavors, every cell green.
        assert_eq!(rows.len(), 15);
        let failed: Vec<_> = rows
            .iter()
            .filter(|(_, _, ok)| !ok)
            .map(|(name, flavor, _)| format!("{name} [{}]", flavor.label()))
            .collect();
        assert!(failed.is_empty(), "diverged cells: {failed:?}");
    }

    /// One graph app at size 1: what one iteration records, what else
    /// it launches, and how often `run_output` iterates.
    struct Recorded {
        name: &'static str,
        record: fn(&Queue) -> Vec<hetero_rt::Graph>,
        /// Launches `record` holds.
        nodes: usize,
        /// `phase_count()` of each recording: what the bindings' access
        /// modes let run concurrently.
        phases: &'static [usize],
        /// Launches an iteration issues outside its recording.
        host_launches: u64,
        iterations: usize,
    }

    fn recorded_apps() -> [Recorded; 6] {
        use crate::{cfd, fdtd2d, kmeans, particlefilter as pf, srad};
        const S1: InputSize = InputSize::S1;
        [
            Recorded {
                name: "FDTD2D",
                nodes: 3,
                phases: &[2],
                record: |q| {
                    let n = altis_data::fdtd2d(S1).dim;
                    let plane = || Buffer::<f32>::new(n * n);
                    vec![fdtd2d::step_graph(q, n, &plane(), &plane(), &plane()).unwrap()]
                },
                host_launches: 0,
                iterations: altis_data::fdtd2d(S1).steps,
            },
            Recorded {
                name: "SRAD",
                nodes: 2,
                phases: &[2],
                record: |q| {
                    let p = altis_data::srad(S1);
                    let planes = srad::Planes::new(srad::generate_image(&p));
                    vec![srad::step_graph(q, p.dim, p.lambda, &planes).unwrap()]
                },
                // The ROI moments reduction.
                host_launches: 1,
                iterations: altis_data::srad(S1).iterations,
            },
            // An iteration runs one half of the state ping-pong; the
            // other half is the same two launches with the roles swapped.
            Recorded {
                name: "CFD FP32",
                nodes: 2,
                phases: &[2],
                record: |q| {
                    let mesh = cfd::Mesh::new(cfd::generate::<f32>(&altis_data::cfd(S1)));
                    vec![cfd::step_graph(q, &mesh, 0, 1).unwrap()]
                },
                host_launches: 0,
                iterations: altis_data::cfd(S1).iterations,
            },
            Recorded {
                name: "CFD FP64",
                nodes: 2,
                phases: &[2],
                record: |q| {
                    let mesh = cfd::Mesh::new(cfd::generate::<f64>(&altis_data::cfd(S1)));
                    vec![cfd::step_graph(q, &mesh, 1, 0).unwrap()]
                },
                host_launches: 0,
                iterations: altis_data::cfd(S1).iterations,
            },
            Recorded {
                name: "KMeans",
                nodes: 4,
                phases: &[3],
                record: |q| {
                    let p = altis_data::kmeans(S1);
                    let lloyd = kmeans::Lloyd::new(&p, kmeans::generate_points(&p));
                    vec![kmeans::step_graph(q, &p, &lloyd).unwrap()]
                },
                host_launches: 0,
                iterations: altis_data::kmeans(S1).iterations,
            },
            Recorded {
                name: "PF Naive",
                nodes: 2,
                phases: &[1, 1],
                record: |q| {
                    let cloud = pf::Cloud::new(&altis_data::particlefilter(S1));
                    vec![
                        pf::propagate_graph(q, PfVariant::Naive, &cloud).unwrap(),
                        pf::resample_graph(q, &cloud).unwrap(),
                    ]
                },
                host_launches: 0,
                iterations: altis_data::particlefilter(S1).frames,
            },
        ]
    }

    #[test]
    fn per_launch_and_an_armed_graph_issue_exactly_the_recorded_launches() {
        // `PerLaunch` walks the recording node by node, and so does
        // `Graph` on an armed queue: the ledger counts what the queue
        // really launched.
        for app in recorded_apps() {
            let graphs = (app.record)(&Queue::new(Device::cpu()));
            let recorded: usize = graphs.iter().map(hetero_rt::Graph::len).sum();
            assert_eq!(recorded, app.nodes, "{}", app.name);
            let phases: Vec<usize> = graphs.iter().map(hetero_rt::Graph::phase_count).collect();
            assert_eq!(phases, app.phases, "{}", app.name);
            let want = (recorded as u64 + app.host_launches) * app.iterations as u64;
            if app.name.starts_with("CFD") {
                // The analytic profile models the same launches an
                // iteration, at its own (paper-scale) iteration count.
                let is_f64 = app.name == "CFD FP64";
                let model = crate::cfd::work_profile(InputSize::S1, is_f64).kernel_launches;
                let model_iterations = altis_data::paper_scale::cfd(InputSize::S1).iterations;
                assert_eq!(model * app.iterations as u64, want * model_iterations as u64);
            }
            for (armed, mode) in [(false, ExecMode::PerLaunch), (true, ExecMode::Graph)] {
                let ledger = std::sync::Arc::new(hetero_rt::ResilienceLedger::new());
                let h = if armed { Hardening::sanitizer() } else { Hardening::NONE };
                let q = Queue::hardened(Device::cpu(), h)
                    .with_resilience_ledger(Some(std::sync::Arc::clone(&ledger)));
                run_output(app.name, &q, InputSize::S1, AppVersion::SyclBaseline, mode);
                assert_eq!(ledger.snapshot().launches, want, "{} {mode:?}", app.name);
            }
        }
    }

    #[test]
    fn run_resilient_inline_classifies_every_ending() {
        let q = Queue::new(Device::cpu());
        let v = AppVersion::SyclBaseline;
        let run = |app: &AppEntry| run_resilient_inline(app, &q, InputSize::S1, v);

        assert_eq!(run(&harness_entry(|_, _, _| true)), ResilienceOutcome::Correct);

        assert_eq!(run(&harness_entry(|_, _, _| false)), ResilienceOutcome::Incorrect);

        // A typed Error payload (what Queue::parallel_for re-raises).
        let o = run(&harness_entry(|_, _, _| {
            std::panic::panic_any(Error::PipeDeadlock { waited_secs: 1 })
        }));
        assert_eq!(o, ResilienceOutcome::TypedError(Error::PipeDeadlock { waited_secs: 1 }));

        // An unwrap() of a typed error is an ordinary panic: the error
        // travels as the payload or not at all.
        fn failing_launch() -> hetero_rt::Result<()> {
            Err(Error::TransientLaunchFailure { kernel: "k", attempts: 3 })
        }
        let o = run(&harness_entry(|_, _, _| {
            failing_launch().unwrap();
            true
        }));
        assert!(matches!(o, ResilienceOutcome::Panicked(_)), "{o:?}");

        // An arbitrary panic is containment failure.
        let o = run(&harness_entry(|_, _, _| panic!("application bug")));
        assert!(matches!(o, ResilienceOutcome::Panicked(_)), "{o:?}");
    }

    #[test]
    fn golden_digests_are_deterministic_and_size_sensitive() {
        // Same input, same digest; different size, different digest.
        // Mandelbrot and NW cover integer and i32 reference outputs;
        // KMeans covers the mixed centers+membership fold.
        for app in all_apps() {
            if !["Mandelbrot", "NW", "KMeans"].contains(&app.name) {
                continue;
            }
            let a = (app.golden_digest)(InputSize::S1);
            let b = (app.golden_digest)(InputSize::S1);
            assert_eq!(a, b, "{}: digest must be deterministic", app.name);
            let c = (app.golden_digest)(InputSize::S2);
            assert_ne!(a, c, "{}: sizes must not collide", app.name);
        }
    }

    #[test]
    fn digest_words_separates_content_and_length() {
        assert_ne!(digest_words([1, 2, 3]), digest_words([1, 2]));
        assert_ne!(digest_words([1, 2, 3]), digest_words([3, 2, 1]));
        assert_ne!(digest_words([0, 0]), digest_words([0]));
        assert_eq!(digest_f32s(&[1.0, 2.0]), digest_f32s(&[1.0, 2.0]));
        assert_ne!(digest_f32s(&[1.0]), digest_f64s(&[1.0]));
    }

    /// The memo's fingerprint separates content, order, length and kind.
    #[test]
    fn fingerprint_separates() {
        let f32s = |v: &[f32]| Output::F32(v.to_vec()).fingerprint();
        assert_eq!(f32s(&[1.0, 2.0, 3.0]), f32s(&[1.0, 2.0, 3.0]));
        assert_ne!(f32s(&[1.0, 2.0, 3.0]), f32s(&[1.0, 2.0]));
        assert_ne!(f32s(&[1.0, 2.0, 3.0]), f32s(&[3.0, 2.0, 1.0]));
        assert_ne!(f32s(&[1.0, 2.0, 3.0]), f32s(&[1.0, 2.0, 3.5]));
        // Zero padding is not free at either parity, nor is an empty output.
        let zeros: Vec<u64> = (0..12).map(|n| f32s(&vec![0.0; n])).collect();
        for (i, a) in zeros.iter().enumerate() {
            assert!(zeros[..i].iter().all(|b| a != b), "{i} zeros collide with a shorter run");
        }
        // Equal values, and equal bits, of different kinds.
        assert_ne!(f32s(&[1.0]), Output::F64(vec![1.0]).fingerprint());
        assert_ne!(Output::U32(vec![7, 8]).fingerprint(), Output::I32(vec![7, 8]).fingerprint());
        // Fields cannot trade elements or places.
        let fields = |ez: &[f32], hx: &[f32], hy: &[f32]| {
            let (ez, hx, hy) = (ez.to_vec(), hx.to_vec(), hy.to_vec());
            Output::Fields(crate::fdtd2d::Fields { ez, hx, hy }).fingerprint()
        };
        assert_ne!(fields(&[1.0, 2.0], &[3.0], &[]), fields(&[1.0], &[2.0, 3.0], &[]));
        assert_ne!(fields(&[1.0], &[2.0], &[3.0]), fields(&[2.0], &[1.0], &[3.0]));
        // Every single-bit change of a ragged vector shows (a step is a
        // bijection of its lane, so this holds for any data).
        let base: Vec<f32> = (0..67).map(|i| (i as f32).sin()).collect();
        let clean = f32s(&base);
        for i in 0..base.len() {
            for bit in 0..32 {
                let mut v = base.clone();
                v[i] = f32::from_bits(v[i].to_bits() ^ (1 << bit));
                assert_ne!(f32s(&v), clean, "element {i} bit {bit}");
            }
        }
    }

    #[test]
    fn golden_registry_renders_and_parses_roundtrip() {
        let rows = vec![
            ("CFD FP32".to_string(), 1, 0xDEAD_BEEF_0123_4567u64),
            ("PF Naive".to_string(), 3, 0x0000_0000_0000_0001u64),
        ];
        let text = render_golden_registry(&rows);
        assert!(text.starts_with('#'), "header comment expected");
        assert_eq!(parse_golden_registry(&text).unwrap(), rows);
        // Malformed rows are named by line.
        assert!(parse_golden_registry("a\tb").unwrap_err().contains("line 1"));
        assert!(parse_golden_registry("a\t1\tzz").unwrap_err().contains("bad digest"));
        // Comments and blanks are skipped.
        assert!(parse_golden_registry("# x\n\n").unwrap().is_empty());
    }

    /// The committed file is exactly what `matrix --write-golden` would
    /// write for its own rows, header included.
    #[test]
    fn committed_golden_registry_is_in_rendered_form() {
        let text = std::fs::read_to_string(golden_registry_path()).unwrap();
        assert_eq!(render_golden_registry(&parse_golden_registry(&text).unwrap()), text);
    }

    #[test]
    fn run_sdc_classifies_every_ending() {
        let t = Duration::from_secs(5);
        let q = || Queue::new(Device::cpu());

        // Valid output with no integrity activity: Correct.
        let app = sdc_entry(|_, _, _| Validation::Valid);
        let o = run_sdc(&app, q(), InputSize::S1, AppVersion::SyclBaseline, t);
        assert_eq!(o, SdcOutcome::Correct);

        // Invalid output: quarantined, naming the failed check.
        let app = sdc_entry(|_, _, _| Validation::Invalid("membership 9 out of range".into()));
        let o = run_sdc(&app, q(), InputSize::S1, AppVersion::SyclBaseline, t);
        assert_eq!(
            o,
            SdcOutcome::Quarantined {
                reason: "membership 9 out of range".to_string(),
                error: None
            }
        );

        // A typed corruption error raised as the payload: quarantined.
        // Unwrapped, it is an untyped panic like any other.
        let app = sdc_entry(|_, _, _| {
            std::panic::panic_any(Error::DataCorruption { region: 7, page: 1, epoch: 2 })
        });
        let o = run_sdc(&app, q(), InputSize::S1, AppVersion::SyclBaseline, t);
        assert!(matches!(o, SdcOutcome::Quarantined { .. }), "{o:?}");
        fn diverged() -> hetero_rt::Result<()> {
            Err(Error::ReplicaDivergence { kernel: "k", runs: 4 })
        }
        let app = sdc_entry(|_, _, _| {
            diverged().unwrap();
            Validation::Valid
        });
        let o = run_sdc(&app, q(), InputSize::S1, AppVersion::SyclBaseline, t);
        assert!(matches!(o, SdcOutcome::Uncontained { .. }), "{o:?}");

        // Untyped panic: defense failure.
        let app = sdc_entry(|_, _, _| panic!("application bug"));
        let o = run_sdc(&app, q(), InputSize::S1, AppVersion::SyclBaseline, t);
        assert!(matches!(o, SdcOutcome::Uncontained { .. }), "{o:?}");

        // Hang: defense failure.
        let app = sdc_entry(|_, _, _| {
            std::thread::sleep(Duration::from_secs(60));
            Validation::Valid
        });
        let o = run_sdc(
            &app,
            q(),
            InputSize::S1,
            AppVersion::SyclBaseline,
            Duration::from_millis(100),
        );
        assert!(matches!(o, SdcOutcome::Uncontained { .. }), "{o:?}");
    }

    #[test]
    fn run_sdc_counts_correction_events() {
        // Simulate the corrected path by accounting one absorbed
        // detection and one outvoted divergence to the run's ledger from
        // inside the validator, as the queue's launches would.
        let app = sdc_entry(|q, _, _| {
            let ledger = q.resilience_ledger().expect("a run accounts to its own ledger");
            let info = hetero_rt::ResilienceInfo {
                faults_absorbed: 2,
                detections_absorbed: 1,
                divergences_corrected: 1,
                ..Default::default()
            };
            ledger.record(&info);
            Validation::Valid
        });
        let tenant = Arc::new(ResilienceLedger::new());
        let o = run_sdc(
            &app,
            Queue::new(Device::cpu()).with_resilience_ledger(Some(Arc::clone(&tenant))),
            InputSize::S1,
            AppVersion::SyclBaseline,
            Duration::from_secs(5),
        );
        assert_eq!(o, SdcOutcome::Corrected { events: 2 });
        let s = tenant.snapshot();
        assert_eq!((s.launches, s.divergences_corrected), (1, 1), "folded into the queue's ledger");
    }

    #[test]
    fn validators_pass_on_clean_runs_and_reject_planted_corruption() {
        let q = Queue::new(Device::cpu());
        // Structural invariants accept the real outputs...
        let p = altis_data::kmeans(InputSize::S1);
        let g = crate::kmeans::golden(&p);
        assert!(g.membership.iter().all(|&m| (m as usize) < p.k));
        for config in ["KMeans", "NW"] {
            let v = validate(config, &q, InputSize::S1, AppVersion::SyclOptimized);
            assert_eq!(v, Validation::Valid, "{config}");
        }
        // ...and reject planted corruption by name.
        let Output::Kmeans(mut r) = golden("KMeans", InputSize::S1) else { unreachable!() };
        r.membership[0] = p.k as u32;
        let v = check("KMeans", InputSize::S1, &Output::Kmeans(r));
        assert!(matches!(&v, Validation::Invalid(why) if why.contains("out of range")), "{v:?}");
        let Output::I32(mut r) = golden("NW", InputSize::S1) else { unreachable!() };
        r[1] += 1;
        let v = check("NW", InputSize::S1, &Output::I32(r));
        assert!(matches!(&v, Validation::Invalid(why) if why.contains("gap penalty")), "{v:?}");
    }

    #[test]
    fn profiles_grow_with_size() {
        for app in all_apps() {
            let p1 = (app.work_profile)(InputSize::S1);
            let p3 = (app.work_profile)(InputSize::S3);
            let w1 = p1.total_flops() + p1.global_bytes;
            let w3 = p3.total_flops() + p3.global_bytes;
            assert!(w3 > w1, "{}: {w1} -> {w3}", app.name);
        }
    }
}
