//! Uniform dispatch over the streaming-converted applications.
//!
//! Four suite apps run as unbounded window streams (one recorded graph
//! replayed per window over carried state): SRAD, FDTD2D, KMeans and
//! ParticleFilter (naive likelihood). This module gives the serving
//! layer, the `matrix` harness and the benches one construction path:
//!
//! * a [`StreamScenario`] says how a stream's primary queue is armed;
//!   its recovery queue is always a plain one,
//! * [`open_stream`] constructs a type-erased [`AppStream`] for an app
//!   name at an input size, and
//! * [`STREAM_APPS`] is the canonical list gates iterate over.
//!
//! Fault containment policy lives in `hetero_rt::stream`; this module
//! only wires application stages to it.

use std::sync::Arc;

use altis_data::InputSize;
use hetero_rt::prelude::*;
use hetero_rt::stream::StreamStage;

use crate::fdtd2d::streaming::FdtdStream;
use crate::kmeans::streaming::KmeansStream;
use crate::particlefilter::streaming::PfStream;
use crate::particlefilter::PfVariant;
use crate::srad::streaming::SradStream;

/// Suite apps with a streaming conversion, by registry name.
pub const STREAM_APPS: [&str; 4] = ["SRAD", "FDTD2D", "KMeans", "PF Naive"];

/// Whether `app` (registry name) can run as a window stream.
pub fn supports_streaming(app: &str) -> bool {
    STREAM_APPS.contains(&app)
}

/// Fault scenario applied to the hardened primary queue of a stream.
#[derive(Clone, Default)]
pub struct StreamScenario {
    /// Fault plan injected on the primary queue; `None` streams clean.
    pub fault: Option<Arc<FaultPlan>>,
    /// Arm integrity checking so silent corruption surfaces as typed
    /// `DataCorruption` errors the runner can roll back from.
    pub sdc: bool,
    /// Cooperative cancellation propagated into kernels and pipes.
    pub cancel: Option<CancelToken>,
    /// Ledger receiving per-launch resilience events (serve attaches the
    /// tenant's ledger here so window verdicts land on the existing one).
    pub ledger: Option<Arc<ResilienceLedger>>,
}

impl StreamScenario {
    /// A silent-data-corruption scenario (integrity armed for detection).
    pub fn sdc(seed: u64, rate: f64) -> Self {
        StreamScenario {
            fault: Some(Arc::new(FaultPlan::sdc(seed, rate))),
            sdc: true,
            ..Self::default()
        }
    }
}

/// The two queues of a stream under `scenario`: the primary every
/// window runs on, armed with the scenario's plan and integrity, and the
/// plain queue the stream records on and recovers through. The primary
/// makes single attempts: fault absorption is the *runner's* job (typed
/// `Retried` verdicts), so queue-level retry must not mask injected
/// faults. Under an SDC scenario the primary seals each stage buffer at
/// the first launch that binds it.
fn queues(scenario: &StreamScenario) -> (Queue, Queue) {
    let h = Hardening { fault: scenario.fault.clone(), integrity: scenario.sdc, ..Hardening::NONE };
    let primary = Queue::hardened(Device::cpu(), h)
        .with_cancel_token(scenario.cancel.clone())
        .with_resilience_ledger(scenario.ledger.clone());
    (primary, Queue::new(Device::cpu()).with_cancel_token(scenario.cancel.clone()))
}

/// Drive `runner` through `windows` windows. Returns the final state and
/// the stream counters.
pub fn drive<S: StreamStage>(
    mut runner: StreamRunner<S>,
    windows: u64,
) -> hetero_rt::Result<(S::State, StreamStats)> {
    let stats = runner.run(windows, |_| {})?;
    Ok((runner.into_state(), stats))
}

/// Object-safe facade over [`StreamRunner`] so callers can drive any
/// app's stream without knowing its state type.
pub trait AppStream {
    /// Execute the next window under fault containment.
    fn next_window(&mut self) -> hetero_rt::Result<WindowReport>;
    /// Shed the next window (backpressure): clean-path state advance,
    /// no hardened execution, typed `Shed` verdict.
    fn shed_window(&mut self) -> hetero_rt::Result<WindowReport>;
    /// Index of the next window to execute.
    fn position(&self) -> u64;
    /// Aggregate counters so far.
    fn stats(&self) -> StreamStats;
    /// Digest of the carried stream state.
    fn digest(&self) -> u64;
}

impl<S: StreamStage> AppStream for StreamRunner<S> {
    fn next_window(&mut self) -> hetero_rt::Result<WindowReport> {
        StreamRunner::next_window(self)
    }

    fn shed_window(&mut self) -> hetero_rt::Result<WindowReport> {
        StreamRunner::shed_window(self)
    }

    fn position(&self) -> u64 {
        StreamRunner::position(self)
    }

    fn stats(&self) -> StreamStats {
        StreamRunner::stats(self).clone()
    }

    fn digest(&self) -> u64 {
        StreamRunner::digest(self)
    }
}

/// Open a window stream for `app` at `size` under `scenario`.
///
/// Returns `Ok(None)` when the app has no streaming conversion (check
/// [`supports_streaming`] to reject earlier with a better message), and
/// `Err` when recording the app's graph fails.
pub fn open_stream(
    app: &str,
    size: InputSize,
    cfg: StreamConfig,
    scenario: &StreamScenario,
) -> hetero_rt::Result<Option<Box<dyn AppStream>>> {
    let (primary, clean) = queues(scenario);
    let stream: Box<dyn AppStream> = match app {
        "SRAD" => {
            let p = altis_data::srad(size);
            let stage = SradStream::new(&p, &clean)?;
            Box::new(StreamRunner::new(primary, clean, stage, SradStream::initial_state(&p), cfg))
        }
        "FDTD2D" => {
            let p = altis_data::fdtd2d(size);
            let stage = FdtdStream::new(&p, &clean)?;
            Box::new(StreamRunner::new(primary, clean, stage, FdtdStream::initial_state(&p), cfg))
        }
        "KMeans" => {
            let p = altis_data::kmeans(size);
            let stage = KmeansStream::new(&p, &clean)?;
            let initial = KmeansStream::initial_state(&p);
            Box::new(StreamRunner::new(primary, clean, stage, initial, cfg))
        }
        "PF Naive" => {
            let p = altis_data::particlefilter(size);
            let stage = PfStream::new(&p, PfVariant::Naive, &clean)?;
            Box::new(StreamRunner::new(primary, clean, stage, PfStream::initial_state(&p), cfg))
        }
        _ => return Ok(None),
    };
    Ok(Some(stream))
}

/// How many windows reproduce the batch (golden) run of `app` at
/// `size`: the iteration/step/frame count the registry digests were
/// taken at. `None` for apps without a streaming conversion.
pub fn golden_horizon(app: &str, size: InputSize) -> Option<u64> {
    match app {
        "SRAD" => Some(altis_data::srad(size).iterations as u64),
        "FDTD2D" => Some(altis_data::fdtd2d(size).steps as u64),
        // One window per (pass, batch) pair.
        "KMeans" => Some(
            altis_data::kmeans(size).iterations as u64 * crate::kmeans::streaming::BATCHES_PER_PASS,
        ),
        "PF Naive" => Some(altis_data::particlefilter(size).frames as u64),
        _ => None,
    }
}

/// Run `app`'s stream under `scenario` out to its golden horizon and
/// digest the final state **in the golden registry's format**, so
/// streamed output pins directly against `tests/golden_checksums.tsv`.
///
/// Returns `Ok(None)` for apps without a streaming conversion and for
/// "PF Naive": the particle-filter kernels round differently from the
/// golden reference (`(x + 2.0) + n` vs `x + (2.0 + n)`), so its
/// stream tracks the golden estimates within tolerance instead of
/// bit-pinning (see `particlefilter::streaming` tests).
pub fn streamed_registry_digest(
    app: &str,
    size: InputSize,
    cfg: StreamConfig,
    scenario: &StreamScenario,
) -> hetero_rt::Result<Option<u64>> {
    use crate::suite::Output;
    let Some(windows) = golden_horizon(app, size) else { return Ok(None) };
    let (primary, clean) = queues(scenario);
    let out = match app {
        "SRAD" => {
            let p = altis_data::srad(size);
            let stage = SradStream::new(&p, &clean)?;
            let initial = SradStream::initial_state(&p);
            Output::F32(drive(StreamRunner::new(primary, clean, stage, initial, cfg), windows)?.0)
        }
        "FDTD2D" => {
            let p = altis_data::fdtd2d(size);
            let stage = FdtdStream::new(&p, &clean)?;
            let initial = FdtdStream::initial_state(&p);
            Output::Fields(drive(StreamRunner::new(primary, clean, stage, initial, cfg), windows)?.0)
        }
        "KMeans" => {
            let p = altis_data::kmeans(size);
            let stage = KmeansStream::new(&p, &clean)?;
            let initial = KmeansStream::initial_state(&p);
            let (st, _) = drive(StreamRunner::new(primary, clean, stage, initial, cfg), windows)?;
            let (centers, membership) = (st.centers, st.membership);
            Output::Kmeans(crate::kmeans::KmeansOutput { centers, membership })
        }
        _ => return Ok(None),
    };
    Ok(Some(out.digest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::streaming::KmeansStreamState;
    use crate::particlefilter::streaming::PfStreamState;
    use crate::suite::Output;
    use altis_data::{Fdtd2dParams, KmeansParams, PfParams, SradParams};

    type Digest = Box<dyn Fn(&[Vec<u64>]) -> u64>;

    /// One stage's state as named fields in digest order, each element
    /// widened to a `u64` of the given bit width, and the stage's digest
    /// of the state a list of such fields describes.
    struct Row {
        app: &'static str,
        fields: Vec<(&'static str, u32, Vec<u64>)>,
        /// The leading fields whose length may change (the rest are
        /// scalars).
        vectors: usize,
        digest: Digest,
        /// The fingerprint of the same state as a suite [`Output`], for
        /// the stages whose state is one.
        output: Option<u64>,
    }

    fn bits32<T: Copy>(v: &[T], bits: impl Fn(T) -> u32) -> Vec<u64> {
        v.iter().map(|&x| u64::from(bits(x))).collect()
    }

    fn f32s(w: &[u64]) -> Vec<f32> {
        w.iter().map(|&b| f32::from_bits(b as u32)).collect()
    }

    fn u32s(w: &[u64]) -> Vec<u32> {
        w.iter().map(|&b| b as u32).collect()
    }

    /// The four stages at tiny sizes, two windows into their streams on
    /// a plain queue, so every carry holds data.
    fn rows() -> Vec<Row> {
        let q = Queue::new(Device::cpu());
        let p = SradParams { dim: 16, iterations: 2, lambda: 0.5 };
        let (mut srad, mut img) = (SradStream::new(&p, &q).unwrap(), SradStream::initial_state(&p));
        let p = Fdtd2dParams { dim: 16, steps: 2 };
        let (mut fdtd, mut f) = (FdtdStream::new(&p, &q).unwrap(), FdtdStream::initial_state(&p));
        let p = KmeansParams { n_points: 256, n_features: 4, k: 3, iterations: 2 };
        let (mut km, mut k) = (KmeansStream::new(&p, &q).unwrap(), KmeansStream::initial_state(&p));
        let p = PfParams { n_particles: 256, frames: 2, dim: 128 };
        let mut pf = PfStream::new(&p, PfVariant::Naive, &q).unwrap();
        let mut s = PfStream::initial_state(&p);
        for w in 0..2 {
            srad.advance(&q, &mut img, w).unwrap();
            fdtd.advance(&q, &mut f, w).unwrap();
            // Window 1 is mid-pass: the sums and counts are live carries.
            km.advance(&q, &mut k, w).unwrap();
            pf.advance(&q, &mut s, w).unwrap();
        }
        let bits = f32::to_bits;
        vec![
            Row {
                app: "SRAD",
                fields: vec![("img", 32, bits32(&img, bits))],
                vectors: 1,
                digest: Box::new(move |v| srad.digest(&f32s(&v[0]))),
                output: Some(Output::F32(img).fingerprint()),
            },
            Row {
                app: "FDTD2D",
                fields: vec![
                    ("ez", 32, bits32(&f.ez, bits)),
                    ("hx", 32, bits32(&f.hx, bits)),
                    ("hy", 32, bits32(&f.hy, bits)),
                ],
                vectors: 3,
                digest: Box::new(move |v| {
                    let (ez, hx, hy) = (f32s(&v[0]), f32s(&v[1]), f32s(&v[2]));
                    fdtd.digest(&crate::fdtd2d::Fields { ez, hx, hy })
                }),
                output: Some(Output::Fields(f).fingerprint()),
            },
            Row {
                app: "KMeans",
                fields: vec![
                    ("centers", 32, bits32(&k.centers, bits)),
                    ("membership", 32, bits32(&k.membership, |m| m)),
                    ("acc", 32, bits32(&k.acc, bits)),
                    ("counts", 32, bits32(&k.counts, |c| c)),
                ],
                vectors: 4,
                digest: Box::new(move |v| {
                    let (centers, membership) = (f32s(&v[0]), u32s(&v[1]));
                    let (acc, counts) = (f32s(&v[2]), u32s(&v[3]));
                    km.digest(&KmeansStreamState { centers, membership, acc, counts })
                }),
                output: None,
            },
            Row {
                app: "PF Naive",
                fields: vec![
                    ("xs", 32, bits32(&s.xs, bits)),
                    ("ys", 32, bits32(&s.ys, bits)),
                    ("seeds", 64, s.seeds.clone()),
                    ("xe", 32, bits32(&[s.xe], bits)),
                    ("ye", 32, bits32(&[s.ye], bits)),
                ],
                vectors: 3,
                digest: Box::new(move |v| {
                    let (xs, ys, seeds) = (f32s(&v[0]), f32s(&v[1]), v[2].clone());
                    let (xe, ye) = (f32s(&v[3])[0], f32s(&v[4])[0]);
                    pf.digest(&PfStreamState { xs, ys, seeds, xe, ye })
                }),
                output: None,
            },
        ]
    }

    /// Every field of every stage is in its digest, bit by bit, and its
    /// length is too: no element can move across a field boundary
    /// unseen. FDTD2D and SRAD digest with their outputs' fingerprint,
    /// so that format is written once.
    #[test]
    fn each_stage_digest_sees_every_bit_of_every_field_and_every_boundary() {
        for row in rows() {
            let base: Vec<Vec<u64>> = row.fields.iter().map(|(_, _, v)| v.clone()).collect();
            let d0 = (row.digest)(&base);
            let app = row.app;
            if let Some(fp) = row.output {
                assert_eq!(d0, fp, "{app}: stage digest is not the output fingerprint");
            }
            for (f, (name, bits, v)) in row.fields.iter().enumerate() {
                assert!(!v.is_empty(), "{app}: {name} is empty");
                // Every element at one bit, and every bit of the first and
                // the last element.
                let last = v.len() - 1;
                let one = (0..v.len()).map(|i| (i, i as u32 % bits));
                let all = (0..*bits).flat_map(|b| [(0, b), (last, b)]);
                for (i, b) in one.chain(all) {
                    let mut flipped = base.clone();
                    flipped[f][i] ^= 1 << b;
                    assert_ne!((row.digest)(&flipped), d0, "{app}: {name}[{i}] bit {b}");
                }
            }
            for f in 1..row.vectors {
                let mut moved = base.clone();
                let x = moved[f - 1].pop().unwrap();
                moved[f].insert(0, x);
                let (from, to) = (row.fields[f - 1].0, row.fields[f].0);
                assert_ne!((row.digest)(&moved), d0, "{app}: last of {from} moved to {to}");
            }
        }
    }

    /// Fingerprints and stage digests are compared only within a
    /// process, so nothing else holds their format still: these literals
    /// do, for four output kinds on fixed words, KMeans' output at size 1
    /// and each stage's digest of its fields filled with fixed words.
    #[test]
    fn fingerprints_and_stage_digests_are_pinned() {
        use crate::common::{AppVersion, ExecMode};
        let word = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let f32s = |n: usize| (0..n).map(|i| f32::from_bits(word(i) as u32)).collect::<Vec<_>>();
        let q = Queue::new(Device::cpu());
        let (v, mode) = (AppVersion::SyclOptimized, ExecMode::Graph);
        let kmeans = crate::suite::run_output("KMeans", &q, InputSize::S1, v, mode);
        let fields = crate::fdtd2d::Fields { ez: f32s(37), hx: f32s(36), hy: f32s(35) };
        let outputs = [
            ("F32", Output::F32(f32s(37))),
            ("F64", Output::F64((0..37).map(|i| f64::from_bits(word(i))).collect())),
            ("U32", Output::U32((0..37).map(|i| word(i) as u32).collect())),
            ("Fields", Output::Fields(fields)),
            ("KMeans S1", kmeans),
        ];
        let mut got: Vec<_> = outputs.iter().map(|(k, o)| (*k, o.fingerprint())).collect();
        for row in rows() {
            let fill = |(_, bits, v): &(_, u32, Vec<u64>)| {
                (0..v.len()).map(|i| word(i) >> (64 - bits)).collect::<Vec<_>>()
            };
            got.push((row.app, (row.digest)(&row.fields.iter().map(fill).collect::<Vec<_>>())));
        }
        let pinned = [
            ("F32", 0xA64C_14DF_7DD9_4D7D),
            ("F64", 0xA963_D848_921F_BAB9),
            ("U32", 0x2EAB_A938_7899_F534),
            ("Fields", 0x1B1A_0296_E7D0_E9F9),
            ("KMeans S1", 0x6CC0_C2E6_79C8_30CF),
            ("SRAD", 0x6526_F5FC_011F_A7A0),
            ("FDTD2D", 0x5B37_1045_0D04_2DED),
            ("KMeans", 0x5DF1_F699_0BA0_C3F0),
            ("PF Naive", 0x7817_5E89_18C2_FCFB),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn stream_apps_are_exactly_the_graph_flavor_subset_that_streams() {
        for app in STREAM_APPS {
            assert!(supports_streaming(app), "{app} must stream");
        }
        assert!(!supports_streaming("GUPS"));
        assert!(!supports_streaming("CFD FP32"));
    }

    #[test]
    fn open_stream_returns_none_for_non_streaming_apps() {
        let got = open_stream(
            "GUPS",
            InputSize::S1,
            StreamConfig::default(),
            &StreamScenario::default(),
        )
        .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn every_stream_app_opens_and_delivers_clean_windows() {
        for app in STREAM_APPS {
            let mut s = open_stream(
                app,
                InputSize::S1,
                StreamConfig::default(),
                &StreamScenario::default(),
            )
            .unwrap()
            .unwrap_or_else(|| panic!("{app} must open"));
            for _ in 0..3 {
                let r = s.next_window().unwrap();
                assert!(r.verdict.is_delivered(), "{app}: {:?}", r.verdict);
            }
            assert_eq!(s.position(), 3);
            assert_eq!(s.stats().delivered, 3);
        }
    }

    #[test]
    fn faulty_scenario_contains_faults_without_killing_the_stream() {
        let mut s = open_stream(
            "SRAD",
            InputSize::S1,
            StreamConfig { checkpoint_every: 4, max_retries: 2 },
            &StreamScenario {
                fault: Some(Arc::new(FaultPlan::new(7, 0.3))),
                ..StreamScenario::default()
            },
        )
        .unwrap()
        .unwrap();
        let mut clean = open_stream(
            "SRAD",
            InputSize::S1,
            StreamConfig::default(),
            &StreamScenario::default(),
        )
        .unwrap()
        .unwrap();
        for _ in 0..12 {
            let r = s.next_window().unwrap();
            let c = clean.next_window().unwrap();
            // Whatever the verdict, surviving windows carry bit-identical
            // state to the clean stream (invariant 2).
            assert_eq!(r.digest, c.digest, "window {} diverged", r.index);
        }
        assert_eq!(s.stats().dropped, 0);
    }
}
