//! `stream_clean_s1` and `stream_faulted_s1`: SRAD, FDTD2D, KMeans and
//! PF Naive as window streams through `open_stream` / `next_window`.
//!
//! The clean workload is the path every window pays: advance, digest,
//! a sealed checkpoint every eighth window. The faulted workload runs
//! the same four streams under transient launch failures at 0.05 a
//! launch (absorbed by whole-window retry) and a fifth, SRAD with one
//! work-group that panics every time, so every window there is
//! quarantined, rolled back and replayed on the clean path. Paired,
//! they show a recovery gain that costs the clean seal path.
//!
//! An operation is a block of 32 windows of one stream, opened fresh
//! (untimed; `stream.open_ms`) so every block does the same work and
//! every window's state digest can be checked against the trail a
//! fault-free stream left at set-up: whatever the verdict, state after
//! a window must be bit-identical to the uninterrupted run's.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use altis_core::streaming::{open_stream, AppStream, StreamScenario, STREAM_APPS};
use altis_data::rng::splitmix64;
use altis_data::InputSize;
use hetero_rt::{FaultKind, FaultPlan, StreamConfig, StreamStats, WindowVerdict};

use super::{ms_since, put_tail, series_median, Op, Rounds};
use crate::report::Unit;
use crate::spec::STREAM_SLUGS;
use crate::trace::Tracer;

const SIZE: InputSize = InputSize::S1;
const BLOCK: usize = 32;
const TRANSIENT_RATE: f64 = 0.05;
/// SRAD's first kernel; its work-group 0 is the stuck group.
const STUCK_KERNEL: &str = "srad_1";

fn open(app: &str, scenario: &StreamScenario) -> Result<Box<dyn AppStream>, String> {
    open_stream(app, SIZE, StreamConfig::default(), scenario)
        .map_err(|e| format!("{app}: stream failed to open: {e}"))?
        .ok_or_else(|| format!("{app}: no streaming conversion"))
}

/// State digests after each of the first [`BLOCK`] windows of a
/// fault-free stream of `app`.
fn clean_trail(app: &str) -> Result<Vec<u64>, String> {
    let mut s = open(app, &StreamScenario::default())?;
    (0..BLOCK)
        .map(|w| {
            let r = s
                .next_window()
                .map_err(|e| format!("{app}: clean stream died at window {w}: {e}"))?;
            if r.verdict.is_delivered() {
                Ok(r.digest)
            } else {
                Err(format!("{app}: fault-free window {w} was {:?}", r.verdict))
            }
        })
        .collect()
}

/// Which faults a stream runs under.
#[derive(Clone, Copy, PartialEq)]
enum Faults {
    None,
    Transient,
    StuckGroup,
}

/// Counters summed over every block of a worker.
#[derive(Default)]
struct Totals {
    stats: StreamStats,
    injected: u64,
}

impl Totals {
    fn add(&mut self, s: &StreamStats, injected: u64) {
        let t = &mut self.stats;
        t.windows += s.windows;
        t.delivered += s.delivered;
        t.retried += s.retried;
        t.quarantined += s.quarantined;
        t.dropped += s.dropped;
        t.checkpoints += s.checkpoints;
        t.rollbacks += s.rollbacks;
        t.replayed += s.replayed;
        t.rollback_nanos += s.rollback_nanos;
        self.injected += injected;
    }
}

/// Series of the per-window latencies of the blocks in `block_series`.
fn lat_series(block_series: &str) -> String {
    block_series.replacen("block.", "lat.", 1)
}

/// One block: open a fresh stream (untimed), then time [`BLOCK`]
/// windows, checking each window's verdict and digest.
fn block_op(
    series: String,
    app: &'static str,
    faults: Faults,
    seed: u64,
    trail: Rc<Vec<u64>>,
    totals: Rc<RefCell<Totals>>,
) -> Op {
    let mut blocks = 0u64;
    let name = series.clone();
    let lat_series = lat_series(&series);
    Op {
        series,
        ops: BLOCK as f64,
        run: Box::new(move |t: &mut Tracer, rep| {
            blocks += 1;
            let plan = match faults {
                Faults::None => None,
                Faults::Transient => {
                    // A new plan per block, drawn from the run's seed.
                    let mut s = seed ^ blocks.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let plan = FaultPlan::new(splitmix64(&mut s), TRANSIENT_RATE);
                    Some(Arc::new(plan.with_kinds(&[FaultKind::LaunchTransient])))
                }
                Faults::StuckGroup => Some(Arc::new(FaultPlan::panic_at(STUCK_KERNEL, 0))),
            };
            let scenario = StreamScenario {
                fault: plan.clone(),
                ..StreamScenario::default()
            };
            let t0 = Instant::now();
            let opened = t.span("open", |_| open(app, &scenario));
            rep.push("open", ms_since(t0));
            rep.attempted += BLOCK as u64;
            let mut stream = match opened {
                Ok(s) => s,
                Err(why) => {
                    rep.failed += BLOCK as u64 - 1;
                    rep.fail(why);
                    return 0.0;
                }
            };
            let b0 = Instant::now();
            t.span("block", |t| {
                for (w, want) in trail.iter().enumerate() {
                    let w0 = Instant::now();
                    let report = t.span("window", |_| stream.next_window());
                    rep.push(&lat_series, ms_since(w0));
                    match report {
                        Ok(r) => {
                            let verdict_ok = match faults {
                                Faults::None => r.verdict.is_delivered(),
                                _ => !matches!(
                                    r.verdict,
                                    WindowVerdict::Dropped { .. } | WindowVerdict::Shed
                                ),
                            };
                            if !verdict_ok {
                                rep.fail(format!("{name}: window {w} was {:?}", r.verdict));
                            } else if r.digest != *want {
                                rep.fail(format!(
                                    "{name}: window {w} ({}) left the clean trail",
                                    r.verdict.label()
                                ));
                            }
                        }
                        Err(e) => {
                            rep.failed += (BLOCK - w) as u64 - 1;
                            rep.fail(format!("{name}: stream died at window {w}: {e}"));
                            return;
                        }
                    }
                }
            });
            let ms = ms_since(b0);
            totals
                .borrow_mut()
                .add(&stream.stats(), plan.map_or(0, |p| p.injected()));
            ms
        }),
    }
}

pub fn build(seed: u64, faulted: bool) -> Result<Rounds, String> {
    let totals = Rc::new(RefCell::new(Totals::default()));
    let mut ops = Vec::new();
    let mut srad_trail = None;
    for (app, slug) in STREAM_APPS.into_iter().zip(STREAM_SLUGS) {
        let trail = Rc::new(clean_trail(app)?);
        if app == "SRAD" {
            srad_trail = Some(trail.clone());
        }
        let faults = if faulted {
            Faults::Transient
        } else {
            Faults::None
        };
        ops.push(block_op(
            format!("block.{slug}"),
            app,
            faults,
            seed,
            trail,
            totals.clone(),
        ));
    }
    if faulted {
        let trail = srad_trail.ok_or("SRAD is not a stream app")?;
        ops.push(block_op(
            "block.srad_stuck".into(),
            "SRAD",
            Faults::StuckGroup,
            seed,
            trail,
            totals.clone(),
        ));
    }
    // A caller waits for one window: latency is per stream, per window.
    let lat = ops
        .iter()
        .map(|o| Unit::new(&lat_series(&o.series), 1.0, BLOCK as f64))
        .collect();
    Ok(Rounds {
        ops,
        lat,
        cover_span: "block",
        layers: Box::new(move |_, rep| {
            for slug in STREAM_SLUGS {
                let ms = series_median(rep, &format!("block.{slug}"));
                let rate = if ms > 0.0 {
                    BLOCK as f64 / ms * 1e3
                } else {
                    0.0
                };
                rep.layer
                    .insert(format!("stream.{slug}.windows_per_s"), rate);
            }
            rep.layer
                .insert("stream.open_ms".into(), series_median(rep, "open"));
            let lat: Vec<f64> = rep
                .series
                .iter()
                .filter(|(k, _)| k.starts_with("lat."))
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            put_tail(
                rep,
                "stream.window_tail_ms",
                Some("stream.window_tail_pct"),
                &lat,
            );
            let t = totals.borrow();
            for (key, v) in [
                ("checkpoints", t.stats.checkpoints),
                ("rollbacks", t.stats.rollbacks),
                ("replayed", t.stats.replayed),
                ("retried", t.stats.retried),
                ("quarantined", t.stats.quarantined),
                ("dropped", t.stats.dropped),
                ("injected", t.injected),
            ] {
                rep.layer.insert(format!("stream.{key}"), v as f64);
            }
            rep.layer.insert(
                "stream.rollback_ms_total".into(),
                t.stats.rollback_nanos as f64 / 1e6,
            );
        }),
    })
}
