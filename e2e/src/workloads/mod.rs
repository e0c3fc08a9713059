//! The worker side: one process measures one workload. Six of the seven
//! workloads are a fixed list of timed operations repeated in rounds
//! ([`Op`], [`run_rounds`]); `serve_open` drives a scheduler in phases.

use std::time::{Duration, Instant};

use crate::report::{ops_per_s, Unit, WorkerReport};
use crate::stats::{iqr_frac, median, tail};
use crate::trace::Tracer;
use crate::{host, spec};

mod batch;
mod bw;
mod hardened;
mod launch;
mod serve;
mod stream;

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One timed operation of a round. `run` does the work, validates it,
/// accounts attempts and failures in the report, and returns the
/// milliseconds that count as its sample (an operation may leave
/// untimed preparation out).
pub struct Op {
    /// Series the samples go to; also the name of the operation's span.
    pub series: String,
    /// Validated operations one sample covers.
    pub ops: f64,
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn FnMut(&mut Tracer, &mut WorkerReport) -> f64>,
}

impl Op {
    /// An operation that is one call: timed whole, one attempt, failed
    /// when `f` names what did not validate.
    pub fn call(
        series: &str,
        mut f: impl FnMut(&mut Tracer) -> Result<(), String> + 'static,
    ) -> Op {
        let name = series.to_string();
        Op {
            series: series.to_string(),
            ops: 1.0,
            run: Box::new(move |t, rep| {
                let t0 = Instant::now();
                let verdict = f(t);
                let ms = ms_since(t0);
                rep.attempted += 1;
                if let Err(why) = verdict {
                    rep.fail(format!("{name}: {why}"));
                }
                ms
            }),
        }
    }

    /// An operation whose validation is not part of its time: `f` does
    /// the work and returns the check of its output, which then runs
    /// untimed in a `compare` span.
    pub fn checked_after(series: &str, mut f: impl FnMut(&mut Tracer) -> Check + 'static) -> Op {
        let name = series.to_string();
        Op {
            series: series.to_string(),
            ops: 1.0,
            run: Box::new(move |t, rep| {
                let t0 = Instant::now();
                let check = t.span("run", |t| f(t));
                let ms = ms_since(t0);
                rep.attempted += 1;
                if !t.span("compare", |_| check()) {
                    rep.fail(format!("{name}: output diverged from the held golden"));
                }
                ms
            }),
        }
    }
}

/// A deferred comparison of one output against its held golden.
pub type Check = Box<dyn FnOnce() -> bool>;

/// Latency of a workload whose caller waits for a whole validated round,
/// as `altis run all` does: the one kind is the `round` series.
pub fn round_latency() -> Vec<Unit> {
    vec![Unit::new("round", 1.0, 1.0)]
}

/// Repeat `ops` in order until `deadline`, checked before every
/// operation so a run measures for the time it was given whatever a
/// round costs. Complete rounds also record their wall time as `round`.
pub fn run_rounds(ops: &mut [Op], deadline: Instant, t: &mut Tracer, rep: &mut WorkerReport) {
    loop {
        let r0 = Instant::now();
        let complete = t.span("round", |t| {
            for op in ops.iter_mut() {
                if Instant::now() >= deadline {
                    return false;
                }
                let ms = t.span(&op.series, |t| (op.run)(t, rep));
                rep.push(&op.series, ms);
            }
            true
        });
        if !complete {
            return;
        }
        rep.push("round", ms_since(r0));
    }
}

/// What a worker is asked to do.
pub struct Job {
    pub workload: String,
    pub seed: u64,
    /// Length of the measurement loop; `None` for a worker that only
    /// sets up, so that `setup_s` rests on more set-ups than a run has
    /// measuring workers.
    pub budget: Option<Duration>,
    /// Traced workers only: where the Chrome trace goes.
    pub trace_path: Option<std::path::PathBuf>,
    /// When the process started.
    pub started: Instant,
}

/// A workload as the worker drives it.
pub trait Workload {
    /// Measure until `deadline`.
    fn measure(&mut self, deadline: Instant, t: &mut Tracer, rep: &mut WorkerReport);
    /// Kinds of sample `ops_per_s` is computed over, then kinds of
    /// operation `latency_p50_ms` is computed over.
    fn units(&self) -> (Vec<Unit>, Vec<Unit>);
    /// Traced worker only: run the layer probes and fill `rep.layer`.
    fn layers(&mut self, t: &mut Tracer, rep: &mut WorkerReport);
    /// Span whose children are the layer split (`span_cover_frac`).
    fn cover_span(&self) -> &'static str;
}

/// A workload that is a list of [`Op`]s and a layer function.
pub struct Rounds {
    pub ops: Vec<Op>,
    /// Kinds of operation latency is computed over: [`round_latency`]
    /// where the caller waits for a whole round.
    pub lat: Vec<Unit>,
    #[allow(clippy::type_complexity)]
    pub layers: Box<dyn FnMut(&mut Tracer, &mut WorkerReport)>,
    pub cover_span: &'static str,
}

impl Workload for Rounds {
    fn measure(&mut self, deadline: Instant, t: &mut Tracer, rep: &mut WorkerReport) {
        run_rounds(&mut self.ops, deadline, t, rep);
    }

    fn units(&self) -> (Vec<Unit>, Vec<Unit>) {
        let rate = self
            .ops
            .iter()
            .map(|o| Unit::new(&o.series, o.ops, 1.0))
            .collect();
        (rate, self.lat.clone())
    }

    fn layers(&mut self, t: &mut Tracer, rep: &mut WorkerReport) {
        (self.layers)(t, rep);
    }

    fn cover_span(&self) -> &'static str {
        self.cover_span
    }
}

fn build(job: &Job) -> Result<Box<dyn Workload>, String> {
    Ok(match job.workload.as_str() {
        "batch_s2" => Box::new(batch::build()),
        "bw_large" => Box::new(bw::build()),
        "launch_bound_s1" => Box::new(launch::build()),
        "hardened_s1" => Box::new(hardened::build()),
        "serve_open" => Box::new(serve::build(job.seed)),
        "stream_clean_s1" => Box::new(stream::build(job.seed, false)?),
        "stream_faulted_s1" => Box::new(stream::build(job.seed, true)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Run the measurement loop for `budget`, adding its wall and CPU time
/// to the report.
fn timed(w: &mut dyn Workload, budget: Duration, t: &mut Tracer, rep: &mut WorkerReport) {
    let (cpu0, t0) = (host::cpu_seconds(), Instant::now());
    w.measure(t0 + budget, t, rep);
    rep.timed_s += t0.elapsed().as_secs_f64();
    rep.cpu_s += host::cpu_seconds() - cpu0;
}

/// Measure one workload in this process.
///
/// Untraced, the whole budget goes to one loop with the tracer off. A
/// traced worker spends a third of the budget the same way, the rest
/// with spans on, and reports the throughput lost between the two as
/// `trace_overhead_frac`; then it runs the workload's layer probes.
pub fn run(job: &Job) -> Result<WorkerReport, String> {
    let mut w = build(job)?;
    let mut tracer = Tracer::new(false);
    let (units, lat_units) = w.units();
    let blank = WorkerReport {
        workload: job.workload.clone(),
        units,
        lat_units,
        ..WorkerReport::default()
    };
    let mut rep = blank.clone();
    rep.setup_s = job.started.elapsed().as_secs_f64();
    let Some(budget) = job.budget else {
        return Ok(rep);
    };
    if let Some(path) = &job.trace_path {
        let mut plain = blank;
        timed(w.as_mut(), budget / 3, &mut tracer, &mut plain);
        tracer.set_enabled(true);
        timed(w.as_mut(), budget - budget / 3, &mut tracer, &mut rep);
        let (plain_rate, traced_rate) =
            (ops_per_s(&[plain]), ops_per_s(std::slice::from_ref(&rep)));
        w.layers(&mut tracer, &mut rep);
        let layer = &mut rep.layer;
        layer.insert("ops_per_s_traced".into(), traced_rate);
        layer.insert(
            "trace_overhead_frac".into(),
            if traced_rate > 0.0 {
                plain_rate / traced_rate - 1.0
            } else {
                0.0
            },
        );
        layer.insert("span_cover_frac".into(), tracer.cover_frac(w.cover_span()));
        let rounds = rep.series.get("round").map_or(&[][..], Vec::as_slice);
        layer.insert("rounds".into(), rounds.len() as f64);
        layer.insert("round_iqr_frac".into(), iqr_frac(rounds));
        let samples: usize = rep
            .lat_units
            .iter()
            .map(|u| rep.series.get(&u.series).map_or(0, Vec::len))
            .sum();
        layer.insert("samples".into(), samples as f64);
        layer.insert("timed_s".into(), rep.timed_s);
        if let Some(unknown) = rep.layer.keys().find(|k| spec::layer_unit(k).is_none()) {
            return Err(format!("layer metric '{unknown}' is not in the vocabulary"));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, tracer.to_chrome_json(&job.workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        timed(w.as_mut(), budget, &mut tracer, &mut rep);
    }
    rep.peak_rss_mb = host::peak_rss_mib();
    Ok(rep)
}

/// Median of a named series of `rep`; 0 when it has no samples.
pub fn series_median(rep: &WorkerReport, series: &str) -> f64 {
    rep.series.get(series).map_or(0.0, |v| median(v))
}

/// Tail of `samples` by the tail rule, stored as `<stem>_ms` and, when
/// `pct_key` is given, the percentile it is.
pub fn put_tail(rep: &mut WorkerReport, ms_key: &str, pct_key: Option<&str>, samples: &[f64]) {
    let (pct, value) = tail(samples);
    rep.layer.insert(ms_key.to_string(), value);
    if let Some(k) = pct_key {
        rep.layer.insert(k.to_string(), pct);
    }
}
