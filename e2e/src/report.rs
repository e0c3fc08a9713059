//! What a worker hands back, how several workers' samples become one
//! set of end-to-end metrics, and the JSON both are written in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hetero_serve::json::{escape, Json};

use crate::spec;
use crate::stats::median;

/// Build a JSON object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
}

/// Print `v` on one line. Numbers keep every digit Rust's shortest
/// round-trip formatting gives; a non-finite number (never a valid
/// measurement) is written as 0 so the line stays valid JSON.
pub fn to_line(v: &Json) -> String {
    let mut out = String::new();
    write_json(v, &mut out);
    out
}

fn write_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push('0'),
        Json::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Json::Arr(a) => {
            out.push('[');
            for (i, x) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json(x, out);
            }
            out.push(']');
        }
        Json::Obj(m) => {
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", escape(k));
                write_json(x, out);
            }
            out.push('}');
        }
    }
}

/// One kind of sample a workload's round is made of: a sample of
/// `series` (ms) covers `ops` validated operations, and a round holds
/// `per_round` such samples. Rates and latencies are computed from the
/// *median* of each kind, so one disturbed sample moves one kind's
/// median, not a whole round.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    pub series: String,
    pub ops: f64,
    pub per_round: f64,
}

impl Unit {
    pub fn new(series: &str, ops: f64, per_round: f64) -> Unit {
        Unit {
            series: series.to_string(),
            ops,
            per_round,
        }
    }

    fn to_json(&self) -> Json {
        obj([
            ("series", Json::Str(self.series.clone())),
            ("ops", Json::Num(self.ops)),
            ("per_round", Json::Num(self.per_round)),
        ])
    }

    fn from_json(u: &Json) -> Result<Unit, String> {
        let num = |k: &str| {
            u.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("unit without {k}"))
        };
        Ok(Unit {
            series: u
                .get("series")
                .and_then(Json::as_str)
                .ok_or("unit without series")?
                .to_string(),
            ops: num("ops")?,
            per_round: num("per_round")?,
        })
    }
}

/// What one worker process measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerReport {
    pub workload: String,
    /// Process start to first timed operation.
    pub setup_s: f64,
    /// Operations attempted and operations not validated in the
    /// measurement loop.
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU seconds over the measurement loop.
    pub cpu_s: f64,
    /// Wall seconds of the measurement loop.
    pub timed_s: f64,
    pub peak_rss_mb: f64,
    /// Kinds of sample throughput is computed over.
    pub units: Vec<Unit>,
    /// Kinds of operation latency is computed over.
    pub lat_units: Vec<Unit>,
    /// Named sample vectors in ms.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Per-layer metrics, filled by a traced worker.
    pub layer: BTreeMap<String, f64>,
    /// First validation failures, for the human reader.
    pub notes: Vec<String>,
}

impl WorkerReport {
    pub fn push(&mut self, series: &str, ms: f64) {
        self.series.entry(series.to_string()).or_default().push(ms);
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("setup_s", Json::Num(self.setup_s)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("timed_s", Json::Num(self.timed_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            (
                "units",
                Json::Arr(self.units.iter().map(Unit::to_json).collect()),
            ),
            (
                "lat_units",
                Json::Arr(self.lat_units.iter().map(Unit::to_json).collect()),
            ),
            (
                "series",
                Json::Obj(
                    self.series
                        .iter()
                        .map(|(k, v)| (k.clone(), nums(v)))
                        .collect(),
                ),
            ),
            (
                "layer",
                Json::Obj(
                    self.layer
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<WorkerReport, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("worker report: missing {k}"))
        };
        let arr = |v: Option<&Json>, k: &str| match v {
            Some(Json::Arr(a)) => Ok(a.clone()),
            _ => Err(format!("worker report: {k} is not an array")),
        };
        let map = |k: &str| match v.get(k) {
            Some(Json::Obj(m)) => Ok(m.clone()),
            _ => Err(format!("worker report: {k} is not an object")),
        };
        let units = |k: &str| {
            arr(v.get(k), k)?
                .iter()
                .map(Unit::from_json)
                .collect::<Result<Vec<_>, _>>()
        };
        let mut series = BTreeMap::new();
        for (k, s) in map("series")? {
            let vals: Option<Vec<f64>> = arr(Some(&s), &k)?.iter().map(Json::as_f64).collect();
            series.insert(k, vals.ok_or("non-numeric sample")?);
        }
        let mut layer = BTreeMap::new();
        for (k, x) in map("layer")? {
            layer.insert(k, x.as_f64().ok_or("non-numeric layer metric")?);
        }
        Ok(WorkerReport {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("worker report: missing workload")?
                .to_string(),
            setup_s: num("setup_s")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            cpu_s: num("cpu_s")?,
            timed_s: num("timed_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            units: units("units")?,
            lat_units: units("lat_units")?,
            series,
            layer,
            notes: arr(v.get("notes"), "notes")?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// One workload's result: what the last line of a run states.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in the order of the vocabulary.
    pub metrics: Vec<(String, &'static str, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// A worker crashed, hung, printed no report or measured nothing:
    /// every operation of the workload counts as failed.
    pub fn fail_all(&mut self) {
        self.attempted = self.attempted.max(1);
        self.failed = self.attempted;
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, u, v)| {
                (
                    n.clone(),
                    obj([("value", Json::Num(*v)), ("unit", Json::Str(u.to_string()))]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Median of one kind's samples pooled over `reports`; `None` without
/// samples.
fn pooled_median(reports: &[WorkerReport], series: &str) -> Option<f64> {
    let pooled: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.series.get(series).into_iter().flatten().copied())
        .collect();
    (!pooled.is_empty()).then(|| median(&pooled))
}

/// Operations per second: a round's operations over a round's time,
/// the latter made of each kind's median sample time.
pub fn ops_per_s(reports: &[WorkerReport]) -> f64 {
    let Some(first) = reports.first() else {
        return 0.0;
    };
    let (mut ops, mut ms) = (0.0, 0.0);
    for u in &first.units {
        let Some(m) = pooled_median(reports, &u.series) else {
            return 0.0;
        };
        ops += u.per_round * u.ops;
        ms += u.per_round * m;
    }
    if ms > 0.0 {
        ops / ms * 1e3
    } else {
        0.0
    }
}

/// Median latency of what a caller waits for: the interquartile mean
/// over the kinds of operation, each weighted by its share of a round, of
/// that kind's median latency. (The median of the pooled samples of a mix
/// sits in the gap between two kinds and jumps from one to the other with
/// the slightest change of queueing; the median kind alone repeats only
/// as well as that one kind's few samples do. The middle half of the
/// kinds moves as the kinds move and averages their sampling noise.)
pub fn latency_p50_ms(reports: &[WorkerReport]) -> f64 {
    let Some(first) = reports.first() else {
        return 0.0;
    };
    let mut kinds: Vec<(f64, f64)> = first
        .lat_units
        .iter()
        .filter_map(|u| pooled_median(reports, &u.series).map(|m| (m, u.per_round * u.ops)))
        .collect();
    kinds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = kinds.iter().map(|k| k.1).sum();
    let (lo, hi) = (0.25 * total, 0.75 * total);
    let (mut seen, mut sum, mut inside) = (0.0, 0.0, 0.0);
    for (ms, weight) in kinds {
        // The part of this kind's weight between the quartiles.
        let part = (seen + weight).min(hi) - seen.max(lo);
        if part > 0.0 {
            sum += part * ms;
            inside += part;
        }
        seen += weight;
    }
    if inside > 0.0 {
        sum / inside
    } else {
        0.0
    }
}

/// End-to-end metrics of one workload from its measuring workers'
/// reports and the set-up seconds of the workers that only set up.
pub fn end_to_end(reports: &[WorkerReport], extra_setups: &[f64]) -> Outcome {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let col = |f: fn(&WorkerReport) -> f64| reports.iter().map(f).collect::<Vec<f64>>();
    let cpu_s: f64 = reports.iter().map(|r| r.cpu_s).sum();
    let setups = [&col(|r| r.setup_s)[..], extra_setups].concat();
    let values = [
        median(&setups),
        ops_per_s(reports),
        if attempted > 0 {
            cpu_s * 1e3 / attempted as f64
        } else {
            0.0
        },
        latency_p50_ms(reports),
        median(&col(|r| r.peak_rss_mb)),
    ];
    Outcome {
        attempted,
        failed,
        metrics: spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), m.unit, v))
            .collect(),
        notes: reports
            .iter()
            .flat_map(|r| r.notes.iter().cloned())
            .collect(),
    }
}

/// Per-layer metrics of one workload from its traced worker: every name
/// of the vocabulary once, 0 for a layer this workload does no work in.
pub fn per_layer(report: Option<&WorkerReport>) -> Outcome {
    let metrics = spec::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let v = report
                .and_then(|r| r.layer.get(&name))
                .copied()
                .unwrap_or(0.0);
            (name, unit, v)
        })
        .collect();
    Outcome {
        attempted: report.map_or(0, |r| r.attempted),
        failed: report.map_or(0, |r| r.failed),
        metrics,
        notes: report.map_or(Vec::new(), |r| r.notes.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_serve::json;

    fn sample_report(scale: f64) -> WorkerReport {
        let mut r = WorkerReport {
            workload: "batch_s2".to_string(),
            setup_s: 0.5 * scale,
            attempted: 6,
            failed: 0,
            cpu_s: 0.12,
            timed_s: 0.06,
            peak_rss_mb: 40.0 * scale,
            units: vec![Unit::new("op.a", 1.0, 1.0), Unit::new("op.b", 1.0, 1.0)],
            lat_units: vec![Unit::new("op.a", 1.0, 1.0), Unit::new("op.b", 1.0, 3.0)],
            ..WorkerReport::default()
        };
        for (a, b) in [(10.0, 30.0), (11.0, 29.0), (90.0, 31.0)] {
            r.push("op.a", a * scale);
            r.push("op.b", b * scale);
        }
        r.layer.insert("rounds".to_string(), 3.0);
        r.notes.push("a \"quoted\" note".to_string());
        r
    }

    #[test]
    fn worker_report_round_trips_through_the_serve_parser() {
        let r = sample_report(1.0);
        let back = WorkerReport::from_json(&json::parse(&to_line(&r.to_json())).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn end_to_end_pools_samples_and_one_outlier_does_not_move_throughput() {
        let workers = [sample_report(1.0), sample_report(1.0), sample_report(1.0)];
        // Two workers that only set up, both slower than the measuring ones.
        let out = end_to_end(&workers, &[0.7, 0.9]);
        // Medians 11 ms and 30 ms: two operations per 41 ms. The 90 ms
        // outlier in op.a is ignored.
        assert!((out.value("ops_per_s").unwrap() - 2.0 / 41.0 * 1e3).abs() < 1e-9);
        assert_eq!(out.value("cpu_ms_per_op"), Some(0.36 * 1e3 / 18.0));
        assert_eq!(out.value("setup_s"), Some(0.5));
        assert_eq!(
            end_to_end(&workers, &[0.7, 0.9, 0.8, 0.6]).value("setup_s"),
            Some(0.6)
        );
        // Kind a (11 ms) is the lowest quarter of the mix, so the middle
        // half is all kind b.
        assert_eq!(out.value("latency_p50_ms"), Some(30.0));
        assert_eq!((out.attempted, out.failed, out.correct()), (18, 0, true));
    }

    #[test]
    fn latency_is_the_middle_half_of_the_kinds() {
        let report = |kinds: &[(&str, f64)]| {
            let mut r = WorkerReport::default();
            for &(series, ms) in kinds {
                r.lat_units.push(Unit::new(series, 1.0, 1.0));
                r.push(series, ms);
            }
            r
        };
        // Three equal kinds: a quarter of the outer two, all of the middle.
        let r = report(&[("c", 60.0), ("a", 10.0), ("b", 20.0)]);
        assert_eq!(latency_p50_ms(&[r]), (2.5 + 20.0 + 15.0) / 1.5);
        // One kind, a whole round: its median.
        assert_eq!(latency_p50_ms(&[report(&[("round", 620.0)])]), 620.0);
        assert_eq!(latency_p50_ms(&[report(&[])]), 0.0);
    }

    /// The line a run ends with parses with the serve parser, has exactly
    /// the four keys, and names every metric of `BENCHMARK.json` for its
    /// mode exactly once, each with a unit.
    #[test]
    fn result_lines_name_every_metric_once_with_a_unit() {
        let traced = sample_report(1.0);
        let cases = [
            (
                end_to_end(&[sample_report(1.0)], &[]),
                spec::END_TO_END
                    .iter()
                    .map(|m| m.name.to_string())
                    .collect::<Vec<_>>(),
            ),
            (
                per_layer(Some(&traced)),
                spec::per_layer().into_iter().map(|(n, _, _)| n).collect(),
            ),
        ];
        for (outcome, want) in cases {
            let line = to_line(&outcome.to_json());
            assert!(!line.contains('\n'));
            let v = json::parse(&line).unwrap();
            let Json::Obj(top) = &v else {
                panic!("not an object")
            };
            assert_eq!(
                top.keys().map(String::as_str).collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            let Some(Json::Obj(metrics)) = v.get("metrics") else {
                panic!("no metrics")
            };
            let mut got: Vec<&String> = metrics.keys().collect();
            let mut want_sorted: Vec<&String> = want.iter().collect();
            got.sort();
            want_sorted.sort();
            assert_eq!(got, want_sorted);
            for (name, m) in metrics {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no value"
                );
                assert!(
                    m.get("unit")
                        .and_then(Json::as_str)
                        .is_some_and(|u| !u.is_empty()),
                    "{name} has no unit"
                );
            }
        }
        assert_eq!(per_layer(Some(&traced)).value("rounds"), Some(3.0));
        assert_eq!(
            per_layer(Some(&traced)).value("bw.memcpy_peak_gbps"),
            Some(0.0)
        );
    }

    #[test]
    fn a_missing_worker_is_a_failed_run() {
        let mut out = end_to_end(&[], &[]);
        out.fail_all();
        assert!(!out.correct());
        let v = json::parse(&to_line(&out.to_json())).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(1));
    }
}
