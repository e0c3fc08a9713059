//! `e2e compare A.json B.json`: set run B against run A, one row per
//! workload and end-to-end metric, each judged by the metric's own
//! bound. Where the spread between a side's own workers is wider than
//! the bound the row reads `unresolved`, not `unchanged` — unless every
//! worker of one side beats every worker of the other.

use hetero_serve::json::Json;

use crate::spec::{Metric, END_TO_END, WORKLOADS};
use crate::stats::iqr_frac;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    Unresolved,
    /// One side has no value for the row.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of A by which B is worse (negative: better).
    pub worse_frac: f64,
    /// Wider of the two sides' own spreads.
    pub spread_frac: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// One side of a row: the pooled value and each worker's own value.
pub struct Side {
    pub value: f64,
    pub per_cycle: Vec<f64>,
}

/// Judge one metric of one workload.
pub fn judge(m: &Metric, a: &Side, b: &Side) -> (f64, f64, Verdict) {
    if a.value == 0.0 {
        return (0.0, 0.0, Verdict::Missing);
    }
    let worse = if m.higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    let spread = iqr_frac(&a.per_cycle).max(iqr_frac(&b.per_cycle));
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    let all_beat = |xs: &[f64], ys: &[f64]| {
        !xs.is_empty() && !ys.is_empty() && xs.iter().all(|&x| ys.iter().all(|&y| better(x, y)))
    };
    let separated = all_beat(&a.per_cycle, &b.per_cycle) || all_beat(&b.per_cycle, &a.per_cycle);
    let verdict = if spread > m.bound && !separated {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regression
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, spread, verdict)
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let per_cycle = match m.get("per_cycle") {
        Some(Json::Arr(a)) => a.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    };
    Some(Side {
        value: m.get("value")?.as_f64()?,
        per_cycle,
    })
}

fn fail_frac(doc: &Json, workload: &str) -> Option<f64> {
    let w = doc.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

/// Every row of the comparison, and whether B may land: no regression
/// and no workload failing more operations than in A.
pub fn compare(a: &Json, b: &Json) -> (Vec<Row>, bool) {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (Some(fa), Some(fb)) = (fail_frac(a, w.name), fail_frac(b, w.name)) else {
            continue;
        };
        let verdict = if fb > fa + 0.001 {
            Verdict::Regression
        } else {
            Verdict::Unchanged
        };
        rows.push(Row {
            workload: w.name.to_string(),
            metric: "fail_frac".to_string(),
            a: fa,
            b: fb,
            worse_frac: fb - fa,
            spread_frac: 0.0,
            bound: 0.001,
            verdict,
        });
        for m in &END_TO_END {
            let (worse_frac, spread_frac, verdict, va, vb) =
                match (side(a, w.name, m.name), side(b, w.name, m.name)) {
                    (Some(sa), Some(sb)) => {
                        let (worse, spread, v) = judge(m, &sa, &sb);
                        (worse, spread, v, sa.value, sb.value)
                    }
                    _ => (0.0, 0.0, Verdict::Missing, 0.0, 0.0),
                };
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name.to_string(),
                a: va,
                b: vb,
                worse_frac,
                spread_frac,
                bound: m.bound,
                verdict,
            });
        }
    }
    let ok = !rows.is_empty() && rows.iter().all(|r| r.verdict != Verdict::Regression);
    (rows, ok)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<15} {:>12} {:>12} {:>8} {:>8} {:>7}  {}\n",
        "workload", "metric", "A", "B", "worse%", "spread%", "bound%", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<15} {:>12.4} {:>12.4} {:>+8.1} {:>8.1} {:>7.1}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_frac * 100.0,
            r.spread_frac * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: &Metric = &END_TO_END[1];
    const LAT: &Metric = &END_TO_END[3];

    fn s(value: f64, per_cycle: &[f64]) -> Side {
        Side {
            value,
            per_cycle: per_cycle.to_vec(),
        }
    }

    #[test]
    fn a_drop_beyond_the_bound_with_tight_runs_is_a_regression() {
        assert!(OPS.higher_is_better && OPS.bound >= 0.05);
        let a = s(100.0, &[99.0, 100.0, 101.0]);
        let b = s(70.0, &[69.0, 70.0, 71.0]);
        let (worse, _, v) = judge(OPS, &a, &b);
        assert!((worse - 0.30).abs() < 1e-12);
        assert_eq!(v, Verdict::Regression);
        assert_eq!(judge(OPS, &b, &a).2, Verdict::Improved);
        assert_eq!(
            judge(OPS, &a, &s(99.0, &[98.0, 99.0, 100.0])).2,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_the_sides_are_separated() {
        // Overlapping, noisy sides: no verdict either way.
        let a = s(100.0, &[60.0, 100.0, 140.0]);
        let b = s(101.0, &[70.0, 101.0, 150.0]);
        assert_eq!(judge(OPS, &a, &b).2, Verdict::Unresolved);
        // Equally noisy, but every run of B beats every run of A.
        let b = s(300.0, &[200.0, 300.0, 400.0]);
        assert_eq!(judge(OPS, &a, &b).2, Verdict::Improved);
        // Lower-is-better metrics separate the other way round.
        let (a, b) = (s(10.0, &[6.0, 10.0, 14.0]), s(30.0, &[20.0, 30.0, 40.0]));
        assert!(!LAT.higher_is_better);
        assert_eq!(judge(LAT, &a, &b).2, Verdict::Regression);
    }

    #[test]
    fn documents_compare_row_by_row_and_a_new_failure_blocks() {
        use crate::report::{obj, to_line};
        use hetero_serve::json::parse;
        let doc = |ops: f64, correct: bool| {
            let metrics = obj([(
                "ops_per_s",
                obj([
                    ("value", Json::Num(ops)),
                    ("unit", Json::Str("1/s".into())),
                    (
                        "per_cycle",
                        Json::Arr(vec![
                            Json::Num(ops * 0.99),
                            Json::Num(ops),
                            Json::Num(ops * 1.01),
                        ]),
                    ),
                ]),
            )]);
            let w = obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(if correct { 0.0 } else { 3.0 })),
                ("metrics", metrics),
            ]);
            parse(&to_line(&obj([("workloads", obj([("batch_s2", w)]))]))).unwrap()
        };
        let (rows, ok) = compare(&doc(100.0, true), &doc(100.5, true));
        assert!(ok);
        assert_eq!(
            rows.iter()
                .filter(|r| r.metric == "ops_per_s" && r.verdict == Verdict::Unchanged)
                .count(),
            1
        );
        assert!(rows
            .iter()
            .any(|r| r.metric == "setup_s" && r.verdict == Verdict::Missing));
        assert!(
            !compare(&doc(100.0, true), &doc(50.0, true)).1,
            "a halved throughput blocks"
        );
        let (rows, ok) = compare(&doc(100.0, true), &doc(100.0, false));
        assert!(!ok, "a higher fail_frac blocks");
        assert!(rows
            .iter()
            .any(|r| r.metric == "fail_frac" && r.verdict == Verdict::Regression));
        assert!(render(&rows).contains("REGRESSION"));
    }
}
