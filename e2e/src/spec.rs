//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the root of
//! the repository states the same lists; a unit test keeps the two equal.

/// `run_seconds` of `BENCHMARK.json`: how long one workload measures.
pub const RUN_SECONDS: f64 = 16.0;

/// Fresh worker processes one untraced measurement is spread over, so
/// that no metric rests on one process's memory layout or one noisy
/// second.
pub const CYCLES: u32 = 3;

/// Workers that only set up, after each measuring worker of an untraced
/// run. A set-up lasts 0.05 to 0.4 s, short enough for one disturbed
/// moment to double it; with these `setup_s` is the median of nine.
pub const SETUP_ONLY_PER_CYCLE: u32 = 2;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "batch_s2",
        why: "all 13 configs at size 2, one AppEntry.verify each: time to a verified solution; kernel bodies, lanes and pool chunking do the work, serve and stream none",
    },
    Workload {
        name: "bw_large",
        why: "FDTD2D, SRAD, Where, KMeans and the par_dpl trio on arrays of at least 4x total L2, run only against held goldens: the one workload where locality fixes can show",
    },
    Workload {
        name: "launch_bound_s1",
        why: "the five launch-heavy apps at size 1 via run_with in PerLaunch, Graph and GraphOptimized: runtime overhead dominates (Figure 1's non-kernel bar)",
    },
    Workload {
        name: "hardened_s1",
        why: "the same five apps with integrity armed, then integrity plus DMR: a fast-path gain that taxes the armed walk shows here",
    },
    Workload {
        name: "serve_open",
        why: "seeded JSON job mix (5 apps, 8 tenants, 3 priorities, 80/20 size 1/2, 10 input keys) through parse, from_json and Scheduler::submit, two waiting clients; traced: open-loop Poisson arrivals at 3 rates",
    },
    Workload {
        name: "stream_clean_s1",
        why: "SRAD, FDTD2D, KMeans and PF Naive through open_stream/next_window with no faults: the path every window pays",
    },
    Workload {
        name: "stream_faulted_s1",
        why: "the same four streams under LaunchTransient at 0.05 plus SRAD under a permanent stuck-group panic: rollback and replay do the work; digests must equal the clean trail",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    /// Zero for per-layer metrics, which are reported and not gated.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
];

/// Registry slugs of the thirteen configurations, Figure 2's order.
pub const APP_SLUGS: [&str; 13] = [
    "cfd32",
    "cfd64",
    "dwt2d",
    "fdtd2d",
    "kmeans",
    "lavamd",
    "mandelbrot",
    "nw",
    "pf_naive",
    "pf_float",
    "raytracing",
    "srad",
    "where",
];

/// Kernels of the bandwidth workload.
pub const BW_KERNELS: [&str; 7] = [
    "fdtd2d",
    "srad",
    "where",
    "kmeans",
    "scan_u32",
    "histogram_u32",
    "reduce_min",
];

/// Streaming-converted apps, `altis_core::streaming::STREAM_APPS` order.
pub const STREAM_SLUGS: [&str; 4] = ["srad", "fdtd2d", "kmeans", "pf_naive"];

/// Per-layer metrics with a fixed name: `(name, unit, higher is better)`.
const LAYER_FIXED: [(&str, &str, bool); 54] = [
    ("core.gen_ms", "ms", false),
    ("core.compare_ms", "ms", false),
    ("rt.per_launch_ms", "ms", false),
    ("rt.graph_ms", "ms", false),
    ("rt.graph_opt_ms", "ms", false),
    ("rt.submit_us_per_launch", "us", false),
    ("rt.replay_us_per_launch", "us", false),
    ("rt.pool_dispatches_per_launch", "count", false),
    ("rt.pool_threads", "count", true),
    ("rt.kernel_frac", "ratio", true),
    ("bw.memcpy_peak_gbps", "GB/s", true),
    ("hard.disarmed_ms", "ms", false),
    ("hard.armed_ms", "ms", false),
    ("hard.armed_dmr_ms", "ms", false),
    ("hard.armed_over_disarmed", "ratio", false),
    ("hard.regions_verified", "count", true),
    ("hard.detections", "count", false),
    ("serve.parse_us", "us", false),
    ("serve.submit_us", "us", false),
    ("serve.queue_wait_p50_ms", "ms", false),
    ("serve.run_p50_ms", "ms", false),
    ("serve.inline_job_ms", "ms", false),
    ("serve.sched_overhead_ms", "ms", false),
    ("serve.latency_tail_ms", "ms", false),
    ("serve.latency_tail_pct", "%", true),
    ("serve.latency_p50_ms.r1x", "ms", false),
    ("serve.latency_p50_ms.r0_5x", "ms", false),
    ("serve.latency_tail_ms.r0_5x", "ms", false),
    ("serve.latency_p50_ms.r2x", "ms", false),
    ("serve.latency_tail_ms.r2x", "ms", false),
    ("serve.sustained_rate_per_s", "1/s", true),
    ("serve.gen_late_tail_ms", "ms", false),
    ("serve.backlog_end", "count", false),
    ("serve.completed", "count", true),
    ("serve.shed", "count", false),
    ("serve.rejected", "count", false),
    ("stream.open_ms", "ms", false),
    ("stream.window_tail_ms", "ms", false),
    ("stream.window_tail_pct", "%", true),
    ("stream.checkpoints", "count", true),
    ("stream.rollbacks", "count", false),
    ("stream.replayed", "count", false),
    ("stream.rollback_ms_total", "ms", false),
    ("stream.retried", "count", false),
    ("stream.quarantined", "count", false),
    ("stream.dropped", "count", false),
    ("stream.injected", "count", true),
    ("rounds", "count", true),
    ("samples", "count", true),
    ("round_iqr_frac", "ratio", false),
    ("trace_overhead_frac", "ratio", false),
    ("span_cover_frac", "ratio", true),
    ("timed_s", "s", true),
    ("ops_per_s_traced", "1/s", true),
];

/// Every per-layer metric, fixed names first, then the per-app,
/// per-kernel and per-stream families.
pub fn per_layer() -> Vec<(String, &'static str, bool)> {
    let mut out: Vec<(String, &'static str, bool)> = LAYER_FIXED
        .iter()
        .map(|&(n, u, h)| (n.to_string(), u, h))
        .collect();
    for slug in APP_SLUGS {
        out.push((format!("core.{slug}.run_ms"), "ms", false));
        out.push((format!("core.{slug}.golden_ms"), "ms", false));
    }
    for k in BW_KERNELS {
        out.push((format!("bw.{k}.ms"), "ms", false));
        out.push((format!("bw.{k}.gbps_computed"), "GB/s", true));
    }
    for s in STREAM_SLUGS {
        out.push((format!("stream.{s}.windows_per_s"), "1/s", true));
    }
    out
}

/// Unit of a per-layer metric, `None` for a name outside the vocabulary.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    per_layer()
        .into_iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, u, _)| u)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_serve::json::{self, Json};
    use std::collections::BTreeSet;

    /// Metric and workload names: `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_follow_the_regex_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let layer = per_layer();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layer.iter().map(|(n, _, _)| n.clone()));
        for name in all {
            assert!(valid_name(&name), "bad name {name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        for (n, u, _) in &layer {
            assert!(valid_unit(u), "{n}: bad unit {u}");
        }
        assert!(layer.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    fn field<'a>(v: &'a Json, k: &str) -> &'a Json {
        v.get(k)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {k}"))
    }

    fn arr(v: &Json) -> &[Json] {
        match v {
            Json::Arr(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` and this file must state the same benchmark.
    #[test]
    fn benchmark_json_agrees_with_the_source() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("top level must be an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(field(&doc, "run_seconds").as_f64(), Some(RUN_SECONDS));
        assert_eq!(arr(field(&doc, "paths")), [Json::Str("e2e".to_string())]);

        let wl: Vec<(&str, &str)> = arr(field(&doc, "workloads"))
            .iter()
            .map(|w| {
                (
                    field(w, "name").as_str().unwrap(),
                    field(w, "why").as_str().unwrap(),
                )
            })
            .collect();
        let want: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(wl, want);

        let better = |m: &Json| field(m, "better").as_str().unwrap() == "higher";
        let e2e: Vec<(String, String, bool, f64)> = arr(field(&doc, "end_to_end"))
            .iter()
            .map(|m| {
                (
                    field(m, "name").as_str().unwrap().to_string(),
                    field(m, "unit").as_str().unwrap().to_string(),
                    better(m),
                    field(m, "bound").as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, bool, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.higher_is_better,
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));

        let layer: Vec<(String, String, bool)> = arr(field(&doc, "per_layer"))
            .iter()
            .map(|m| {
                (
                    field(m, "name").as_str().unwrap().to_string(),
                    field(m, "unit").as_str().unwrap().to_string(),
                    better(m),
                )
            })
            .collect();
        let want: Vec<(String, String, bool)> = per_layer()
            .into_iter()
            .map(|(n, u, h)| (n, u.to_string(), h))
            .collect();
        assert_eq!(layer, want);
    }
}
