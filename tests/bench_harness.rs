//! The shared measurement harness of `altis_bench`: order statistics,
//! paired rounds, the report with its gates, and the argument helper.
//! Pure and fast — no kernels run here.

use std::cell::RefCell;
use std::time::Duration;

use altis_bench::report::{Args, Op, Report, UsageError};
use altis_bench::timing::{iqr_frac, median, paired, percentile, quartiles};
use hetero_serve::json::{self, Json};

// The vectors and expected values of `e2e/src/stats.rs`'s unit tests,
// copied: this crate must not depend on `e2e`, but both must agree.
#[test]
fn median_and_quartiles_follow_the_e2e_convention() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
    assert_eq!(quartiles(&[1.0]), None);
    assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    assert_eq!(iqr_frac(&[1.0]), 0.0);
}

#[test]
fn percentile_is_nearest_rank_on_any_input() {
    assert_eq!(percentile(&[], 0.99), 0.0);
    assert_eq!(percentile(&[7.0], 0.5), 7.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    // Even length, unsorted: p50 is the lower middle, p99 the maximum.
    assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.0);
    assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.99), 4.0);
    let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&ramp, 0.99), 99.0);
    assert_eq!(percentile(&ramp, 0.0), 1.0);
}

#[test]
fn paired_recovers_a_known_cost_ratio_and_alternates_the_order() {
    let order = RefCell::new(String::new());
    let p = paired(
        6,
        || {
            order.borrow_mut().push('a');
            std::thread::sleep(Duration::from_millis(6));
        },
        || {
            order.borrow_mut().push('b');
            std::thread::sleep(Duration::from_millis(2));
        },
    );
    // One warm-up of each, then rounds led by a, b, a, b, a, b.
    assert_eq!(order.borrow().as_str(), "ab".to_owned() + "ab" + "ba" + "ab" + "ba" + "ab" + "ba");
    assert!((2.0..4.0).contains(&p.ratio), "6 ms over 2 ms read as {}", p.ratio);
    assert!(p.a_s > p.b_s && p.b_s >= 0.002);
    assert!(p.spread.is_finite() && p.spread >= 0.0);
    // Sleep overshoot differs between rounds, so six ratios are never
    // all equal: a spread is reported, not a constant zero.
    assert!(p.spread > 0.0);
}

#[test]
fn paired_cancels_an_advantage_of_running_second() {
    // Two equal arms, but whichever runs second in a round is twice as
    // fast: every single pair reads 2.0 or 0.5, the comparison 1.0.
    // Tens of milliseconds and seven rounds, not a few ms and five: a
    // sleep overshoots by milliseconds on a loaded host, now and then by
    // tens when its CPU quota runs out, and 4 ms against 2 ms read as
    // 0.49 or 1.38 in about one run in twenty. With three or more rounds
    // of each order, each median drops one stalled round.
    let calls = std::cell::Cell::new(0u32);
    let arm = || {
        calls.set(calls.get() + 1);
        std::thread::sleep(Duration::from_millis(if calls.get() % 2 == 1 { 40 } else { 20 }));
    };
    let p = paired(7, arm, arm);
    assert!((0.8..1.25).contains(&p.ratio), "equal arms read as {}", p.ratio);
    assert!(p.spread > 0.5, "the order effect shows in the spread, read {}", p.spread);
}

fn report_with(speedup: f64) -> Report {
    let mut r = Report::new("harness_selftest");
    r.set("launches", 10usize).set("note", "quote\" and \\ survive");
    r.gate("dispatches", 30.0, Op::Eq, 30.0);
    r.gate("speedup", speedup, Op::Ge, 1.2);
    r.gate("overhead_pct", 0.4, Op::Lt, 2.0);
    r
}

#[test]
fn one_failing_gate_fails_the_report_and_a_passing_one_does_not() {
    let dir = std::env::temp_dir();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let good = report_with(1.5);
    assert!(good.passed());
    assert!(good.write(&path("altis_bench_selftest_pass.json")).unwrap());
    let bad = report_with(1.1);
    assert!(!bad.passed());
    assert!(!bad.write(&path("altis_bench_selftest_fail.json")).unwrap());
    // An unwritable path is an error, not a pass.
    assert!(good.write("/nonexistent-dir/out.json").is_err());
}

#[test]
fn the_written_text_round_trips_with_host_stamp_and_every_gate() {
    let doc = json::parse(&report_with(1.1).render()).expect("report parses");
    assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("harness_selftest"));
    assert_eq!(doc.get("launches").and_then(Json::as_u64), Some(10));
    assert_eq!(doc.get("note").and_then(Json::as_str), Some("quote\" and \\ survive"));
    let host = doc.get("host").expect("host stamp");
    let nproc = host.get("nproc").and_then(Json::as_u64).expect("nproc");
    let threads = host.get("threads").and_then(Json::as_u64).expect("threads");
    assert!(threads >= 1 && threads <= nproc, "{threads} pool threads on {nproc} cores");
    assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(threads));
    for key in ["cpu_model", "commit", "rustc"] {
        assert!(host.get(key).and_then(Json::as_str).is_some_and(|s| !s.is_empty()), "{key}");
    }
    let Some(Json::Arr(gates)) = doc.get("gates") else { panic!("gates array") };
    let rows: Vec<(&str, f64, &str, f64, bool)> = gates
        .iter()
        .map(|g| {
            (
                g.get("name").and_then(Json::as_str).unwrap(),
                g.get("value").and_then(Json::as_f64).unwrap(),
                g.get("op").and_then(Json::as_str).unwrap(),
                g.get("bound").and_then(Json::as_f64).unwrap(),
                g.get("pass").and_then(Json::as_bool).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        rows,
        [
            ("dispatches", 30.0, "==", 30.0, true),
            ("speedup", 1.1, ">=", 1.2, false),
            ("overhead_pct", 0.4, "<", 2.0, true),
        ]
    );
}

fn parse(argv: &[&str]) -> Result<Args, UsageError> {
    let argv = argv.iter().map(|s| s.to_string());
    Args::parse(argv, &["--launches", "--jobs"], &["--steal"])
}

#[test]
fn arguments_are_checked_against_what_the_bin_declares() {
    let args = parse(&["out.json", "--launches", "500", "--steal", "--jobs", "1", "--jobs", "2"]).unwrap();
    assert_eq!(args.out("BENCH_default.json"), "out.json");
    assert_eq!(args.get("--launches", 10_000usize), Ok(500));
    assert!(args.has("--steal"));
    assert_eq!(args.all::<usize>("--jobs"), Ok(vec![1, 2]));
    assert!(args.no_positional().is_err());

    let bare = parse(&[]).unwrap();
    assert_eq!(bare.out("BENCH_default.json"), "BENCH_default.json");
    assert_eq!(bare.get("--launches", 10_000usize), Ok(10_000));
    assert!(!bare.has("--steal") && bare.no_positional().is_ok());

    // What `matrix` answers with usage text and exit 2.
    assert!(parse(&["--bogus"]).is_err());
    assert!(parse(&["--launches"]).is_err());
    assert!(parse(&["--launches", "many"]).unwrap().get("--launches", 1usize).is_err());
    let sizes = [("1", 1u8), ("2", 2)];
    let sized = |v: &str| {
        Args::parse(["--size".to_string(), v.to_string()], &["--size"], &[]).unwrap().choice("--size", &sizes)
    };
    assert_eq!(sized("2"), Ok(Some(2)));
    assert!(sized("9").is_err());
}
