//! One test, one binary: the pool reads `HETERO_RT_THREADS` once per
//! process, so the test runs itself as one child process per pool width
//! and compares what the children print.
//!
//! PF's estimate folds, Where's scan and KMeans' per-block centre sums
//! are the host, library and kernel code whose association must not
//! follow the pool's width, so the outputs of PF Naive, PF Float, Where
//! and KMeans at sizes 1–3 must be equal bit for bit at widths 1, 2
//! and 3.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::{Command, Stdio};

use altis_core::common::{AppVersion, ExecMode};
use altis_core::suite::{run_output, Output};
use altis_data::InputSize;
use hetero_rt::prelude::*;

/// The configurations whose outputs are fingerprinted.
const CONFIGS: [&str; 4] = ["PF Naive", "PF Float", "Where", "KMeans"];

/// Set in a child: print the fingerprints instead of spawning.
const CHILD: &str = "WIDTH_INVARIANCE_CHILD";

/// Every bit of `out`, hashed with the fixed-key `DefaultHasher`.
fn fingerprint(out: &Output) -> u64 {
    let mut h = DefaultHasher::new();
    match out {
        Output::Pf(o) => {
            o.xe.iter().chain(&o.ye).for_each(|x| x.to_bits().hash(&mut h));
        }
        Output::Records(v) => v.iter().for_each(|r| (r.value, r.payload).hash(&mut h)),
        Output::Kmeans(o) => {
            o.centers.iter().for_each(|x| x.to_bits().hash(&mut h));
            o.membership.hash(&mut h);
        }
        other => panic!("not a PF, Where or KMeans output: {other:?}"),
    }
    h.finish()
}

/// One line per configuration and size: `config size fingerprint`.
fn fingerprints() -> String {
    let q = Queue::new(Device::cpu());
    let mut lines = String::new();
    for config in CONFIGS {
        for size in InputSize::all() {
            let out = run_output(config, &q, size, AppVersion::SyclOptimized, ExecMode::Graph);
            lines += &format!("{config} {size} {:016x}\n", fingerprint(&out));
        }
    }
    lines
}

#[test]
fn outputs_do_not_depend_on_the_pool_width() {
    if std::env::var_os(CHILD).is_some() {
        print!("{}", fingerprints());
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = [1, 2, 3]
        .map(|width| {
            let child = Command::new(&exe)
                .args(["--exact", "outputs_do_not_depend_on_the_pool_width"])
                .args(["--nocapture", "--test-threads", "1", "--quiet"])
                .env(CHILD, "1")
                .env("HETERO_RT_THREADS", width.to_string())
                .stdout(Stdio::piped())
                .spawn()
                .unwrap();
            (width, child)
        })
        .into();
    let mut rows = Vec::new();
    for (width, child) in children {
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "the width-{width} child failed");
        let text = String::from_utf8(out.stdout).unwrap();
        let lines: Vec<String> = text
            .lines()
            .filter(|l| CONFIGS.iter().any(|c| l.starts_with(&format!("{c} "))))
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 3 * CONFIGS.len(), "width {width} printed:\n{text}");
        rows.push((width, lines));
    }
    let (_, first) = &rows[0];
    for (width, lines) in &rows[1..] {
        assert_eq!(lines, first, "width {width} differs from width 1");
    }
}
