#!/usr/bin/env bash
# Full offline verification: release build, test suite, and lint-clean
# clippy. No network access is required (the workspace has path-only
# dependencies); any registry fetch attempt is a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo clippy --all-targets --offline -- -D warnings
cargo clippy --all-targets --offline --features heavy-tests -- -D warnings

# hetero-san layer 3: repo lint over every kernel closure and lane body
# in crates/core (no unwrap/expect, no raw indexing around BufferView, no
# HashMap iteration-order dependence, no std::time) and every library
# file (unused-pub: no public item the suite does not call). Exits
# nonzero on violation.
./target/release/lint

# hetero-san layers 2+1 smoke: static IR verification of every suite
# configuration, then the full 13-config matrix at size 1 under the
# dynamic race detector. Any race report, verifier error, or containment
# break exits nonzero. (The full 13x3 matrix is the long-form gate:
# `./target/release/sanitize` with no flags, ~7 minutes.)
./target/release/sanitize --size 1

# Chaos smoke matrix: the whole suite under seeded fault injection. Every
# run must stay contained (correct results or a typed error; never a
# hang, untyped panic, or poisoned pool) — the chaos binary exits nonzero
# otherwise. Seeds x rates are fixed so failures reproduce exactly.
for seed in 1 2 3 4 5; do
  for rate in 0.01 0.1; do
    echo "chaos: seed ${seed} rate ${rate}"
    HETERO_RT_FAULT_SEED="${seed}" HETERO_RT_FAULT_RATE="${rate}" \
      ./target/release/chaos > /dev/null
  done
done

# SDC defense matrix: the whole suite at size 1 under seeded *silent*
# fault plans (memory bit-flips and stuck-at pages), with the integrity
# layer armed and DMR voting on. Every run must end Correct, Corrected,
# or Quarantined — never silently wrong output accepted as success —
# and (first invocation) the committed golden-checksum registry in
# tests/golden_checksums.tsv must still match the reference outputs.
./target/release/sdc --seed 1 --size 1 > /dev/null
./target/release/sdc --seed 2 --size 1 --skip-golden > /dev/null
./target/release/sdc --seed 3 --size 1 --skip-golden > /dev/null

# Disabled-hook cost gates: a process that never turns a robustness
# layer on pays an idle fault-plan check per launch and group, one
# relaxed load per accessor call, and the SDC launch-scope counter plus
# two branch loads per launch. hook_overhead isolates each by paired
# launches and fails if any reaches 2% of a pooled launch_storm launch.
# Its item_loop section gates the runtime's own charge per work-item: a
# one-store parallel_for over 2^20 indices, 1-D and 2-D, at most 5 ns.
./target/release/hook_overhead /tmp/BENCH_hook_overhead.json > /dev/null

# Record-and-replay gates: the graph_replay microbench must show the
# single-wake-up replay path at >= 3x lower per-launch overhead than the
# hardened per-launch path (median ratio of 9 alternating pairs at
# min(nproc, 4) pool threads; ten-run table in EXPERIMENTS.md); and
# --matrix re-verifies the five converted apps (FDTD2D, SRAD, CFD,
# KMeans, ParticleFilter) against golden under sequential, pooled
# per-launch and pooled graph execution at size 1 (15 cells) — any
# diverging cell or a missed gate exits nonzero.
./target/release/graph_replay /tmp/BENCH_graph_replay.json --gate 3 --matrix > /dev/null

# Service-layer gates. chaos --serve replays the 13-config fault matrix
# through the real JSON protocol and an in-process scheduler: every job
# must get exactly one typed verdict (none uncontained) and the shared
# pool must survive. serve_storm floods the scheduler with 1k queued
# jobs across 8 tenants x 3 priority lanes (zero unaccounted, zero
# uncontained; a count gate: all 1k outputs validated with at most one
# golden comparison per kind of job in the mix, the rest recognised)
# and then runs the hostile-tenant isolation gate: a
# saturating fault-rate-1.0 tenant must not move a clean tenant's
# closed-loop p99 by more than 10%.
./target/release/chaos --serve > /dev/null
./target/release/serve_storm /tmp/BENCH_serve_storm.json --jobs 1000 > /dev/null

# Streaming gates. chaos --stream runs the seeded fault matrix
# (transient / kernel-panic / alloc / mixed) against live window
# streams of the four converted apps: the stream must survive every
# cell, delivered windows must be bit-equal to the clean trail, and no
# window may be dropped — quarantine the *window*, never the stream.
# stream_storm (committed BENCH_stream_storm.json is the long form) is
# smoked at 60 windows/app: the transient rate sweep and the stuck-group
# rollback-cost run, with the golden-trail equality and
# containment-budget gates armed.
for seed in 1 2 3; do
  echo "chaos --stream: seed ${seed}"
  ./target/release/chaos --stream --seed "${seed}" --rate 0.05 --windows 24 > /dev/null
done
./target/release/stream_storm /tmp/BENCH_stream_storm.json --windows 60 > /dev/null

# Data-path gates. roofline measures the streaming kernels' GB/s
# against the pool-parallel memcpy peak; a kernel on lanes::sweep is
# timed at both widths in-process via lanes::force and must show a
# >= 1.5x lane-over-scalar speedup, and reduce_min must reach 0.15 of
# the peak (its fold stays inlined). launch_storm --steal
# runs the NW-wavefront-shaped imbalanced job (per-item cost ~ index, a
# sleep) and requires the stealing wall x 1.2 to stay under what static
# whole-span chunking sleeps by construction, with >= 1 steal counted,
# on top of the exact-dispatch-count and scratch-reuse accounting gates.
./target/release/roofline /tmp/BENCH_roofline.json --gate 1.5 > /dev/null
./target/release/launch_storm /tmp/BENCH_launch_storm.json --steal > /dev/null

# End-to-end benchmark package (own manifest, own lock file): its pure
# unit tests, then 2 s smokes of the launch-bound and the bandwidth-bound
# workload through the real worker processes — `run` exits nonzero on
# `correct: false` or a lost worker, so a staging change that breaks a
# large-array golden fails here.
cargo test -q --offline --manifest-path e2e/Cargo.toml
cargo run --release --quiet --offline --manifest-path e2e/Cargo.toml -- \
  run --workload launch_bound_s1 --workload bw_large --seconds 2 > /dev/null

echo "verify: build + tests + clippy + lint + sanitize smoke + chaos matrix + sdc matrix + hook overhead gates + graph replay + serve gates + stream chaos + stream storm smoke + roofline gates (two-width kernels, reduce_min floor) + steal gate (analytic bound) + e2e tests + e2e smoke all green"
