#!/usr/bin/env bash
# Full offline verification: release build, test suite, and lint-clean
# clippy. No network access is required (the workspace has path-only
# dependencies); any registry fetch attempt is a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
# The walk's inline arm: one pool thread collapses every `Auto`
# participant count to one, so direct launches and fast replays both
# run inline, where a sequential replay once lost a fired deadline.
HETERO_RT_THREADS=1 cargo test -q --offline -p hetero-rt --test graph --test graph_agreement
cargo clippy --all-targets --offline -- -D warnings
cargo clippy --all-targets --offline --features heavy-tests -- -D warnings

# hetero-san layer 3: repo lint over every kernel closure and lane body
# in crates/core (no unwrap/expect, no raw indexing around BufferView, no
# HashMap iteration-order dependence, no std::time) and every library
# file (unused-pub: no public item the suite does not call). Exits
# nonzero on violation.
./target/release/lint

# The hardened verdict matrix: every run on an armed queue must end as
# its tier says, and the shared pool must survive every cell. Each
# invocation first verifies every configuration's kernel IR statically
# and re-derives the committed golden-checksum registry
# (tests/golden_checksums.tsv) at the sizes it runs; any failed cell,
# IR finding or registry drift exits nonzero. Seeds and rates are fixed,
# so every cell's verdict reproduces. The resilient tier's injected
# counts need not: a launch stops at its first panicking group, and how
# many drawn panics ran before the stop is the pool's schedule.
#  - sanitize: hetero-san layer 1, the 13 configurations at size 1 under
#    the dynamic race detector (the full 13x3 long form is
#    `matrix --hardening sanitize --size all --version both`);
#  - resilient: seeded fail-stop faults under bounded retry, seeds 1-5 x
#    rates 0.01 / 0.1: correct results or a typed error, never a hang,
#    an untyped panic or wrong output;
#  - sdc: seeded *silent* faults (bit-flips, stuck-at pages) against the
#    integrity layer and DMR voting: correct, corrected or quarantined,
#    never silently wrong output accepted as success.
./target/release/matrix --hardening sanitize --size 1 > /dev/null
./target/release/matrix --hardening resilient --seeds 5 --rate 0.01 --rate 0.1 --version baseline > /dev/null
./target/release/matrix --hardening sdc --seeds 3 > /dev/null

# Disabled-hook cost gates: a process that never turns a robustness
# layer on pays an idle fault-plan check per launch and group and one
# relaxed load per accessor call (the SDC layer makes no call on a plain
# launch at all, a count pinned in hetero-rt/tests/sdc.rs).
# hook_overhead isolates each by paired launches and fails if any
# reaches 2% of a pooled launch_storm launch.
# Its item_loop section gates the runtime's own charge per work-item: a
# one-store parallel_for over 2^20 indices, 1-D and 2-D, at most 5 ns;
# its lane_access section gates a disarmed lane access: an 8-wide
# stencil body over GlobalViews at most 1 ns per element above the same
# stencil as a slice loop; its sdc row gates an integrity-queue launch,
# paired launch by launch with a plain queue's, at most 80% above it.
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

# Service-layer gates. matrix --serve replays the resilient tier
# through the real JSON protocol and an in-process scheduler: every job
# must get exactly one typed verdict (none uncontained) and the shared
# pool must survive. serve_storm floods the scheduler with 1k queued
# jobs across 8 tenants x 3 priority lanes (zero unaccounted, zero
# uncontained; a count gate: all 1k outputs validated with at most one
# golden comparison per kind of job in the mix, the rest recognised)
# and then runs the hostile-tenant isolation gate: a
# saturating fault-rate-1.0 tenant must not move a clean tenant's
# closed-loop p99 by more than 10%.
./target/release/matrix --serve > /dev/null
./target/release/serve_storm /tmp/BENCH_serve_storm.json --jobs 1000 > /dev/null

# Streaming gates. matrix --stream runs seeded transient / kernel-panic
# / mixed faults against live window streams of the four converted
# apps: the stream must survive every cell, delivered windows must be
# bit-equal to the clean trail, and no window may be dropped —
# quarantine the *window*, never the stream. stream_storm (committed
# BENCH_stream_storm.json is the long form) is smoked at 60
# windows/app: the transient rate sweep and the stuck-group
# rollback-cost run, with the golden-trail equality and
# containment-budget gates armed, and the count gate that a stuck-group
# rollback replays one window (replayed == rollbacks).
./target/release/matrix --stream --seeds 3 --windows 24 > /dev/null
./target/release/stream_storm /tmp/BENCH_stream_storm.json --windows 60 > /dev/null

# Data-path gates. roofline measures the streaming kernels' GB/s
# against the pool-parallel memcpy peak; a kernel on lanes::sweep is
# timed at both widths in-process via lanes::force and must show a
# >= 1.5x lane-over-scalar speedup (FDTD2D at its 256² size-2 shape;
# its 1536² row, near the memcpy peak, is reported), reduce_min must reach 0.15 of
# the peak (its fold stays inlined), and KMeans' input cloud must be
# drawn >= 1.5x faster than its serial gaussian() loop and equal to it
# bit for bit. launch_storm --steal
# runs the NW-wavefront-shaped imbalanced launch (one node of 32
# one-item groups, per-group cost ~ index, a sleep) and requires the
# walk's wall x 1.2 to stay under what static whole-span chunking
# sleeps by construction, which no schedule without a steal meets, on
# top of the exact-dispatch-count and scratch-reuse accounting gates.
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

echo "verify: build + tests + clippy + lint + verdict matrix (sanitize, resilient, sdc) + hook overhead gates + graph replay + serve gates + stream matrix + stream storm smoke + roofline gates (two-width kernels, reduce_min floor, input generation) + steal gate (analytic bound) + e2e tests + e2e smoke all green"
