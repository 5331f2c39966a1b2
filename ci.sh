#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo fmt --all --check
# Workspace-wide lint, plus a curated subset of stricter lints that are
# cheap to keep clean everywhere.
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -D clippy::dbg_macro -D clippy::todo -D clippy::unimplemented
# The frame-relay hot path must not panic: ban unwrap/expect outright in
# the hot-path crates' non-test code (--lib excludes #[cfg(test)];
# --no-deps keeps the stricter bar off the other crates). rnl-l1switch
# joined the relay path when the Fig.-7 bypass was promoted into it.
cargo clippy --offline --no-deps -p rnl-tunnel -p rnl-ris -p rnl-server -p rnl-l1switch --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used
# The static analyzer runs inside the deploy gate on arbitrary user
# configs, so it gets the same no-panic bar.
cargo clippy --offline --no-deps -p rnl-analysis --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used
# Source-level gate over the hot-path files (allowlist: tools/srclint-allow.txt).
cargo run -q --offline -p rnl-bench --bin srclint
# Fault-injection / resilience / recovery suites, named explicitly so a
# filtering change in the workspace run can never silently drop them:
# the seeded chaos property test over the transport fault harness, the
# E17 flap-recovery-vs-grace-window integration test, and the E18
# crash-recovery-via-WAL integration test.
cargo test -q --offline -p rnl-tunnel --test chaos
cargo test -q --offline -p rnl --test resilience
cargo test -q --offline -p rnl --test recovery
# E19 admission control / load shedding, including the storm-plus-flap
# chaos property test.
cargo test -q --offline -p rnl --test overload
# E20 performance observability: the stall→slow_ops→trace e2e flow.
cargo test -q --offline -p rnl --test perf
# E21 data-plane verification: the verifier-vs-live-deployment
# differential oracle over seeded random designs.
cargo test -q --offline -p rnl --test verify
# E23 shard federation (membership fixed at construction, no
# rebalance): kill-mid-storm containment (bit-for-bit reproducible),
# the shard-fault chaos property test, and the front tier's routing
# table (design/user names by ring, routers by id range).
cargo test -q --offline -p rnl --test shard
# The binaries' own contracts: `rnl-lint --json` prints exactly the web
# API's analysis/verification payloads, `routeserver --shards N`
# refuses the single-server flags it would otherwise ignore, and a
# killed `routeserver` (single and `--shards 2`) restarts on its
# `--state-dir` with the API's view unchanged.
cargo test -q --offline -p rnl-server --test lint_cli
cargo test -q --offline -p rnl-server --test routeserver_cli
cargo test -q --offline -p rnl-server --test routeserver_restart
# E24 mesh: the direct site-to-site data plane — relay counters flat
# while paths are healthy, seeded-cut failover within the bounded
# window, zero frames lost in accounting, failback after the heal.
cargo test -q --offline -p rnl --test mesh
# Perf-regression gate: prove the comparator bites, then check the six
# deterministic virtual-clock workloads against the BENCH_*.json
# baselines at the repo root (regenerate deliberately with
# `cargo run -p rnl-bench --release --bin bench -- --out .`).
cargo run -q --offline --release -p rnl-bench --bin bench -- --selftest
cargo run -q --offline --release -p rnl-bench --bin bench -- --check --tolerance 5
# `--check` tolerates 5 % drift; a refactor that claims "no behaviour
# change" must reproduce every baseline byte for byte. Regenerate all
# six into a scratch directory and compare.
bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT
cargo run -q --offline --release -p rnl-bench --bin bench -- --out "$bench_dir" >/dev/null
for baseline in BENCH_*.json; do
    cmp "$baseline" "$bench_dir/$baseline"
done
# Real-binary smoke: five seconds of 64 B frames through the release
# `routeserver` over loopback TCP. Only the exit code gates — the
# harness exits non-zero when a frame is corrupt, reordered, duplicated
# or missing, an API op fails, or a child dies; the wall-clock numbers
# it prints are report-only (this host is shared).
bash wallbench/run.sh --workload relay_small --seed 1 --seconds 5 --trace 0
# Same again with the hosts behind two `ris` child processes: the only
# workload whose frames cross the `ris` binary's own wait loop.
bash wallbench/run.sh --workload stack_ping --seed 1 --seconds 5 --trace 0
# And with 1500 B template-similar frames and RIS compression on: the
# only step that pushes a compressed frame through the real binaries
# (encode in the RIS, expand in the relay, byte-for-byte check at the
# far end).
bash wallbench/run.sh --workload relay_bulk --seed 1 --seconds 5 --trace 0

echo "ci: all checks passed"
