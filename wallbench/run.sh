#!/usr/bin/env bash
# wallbench: build the release routeserver/ris binaries and the benchmark,
# then run the workloads against them over loopback TCP.
#
#   wallbench/run.sh [--seed N] [--seconds S] [--trace 0|1] [--repeat K] [WORKLOAD...]
#   wallbench/run.sh --workload NAME --seed N --seconds S --trace 0|1   (BENCHMARK.json form)
#   wallbench/run.sh compare A.json B.json
#
# With one workload and no --repeat, the last line of stdout is the
# result object of the benchmark contract. See wallbench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

export CARGO_NET_OFFLINE=true
# One target directory for both builds, inside the benchmark's own tree
# unless the caller chose another.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# The system under test: the repository's own release binaries, built
# from the root workspace with its profile. Build chatter goes to
# stderr so stdout stays the benchmark's.
cargo build --release --offline -p rnl-server --bin routeserver >&2
cargo build --release --offline -p rnl-ris --bin ris >&2
# The benchmark: a workspace of its own, so the root manifest, lock file
# and ci.sh never see it.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

bin="$CARGO_TARGET_DIR/release"
case "$bin" in /*) ;; *) bin="$root/$bin" ;; esac

if [ "${1:-}" = compare ]; then
    shift
    exec "$bin/wallbench" compare --benchmark "$root/BENCHMARK.json" "$@"
fi
exec "$bin/wallbench" run --bin-dir "$bin" --out-dir "$here/out" "$@"
