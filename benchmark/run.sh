#!/usr/bin/env bash
# Build the benchmark, then run it: `benchmark/run.sh [sdsbench arguments]`
# (default: `run`, every workload once). Works from any directory; the
# build goes to $CARGO_TARGET_DIR, or the repo's target/ when unset.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
# Compile time is recorded in the result's meta and kept out of every metric.
SDSBENCH_BUILD_S=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { print b - a }')
export SDSBENCH_BUILD_S
if [ "$#" -eq 0 ]; then set -- run; fi
exec "$target/release/sdsbench" "$@"
