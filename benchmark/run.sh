#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of output is the result
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace] [--repeat K] [--smoke]
#       the whole set, each workload in a process of its own
#   benchmark/run.sh --manifest
#       prints BENCHMARK.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Reuse the repository's build cache unless the caller chose a directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
export VQC_BENCHMARK_OUT="${VQC_BENCHMARK_OUT:-$here/out}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
exec "$target/release/vqc-benchmark" "$@"
