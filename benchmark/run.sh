#!/usr/bin/env bash
# The repo benchmark: builds the release product binaries and the
# harness, then runs the harness with the arguments given.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object
#       (BENCHMARK.json's `command` — what the driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--trace-only|--no-trace]
#       every workload untraced then traced, every metric printed as
#       `workload name unit value`, numbers kept in benchmark/out/latest.json
#   benchmark/run.sh --selfcheck [--runs N] [--seconds S] [--seed N]
#       two sets of runs judged against the benchmark's own bounds
#
# Run it from anywhere; it works from the repository root. Build output
# goes to $CARGO_TARGET_DIR (default target/benchmark), which is ignored
# by git. Nothing is printed to stdout before the harness starts, so
# the result line stays the last one.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target/benchmark}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The two product binaries come from the root workspace, untouched;
# the harness is its own package (benchmark/Cargo.toml) sharing the
# target directory, so the library crates compile once.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --bin chatpattern-serve --bin chatpattern-router >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/cp-benchmark" "$@"
