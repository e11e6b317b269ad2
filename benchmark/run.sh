#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the repository root:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the benchmark (its own module, benchmark/go.mod) into .bench_build/
# and runs it there. Go's build cache and temporary files are kept in
# .bench_build/ too, so a run writes nothing outside the checkout; the
# first run in a checkout compiles the standard library into that cache.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/concord-benchmark" .)
exec "$build/concord-benchmark" "$@"
