#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout (BENCHMARK.json's command). The Go build
# cache and the binary live in .bench_build/ at the root, span files in
# bench/out/; nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
cd "$root/bench"
go build -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
