#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the checkout
# it is run in and executes it with the arguments given. The Go build cache,
# the build's temporary files and the binary all stay under .bench_build/ in
# that checkout, so nothing is written outside it; a second run finds the
# cache warm and only relinks if a source file changed.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/willump-benchmark" ./benchmark
exec "$build/willump-benchmark" "$@"
