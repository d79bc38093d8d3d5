#!/usr/bin/env bash
# Entry point named by BENCHMARK.json's "command": builds the benchmark
# from source into .bench_build/ inside the checkout (Go's build cache and
# temporary files included, so nothing is written outside it) and runs it
# with the driver's arguments: --workload --seed --seconds --trace.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -buildvcs=false -o "$build/fsbench" ./benchmark
exec "$build/fsbench" "$@"
