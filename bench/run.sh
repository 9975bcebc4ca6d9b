#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments go to the
# program (see main.go). This is BENCHMARK.json's command: everything it
# writes — build cache, binary, run data, spans — stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="${GOCACHE:-$PWD/.bench_build/go-cache}"
go build -o .bench_build/pmware-bench ./bench
exec .bench_build/pmware-bench "$@"
