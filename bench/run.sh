#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh -workload relay-ingest -seed 1 -seconds 20 -trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every file a run writes stay in .bench_build/ under that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
go -C "$root/bench" build -o "$build/netprobe-bench" .
exec "$build/netprobe-bench" -workdir "$build" "$@"
