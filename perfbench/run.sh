#!/usr/bin/env bash
# Builds the CLIs under test and the benchmark from this checkout's source,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload quick-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, scratch directories and the
# per-run reports and traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

go build -C "$root/perfbench" -o "$build/bin/perfbench" .
go build -o "$build/bin/" ./cmd/p10bench ./cmd/p10explore ./cmd/p10obscheck
exec "$build/bin/perfbench" "$@"
