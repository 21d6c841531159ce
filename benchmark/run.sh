#!/usr/bin/env bash
# Entry point for BENCHMARK.json: build the benchmark from source inside the
# checkout, then run it with the driver's arguments. Everything the Go
# toolchain writes — build cache, temporary files, its own configuration —
# is pointed at .bench_build/ in the checkout, and the binary lands there
# too, so nothing outside the checkout is read for state or written.
# After the first build the step costs a staleness check.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program's source there is nothing to measure: say so before
# anything is started or written.
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod in $PWD: the program under test is not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# The go command's configuration directory is new in every checkout, and in
# a new one it starts a detached telemetry child that outlives it. Telemetry
# off: go starts no process that this script does not wait for.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/aerie-benchmark" ./benchmark
exec "$build/aerie-benchmark" "$@"
