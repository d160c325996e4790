#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the repository root:
#
#   bash bench/run.sh                               # all four workloads
#   bash bench/run.sh --workload paper-epidemic --seed 3 --seconds 20 --trace 0
#
# The build cache, Go's module and telemetry directories, the binary and
# every temporary file stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/vdtn-bench" . >&2
exec "$out/vdtn-bench" "$@"
