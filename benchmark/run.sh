#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash benchmark/run.sh -workload serve-mix -seed 3 -seconds 10 -trace 0
#
# The build cache, toolchain settings and binary all live in .bench_build at
# the repository root, so a run reads and writes nothing outside the checkout
# and never reaches the network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/benchmark" build -o "$build/regions-benchmark" .
exec "$build/regions-benchmark" "$@"
