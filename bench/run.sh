#!/usr/bin/env bash
# run.sh — the command BENCHMARK.json names. Builds ./bench from source into
# .bench_build/ at the root of the checkout and runs it with the arguments
# given. The Go build cache, temporary files and the toolchain's per-user
# configuration directory (go env file, telemetry counters) are kept inside
# the checkout too, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -o "$build/cvcbench" ./bench
exec "$build/cvcbench" "$@"
