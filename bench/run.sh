#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds ./bench from source
# into .bench_build/ (inside the checkout, Go caches included, so nothing
# is read or written outside it) and runs it with the driver's arguments.
# Must be started from the root of a checkout; fails without one.
set -euo pipefail
if [[ ! -f go.mod || ! -d bench ]]; then
  echo "bench/run.sh: run from the root of a pitex checkout (no go.mod here)" >&2
  exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME moves the go command's env file and telemetry counters
# into the checkout as well; GOTOOLCHAIN=local forbids a toolchain download.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/pitex-bench" ./bench
exec "$build/pitex-bench" -out "$build/out" "$@"
