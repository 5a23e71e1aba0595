#!/bin/sh
# run.sh — entry point of the repository benchmark (see bench/README.md).
#
#   bash bench/run.sh --workload svc-cold --seed 1 --seconds 15 --trace 0
#
# Builds the harness and the programs it drives from this checkout's
# source and runs one workload. Everything the toolchain and the
# harness write — build cache, temp dirs, daemon state, traces — lands
# under .bench_build/ at the checkout root, so a run touches nothing
# outside the checkout. The last line of standard output is the result
# JSON; everything before it is the human-readable report.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD="$ROOT/.bench_build"
mkdir -p "$BUILD/gocache" "$BUILD/gopath" "$BUILD/tmp" "$BUILD/home" "$BUILD/bin"

export GOCACHE="$BUILD/gocache"
export GOPATH="$BUILD/gopath"
export GOTMPDIR="$BUILD/tmp"
export TMPDIR="$BUILD/tmp"
# The toolchain's telemetry and env files live under the user config
# dir; pointing HOME into the checkout keeps them there too.
export HOME="$BUILD/home"
export XDG_CONFIG_HOME="$BUILD/home/.config"
export XDG_CACHE_HOME="$BUILD/home/.cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

cd "$ROOT/bench"
go build -o "$BUILD/bin/stcbench" .
cd "$ROOT"
exec "$BUILD/bin/stcbench" -root "$ROOT" -builddir "$BUILD" "$@"
