#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from
# the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload link --seed 1 --seconds 20 --trace 0
#
# The build, the Go build cache and the trace output all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. The benchmark is its own Go module (perfbench/go.mod)
# that replaces the multiscatter module with the checkout it sits in.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --trace-out "$out/trace" "$@"
