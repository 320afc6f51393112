#!/usr/bin/env bash
# Builds the fairrank benchmark from the checkout this script sits in and runs
# it with the given arguments, e.g.
#
#   bash fairbench/run.sh --workload design-loop --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every other file the Go toolchain writes
# stay under .bench_build/ at the checkout root. The build fails, and the
# script exits non-zero without printing a result, when the checkout lacks
# the fairrank module the benchmark compiles against.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C "$root/fairbench" build -o "$build/fairbench" . >&2
exec "$build/fairbench" "$@"
