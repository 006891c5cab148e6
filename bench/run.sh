#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload cold-build --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays in the checkout: the binary and the
# Go build cache go to $CARGO_TARGET_DIR when set, else .bench_build.
# The Go toolchain must already be installed; nothing is downloaded.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
