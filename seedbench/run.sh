#!/usr/bin/env bash
# Builds the seedscan benchmark from the checkout it is run in and runs
# one workload. Run it from the repository root:
#
#   bash seedbench/run.sh --workload tga-grid --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and run scratch (hitlist stores,
# traces, result files) all stay under the checkout's build directory
# ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/seedbench" && go build -buildvcs=false -o "$build/seedbench" .)
exec "$build/seedbench" -root "$root" -out "$build/seedbench-out" "$@"
