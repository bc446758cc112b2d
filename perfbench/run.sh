#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload etc --seed 1 --seconds 10 --trace 0
#
# Everything it writes (the Go build cache, the binary, span files and the
# WAL directories of cluster-rw) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# Concurrent runs in one checkout each build to a private name and swap it
# in, so no run ever executes a half-written binary.
tmp=$(mktemp "$out/perfbench.XXXXXX")
trap 'rm -f "$tmp"' EXIT
(cd "$root/perfbench" && go build -o "$tmp" .)
mv -f "$tmp" "$out/perfbench"
trap - EXIT

export PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
