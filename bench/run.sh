#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it. Run it
# from the repository root:
#
#   bash bench/run.sh --workload compile-cold --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare <parent-dir> [<change-dir>]
#
# Everything the build writes (Go build and module caches, temporary files,
# the binary) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
