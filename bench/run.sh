#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload ir-cascade --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare a.out b.out
#
# The Go build cache, the go command's configuration and telemetry
# directory, temporary files and the binary all live under .bench_build in
# the checkout, so nothing outside it is written.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
bin="$build/emvia-bench"
# VCS stamping fails outside a usable git checkout; the revision then reads
# "unknown" in the run header.
(cd bench && { go build -o "$bin" . 2>/dev/null || go build -buildvcs=false -o "$bin" .; })
exec "$bin" "$@"
