#!/usr/bin/env bash
# Builds athenabench from the checkout this script sits in and runs it with
# the given arguments. Every build output (binary, Go build cache, temp
# files) stays under .bench_build in the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/athenabench" ./cmd/athenabench
cd "$root"
exec "$build/athenabench" "$@"
