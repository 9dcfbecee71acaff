#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; all
# arguments are passed through. Run from the repository root:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and generated graphs stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/work" "$@"
