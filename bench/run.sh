#!/usr/bin/env bash
# Builds the benchmark from this checkout with the committed PGO profile
# and runs it with the given arguments, from the repository root:
#
#   bash bench/run.sh --workload detailed-os --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --out runs/a.txt      # every workload
#   bash bench/run.sh compare runs/a runs/b
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the simulator's sources are not next to bench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOENV=off
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C bench -pgo="$root/default.pgo" -o "$build/offbench" .
exec "$build/offbench" "$@"
