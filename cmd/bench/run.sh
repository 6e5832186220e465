#!/usr/bin/env bash
# Builds cmd/bench from source into .bench_build/ at the root of the checkout
# (build cache and scratch included, so nothing is written outside it) and
# runs it from that root with the arguments given:
#
#   bash cmd/bench/run.sh --workload replay_internet --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
