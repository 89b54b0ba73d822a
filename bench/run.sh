#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout root with every argument passed through, e.g.
#
#   bash bench/run.sh --workload planar-d3 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/, so nothing is written outside the checkout. Outside a
# full checkout (no ../go.mod beside bench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/fpnbench" .)
cd "$root"
exec "$build/fpnbench" "$@"
