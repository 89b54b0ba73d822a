#!/usr/bin/env bash
# Decode regression gate.
#
# Runs the scalar/batch decode benchmark pairs over a 2^16-shot stream
# (decoder_bench_test.go) and emits BENCH_decode.json, a
# machine-readable record per workload. The gated number is the batch
# path's lanes per inner decode (the benchmark's lanes/decode metric):
# lanes over memo misses in one pass of the stream from a fresh scratch.
# It depends only on the sampled stream and the memo policy, so it reads
# the same on every machine and in every run. Wall-clock shots/s of both
# paths is recorded for information only.
#
#   scripts/bench_decode.sh          check against the committed baseline
#   scripts/bench_decode.sh update   rewrite BENCH_decode.json in place
#
# Check mode fails when any workload's lanes per decode falls more than
# 10% below the committed baseline, or when the planar d=5 MWPM number
# falls below the 2x acceptance floor.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-check}"
BASELINE=BENCH_decode.json
FLOOR_PLANAR_D5=2.0

case "$MODE" in
check | update) ;;
*)
  echo "usage: $0 [check|update]" >&2
  exit 2
  ;;
esac

echo "bench_decode: running decode benchmarks (this takes under a minute)..." >&2
bench_out=$(go test -run '^$' \
  -bench '^(BenchmarkDecodeMWPMPlanarD5|BenchmarkDecodeBatchMWPMPlanarD5|BenchmarkDecodeMWPM|BenchmarkDecodeBatchMWPM|BenchmarkDecodeUnionFind|BenchmarkDecodeBatchUnionFind)$' \
  -benchtime 1s -count 1 .)
echo "$bench_out" >&2

# metric <BenchmarkName> <unit> — the value of one reported metric of
# one benchmark (names carry a -GOMAXPROCS suffix in the output).
metric() {
  local v
  v=$(echo "$bench_out" | awk -v name="$1" -v unit="$2" '
    $1 ~ "^"name"(-[0-9]+)?$" {
      for (i = 2; i <= NF; i++) if ($i == unit) { print $(i-1); exit }
    }')
  if [ -z "$v" ]; then
    echo "bench_decode: no $2 metric for $1 in the benchmark output" >&2
    exit 1
  fi
  echo "$v"
}

# One workload per line of BENCH_decode.json: the check below greps its
# baseline back out of the file, so the layout is part of the format
# (schema fpn-bench-decode/2). Each metric is read into a variable
# first, so a missing one stops the script under set -e.
# read_workload <var> <name> <scalar benchmark> <batch benchmark>
read_workload() {
  local lpd hit scalar batch
  lpd=$(metric "$4" lanes/decode)
  hit=$(metric "$4" memo-hit-rate)
  scalar=$(metric "$3" shots/s)
  batch=$(metric "$4" shots/s)
  printf -v "$1" '    "%s": {"lanes_per_decode": %s, "memo_hit_rate": %s, "scalar_shots_per_sec": %s, "batch_shots_per_sec": %s}' \
    "$2" "$lpd" "$hit" "$scalar" "$batch"
  printf -v "$1_lpd" '%s' "$lpd"
}

read_workload planar planar-d5-plain-mwpm BenchmarkDecodeMWPMPlanarD5 BenchmarkDecodeBatchMWPMPlanarD5
read_workload mwpm hyper-30-8-3-3-flagged-mwpm BenchmarkDecodeMWPM BenchmarkDecodeBatchMWPM
read_workload uf hyper-30-8-3-3-flagged-unionfind BenchmarkDecodeUnionFind BenchmarkDecodeBatchUnionFind

emit() {
  cat <<EOF
{
  "schema": "fpn-bench-decode/2",
  "note": "lanes_per_decode is gated: lanes over inner decodes in one pass of a 2^16-shot stream from a fresh scratch, fixed by the stream and the memo policy; shots/s is wall clock on the machine that ran update, for information only",
  "workloads": {
$planar,
$mwpm,
$uf
  }
}
EOF
}

if [ "$MODE" = update ]; then
  emit >"$BASELINE"
  echo "bench_decode: wrote $BASELINE" >&2
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "bench_decode: no committed $BASELINE; run 'scripts/bench_decode.sh update' and commit it" >&2
  exit 1
fi

# baseline <workload> — the committed lanes_per_decode for one workload.
baseline() {
  local v
  v=$(grep "\"$1\"" "$BASELINE" | sed -n 's/.*"lanes_per_decode": *\([0-9.][0-9.]*\).*/\1/p')
  if [ -z "$v" ]; then
    echo "bench_decode: workload $1 missing from $BASELINE; rerun 'scripts/bench_decode.sh update'" >&2
    exit 1
  fi
  echo "$v"
}

fail=0
check_workload() {
  local name="$1" got="$2" floor="$3"
  local base allowed
  base=$(baseline "$name")
  allowed=$(awk -v b="$base" 'BEGIN { printf "%.3f", b * 0.9 }')
  echo "bench_decode: $name: ${got} lanes per decode (baseline ${base}, gate >= ${allowed}, floor >= ${floor})"
  if awk -v g="$got" -v a="$allowed" 'BEGIN { exit !(g < a) }'; then
    echo "bench_decode: FAIL: $name regressed more than 10% below the committed baseline" >&2
    fail=1
  fi
  if awk -v g="$got" -v f="$floor" 'BEGIN { exit !(g < f) }'; then
    echo "bench_decode: FAIL: $name fell below the hard acceptance floor of ${floor}" >&2
    fail=1
  fi
}

check_workload planar-d5-plain-mwpm "$planar_lpd" "$FLOOR_PLANAR_D5"
check_workload hyper-30-8-3-3-flagged-mwpm "$mwpm_lpd" 1.0
check_workload hyper-30-8-3-3-flagged-unionfind "$uf_lpd" 1.0

if [ "$fail" -ne 0 ]; then
  echo "bench_decode: regression gate failed (if the change is an accepted tradeoff, rerun 'scripts/bench_decode.sh update' and commit the new baseline)" >&2
  exit 1
fi
echo "bench_decode: all workloads within 10% of the committed baseline"
