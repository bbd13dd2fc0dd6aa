#!/bin/sh
# Benchmark regression gate for the attack hot path: run the snapshotting
# stage benchmarks (profile -> segment -> classify -> attack), emit one
# BENCH_<name>.json per benchmark, and compare each against its committed
# bench_snapshots/baseline_BENCH_<name>.json with `revealctl compare`.
#
# Tolerances are direction-aware: quality metrics (value-acc-%, sign-acc-%)
# gate at BENCH_TOL in either artifact kind, wall-clock metrics (ns_per_op,
# *_seconds, items_per_second) gate at the looser BENCH_PERF_TOL and only
# fail when they move the wrong way. A metric that vanished from the new
# run also fails: results silently disappearing is a regression.
#
# Usage: scripts/bench_gate.sh [snapshot-dir] [baseline-dir]
#   BENCH_PATTERN  benchmarks to run      (default: the snapshotted stages)
#   BENCH_TIME     -benchtime             (default: 1x)
#   BENCH_COUNT    -count                 (default: 3)
#   BENCH_TOL      quality tolerance      (default: 0.05)
#   BENCH_PERF_TOL wall-clock tolerance   (default: 0.5 — fails a 2x slowdown,
#                                          absorbs scheduler noise)
set -eu

snap_dir="${1:-bench_snapshots/current}"
base_dir="${2:-bench_snapshots}"
pattern="${BENCH_PATTERN:-BenchmarkTable1TemplateAttack|BenchmarkClassifyStage|BenchmarkSegmentStage|BenchmarkDeviceCapture|BenchmarkHistoryAppend|BenchmarkHistoryQuery|BenchmarkNTT\$|BenchmarkRNSMul\$|BenchmarkTracegen\$|BenchmarkStream\$}"
bench_time="${BENCH_TIME:-1x}"
bench_count="${BENCH_COUNT:-3}"
tol="${BENCH_TOL:-0.05}"
perf_tol="${BENCH_PERF_TOL:-0.5}"
# Sub-millisecond stage percentiles are timer-quantized — one scheduler
# tick swings them 50%+ — so the per-stage aggregates gate loosely while
# the headline ns_per_op and the quality metrics stay tight. The streaming
# time-to-first-hint is microsecond-scale (one chunk + one classification)
# and equally scheduler-bound, so it shares the loose bound.
stage_tol="${BENCH_STAGE_TOL:-2}"
ttfh_tol="${BENCH_TTFH_TOL:-2}"

mkdir -p "$snap_dir"

echo "== running benchmarks ($pattern, -benchtime $bench_time -count $bench_count)"
BENCH_SNAPSHOT_DIR="$snap_dir" go test -run '^$' -bench "$pattern" \
    -benchtime "$bench_time" -count "$bench_count" .

revealctl="$snap_dir/revealctl-gate"
go build -o "$revealctl" ./cmd/revealctl

status=0
compared=0
for new in "$snap_dir"/BENCH_*.json; do
    [ -e "$new" ] || continue
    name=$(basename "$new")
    base="$base_dir/baseline_$name"
    if [ ! -f "$base" ]; then
        echo "skip  $name: no committed baseline at $base"
        continue
    fi
    compared=$((compared + 1))
    echo "== $name vs $base (tol $tol, perf-tol $perf_tol)"
    if "$revealctl" compare -gate-perf -tol "$tol" -perf-tol "$perf_tol" \
        -metric-tol "stage.*=$stage_tol" \
        -metric-tol "metrics.time_to_first_hint_ns=$ttfh_tol" \
        "$base" "$new"; then
        echo "ok    $name"
    else
        echo "FAIL  $name regressed"
        status=1
    fi
done

if [ "$compared" = 0 ]; then
    echo "FAIL  no benchmark snapshots were compared (pattern or baselines wrong?)"
    status=1
fi

exit $status
