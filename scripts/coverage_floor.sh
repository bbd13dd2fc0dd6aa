#!/bin/sh
# Coverage floor gate for the arithmetic core, the capture path (RV32
# simulator, power model and noise sampler), the attack path (linear algebra, template
# scoring, DBDD, segmentation and classification) and the campaign
# service (job queue and lease protocol, WAL, the segmented log under it
# and the quality history, executor) and the experiment claims: each
# package listed in scripts/coverage_floor.txt must keep its statement
# coverage at or above the committed floor. Raise a floor when coverage
# improves; lowering one is a reviewed decision, not a silent CI edit.
#
# Usage: scripts/coverage_floor.sh [floor-file]
set -eu

floor_file="${1:-scripts/coverage_floor.txt}"
status=0

while read -r pkg floor; do
    case "$pkg" in ''|'#'*) continue ;; esac
    line=$(go test -cover -count=1 "$pkg" | grep "^ok" || true)
    if [ -z "$line" ]; then
        echo "FAIL  $pkg: tests failed or no coverage line"
        status=1
        continue
    fi
    pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "FAIL  $pkg: could not parse coverage from: $line"
        status=1
        continue
    fi
    ok=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "ok    $pkg: ${pct}% >= floor ${floor}%"
    else
        echo "FAIL  $pkg: ${pct}% < floor ${floor}%"
        status=1
    fi
done < "$floor_file"

exit $status
