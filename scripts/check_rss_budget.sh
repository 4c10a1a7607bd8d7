#!/bin/sh
# CI guard: the streaming pipelines must stay inside fixed peak-RSS
# budgets.  Each run is sized so the materializing path needs well
# over its budget, so a regression that quietly re-materializes
# per-shard traces or completion vectors trips the guard instead of
# landing.
#
# - fleet: 16 drives, 10 minutes.  The same shape with --stream off
#   peaks at ~3x the streamed figure (see bench_streaming).
# - analyze: a saturated OLTP trace of 1.43M requests, streamed.
#   Served into a response log it peaks at ~54 MiB; a 56-byte
#   completion record per request would take it to ~133 MiB, so the
#   budget sits at 80 MiB, between the two.
#
# Relies on dlwtool's own --max-rss-mb verdict (getrusage peak), so
# each budget covers the whole process, not just one stage.
#
# Usage: scripts/check_rss_budget.sh [repo-root] [dlwtool] [fleet-budget-mb]

set -u
root="${1:-$(dirname "$0")/..}"
tool="${2:-build/tools/dlwtool}"
budget="${3:-24}"
analyze_budget=80
cd "$root" || exit 2

if [ ! -x "$tool" ]; then
    echo "check_rss_budget: $tool not built" >&2
    exit 2
fi

if ! "$tool" fleet --drives 16 --threads 4 --rate 120 --minutes 10 \
        --max-rss-mb "$budget" > /dev/null; then
    echo "check_rss_budget: FAILED (fleet peak RSS over ${budget} MiB)" >&2
    exit 1
fi
echo "check_rss_budget: OK (fleet peak RSS within ${budget} MiB)"

dir=$(mktemp -d) || exit 2
trap 'rm -rf "$dir"' EXIT
if ! "$tool" generate --class oltp --rate 400 --minutes 60 --seed 9 \
        --out "$dir/sat.csv" > /dev/null; then
    echo "check_rss_budget: generate failed" >&2
    exit 2
fi
if ! "$tool" analyze --in "$dir/sat.csv" --max-rss-mb "$analyze_budget" \
        > /dev/null; then
    echo "check_rss_budget: FAILED (analyze peak RSS over" \
         "${analyze_budget} MiB)" >&2
    exit 1
fi
echo "check_rss_budget: OK (analyze peak RSS within ${analyze_budget} MiB)"
