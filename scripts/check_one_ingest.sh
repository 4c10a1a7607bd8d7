#!/bin/sh
# Lint: one ingest path.  Every text decoder in src/trace splits its
# input with the LineReader in src/trace/gate.hh, so std::getline has
# no place there.  And the IngestStats counters move only in the Gate
# (gate.hh) and in IngestStats itself (ingest.cc), so the policy
# arithmetic cannot drift between formats.  Like check_no_fatal.sh,
# the getline grep covers comments too.
#
# Usage: scripts/check_one_ingest.sh [repo-root]

set -u
root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

bad=0
for f in $(find src/trace -name '*.hh' -o -name '*.cc'); do
    if grep -n "std::getline" "$f"; then
        echo "error: $f uses std::getline (read lines with LineReader)" >&2
        bad=1
    fi
done

# A write is ++/-- on, or an assignment to, `<expr>.<counter>` or
# `<expr>-><counter>`.
counters='records_read|records_skipped|records_clamped|bytes_read|bytes_recovered'
member='[A-Za-z_][A-Za-z0-9_]*((\.|->)[A-Za-z_][A-Za-z0-9_]*)*(\.|->)'
pre="(\+\+|--)[[:space:]]*${member}(${counters})([^A-Za-z0-9_]|\$)"
post="(\.|->)(${counters})[[:space:]]*(\+\+|--|[-+*/%|&^]?=([^=]|\$))"
for f in $(find src tools -name '*.hh' -o -name '*.cc'); do
    case "$f" in
        src/trace/gate.hh|src/trace/ingest.cc) continue ;;
    esac
    if grep -nE "$pre|$post" "$f"; then
        echo "error: $f writes an IngestStats counter (go through Gate)" >&2
        bad=1
    fi
done

if [ "$bad" != 0 ]; then
    echo "check_one_ingest: FAILED" >&2
    exit 1
fi
echo "check_one_ingest: OK"
