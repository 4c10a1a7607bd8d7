#!/bin/sh
# Lint: one trace-derived fold.  The burstiness, R/W mix and totals
# accumulators are fed together only by core::LiveCharacterization
# (src/core/live.*), which analyze, characterize, characterizeMs and
# dlwd sessions all fold through.  Any other file in src/ or tools/
# that instantiates one of them (a variable, member, temporary or
# template argument) is a second copy of that fold.  Each
# accumulator's own files are exempt: they define it, and their
# one-accumulator wrappers run it.  Comment lines are not read.
#
# Usage: scripts/check_one_fold.sh [repo-root]

set -u
root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

accs='BurstinessAccumulator|RwMixAccumulator|TraceTotalsAccumulator'
# The type followed by a name, `(`, `{` or `>`: not a reference,
# pointer or qualified member.
use="(^|[^A-Za-z0-9_])(${accs})[[:space:]]*([A-Za-z_({]|>)"

bad=0
for f in $(find src tools -name '*.hh' -o -name '*.cc'); do
    case "$f" in
        src/core/live.hh|src/core/live.cc) continue ;;
        src/core/burstiness.hh|src/core/burstiness.cc) continue ;;
        src/core/rwmix.hh|src/core/rwmix.cc) continue ;;
        src/core/pass.hh|src/core/pass.cc) continue ;;
    esac
    if sed -e 's://.*$::' -e 's:^[[:space:]]*\(/\*\|\*\).*$::' "$f" |
        grep -nE "$use"; then
        echo "error: $f instantiates a trace-fold accumulator" \
             "(fold through core::LiveCharacterization)" >&2
        bad=1
    fi
done

if [ "$bad" != 0 ]; then
    echo "check_one_fold: FAILED" >&2
    exit 1
fi
echo "check_one_fold: OK"
