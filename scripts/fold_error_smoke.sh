#!/bin/sh
# Fold-refusal smoke: the live fold's error text, end to end.
#
# Builds a fileserver trace, swaps records with `corrupt --mode
# reorder` (seed 3, count 5) and converts the result to the binary
# format as well.  Then, for both encodings:
#
#   1. `characterize` at --batch 1, --batch 7 and the default batch
#      must exit 1 with exactly the expected stderr line and no
#      stdout: the offset is the global stream offset, whatever the
#      batch size;
#   2. `stream` against a `serve` daemon must exit 1 and relay the
#      daemon's `DLWR1 error` line with the same text.
#
# Usage: scripts/fold_error_smoke.sh <path-to-dlwtool>
#
# Exits 0 on success, 1 on any mismatch.

set -u

tool="${1:?usage: fold_error_smoke.sh <path-to-dlwtool>}"
case "$tool" in
    /*) ;;
    *) tool="$(pwd)/$tool" ;;
esac

work="$(mktemp -d "${TMPDIR:-/tmp}/dlw_folderr.XXXXXX")"
server_pid=""

cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
    echo "fold_error_smoke: FAILED: $*" >&2
    exit 1
}

text="out-of-order arrival at stream offset 204 (8037129210 after 35827357865)"

"$tool" generate --class fileserver --rate 20 --minutes 1 \
    --out "$work/t.bin" >/dev/null || fail "generate"
"$tool" convert --in "$work/t.bin" --out "$work/t.csv" >/dev/null \
    || fail "convert"
"$tool" corrupt --in "$work/t.csv" --out "$work/bad.csv" \
    --mode reorder --seed 3 --count 5 >/dev/null || fail "corrupt"
"$tool" convert --in "$work/bad.csv" --out "$work/bad.bin" >/dev/null \
    || fail "convert the reordered trace"

printf 'dlwtool: [InvalidArgument] %s\n' "$text" > "$work/want.err"
for in in bad.csv bad.bin; do
    for batch in "--batch 1" "--batch 7" ""; do
        rc=0
        # shellcheck disable=SC2086 # $batch is two words or none
        "$tool" characterize --in "$work/$in" $batch \
            > "$work/got.out" 2> "$work/got.err" || rc=$?
        [ "$rc" -eq 1 ] || fail "characterize $in $batch exited $rc"
        [ ! -s "$work/got.out" ] \
            || fail "characterize $in $batch wrote a report"
        cmp -s "$work/want.err" "$work/got.err" \
            || fail "characterize $in $batch: $(cat "$work/got.err")"
    done
done

"$tool" serve --port 0 --port-file "$work/port" \
    2> "$work/server.log" &
server_pid=$!
i=0
while [ ! -s "$work/port" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "server did not write its port file"
    kill -0 "$server_pid" 2>/dev/null || fail "server died at startup"
    sleep 0.1
done
port="$(cat "$work/port")"

for in in bad.csv bad.bin; do
    rc=0
    "$tool" stream --in "$work/$in" --port "$port" \
        > "$work/got.out" 2> "$work/got.err" || rc=$?
    [ "$rc" -eq 1 ] || fail "stream $in exited $rc"
    grep -qxF "stream: server error: $text" "$work/got.err" \
        || fail "stream $in: $(cat "$work/got.err")"
done

kill -TERM "$server_pid"
wait "$server_pid" || fail "server did not drain cleanly"
server_pid=""
echo "fold_error_smoke: ok"
