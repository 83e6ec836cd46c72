#!/usr/bin/env bash
# Kill-and-resume smoke for the checkpoint subsystem: SIGKILL a
# checkpointed gsq run mid-stream, resume it with -restore, and splice
# the two outputs against an uninterrupted reference run. This exercises
# the one crash path no in-process test can — the process dies with no
# shutdown handler running — so it leans entirely on the atomic snapshot
# writes and the newest-valid fallback in internal/checkpoint.
#
# Usage: scripts/kill_resume_smoke.sh [query [gsq flags...]]
# The default query is a sampling operator's; CI also runs a plain grouping
# query with -partial 4096, the partial-aggregation table's codec.
#
# Splice contract (docs/ROBUSTNESS.md): with R = the rows count from the
# restore banner, the first R rows of the interrupted run followed by
# every row of the resumed run must equal the reference byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

query=${1:-'SELECT tb, srcIP, sum(len) FROM PKT WHERE ssample(len, 100, 2, 10) = TRUE GROUP BY time/1 as tb, srcIP'}
flags=(-query "$query" -feed steady -duration 20 -seed 3 -ring 4096 "${@:2}")

go build -o "$workdir/gsq" ./cmd/gsq

# Uninterrupted reference.
"$workdir/gsq" "${flags[@]}" >"$workdir/ref.csv"

# Checkpointed run, killed hard once rows are demonstrably flowing and a
# snapshot has landed (rows alone do not mean a window has closed: a
# partial-aggregation table evicts from the first collision on).
"$workdir/gsq" "${flags[@]}" -checkpoint "$workdir/ckpt" -checkpoint-every 1 \
  >"$workdir/interrupted.csv" 2>"$workdir/interrupted.err" &
pid=$!
for _ in $(seq 1 400); do
  kill -0 "$pid" 2>/dev/null || break
  if [ "$(wc -l <"$workdir/interrupted.csv")" -gt 40 ] && compgen -G "$workdir/ckpt/*.sopc" >/dev/null; then
    kill -9 "$pid"
    break
  fi
  sleep 0.05
done
wait "$pid" 2>/dev/null || true

# Resume from the newest valid snapshot over the same feed config.
"$workdir/gsq" "${flags[@]}" -checkpoint "$workdir/ckpt" -restore \
  >"$workdir/resumed.csv" 2>"$workdir/resumed.err"

tail -n +2 "$workdir/ref.csv" >"$workdir/ref.body"
tail -n +2 "$workdir/interrupted.csv" >"$workdir/int.body"
tail -n +2 "$workdir/resumed.csv" >"$workdir/res.body"

if grep -q 'starting fresh' "$workdir/resumed.err"; then
  # The run died before its first snapshot landed: the resumed run
  # replayed the whole feed, so it alone must match the reference.
  echo "kill_resume_smoke: no snapshot survived the kill; comparing full replay"
  diff "$workdir/ref.body" "$workdir/res.body"
else
  rows=$(sed -n 's/.* rows=\([0-9][0-9]*\) from .*/\1/p' "$workdir/resumed.err")
  if [ -z "$rows" ]; then
    echo "kill_resume_smoke: no restore banner on stderr:" >&2
    cat "$workdir/resumed.err" >&2
    exit 1
  fi
  head -n "$rows" "$workdir/int.body" >"$workdir/splice"
  cat "$workdir/res.body" >>"$workdir/splice"
  diff "$workdir/ref.body" "$workdir/splice"
  echo "kill_resume_smoke: splice at row $rows matches reference ($(wc -l <"$workdir/ref.body") rows)"
fi
