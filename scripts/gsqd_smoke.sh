#!/usr/bin/env bash
# gsqd smoke: drive the standing-query server end to end over real HTTP
# — the deployment shape no in-process httptest covers. Start gsqd on a
# bursty feed at an ephemeral port, install a tap-backed standing query
# over HTTP, assert SSE rows arrive on a live stream, jq-validate the
# /metrics and /debug/state surfaces, uninstall, and shut the server
# down with SIGTERM, expecting a graceful drain (docs/SERVER.md).
#
# A second phase proves durable sessions at the process level: a gsqd
# with -state-dir is killed with SIGKILL (no drain, no final anything
# the process controls) and restarted on the same directory; the restart
# must re-install the standing query from the boundary snapshots and
# serve rows for it again (docs/ROBUSTNESS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "gsqd_smoke: jq required" >&2; exit 1; }

workdir=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/gsqd" ./cmd/gsqd

# Ephemeral port; high speedup so windows close quickly on the paced feed.
"$workdir/gsqd" -addr 127.0.0.1:0 -feed bursty -duration 30 -seed 7 \
  -speedup 200 2>"$workdir/gsqd.err" &
pid=$!

# The server prints "gsqd: listening on http://HOST:PORT (...)" once bound.
base=
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || { cat "$workdir/gsqd.err" >&2; exit 1; }
  base=$(sed -n 's/^gsqd: listening on \(http:\/\/[^ ]*\).*/\1/p' "$workdir/gsqd.err")
  [ -n "$base" ] && break
  sleep 0.1
done
[ -n "$base" ] || { echo "gsqd_smoke: server never bound" >&2; cat "$workdir/gsqd.err" >&2; exit 1; }
echo "gsqd_smoke: server at $base"

curl -fsS "$base/healthz" | jq -e '.status == "ok" and .session_active == true' >/dev/null

# Install a standing query: shared tap + aggregating high-level query.
curl -fsS -X POST "$base/queries" -d '{
  "name": "heavy",
  "via":  "SELECT time, srcIP, len, uts FROM PKT WHERE len >= 1500",
  "query":"SELECT tb, srcIP, sum(len) FROM tap GROUP BY time/1 as tb, srcIP"
}' >"$workdir/install.json"
jq -e '.name == "heavy" and .via == "tap" and (.explain | length > 0)' "$workdir/install.json" >/dev/null
curl -fsS "$base/queries" | jq -e '.queries | length == 1' >/dev/null

# SSE rows arrive on a live stream: collect events for a few seconds,
# then require at least 3 complete row events with sum values.
curl -sN --max-time 6 "$base/queries/heavy/rows" >"$workdir/rows.sse" || true
rows=$(grep -c '^event: row$' "$workdir/rows.sse")
[ "$rows" -ge 3 ] || { echo "gsqd_smoke: only $rows SSE rows" >&2; cat "$workdir/rows.sse" >&2; exit 1; }
grep '^data: {' "$workdir/rows.sse" | head -n "$rows" | sed 's/^data: //' \
  | jq -se 'all(.[]; .["sum(len)"] > 0 and has("tb") and has("srcIP"))' >/dev/null
echo "gsqd_smoke: $rows SSE rows received"

# Telemetry surfaces on the same listener.
curl -fsS "$base/metrics" | grep '^streamop_session_queries 1$' >/dev/null
curl -fsS "$base/metrics.json" | jq -e '.metrics | map(.name) | index("streamop_engine_packets") != null' >/dev/null
curl -fsS "$base/debug/state" >"$workdir/state.json"
jq -e '.engine.session.active == true' "$workdir/state.json" >/dev/null
jq -e '.engine.session.queries == ["heavy"] and .engine.session.taps == ["tap"]' "$workdir/state.json" >/dev/null
jq -e '.engine.ring.pushed > 0' "$workdir/state.json" >/dev/null
curl -fsS "$base/debug/plan" | jq -e '.engine | length == 2' >/dev/null
# The daemon profiles every session: the installed query is in the report
# with time on its walk or its window flushes.
curl -fsS "$base/debug/profile" | jq -e '.engine.nodes | map(select(.node == "heavy")) | length == 1
  and ([.[0].stages[] | select(.stage == "walk" or .stage == "flush") | .self_ns] | add > 0)' >/dev/null

# Uninstall: 204, query gone, SSE subscribers of it would see event: end.
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "$base/queries/heavy")
[ "$code" = 204 ] || { echo "gsqd_smoke: DELETE returned $code" >&2; exit 1; }
curl -fsS "$base/queries" | jq -e '.queries | length == 0' >/dev/null
curl -fsS "$base/healthz" | jq -e '.queries == 0 and .taps == 0' >/dev/null

# Graceful shutdown on SIGTERM: the session drains and the process exits 0.
kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "gsqd_smoke: server ignored SIGTERM" >&2
  exit 1
fi
wait "$pid" && status=0 || status=$?
pid=
[ "$status" -eq 0 ] || { echo "gsqd_smoke: exit status $status" >&2; cat "$workdir/gsqd.err" >&2; exit 1; }
grep -q 'gsqd: drained; bye' "$workdir/gsqd.err"
echo "gsqd_smoke: graceful shutdown OK"

# ---------------------------------------------------------------------------
# Durable-session phase: kill -9, restart, queries recovered, rows again.

statedir="$workdir/state"
start_durable() { # $1 = stderr log
  "$workdir/gsqd" -addr 127.0.0.1:0 -feed bursty -duration 30 -seed 7 \
    -speedup 200 -state-dir "$statedir" -checkpoint-every 1 2>"$1" &
  pid=$!
  base=
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || { cat "$1" >&2; exit 1; }
    base=$(sed -n 's/^gsqd: listening on \(http:\/\/[^ ]*\).*/\1/p' "$1")
    [ -n "$base" ] && break
    sleep 0.1
  done
  [ -n "$base" ] || { echo "gsqd_smoke: durable server never bound" >&2; cat "$1" >&2; exit 1; }
}

start_durable "$workdir/gsqd-life1.err"
echo "gsqd_smoke: durable server (life 1) at $base"
curl -fsS -X POST "$base/queries" -d '{
  "name": "survivor",
  "via":  "SELECT time, srcIP, len, uts FROM PKT WHERE len >= 1500",
  "query":"SELECT tb, srcIP, sum(len) FROM tap GROUP BY time/1 as tb, srcIP",
  "quota": {"rows_per_sec": 1000, "warn_lag": 64, "detach_after": 4096}
}' | jq -e '.name == "survivor"' >/dev/null

# Let rows flow (so operator state exists) and snapshots land on disk.
curl -sN --max-time 6 "$base/queries/survivor/rows" >"$workdir/rows1.sse" || true
rows1=$(grep -c '^event: row$' "$workdir/rows1.sse")
[ "$rows1" -ge 3 ] || { echo "gsqd_smoke: only $rows1 pre-kill rows" >&2; exit 1; }
ls "$statedir" | grep . >/dev/null || { echo "gsqd_smoke: no snapshots in $statedir" >&2; exit 1; }

kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=
echo "gsqd_smoke: killed -9 with $(ls "$statedir" | wc -l) snapshots on disk"

start_durable "$workdir/gsqd-life2.err"
echo "gsqd_smoke: durable server (life 2) at $base"
grep -q 'gsqd: recovered 1 queries' "$workdir/gsqd-life2.err" \
  || { echo "gsqd_smoke: restart did not report a recovery" >&2; cat "$workdir/gsqd-life2.err" >&2; exit 1; }
curl -fsS "$base/healthz" >"$workdir/health2.json"
jq -e '.queries == 1 and .recovered_queries == ["survivor"] and .recovered_packets > 0' \
  "$workdir/health2.json" >/dev/null
curl -fsS "$base/queries/survivor" >"$workdir/survivor2.json"
jq -e '.rows_out > 0 and .quota.rows_per_sec == 1000' "$workdir/survivor2.json" >/dev/null

# The recovered query serves rows again over a fresh SSE stream.
curl -sN --max-time 6 "$base/queries/survivor/rows" >"$workdir/rows2.sse" || true
rows2=$(grep -c '^event: row$' "$workdir/rows2.sse")
[ "$rows2" -ge 3 ] || { echo "gsqd_smoke: only $rows2 post-restart rows" >&2; cat "$workdir/gsqd-life2.err" >&2; exit 1; }
echo "gsqd_smoke: recovered query streaming again ($rows2 rows)"

kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
wait "$pid" && status=0 || status=$?
pid=
[ "$status" -eq 0 ] || { echo "gsqd_smoke: durable shutdown exit $status" >&2; exit 1; }
echo "gsqd_smoke: durable kill -9 recovery OK"
