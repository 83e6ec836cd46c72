#!/usr/bin/env bash
# bench.sh — run the core benchmark suite and record the results as JSON.
#
# Usage: scripts/bench.sh [benchtime]
#
#   benchtime   value for -benchtime (default 1x: one iteration of every
#               benchmark — the figure harnesses report their paper
#               metrics on a single pass, and the overhead guards
#               self-extend to 5 measurement pairs)
#
# Writes BENCH_core.json in the repo root: a JSON array with one object
# per benchmark, carrying ns/op plus every custom metric the benchmark
# reports (relative errors, CPU fractions, overhead percentages, ...).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-1x}"
out="BENCH_core.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run='^$' -bench=. -benchtime="$benchtime" ./... | tee "$raw"

# Benchmark result lines look like:
#   BenchmarkName-8   3   123456 ns/op   1.23 metric-a   4.56 metric-b
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"iterations\": %s", name, $2
    for (i = 3; i + 1 <= NF; i += 2)
        printf ", \"%s\": %s", $(i + 1), $i
    printf "}"
}
END { print "\n]" }
' "$raw" > "$out"

# An empty array means the awk pass matched no benchmark lines (a renamed
# prefix, a compile failure swallowed by tee, ...): fail loudly instead of
# committing a hollow artifact.
require_nonempty() {
    if ! grep -q '"name"' "$1"; then
        echo "bench.sh: $1 contains no benchmark results" >&2
        exit 1
    fi
}
require_nonempty "$out"

# Hot-loop pass: the batch-path micro-benchmark (operator throughput) is
# meaningless at one iteration — a single pass is dominated by first-touch
# setup. Rerun it at a fixed iteration count and replace its entry in
# BENCH_core.json, so the committed ns/op figure is a steady-state
# hot-loop number.
hot_benchtime="200000x"
hraw="$(mktemp)"
hjson="$(mktemp)"
trap 'rm -f "$raw" "$hraw" "$hjson"' EXIT

go test -run='^$' -bench='^BenchmarkOperatorThroughput$' \
    -benchtime="$hot_benchtime" . | tee "$hraw"

awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"iterations\": %s", name, $2
    for (i = 3; i + 1 <= NF; i += 2)
        printf ", \"%s\": %s", $(i + 1), $i
    printf "}"
}
END { print "\n]" }
' "$hraw" > "$hjson"
require_nonempty "$hjson"

jq -s '.[1] as $hot
    | [$hot[].name] as $names
    | [.[0][] | select(.name as $n | $names | index($n) | not)] + $hot' \
    "$out" "$hjson" > "$out.tmp" && mv "$out.tmp" "$out"

echo "wrote $out"
