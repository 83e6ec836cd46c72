#!/usr/bin/env bash
# accuracy.sh — run the empirical CI-coverage audit and record the result
# as JSON.
#
# Usage: scripts/accuracy.sh [quick]
#
#   quick   any non-empty value shrinks the audit to the CI smoke size
#           (20 windows of 4s per family instead of 40 windows of 10s)
#
# Writes BENCH_accuracy.json in the repo root: a JSON array with one
# object per sampling family (subset-sum, reservoir, priority) carrying
# the empirical coverage of the nominal 95% confidence intervals that
# ESTIMATE ... WITH ERROR reports, plus per-window estimate/stderr/CI/ESS
# detail. The run is fully seeded, so the artifact is reproducible: CI
# reruns the full audit and requires the committed file to match it byte
# for byte, so commit only a full (not quick) run.
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_accuracy.json"
quick_flag=""
if [ -n "${1:-}" ]; then
    quick_flag="-quick"
fi

go run ./cmd/experiments -fig coverage $quick_flag -coverage-out "$out"

# A hollow artifact (no families, or one that never audited a window)
# means the audit silently failed: fail loudly instead of committing it.
require_families() {
    if ! grep -q '"family"' "$1"; then
        echo "accuracy.sh: $1 contains no family results" >&2
        exit 1
    fi
    if grep -q '"total": 0' "$1"; then
        echo "accuracy.sh: $1 has a family with zero audited windows" >&2
        exit 1
    fi
}
require_families "$out"

echo "wrote $out"
