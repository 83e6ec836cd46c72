#!/usr/bin/env bash
# reach.sh — fails when a package under internal/ is reached by no binary.
# Every package `go list ./internal/...` prints must be in the `go list
# -deps` of ./cmd/... and ./examples/..., or of the benchmark module
# (benchmark/, a module of its own), unless the allowlist below names it
# with the reason it stays. An allowlisted package that a binary now
# reaches, or that no longer exists, fails as well, so the list cannot go
# stale.
#
# Usage: scripts/reach.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Packages only tests import, each with the reason it stays.
declare -A allow=(
  [streamop/internal/agg/aggref]="row-form aggregates the operator's oracle and the engine's fold reference compare against (ROADMAP item 2 moves them into the interpreter)"
  [streamop/internal/sample/heavyhitter]="the Manku-Motwani summary operator_test compares the heavy-hitter query against"
)

all=$(go list ./internal/...)
reached=$({
  go list -deps ./cmd/... ./examples/...
  (cd benchmark && go list -deps ./...)
} | sort -u)

fail=0
for p in $all; do
  if grep -qxF "$p" <<<"$reached"; then
    if [ -n "${allow[$p]:-}" ]; then
      echo "reach.sh: $p is allowlisted but a binary reaches it now: drop it from the list" >&2
      fail=1
    fi
  elif [ -z "${allow[$p]:-}" ]; then
    echo "reach.sh: no binary, example or benchmark reaches $p" >&2
    fail=1
  fi
done
for p in "${!allow[@]}"; do
  if ! grep -qxF "$p" <<<"$all"; then
    echo "reach.sh: allowlisted $p no longer exists: drop it from the list" >&2
    fail=1
  fi
done
if [ "$fail" = 0 ]; then
  echo "reach.sh: all $(wc -l <<<"$all") internal packages reached (${#allow[@]} allowlisted)"
fi
exit "$fail"
