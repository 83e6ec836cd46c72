#!/usr/bin/env bash
# loc.sh — non-test Go lines per package under internal/ and cmd/ (plain
# `wc -l`: comments and blank lines count). With a git revision, each line
# also carries the delta against that revision, read with `git show` (no
# worktree): a simplicity PR's numbers come from `scripts/loc.sh <base>`.
# No gate; ROADMAP states its targets in this script's figures.
#
# Usage: scripts/loc.sh [rev]
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-}

declare -A now was
for f in $(find internal cmd -name '*.go' ! -name '*_test.go'); do
  d=$(dirname "$f")
  now[$d]=$((${now[$d]:-0} + $(wc -l <"$f")))
done
if [ -n "$rev" ]; then
  git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
  for f in $(git ls-tree -r --name-only "$rev" -- internal cmd | grep '\.go$' | grep -v '_test\.go$'); do
    d=$(dirname "$f")
    was[$d]=$((${was[$d]:-0} + $(git show "$rev:$f" | wc -l)))
  done
fi

total=0 before=0
for d in $(printf '%s\n' "${!now[@]}" "${!was[@]}" | sort -u); do
  n=${now[$d]:-0} w=${was[$d]:-0}
  if [ -n "$rev" ]; then
    printf '%7d %+6d  %s\n' "$n" $((n - w)) "$d"
  else
    printf '%7d  %s\n' "$n" "$d"
  fi
  total=$((total + n)) before=$((before + w))
done
if [ -n "$rev" ]; then
  printf '%7d %+6d  total (%d at %s)\n' "$total" $((total - before)) "$before" "$(git rev-parse --short "$rev")"
else
  printf '%7d  total\n' "$total"
fi
