#!/usr/bin/env bash
# loc.sh — non-test Go lines per package under internal/ and cmd/ (plain
# `wc -l`: comments and blank lines count). No gate; ROADMAP's "One
# execution core" target is stated in this script's internal/engine figure.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in $(find internal cmd -type d | sort); do
  files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
  [ -n "$files" ] || continue
  # shellcheck disable=SC2086
  n=$(cat $files | wc -l)
  printf '%7d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
