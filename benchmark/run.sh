#!/usr/bin/env bash
# The benchmark's single command (BENCHMARK.json): build the harness from
# source inside the checkout, then run it with the arguments given.
# Everything go writes — build cache, binaries, its own bookkeeping — is
# kept under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOENV=off GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/streambench" .)
# Compile gsqd's packages into the cache now, so the build that set-up
# times is the same warm build on the first run as on every later one.
(cd "$root" && go build -o "$build/gsqd-warm" ./cmd/gsqd)
exec "$build/streambench" -root "$root" "$@"
