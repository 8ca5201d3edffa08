#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): builds the
# benchmark — a module of its own beside the repository's, which it
# replaces in from .. — from source into .bench_build/ in the checkout
# and runs it from the checkout's root with the arguments given. The
# Go build cache, module cache and telemetry directory are put under
# .bench_build/ too, so nothing is written outside the checkout.
# Without the repository around it the build fails and so does this.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$build/xrel-benchmark" .)
exec "$build/xrel-benchmark" "$@"
