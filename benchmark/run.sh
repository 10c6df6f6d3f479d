#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the harness from
# source inside the checkout, then run it with the driver's arguments.
# Everything it writes — Go build cache, binary, store files, span files —
# stays under the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/sofa-benchmark" .)
exec "$build/sofa-benchmark" -tmp "$build/tmp" -out "$here/out" "$@"
