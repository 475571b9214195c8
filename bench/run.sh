#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the command BENCHMARK.json
# names. Everything the build writes (Go build cache included) stays under
# bench/out/ in the checkout. Arguments pass through to the program.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
