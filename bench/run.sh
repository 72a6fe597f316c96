#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the repository root.  Everything the Go toolchain writes (build cache,
# temporary files, the binary) goes under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
