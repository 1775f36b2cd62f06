#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the go
# tool writes (binary, build cache, module path, its own config and
# telemetry counters) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS= go build -o "$build/vpbenchmark" .
) >&2
cd "$root"
exec "$build/vpbenchmark" "$@"
