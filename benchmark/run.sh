#!/usr/bin/env bash
# The BENCHMARK.json command: builds the benchmark from source inside the
# checkout and runs it. Everything the toolchain writes (build cache,
# temporary files, its own config) and everything the benchmark writes
# (tiered_cold's epoch images) lands under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod next to benchmark/: nothing to build against" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/upanns-benchmark" ./benchmark
exec "$out/upanns-benchmark" -tmp "$out/tmp" "$@"
