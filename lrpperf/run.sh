#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash lrpperf/run.sh --workload live-kv --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay in .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f lrpperf/go.mod ]]; then
	echo "lrpperf: run from the root of the lrp repository" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd lrpperf && go build -o "$out/bin/lrpperf" .)
exec "$out/bin/lrpperf" "$@"
