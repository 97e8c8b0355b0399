#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload local-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
