#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of a checkout; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload sweep-jobs --seed 1 --seconds 40 --trace 0
#
# The build cache, module cache, temporary files and binary live in
# .bench_build under the checkout, so nothing is written outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
