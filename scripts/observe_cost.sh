#!/bin/sh
# Prices observing a run: alternates BenchmarkSSAClock (no observer) and
# BenchmarkSSAClockObserved (a RegistryObserver only), or the watched
# variant named as WITH (SSAClockInstrumented: clock watchers plus an
# observer), for PAIRS pairs at a fixed iteration count, so both sides
# simulate the same seeds, and prints each side's median and quartiles in
# ms per run.
#
#   scripts/observe_cost.sh [PAIRS] [ITERS] [WITH]   # defaults 10, 300, SSAClockObserved
set -eu
cd "$(dirname "$0")/.."
pairs=${1:-10}
iters=${2:-300}
with=${3:-SSAClockObserved}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go test -c -o "$out/bench.test" .
i=0
while [ "$i" -lt "$pairs" ]; do
  for b in SSAClock "$with"; do
    "$out/bench.test" -test.run=NONE -test.bench="^Benchmark$b\$" \
      -test.benchtime="${iters}x" | awk '/^Benchmark/ { print $3 / 1e6 }' >>"$out/$b"
  done
  i=$((i + 1))
done
for b in SSAClock "$with"; do
  # Quantiles by linear interpolation between the sorted samples.
  sort -g "$out/$b" | awk -v name="$b" '
    function q(p,  x, k) { x = 1 + p * (NR - 1); k = int(x); return v[k] + (x - k) * (v[k + (k < NR)] - v[k]) }
    { v[NR] = $1 }
    END { printf "%-21s n=%d  median %.3f ms  quartiles %.3f-%.3f ms\n", name, NR, q(0.5), q(0.25), q(0.75) }'
done
