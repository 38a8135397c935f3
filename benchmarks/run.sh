#!/usr/bin/env bash
# Builds eeperf from source into the checkout's build directory and runs
# it with the arguments given: the command BENCHMARK.json names.
#
#   bash benchmarks/run.sh --workload paper_streams --seed 2009 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays inside the checkout, under .bench_build/ (or CARGO_TARGET_DIR,
# which the benchmark driver points at the same place).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "benchmarks/run.sh: run from the root of an energydb checkout (no go.mod / internal/core here)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

go build -o "$out/eeperf" ./benchmarks/eeperf
exec "$out/eeperf" "$@"
