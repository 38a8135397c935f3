#!/usr/bin/env bash
# eeperf-gate: the two gates eeperf's deterministic numbers support, on the
# seed that has committed goldens. Run from the root of a checkout.
#
#   bash .github/scripts/eeperf-gate.sh
#
# Per workload (4 s of measured phase each):
#   1. The model clock: a fingerprint mismatch (non-zero exit) or a "model
#      clock differs from the golden's" note is a change to the experiment
#      itself and fails unless the PR regenerated benchmarks/golden/.
#   2. The counts: host_allocs_per_stmt and host_alloc_kb_per_stmt are
#      counted by the runtime, not timed — they read the same at --seconds 4
#      and --seconds 15 and repeat to ±0.05 % — so each is held under its
#      ceiling in .github/eeperf-ceilings.json: the value measured by the PR
#      that last moved it × 1.02 (BENCHMARK.json's bound for both). A PR
#      that lowers a count lowers its ceiling.
# Host wall-clock numbers are not judged: this box is not the benchmark box.
#
# Then every experiment's printed numbers: `eebench -exp all` (E1–E8 and the
# streams and policies tables, ≈ 25 s) must print
# internal/bench/testdata/eebench.golden byte for byte. A change to an
# experiment regenerates that golden
#   go run ./cmd/eebench -exp all >internal/bench/testdata/eebench.golden
# and says what moved and why, as a regenerated eeperf golden does.
set -euo pipefail

ceilings="$(cd "$(dirname "$0")/.." && pwd)/eeperf-ceilings.json"
summary="${GITHUB_STEP_SUMMARY:-/dev/stdout}"
fail=0

{
	echo "## eeperf counts vs ceilings (seed 2009)"
	echo "| workload | metric | value | ceiling | headroom |"
	echo "|---|---|---|---|---|"
} >>"$summary"

for w in paper_streams analytic_lone wire_short tenant_mix; do
	out=$(bash benchmarks/run.sh --workload "$w" --seed 2009 --seconds 4 --trace 0)
	echo "$out"
	if grep -q "model clock differs from the golden's" <<<"$out"; then
		echo "::error::$w: model clock differs from benchmarks/golden/$w.seed2009.json"
		fail=1
	fi
	result=$(grep '"metrics"' <<<"$out" | tail -n 1)
	for m in host_allocs_per_stmt host_alloc_kb_per_stmt; do
		value=$(jq -r ".metrics.$m.value" <<<"$result")
		ceiling=$(jq -r ".$w.$m" "$ceilings")
		if [ "$value" = null ] || [ "$ceiling" = null ]; then
			echo "::error::$w: no $m in the result line or in $ceilings"
			fail=1
			continue
		fi
		headroom=$(jq -n "100 * ($ceiling - $value) / $ceiling | . * 100 | round / 100")
		echo "| $w | $m | $value | $ceiling | $headroom % |" >>"$summary"
		if jq -en "$value > $ceiling" >/dev/null; then
			echo "::error::$w: $m = $value exceeds its ceiling $ceiling (.github/eeperf-ceilings.json)"
			fail=1
		fi
	done
done

if ! go run ./cmd/eebench -exp all | diff -u internal/bench/testdata/eebench.golden -; then
	echo "::error::eebench -exp all differs from internal/bench/testdata/eebench.golden"
	fail=1
fi
exit $fail
