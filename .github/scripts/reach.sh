#!/usr/bin/env bash
# reach: which functions under internal/ does no non-test entry point
# execute? Builds every main package with coverage instrumentation over the
# whole module, drives them the way they are really used — the four eeperf
# workloads traced, every eebench experiment, an eesim day, the examples,
# an eedb script under each objective — and lists the internal/ functions
# whose coverage is 0.0 %. The list is a report, not a verdict: it is what a
# deletion PR starts from (ROADMAP 3(g)), and nothing here fails a build.
#
#   bash .github/scripts/reach.sh [outdir]     # default ./reach-out
#
# The main package has to be inside -coverpkg, or a go1.24 binary writes no
# counter files at exit; energydb/... covers cmd/, examples/ and benchmarks/.
set -uo pipefail

out="${1:-reach-out}"
rm -rf "$out/cov" # counters of an earlier run would merge in
mkdir -p "$out/bin" "$out/cov" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCOVERDIR="$out/cov"

mains=(./benchmarks/eeperf ./cmd/eebench ./cmd/eesim ./cmd/eedb ./cmd/dbgen
	./examples/consolidation ./examples/energy_optimizer ./examples/quickstart
	./examples/scan_compression ./examples/tpch_throughput)
for m in "${mains[@]}"; do
	go build -cover -coverpkg=energydb/... -o "$out/bin/$(basename "$m")" "$m" || echo "reach: build of $m failed" >&2
done

run() { echo "reach: $*" >&2; "$@" >/dev/null || echo "reach: exit $? from: $*" >&2; }

for w in paper_streams analytic_lone wire_short tenant_mix; do
	run "$out/bin/eeperf" --workload "$w" --seed 2009 --seconds 4 --trace 1
done
run "$out/bin/eebench" -exp all
run "$out/bin/eesim" -tenants 4 -days 1
run "$out/bin/dbgen" -sf 0.001 -o "$out/tmp"
for e in consolidation energy_optimizer quickstart scan_compression tpch_throughput; do
	run "$out/bin/$e"
done
for obj in time energy edp; do
	echo "reach: eedb -objective $obj" >&2
	"$out/bin/eedb" -tpch 0.01 -objective "$obj" >/dev/null <<'SQL'
CREATE TABLE pets (id BIGINT, name VARCHAR(10), weight DOUBLE);
INSERT INTO pets VALUES (1, 'rex', 12.5), (2, 'whiskers', 4.2), (3, 'bubbles', 0.1);
SELECT name, weight * 2 AS dbl, id + 1 AS next, 1 AS one FROM pets WHERE weight > 1 ORDER BY dbl DESC;
SELECT o_orderpriority, COUNT(*) AS n, MIN(o_clerk) AS first FROM orders GROUP BY o_orderpriority ORDER BY 1;
SELECT c.c_mktsegment, SUM(o.o_totalprice) AS spend FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
  WHERE o.o_orderdate < DATE '1995-03-15' GROUP BY c.c_mktsegment ORDER BY spend DESC LIMIT 3;
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem WHERE l_quantity < 24;
EXPLAIN SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 25;
SELECT c_name + 1 AS x FROM customer;
SELECT nope FROM customer;
\meter
\q
SQL
done

go tool covdata textfmt -i="$out/cov" -o "$out/reach.cov"
go tool cover -func="$out/reach.cov" |
	awk '$1 ~ /^energydb\/internal\// && $NF == "0.0%" { print $1, $2 }' >"$out/unreached.txt"
n=$(wc -l <"$out/unreached.txt")
{
	echo "## reach: $n internal/ functions no entry point executes"
	echo
	echo "Per package:"
	echo '```'
	sed -E 's|^energydb/(internal/[a-z]+)/.*|\1|' "$out/unreached.txt" | sort | uniq -c | sort -rn
	echo '```'
	echo "The functions:"
	echo '```'
	cat "$out/unreached.txt"
	echo '```'
} | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
exit 0
