#!/usr/bin/env bash
# loc: non-test Go lines per package and in total, as a markdown table —
# ROADMAP direction 4's score, counted the same way in every change:
# internal/ + cmd/ + the root package, _test.go files and testdata/ excluded.
# Run from the root of a checkout:
#
#   bash .github/scripts/loc.sh
set -euo pipefail

files() {
	find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
	find . -maxdepth 1 -name '*.go' ! -name '*_test.go'
}

echo "## non-test Go lines"
echo "| package | lines |"
echo "|---|---:|"
files | xargs -n1 dirname | sort -u | while read -r dir; do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
	echo "| $dir | $n |"
done
echo "| **total** | **$(files | xargs cat | wc -l)** |"
