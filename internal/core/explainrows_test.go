package core

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"energydb/internal/opt"
	"energydb/internal/tpch"
)

// renderExplainRows prints a plan's ExplainRows one row a line, costs as
// float64 bits: the wire EXPLAIN format, byte for byte.
func renderExplainRows(p *opt.Plan) string {
	var b strings.Builder
	rows := p.ExplainRows()
	for i := 0; i < rows.Rows(); i++ {
		fmt.Fprintf(&b, "%s|%s|%d|%s|%x|%x\n", rows.Column(0).S[i], rows.Column(1).S[i], rows.Column(2).I[i],
			rows.Column(3).S[i], math.Float64bits(rows.Column(4).F[i]), math.Float64bits(rows.Column(5).F[i]))
	}
	return b.String()
}

// TestExplainRowsMatchParent pins Plan.ExplainRows for the TPC-H
// throughput mix under all three objectives (8 cores, 1024-row blocks, so
// the plans carry every DOP annotation) to testdata/explainrows.golden,
// which this test's body wrote at 9d264a0 — when ExplainRows was a
// seven-arm type switch of its own rather than a walk over
// PhysNode.describe. eeperf's opt.est_*_err_p50 read columns 4–5 of row 0.
func TestExplainRowsMatchParent(t *testing.T) {
	want, err := os.ReadFile("testdata/explainrows.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, obj := range []opt.Objective{opt.MinTime, opt.MinEnergy, opt.MinEDP} {
		db := openParDB(t, obj, 8, 1024)
		seen := map[string]bool{}
		for _, q := range tpch.ThroughputMix() {
			if seen[q] {
				continue
			}
			seen[q] = true
			plan, err := db.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "-- %v: %s\n%s", obj, strings.Join(strings.Fields(q)[:4], " "), renderExplainRows(plan))
		}
	}
	if got.String() != string(want) {
		t.Errorf("ExplainRows differ from the parent's; got:\n%s", got.String())
	}
}
