package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/tpch"
)

var updateExplainRows = flag.Bool("explainrows.update", false,
	"rewrite testdata/explainrows.golden from the current optimizer")

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

// dopNote matches one degree-of-parallelism annotation of an Explain line.
var dopNote = regexp.MustCompile(` ((?:[a-z]+_)?dop=\d+)`)

// explainNotes lists the parallelism Plan.Explain shows — the P-state when
// it is not P0, then "op:note" for every DOP annotation in pre-order — as
// one space-separated field ("-" for a serial P0 plan).
func explainNotes(p *opt.Plan) string {
	var notes []string
	if p.PState > 0 {
		notes = append(notes, "pstate="+p.PStateName)
	}
	for _, line := range strings.Split(p.Explain(), "\n")[1:] {
		for _, m := range dopNote.FindAllStringSubmatch(line, -1) {
			notes = append(notes, strings.Fields(line)[0]+":"+m[1])
		}
	}
	if len(notes) == 0 {
		return "-"
	}
	return strings.Join(notes, " ")
}

// explainCorpus is the statement axis of TestExplainRowsMatchParent: the
// TPC-H throughput mix, the scan query, and the join, residual-filter and
// many-group aggregation shapes the parallel tests execute.
var explainCorpus = []struct{ name, query string }{
	{"q1", tpch.Q1},
	{"q6", tpch.Q6},
	{"q3", tpch.Q3},
	{"q5", tpch.Q5},
	{"scan", tpch.ScanQuery},
	{"join_agg", `SELECT o_orderpriority, COUNT(*) AS n FROM lineitem, orders
		WHERE l_orderkey = o_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority`},
	{"probe_filter_agg", `SELECT o_orderpriority, COUNT(*) AS n FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_extendedprice < o_totalprice
		GROUP BY o_orderpriority ORDER BY o_orderpriority`},
	{"many_groups", `SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS q
		FROM lineitem GROUP BY l_partkey ORDER BY l_partkey`},
}

// TestExplainRowsMatchParent pins the optimizer's choices and costs to
// testdata/explainrows.golden, in two parts.
//
// The first part is Plan.ExplainRows in full for the TPC-H throughput mix
// under all three objectives (8 cores, 1024-row blocks), which this
// test's body wrote at 9d264a0 — when ExplainRows was a seven-arm type
// switch of its own rather than a walk over PhysNode.describe. eeperf's
// opt.est_*_err_p50 read columns 4–5 of row 0.
//
// The second part, written at 45d76d0, is one line per plan of a corpus
// spanning every axis the optimizer prices: explainCorpus × {the pipeline
// rig, the DVFS rig with its P-states open} × {1024, 4096}-row blocks ×
// the three objectives × {marginal, idle-floor} energy × grants {1, 2, 4,
// 8} × time budget {none, 2 ms}, each planned the way a session plans it
// (Stmt.planFor). A line carries the plan's DOP notes and P-state as
// Plan.Explain shows them and an FNV-1a digest of its ExplainRows bits.
// The corpus must contain at least one winning plan of every parallel and
// DVFS kind, and one a budget changed, or it would pin nothing about them.
//
// go test ./internal/core -run TestExplainRowsMatchParent -explainrows.update
// rewrites the golden.
func TestExplainRowsMatchParent(t *testing.T) {
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

	rigs := []struct {
		name string
		spec hw.ServerSpec
		dvfs bool
	}{
		{"pipeline", pipelineRig(), false},
		{"dvfs", parallelRigDVFS(), true},
	}
	kinds := map[string]int{}
	for _, rig := range rigs {
		for _, blockRows := range []int{1024, 4096} {
			db, err := Open(Config{Server: rig.spec, DVFS: rig.dvfs, BlockRows: blockRows})
			if err != nil {
				t.Fatal(err)
			}
			loadTinyTPCH(t, db, 0.01)
			sess := db.Session()
			for _, q := range explainCorpus {
				for _, obj := range []opt.Objective{opt.MinTime, opt.MinEnergy, opt.MinEDP} {
					for _, mode := range []opt.EnergyMode{opt.MarginalEnergy, opt.IdleFloorAware} {
						db.Objective, db.Env.EnergyMode = obj, mode
						for _, cores := range []int{1, 2, 4, 8} {
							var unbudgeted string
							for _, budget := range []float64{0, 0.002} {
								st, err := sess.Prepare(q.query)
								if err != nil {
									t.Fatal(err)
								}
								plan, err := st.planFor(cores, budget)
								if err != nil {
									t.Fatal(err)
								}
								h := fnv.New64a()
								h.Write([]byte(renderExplainRows(plan)))
								rows := fmt.Sprintf("%016x", h.Sum64())
								notes := explainNotes(plan)
								fmt.Fprintf(&got, "%s/%d %s %v %v cores=%d budget=%gms | %s | %s\n",
									rig.name, blockRows, q.name, obj, mode, cores, budget*1000, notes, rows)
								for _, k := range []string{"scan:dop=", "agg:dop=", "probe_dop=", "pstate=P1"} {
									if strings.Contains(notes, k) {
										kinds[k]++
									}
								}
								if budget == 0 {
									unbudgeted = notes + rows
								} else if notes+rows != unbudgeted {
									kinds["budget-constrained"]++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("winning plans by kind: %v", kinds)
	for _, k := range []string{"scan:dop=", "agg:dop=", "probe_dop=", "pstate=P1", "budget-constrained"} {
		if kinds[k] == 0 {
			t.Errorf("no plan of the corpus is %s: the golden would not pin that choice", k)
		}
	}

	if *updateExplainRows {
		if err := os.WriteFile("testdata/explainrows.golden", []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/explainrows.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("ExplainRows differ from the parent's at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("ExplainRows differ from the parent's: %d lines, want %d", len(gl), len(wl))
	}
}
