package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/sql"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// The oracle's data: TPC-H at oracleSF, placed in oracleBlockRows-row
// blocks so that even this little data divides into enough morsels for the
// optimizer to fragment scans, probes and aggregations; and edgeTable.
const (
	oracleSF        = 0.001
	oracleBlockRows = 256
	oracleGolden    = "testdata/oracle_clock.golden"
)

// edgeTable holds the values the typing and grouping rules have edges at:
// ±0 and NaN, empty and NUL-bearing strings, the first and last dates the
// dialect writes and the days either side of 1970-01-01, and cents of both
// signs.
func edgeTable() *table.Table {
	t := table.NewTable(table.NewSchema("e",
		table.Col("k", table.Int64), table.Col("f", table.Float64), table.ColW("s", table.String, 4),
		table.Col("d", table.Date), table.Col("p", table.Decimal)))
	lastDay, _ := sql.ParseDate("9999-12-31")
	firstDay, _ := sql.ParseDate("0001-01-01")
	for _, r := range []struct {
		f    float64
		s    string
		d, p int64
	}{
		{0, "", 0, 0}, {math.Copysign(0, -1), "a", -1, -1}, {math.NaN(), "a\x00b", 1, 1}, {1.5, "", lastDay, 99},
		{-1.5, "\x00", firstDay, -99}, {math.NaN(), "b", 0, 100}, {0, "a\x00", -1, -101}, {math.Inf(1), "ab", 2, 250},
	} {
		t.AppendRow(table.IntVal(int64(t.Rows()+1)), table.FloatVal(r.f), table.StrVal(r.s), table.DateVal(r.d), table.DecimalVal(r.p))
	}
	return t
}

// oracleEdges are the oracle corpus's hand-written statements: one whose
// aggregates cost enough for the optimizer to parallelise them above a
// residual filter even on little data, then the edges of edgeTable.
var oracleEdges = []struct{ name, query string }{
	{"filter_under_agg", `SELECT o_orderpriority, COUNT(*) AS n, SUM(l_quantity) AS q, SUM(l_extendedprice) AS p,
		AVG(l_discount) AS d, MAX(l_tax) AS x FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_extendedprice < o_totalprice GROUP BY o_orderpriority`},
	{"float_keys", `SELECT f, COUNT(*) AS n, SUM(k) AS ks FROM e GROUP BY f`},
	{"string_keys", `SELECT s, COUNT(*) AS n FROM e GROUP BY s`},
	{"two_keys", `SELECT f, s, SUM(p) AS sp FROM e GROUP BY f, s`},
	{"empty_string", `SELECT k FROM e WHERE s = ''`},
	{"nul_order", `SELECT k, s FROM e WHERE s > 'a' ORDER BY k`},
	{"zero_both_signs", `SELECT k FROM e WHERE f = 0`},
	{"nan_not_equal", `SELECT k FROM e WHERE f <> 0 ORDER BY k`},
	{"nan_never_less", `SELECT k FROM e WHERE f < 2`},
	{"epoch", `SELECT k, d FROM e WHERE d = DATE '1970-01-01'`},
	{"before_epoch", `SELECT k FROM e WHERE d < DATE '1970-01-01' ORDER BY k`},
	{"date_ends", `SELECT k FROM e WHERE d >= DATE '9999-12-31' AND d > DATE '0001-01-01'`},
	{"date_keys", `SELECT d, COUNT(*) AS n FROM e GROUP BY d ORDER BY d`},
	{"limit_0", `SELECT k FROM e LIMIT 0`},
	{"limit_after_order", `SELECT k FROM e ORDER BY k DESC LIMIT 3`},
	{"empty_global_agg", `SELECT COUNT(*) AS n, SUM(p) AS s, AVG(p) AS a, MIN(s) AS lo, SUM(f) AS sf FROM e WHERE k > 100`},
	{"string_extrema", `SELECT MIN(s) AS lo, MAX(s) AS hi, MIN(d) AS d0, MAX(p) AS p1 FROM e`},
	{"decimal_arith", `SELECT k, p + 1 AS a, p - k AS b, p * k AS c, p / 4 AS q FROM e ORDER BY k`},
	{"int_division", `SELECT k, k / 0 AS inf, k / 4 AS q FROM e ORDER BY k`},
	{"self_join_strings", `SELECT e1.k, e2.k AS k2 FROM e e1, e e2 WHERE e1.s = e2.s`},
}

// orderEdges are edges of the one order of floats and of GROUP BY, one of
// them joined into filter_under_agg's shape so that MIN and MAX over a NaN
// also merge across fragments. They run after typingCases: a statement's
// clock line depends on the database clock it starts at, so the corpus
// grows at its end and the lines before stay put.
var orderEdges = []struct{ name, query string }{
	{"float_order", `SELECT k, f FROM e ORDER BY f, k`},
	{"float_order_desc", `SELECT k, f FROM e ORDER BY f DESC, k`},
	{"float_extrema_nan_first", `SELECT MIN(f) AS lo, MAX(f) AS hi FROM e WHERE k >= 3`},
	{"fragmented_nan_extrema", `SELECT o_orderpriority, COUNT(*) AS n, SUM(l_quantity) AS q, SUM(l_extendedprice) AS p,
		AVG(l_discount) AS d, MIN(f) AS lo, MAX(f) AS hi FROM lineitem, orders, e
		WHERE l_orderkey = o_orderkey AND l_linenumber = k AND l_extendedprice < o_totalprice GROUP BY o_orderpriority`},
	{"group_without_agg", `SELECT s FROM e GROUP BY s`},
	{"ungrouped_output", `SELECT k FROM e GROUP BY s`},
}

// oracleStmt is one statement of the oracle's corpus.
type oracleStmt struct{ name, query string }

func oracleCorpus() []oracleStmt {
	var out []oracleStmt
	for _, q := range explainCorpus {
		out = append(out, oracleStmt{q.name, q.query})
	}
	for _, q := range oracleEdges {
		out = append(out, oracleStmt{"edge/" + q.name, q.query})
	}
	for i, c := range typingCases {
		out = append(out, oracleStmt{fmt.Sprintf("typing/%02d", i), c.stmt})
	}
	for _, q := range orderEdges {
		out = append(out, oracleStmt{"edge/" + q.name, q.query})
	}
	return out
}

// TestStatementOracle holds what every statement of oracleCorpus returns to
// the reference interpreter in oracle_test.go. Each statement runs through
// a session on the two rigs TestExplainRowsMatchParent plans on, under
// each Config.Variants layout alone, under all three objectives, at 1 and
// 8 cores; an INSERT or CREATE runs once per database, through Exec. Ints,
// decimals and strings compare exactly, with their types; floats within
// a relative 1e-9, since a float SUM adds in fragment order; rows as a
// multiset unless ORDER BY fixes their order. A statement either answers
// on both sides or is refused on both, by the same sentinel where the
// oracle names one.
//
// Across the runs there must be a fragmented scan, a fragmented probe, a
// parallel aggregation and a residual filter under one, or the oracle would
// not see the fragment path. Every run's Result.Elapsed and Marginal go to
// testdata/oracle_clock.golden as float bits, so a change that compiles a
// different operator tree for any of them shows there. To regenerate it,
// delete the file and run the test twice: the first run writes it and fails.
func TestStatementOracle(t *testing.T) {
	gen := tpch.Generate(oracleSF, 42)
	var base []*table.Table
	for _, name := range slices.Sorted(maps.Keys(gen.Tables)) {
		base = append(base, gen.Tables[name])
	}
	base = append(base, edgeTable())

	// The oracle's answers, once: every database runs the corpus in order.
	type answer struct {
		rows    []oRow
		ordered bool
		err     error
	}
	corpus, orc := oracleCorpus(), oracle{}
	for _, tab := range base {
		orc[tab.Schema.Name] = tab
	}
	answers := make([]answer, len(corpus))
	for i, st := range corpus {
		a := &answers[i]
		a.rows, a.ordered, a.err = orc.run(st.query)
	}

	rigs := []struct {
		name string
		spec hw.ServerSpec
		dvfs bool
	}{
		{"pipeline", pipelineRig(), false},
		{"dvfs", parallelRigDVFS(), true},
	}
	var clock strings.Builder
	kinds := map[string]int{}
	for _, rig := range rigs {
		for _, layout := range []string{"col/default", "col/raw", "row/raw"} {
			db, err := Open(Config{Server: rig.spec, DVFS: rig.dvfs, BlockRows: oracleBlockRows, Variants: []string{layout}})
			if err != nil {
				t.Fatal(err)
			}
			for _, tab := range base {
				if err := db.LoadTable(tab); err != nil {
					t.Fatal(err)
				}
			}
			sess := db.Session()
			at := rig.name + "/" + layout
			for i, st := range corpus {
				want := answers[i]
				if p, _ := sql.Parse(st.query); p == nil || p.Select == nil {
					res, err := db.Exec(st.query)
					if checkRefusal(t, at+" "+st.name, err, want.err) && res != nil {
						fmt.Fprintf(&clock, "%s %s exec %016x %016x\n", at, st.name,
							math.Float64bits(float64(res.Elapsed)), math.Float64bits(float64(res.Marginal)))
					}
					continue
				}
				for _, obj := range []opt.Objective{opt.MinTime, opt.MinEnergy, opt.MinEDP} {
					for _, cores := range []int{1, 8} {
						db.Objective, db.Env.Cores = obj, cores
						where := fmt.Sprintf("%s %s %v cores=%d", at, st.name, obj, cores)
						rows, err := sess.Query(st.query)
						var res *Result
						if err == nil {
							res, err = rows.Collect()
						}
						if !checkRefusal(t, where, err, want.err) {
							continue
						}
						fmt.Fprintf(&clock, "%s %016x %016x\n", where,
							math.Float64bits(float64(res.Elapsed)), math.Float64bits(float64(res.Marginal)))
						planKinds(res.Plan, kinds)
						if msg := sameRows(res.Rows, want.rows, want.ordered); msg != "" {
							t.Errorf("%s: %s\n%s", where, msg, st.query)
						}
					}
				}
			}
			sess.Close()
		}
	}
	t.Logf("runs by parallel shape: %v", kinds)
	for _, k := range []string{"scan:dop", "probe_dop", "agg:dop", "filter<agg:dop"} {
		if kinds[k] == 0 {
			t.Errorf("no run is %s: the oracle would not see that fragment path", k)
		}
	}

	want, err := os.ReadFile(oracleGolden)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(oracleGolden, []byte(clock.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; check its diff and run again", oracleGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(clock.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("model clock differs from %s at line %d:\n got: %s\nwant: %s", oracleGolden, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("model clock has %d lines, %s %d", len(gl), oracleGolden, len(wl))
	}
}

// checkRefusal reports whether the engine answered; it fails the test when
// the engine and the oracle disagree on refusing the statement, or on the
// sentinel the oracle refuses it with.
func checkRefusal(t *testing.T, where string, got, want error) bool {
	t.Helper()
	switch {
	case got == nil && want == nil:
		return true
	case got == nil || want == nil:
		t.Errorf("%s: engine error %v, oracle error %v", where, got, want)
	default:
		for _, s := range []error{sql.ErrType, sql.ErrUnknownName} {
			if errors.Is(want, s) && !errors.Is(got, s) {
				t.Errorf("%s: engine error %v, want %v", where, got, s)
			}
		}
	}
	return false
}

// sameRows compares the engine's rows with the oracle's, in order or as
// multisets, and describes the first difference.
func sameRows(got *table.Table, want []oRow, ordered bool) string {
	var rows []oRow
	for i := 0; got != nil && i < got.Rows(); i++ {
		row := make(oRow, len(got.Schema.Cols))
		for c := range row {
			row[c] = got.Column(c).Value(i)
		}
		rows = append(rows, row)
	}
	if len(rows) != len(want) {
		return fmt.Sprintf("%d rows, oracle %d", len(rows), len(want))
	}
	want = slices.Clone(want)
	if !ordered {
		byValue := func(a, b oRow) int {
			for c := range a {
				if x := cmp.Or(cmp.Compare(a[c].Type, b[c].Type), rank(a[c], b[c])); x != 0 {
					return x
				}
			}
			return 0
		}
		slices.SortFunc(rows, byValue)
		slices.SortFunc(want, byValue)
	}
	for r := range rows {
		if !slices.EqualFunc(rows[r], want[r], sameValue) {
			return fmt.Sprintf("row %d is %v, oracle %v", r, rows[r], want[r])
		}
	}
	return ""
}

// sameValue is value equality with a float tolerance: NaN equals NaN, an
// infinity only the same infinity, and other floats agree to 1e-9
// relative.
func sameValue(a, b table.Value) bool {
	switch {
	case a.Type != b.Type:
		return false
	case a.Type != table.Float64:
		return a.I == b.I && a.S == b.S
	case a.F != a.F || b.F != b.F:
		return a.F != a.F && b.F != b.F
	case math.IsInf(a.F, 0) || math.IsInf(b.F, 0):
		return a.F == b.F
	}
	return a.F == b.F || math.Abs(a.F-b.F) <= 1e-9*max(math.Abs(a.F), math.Abs(b.F))
}

// planKinds counts the parallel shapes plan runs: a fragmented scan, a
// fragmented probe, a parallel aggregation, and a residual filter inside
// a parallel aggregation's input.
func planKinds(plan *opt.Plan, kinds map[string]int) {
	aggDepth := -1
	for _, line := range strings.Split(plan.Explain(), "\n")[1:] {
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		if depth <= aggDepth {
			aggDepth = -1
		}
		switch op := strings.Fields(line + " -")[0]; {
		case op == "agg" && strings.Contains(line, " dop="):
			kinds["agg:dop"]++
			aggDepth = depth
		case op == "scan" && strings.Contains(line, " dop="):
			kinds["scan:dop"]++
		case strings.Contains(line, " probe_dop="):
			kinds["probe_dop"]++
		case op == "filter" && aggDepth >= 0:
			kinds["filter<agg:dop"]++
		}
	}
}
