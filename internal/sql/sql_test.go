package sql

import (
	"errors"
	"testing"
	"testing/quick"

	"energydb/internal/exec"
	"energydb/internal/table"
)

func testSchemas() SchemaLookup {
	orders := table.NewSchema("orders",
		table.Col("o_orderkey", table.Int64),
		table.Col("o_custkey", table.Int64),
		table.Col("o_totalprice", table.Float64),
		table.Col("o_orderdate", table.Date),
		table.ColW("o_orderpriority", table.String, 15),
	)
	customer := table.NewSchema("customer",
		table.Col("c_custkey", table.Int64),
		table.ColW("c_name", table.String, 18),
	)
	m := map[string]*table.Schema{"orders": orders, "customer": customer}
	return func(rel string) (*table.Schema, bool) {
		s, ok := m[rel]
		return s, ok
	}
}

func mustBind(t *testing.T, src string) *SelectStmt {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if st.Select == nil {
		t.Fatalf("not a select: %q", src)
	}
	return st.Select
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustBind(t, "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 100.5 LIMIT 10")
	if len(sel.Items) != 2 || len(sel.From) != 1 || sel.Limit != 10 {
		t.Fatalf("parsed %+v", sel)
	}
	if sel.Where[0].Op != ">" || sel.Where[0].Lit.F != 100.5 {
		t.Fatalf("where = %+v", sel.Where[0])
	}
}

func TestParseAggregatesAndGrouping(t *testing.T) {
	sel := mustBind(t, `
		SELECT o_orderpriority, COUNT(*) AS n, SUM(o_totalprice) AS rev
		FROM orders
		GROUP BY o_orderpriority
		ORDER BY rev DESC, 1 ASC
		LIMIT 5`)
	if !sel.Items[1].Agg.Star || sel.Items[1].Agg.Func != "COUNT" {
		t.Fatalf("count(*) = %+v", sel.Items[1])
	}
	if sel.OrderBy[0].Name != "rev" || !sel.OrderBy[0].Desc {
		t.Fatalf("order = %+v", sel.OrderBy)
	}
	if sel.OrderBy[1].Pos != 1 || sel.OrderBy[1].Desc {
		t.Fatalf("order = %+v", sel.OrderBy)
	}
}

func TestParseJoin(t *testing.T) {
	sel := mustBind(t, `
		SELECT c.c_name, o.o_totalprice
		FROM customer c
		JOIN orders o ON c.c_custkey = o.o_custkey
		WHERE o.o_totalprice >= 1000`)
	if len(sel.Joins) != 1 || sel.Joins[0].Left.Col != "c_custkey" {
		t.Fatalf("joins = %+v", sel.Joins)
	}
}

func TestParseBetweenAndDate(t *testing.T) {
	sel := mustBind(t, `SELECT o_orderkey FROM orders
		WHERE o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'`)
	if len(sel.Where) != 2 {
		t.Fatalf("between should expand to 2 preds: %+v", sel.Where)
	}
	lo, _ := ParseDate("1995-01-01")
	if sel.Where[0].Lit.I != lo || sel.Where[0].Op != ">=" {
		t.Fatalf("between lower = %+v", sel.Where[0])
	}
}

func TestDateRoundTrip(t *testing.T) {
	f := func(d uint16) bool {
		days := int64(d)
		back, err := ParseDate(FormatDate(days))
		return err == nil && back == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseArithmetic(t *testing.T) {
	sel := mustBind(t, "SELECT o_totalprice * (1 - 0.05) AS discounted FROM orders")
	e := sel.Items[0].Expr
	if e.Op != "*" || e.R.Op != "-" {
		t.Fatalf("precedence wrong: %+v", e)
	}
}

func TestParseCreateAndInsert(t *testing.T) {
	st, err := Parse("CREATE TABLE t (a BIGINT, b DOUBLE, c VARCHAR(12), d DATE)")
	if err != nil {
		t.Fatal(err)
	}
	if st.Create == nil || len(st.Create.Cols) != 4 {
		t.Fatalf("create = %+v", st.Create)
	}
	if st.Create.Cols[2].Width != 12 || st.Create.Cols[2].Type != table.String {
		t.Fatalf("varchar = %+v", st.Create.Cols[2])
	}

	st, err = Parse("INSERT INTO t VALUES (1, 2.5, 'x', DATE '2000-01-01'), (2, 3.5, 'y', DATE '2000-01-02')")
	if err != nil {
		t.Fatal(err)
	}
	if st.Insert == nil || len(st.Insert.Rows) != 2 || len(st.Insert.Rows[0]) != 4 {
		t.Fatalf("insert = %+v", st.Insert)
	}
	if st.Insert.Rows[0][3].Type != table.Date {
		t.Fatalf("date literal = %+v", st.Insert.Rows[0][3])
	}
}

func TestParseExplain(t *testing.T) {
	st, err := Parse("EXPLAIN SELECT * FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain || st.Select == nil {
		t.Fatalf("explain = %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT x FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ~ 3",
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t extra garbage here ,",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"CREATE TABLE t (a WIBBLE)",
		"SELECT SUM(*) FROM t",
		"SELECT a, 1.2.3 FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestLexerNeverPanics(t *testing.T) {
	f := func(src string) bool {
		_, _ = Parse(src) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBindSimple(t *testing.T) {
	sel := mustBind(t, "SELECT o_orderkey FROM orders WHERE o_custkey = 7")
	q, err := Bind(sel, testSchemas())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Rels["orders"] != "orders" {
		t.Fatalf("tables = %+v", q)
	}
	if q.Preds[0].Left.Col != "o_custkey" || q.Preds[0].Val.I != 7 {
		t.Fatalf("pred = %+v", q.Preds[0])
	}
	if q.Outputs[0].As != "o_orderkey" {
		t.Fatalf("output = %+v", q.Outputs[0])
	}
}

func TestBindQualifiedAndJoin(t *testing.T) {
	sel := mustBind(t, `SELECT c.c_name, COUNT(*) AS n FROM customer c
		JOIN orders o ON c.c_custkey = o.o_custkey
		GROUP BY c.c_name`)
	q, err := Bind(sel, testSchemas())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 1 || !q.Preds[0].IsJoin {
		t.Fatalf("join pred = %+v", q.Preds)
	}
	if !q.HasAggs() || len(q.GroupBy) != 1 {
		t.Fatalf("agg binding = %+v", q)
	}
}

func TestBindCoercion(t *testing.T) {
	// Int literal against a float column must coerce.
	sel := mustBind(t, "SELECT o_orderkey FROM orders WHERE o_totalprice > 100")
	q, err := Bind(sel, testSchemas())
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Val.Type != table.Float64 || q.Preds[0].Val.F != 100 {
		t.Fatalf("coerced literal = %+v", q.Preds[0].Val)
	}
}

func TestBindStar(t *testing.T) {
	sel := mustBind(t, "SELECT * FROM customer")
	q, err := Bind(sel, testSchemas())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Outputs) != 2 {
		t.Fatalf("star outputs = %d", len(q.Outputs))
	}
}

func TestBindErrors(t *testing.T) {
	cases := []string{
		"SELECT ghost FROM orders",                                         // unknown column
		"SELECT o_orderkey FROM nope",                                      // unknown table
		"SELECT c_custkey FROM customer c, customer d",                     // dup alias col ambiguous
		"SELECT o_orderkey, COUNT(*) AS n FROM orders",                     // non-grouped output
		"SELECT o_orderkey FROM orders ORDER BY ghost",                     // unknown order name
		"SELECT o_orderkey FROM orders WHERE o_orderpriority = 5",          // type mismatch
		"SELECT o_orderkey FROM orders WHERE o_orderkey = o_orderpriority", // cross-class compare
		"SELECT * , COUNT(*) FROM orders",                                  // star with aggregate
	}
	for _, src := range cases {
		sel := mustBind(t, src)
		if _, err := Bind(sel, testSchemas()); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
	}
}

func TestBindDuplicateAlias(t *testing.T) {
	sel := mustBind(t, "SELECT 1 FROM orders o, customer o")
	if _, err := Bind(sel, testSchemas()); !errors.Is(err, ErrDuplicateAlias) {
		t.Fatalf("err = %v", err)
	}
}

func TestBindAggExprArgument(t *testing.T) {
	sel := mustBind(t, "SELECT SUM(o_totalprice * 2) AS dbl FROM orders")
	q, err := Bind(sel, testSchemas())
	if err != nil {
		t.Fatal(err)
	}
	if q.Outputs[0].Agg == nil || q.Outputs[0].Agg.Func != exec.Sum {
		t.Fatalf("agg = %+v", q.Outputs[0])
	}
	if q.Outputs[0].Agg.Arg.Op != exec.Mul {
		t.Fatalf("agg arg = %+v", q.Outputs[0].Agg.Arg)
	}
}

// TestBindTypeErrors: every statement that does not type-check is refused
// at bind with the one sentinel — arithmetic and SUM/AVG over strings (at
// 9d264a0 these bound, and the first two panicked the executor) beside the
// two checks that already existed — while strings stay legal wherever they
// are only carried or compared.
func TestBindTypeErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT c_name + 1 AS x FROM customer",
		"SELECT 'x' + 1 AS z FROM customer",
		"SELECT 2 * (c_custkey - c_name) AS x FROM customer",
		"SELECT SUM(c_name) AS s FROM customer",
		"SELECT AVG(c_name) AS s FROM customer",
		"SELECT SUM(o_totalprice / o_orderpriority) AS s FROM orders",
		"SELECT o_orderkey FROM orders WHERE o_orderkey = o_orderpriority",
		"SELECT o_orderkey FROM orders WHERE o_orderpriority = 5",
	} {
		if _, err := Bind(mustBind(t, src), testSchemas()); !errors.Is(err, ErrType) {
			t.Errorf("Bind(%q): error %v, want ErrType", src, err)
		}
	}
	for _, src := range []string{
		"SELECT c_name, 'x' AS tag, c_custkey + 1 AS next FROM customer",
		"SELECT MIN(c_name) AS lo, MAX(c_name) AS hi, COUNT(c_name) AS n FROM customer",
		"SELECT SUM(o_orderdate - 1) AS s, AVG(o_custkey / 2) AS a FROM orders",
	} {
		if _, err := Bind(mustBind(t, src), testSchemas()); err != nil {
			t.Errorf("Bind(%q): %v", src, err)
		}
	}
}
