package core

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strconv"
	"strings"

	"energydb/internal/sql"
	"energydb/internal/table"
)

// oracle is the statement oracle's reference interpreter over a catalog of
// tables by name. It reads sql.Parse output, resolves names and types
// literals itself, and never calls sql.Bind, opt or exec, so a fault in the
// binder, the optimizer or the executor shows as a difference instead of
// being shared. It runs one row at a time over table.Value and joins
// through Go maps. Its semantics, stated once:
//   - Names: a FROM or JOIN item is known by its alias (its table's name by
//     default); an unqualified column must name exactly one column.
//   - Literals follow the rule above internal/sql's typeLit: a literal is
//     the decimal it is written as (a float: its shortest decimal form).
//     Strings meet only strings and DATE only DATE. An INT or DECIMAL column
//     compares with a number exactly, on those decimals, so no rounding and
//     no int64 end changes which rows match; a DOUBLE column compares as
//     float64. INSERT takes an integer into DECIMAL as whole units, rounds a
//     fraction to the cent half away from zero, takes into INT only an
//     integral value, and refuses what leaves int64.
//   - Two columns compare or join only when their types are equal.
//   - In WHERE and joins floats compare by Go's operators, so a NaN
//     matches only <>. Everywhere else they are ranked: as numbers, ±0 one
//     value, and a NaN after every number and equal to every NaN. So ±0 is
//     one GROUP BY key and every NaN another, ORDER BY puts a NaN last (first
//     under DESC), MAX over a NaN is NaN and MIN is NaN only over NaNs alone.
//   - DECIMAL is whole cents. +, - and SUM, MIN, MAX keep it, an INT operand
//     scaled ×100 (a literal refused when its cents leave int64); *, /, AVG
//     or a float operand work in float units, cents / 100. INT / INT is a
//     float. DATE meets neither INT nor DECIMAL in arithmetic; strings take
//     none. A division by zero (±0) yields 0, not an infinity or a NaN —
//     the engine's documented rule (exec's fuse.go); whether SQL should
//     refuse it instead is an open question, not the oracle's to settle.
//   - COUNT counts rows, an integer SUM wraps like int64, AVG is a float,
//     and a global aggregate over no rows is each type's zero. With an
//     aggregate or a GROUP BY every output is one value per group, so each
//     output that is not an aggregate must be a grouped column.
//   - SELECT *, and FROM items no equality ties together, are outside it.
type oracle map[string]*table.Table

// An oRow holds every FROM item's columns side by side, in FROM order.
type (
	oRow   = []table.Value
	oScope []oCol
	oCol   struct {
		alias string
		table.Column
	}
	oExpr struct { // a typed scalar
		t  table.Type
		ev func(oRow) table.Value
	}
)

// run interprets one statement: a SELECT's rows and whether ORDER BY fixes
// their order; nothing for CREATE and INSERT.
func (o oracle) run(text string) ([]oRow, bool, error) {
	st, err := sql.Parse(text)
	switch {
	case err != nil:
		return nil, false, err
	case st.Select != nil:
		rows, err := o.query(st.Select)
		return rows, len(st.Select.OrderBy) > 0, err
	case st.Create != nil:
		o[st.Create.Name] = table.NewTable(table.NewSchema(st.Create.Name, st.Create.Cols...))
		return nil, false, nil
	}
	t, rows := o[st.Insert.Table], make([]oRow, len(st.Insert.Rows))
	for r, lits := range st.Insert.Rows {
		rows[r] = make(oRow, len(lits))
		for i, v := range lits {
			if len(lits) != len(t.Schema.Cols) || !stored(v, t.Schema.Cols[i].Type, &rows[r][i]) {
				return nil, false, sql.ErrType
			}
		}
	}
	for _, row := range rows {
		t.AppendRow(row...)
	}
	return nil, false, nil
}

// litOK reports whether a literal of type l may meet a column of type c.
func litOK(l, c table.Type) bool {
	num := func(t table.Type) bool { return t == table.Int64 || t == table.Float64 || t == table.Decimal }
	return l == c || num(l) && num(c)
}

// exact is a number's value as a rational: a DECIMAL in whole units, a
// float its shortest decimal form.
func exact(v table.Value) *big.Rat {
	r, _ := new(big.Rat).SetString(v.String())
	return r
}

// stored sets *out to literal v as an INSERT stores it in a column of type
// t, or reports that the column cannot hold it.
func stored(v table.Value, t table.Type, out *table.Value) bool {
	if *out = v; t == table.Float64 && v.Type == table.Int64 {
		*out = table.FloatVal(float64(v.I))
	} else if t != v.Type && litOK(v.Type, t) {
		r := exact(v)
		if t == table.Decimal {
			r.Mul(r, big.NewRat(100, 1))
		}
		q, m := new(big.Int).QuoRem(r.Num(), r.Denom(), new(big.Int))
		if t == table.Decimal && new(big.Int).Lsh(m.Abs(m), 1).Cmp(r.Denom()) >= 0 {
			q.Add(q, big.NewInt(int64(r.Sign())))
		}
		*out = table.Value{Type: t, I: q.Int64()}
		return (t == table.Decimal || m.Sign() == 0) && q.IsInt64()
	}
	return litOK(v.Type, t)
}

// order compares a and b of one class as WHERE does: -1, 0 or +1, and 2
// when a NaN leaves them unordered. rank makes it total, a NaN after every
// number, for ORDER BY, MIN and MAX.
func order(a, b table.Value) int {
	switch {
	case a.Type == table.String:
		return strings.Compare(a.S, b.S)
	case a.Type != table.Float64:
		return cmp.Compare(a.I, b.I)
	case a.F != a.F || b.F != b.F:
		return 2
	}
	return cmp.Compare(a.F, b.F)
}

func rank(a, b table.Value) int {
	if c := order(a, b); c != 2 {
		return c
	}
	return -cmp.Compare(a.F, b.F) // cmp.Compare puts a NaN first
}

// holds reports whether comparison op holds for an order result c.
func holds(op string, c int) bool {
	return c == 2 && op == "<>" || c < 2 && strings.Contains(op, "<=>"[c+1:c+2])
}

func (s oScope) resolve(c sql.ColName) (int, error) {
	is := func(x oCol) bool { return x.Name == c.Col && (c.Table == "" || x.alias == c.Table) }
	at := slices.IndexFunc(s, is)
	if at < 0 || slices.ContainsFunc(s[at+1:], is) {
		return 0, fmt.Errorf("%w: column %v", sql.ErrUnknownName, c)
	}
	return at, nil
}

// pred compiles one conjunct to its test, and an equality of two columns
// also to the pair, for the join.
func (s oScope) pred(w sql.WherePred) (test func(oRow) bool, eq []int, err error) {
	l, err := s.resolve(w.Left)
	lit := *cmp.Or(w.Lit, &table.Value{})
	switch lt := s[max(l, 0)].Type; {
	case err != nil:
	case w.Right != nil:
		r, err := s.resolve(*w.Right)
		if err != nil || s[r].Type != lt {
			return nil, nil, cmp.Or(err, sql.ErrType)
		} else if w.Op == "=" {
			eq = []int{l, r}
		}
		return func(row oRow) bool { return holds(w.Op, order(row[l], row[r])) }, eq, nil
	case !litOK(lit.Type, lt):
		err = sql.ErrType
	case lt == table.Int64 || lt == table.Decimal:
		x := exact(lit)
		return func(row oRow) bool { return holds(w.Op, exact(row[l]).Cmp(x)) }, nil, nil
	case lt == table.Float64 && lit.Type == table.Int64:
		lit = table.FloatVal(float64(lit.I))
	}
	return func(row oRow) bool { return holds(w.Op, order(row[l], lit)) }, nil, err
}

func (s oScope) expr(e *sql.AstExpr) (oExpr, error) {
	switch {
	case e.Col != nil:
		i, err := s.resolve(*e.Col)
		return oExpr{s[i].Type, func(row oRow) table.Value { return row[i] }}, err
	case e.Lit != nil:
		return oExpr{e.Lit.Type, func(oRow) table.Value { return *e.Lit }}, nil
	}
	l, err := s.expr(e.L)
	r, rerr := s.expr(e.R)
	lt, rt, dec := l.t, r.t, l.t == table.Decimal || r.t == table.Decimal
	switch {
	case err != nil || rerr != nil:
		return l, cmp.Or(err, rerr)
	case lt == table.String || rt == table.String || (lt == table.Date || rt == table.Date) &&
		(dec || lt == table.Int64 || rt == table.Int64):
		return l, fmt.Errorf("%w: %v %s %v", sql.ErrType, lt, e.Op, rt)
	case e.Op == "/" || lt == table.Float64 || rt == table.Float64 || dec && e.Op == "*":
		return oExpr{table.Float64, func(row oRow) table.Value {
			return table.FloatVal(arith(e.Op, units(l.ev(row)), units(r.ev(row))))
		}}, nil
	case dec:
		l, err = cents(l, e.L.Lit)
		r, rerr = cents(r, e.R.Lit)
		lt, err = table.Decimal, cmp.Or(err, rerr)
	}
	return oExpr{lt, func(row oRow) table.Value {
		return table.Value{Type: lt, I: arith(e.Op, l.ev(row).I, r.ev(row).I)}
	}}, err
}

func arith[T int64 | float64](op string, x, y T) T {
	switch op {
	case "+":
		return x + y
	case "-":
		return x - y
	case "*":
		return x * y
	case "/":
		if y == 0 {
			return 0
		}
	}
	return x / y
}

// units is a number in float units.
func units(v table.Value) float64 {
	switch v.Type {
	case table.Float64:
		return v.F
	case table.Decimal:
		return float64(v.I) / 100
	}
	return float64(v.I)
}

// cents scales an INT operand of DECIMAL arithmetic to cents.
func cents(x oExpr, lit *table.Value) (oExpr, error) {
	if x.t != table.Int64 {
		return x, nil
	} else if lit != nil && (lit.I > math.MaxInt64/100 || lit.I < math.MinInt64/100) {
		return x, fmt.Errorf("%w: %v cents leave int64", sql.ErrType, lit)
	}
	return oExpr{table.Decimal, func(row oRow) table.Value { return table.DecimalVal(x.ev(row).I * 100) }}, nil
}

// agg compiles one aggregate call to its value over a group of rows.
func (s oScope) agg(a *sql.AggCall) (func([]oRow) table.Value, error) {
	e, err := oExpr{table.Int64, func(oRow) table.Value { return table.Value{} }}, error(nil)
	if !a.Star {
		e, err = s.expr(a.Arg)
	}
	if e.t == table.String && (a.Func == "SUM" || a.Func == "AVG") {
		err = cmp.Or(err, sql.ErrType)
	}
	return func(g []oRow) table.Value {
		sum, ext := table.Value{Type: e.t}, table.Value{Type: e.t}
		for i, row := range g {
			v := e.ev(row)
			sum.I, sum.F = sum.I+v.I, sum.F+units(v)
			if i == 0 || a.Func == "MIN" && rank(v, ext) < 0 || a.Func == "MAX" && rank(v, ext) > 0 {
				ext = v
			}
		}
		switch a.Func {
		case "COUNT":
			return table.IntVal(int64(len(g)))
		case "AVG":
			return table.FloatVal(sum.F / float64(max(len(g), 1)))
		case "SUM":
			return sum
		}
		return ext
	}, err
}

// cell is row[i], or the zero value, the key of no join, when i < 0.
func cell(row oRow, i int) (v table.Value) {
	if i >= 0 {
		v = row[i]
	}
	return v
}

// query runs a SELECT. Its FROM items join in order, each through a Go map
// on its first equality with the items before it; then WHERE filters and,
// with an aggregate or a GROUP BY, rows group.
func (o oracle) query(sel *sql.SelectStmt) ([]oRow, error) {
	refs, where := slices.Clone(sel.From), slices.Clone(sel.Where)
	for _, j := range sel.Joins {
		refs, where = append(refs, j.Table), append(where, sql.WherePred{Left: j.Left, Op: "=", Right: &j.Right})
	}
	var s oScope
	for _, tr := range refs {
		if o[tr.Name] == nil {
			return nil, fmt.Errorf("%w: table %q", sql.ErrUnknownName, tr.Name)
		}
		for _, c := range o[tr.Name].Schema.Cols {
			s = append(s, oCol{tr.Alias, c})
		}
	}
	tests, eqs := make([]func(oRow) bool, len(where)), [][]int{}
	for i, w := range where {
		test, eq, err := s.pred(w)
		if tests[i] = test; err != nil {
			return nil, err
		} else if eq != nil {
			eqs = append(eqs, eq, []int{eq[1], eq[0]})
		}
	}
	group := make([]int, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		var err error
		if group[i], err = s.resolve(g); err != nil {
			return nil, err
		}
	}
	hasAgg := slices.ContainsFunc(sel.Items, func(it sql.SelectItem) bool { return it.Agg != nil })
	grouped := hasAgg || len(group) > 0
	outs, names := make([]func([]oRow) table.Value, len(sel.Items)), make([]string, len(sel.Items))
	for i, it := range sel.Items {
		var err error
		if names[i] = it.As; it.Agg != nil {
			outs[i], err = s.agg(it.Agg)
		} else {
			e, c := oExpr{}, -1
			if e, err = s.expr(it.Expr); it.Expr.Col != nil && err == nil {
				c, _ = s.resolve(*it.Expr.Col)
				names[i] = cmp.Or(it.As, s[c].Name)
			}
			if grouped && !slices.Contains(group, c) {
				err = cmp.Or(err, sql.ErrType)
			}
			outs[i] = func(g []oRow) table.Value { return e.ev(g[0]) }
		}
		if err != nil {
			return nil, err
		}
	}
	keys := make([]int, len(sel.OrderBy))
	for k, ob := range sel.OrderBy {
		if keys[k] = cmp.Or(ob.Pos, slices.Index(names, ob.Name)+1) - 1; keys[k] < 0 || keys[k] >= len(names) {
			return nil, fmt.Errorf("%w: ORDER BY %q", sql.ErrUnknownName, ob.Name)
		}
	}

	rows, width := []oRow{{}}, 0
	for _, tr := range refs {
		t, l, r := o[tr.Name], -1, -1 // the join: a column before, one of t's
		for _, e := range eqs {
			if l < 0 && e[0] < width && e[1] >= width && e[1] < width+len(t.Schema.Cols) {
				l, r = e[0], e[1]-width
			}
		}
		byKey, next := map[table.Value][]oRow{}, []oRow{}
		for i := range t.Rows() {
			row := make(oRow, len(t.Schema.Cols))
			for c := range row {
				row[c] = t.Column(c).Value(i)
			}
			byKey[cell(row, r)] = append(byKey[cell(row, r)], row)
		}
		for _, row := range rows {
			for _, tr := range byKey[cell(row, l)] {
				next = append(next, slices.Concat(row, tr))
			}
		}
		rows, width = next, width+len(t.Schema.Cols)
	}

	var groups [][]oRow
	at := map[string]int{}
	for _, row := range rows {
		k := strconv.Itoa(len(groups))
		if grouped {
			k = ""
			for _, c := range group {
				v := row[c]
				if v.F != v.F {
					v.F = math.NaN()
				}
				k += fmt.Sprintf("%d,%d,%x,%q;", v.Type, v.I, math.Float64bits(v.F+0), v.S) // -0 + 0 is +0
			}
		}
		if slices.ContainsFunc(tests, func(test func(oRow) bool) bool { return !test(row) }) {
			continue
		} else if _, ok := at[k]; !ok {
			at[k], groups = len(groups), append(groups, nil)
		}
		groups[at[k]] = append(groups[at[k]], row)
	}
	if hasAgg && len(group) == 0 && len(groups) == 0 {
		groups = [][]oRow{nil}
	}
	out := make([]oRow, len(groups))
	for i, g := range groups {
		for _, f := range outs {
			out[i] = append(out[i], f(g))
		}
	}
	slices.SortStableFunc(out, func(a, b oRow) int {
		for k, i := range keys {
			if c := rank(a[i], b[i]); c != 0 && sel.OrderBy[k].Desc {
				return -c
			} else if c != 0 {
				return c
			}
		}
		return 0
	})
	if sel.Limit >= 0 && int64(len(out)) > sel.Limit {
		out = out[:sel.Limit]
	}
	return out, nil
}
