package sql

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"energydb/internal/exec"
	"energydb/internal/fault"
	"energydb/internal/opt"
	"energydb/internal/table"
)

// ErrDuplicateAlias is the sentinel Bind wraps when two FROM items share an
// alias; match with errors.Is, not the message.
var ErrDuplicateAlias = errors.New("sql: duplicate alias")

// ErrUnknownName is the sentinel Bind wraps when a name does not resolve
// to exactly one thing: an unknown table, alias, column or ORDER BY
// output, or a column two FROM items both have.
var ErrUnknownName = errors.New("unresolved name")

// ErrType is the sentinel Bind and BindInsert wrap for every statement
// that does not type-check: arithmetic or SUM/AVG over a string, DATE
// beside INT or DECIMAL, a column comparison or join across physical
// classes or between two of INT, DECIMAL and DATE, a literal a column
// cannot take (in an INSERT also a fractional one into INT, or one outside
// int64; beside a DECIMAL an integer whose cents leave int64), an INSERT
// row of the wrong arity, * beside aggregates or GROUP BY, an output
// neither aggregated nor grouped where either is present. It is
// fault.ErrType, seen on both wire ends.
var ErrType = fault.ErrType

// SchemaLookup resolves a relation name to its schema.
type SchemaLookup func(rel string) (*table.Schema, bool)

// Bind resolves a parsed SELECT against the catalog and produces the
// optimizer's query IR.
func Bind(sel *SelectStmt, lookup SchemaLookup) (*opt.Query, error) {
	b := &binder{sel: sel, lookup: lookup}
	return b.run()
}

// BindInsert types an INSERT's values for its table by the typing rule and
// builds the batch it appends; nothing is scheduled yet, so a refusal on
// row k leaves rows 0..k-1 unwritten.
func BindInsert(ins *InsertStmt, lookup SchemaLookup) (*table.Batch, error) {
	s, ok := lookup(ins.Table)
	if !ok {
		return nil, fmt.Errorf("sql: %w: unknown table %q", ErrUnknownName, ins.Table)
	}
	b := table.NewBatch(s, len(ins.Rows))
	for _, r := range ins.Rows {
		if len(r) != len(s.Cols) {
			return nil, fmt.Errorf("sql: %w: insert of %d values into %d columns", ErrType, len(r), len(s.Cols))
		}
		for i, v := range r {
			c, d, err := typeLit(v, s.Cols[i].Type)
			if err != nil || d != 0 && c.Type != table.Decimal {
				return nil, fmt.Errorf("sql: %w: column %q cannot hold %v", ErrType, s.Cols[i].Name, v)
			}
			b.Vecs[i].Append(c)
		}
	}
	b.SetRows(len(ins.Rows))
	return b, nil
}

type binder struct {
	sel    *SelectStmt
	lookup SchemaLookup

	aliases []string
	rels    map[string]string
	schemas map[string]*table.Schema
}

func (b *binder) run() (*opt.Query, error) {
	if err := b.bindTables(); err != nil {
		return nil, err
	}
	q := &opt.Query{
		Tables: b.aliases,
		Rels:   b.rels,
		Limit:  b.sel.Limit,
	}

	// WHERE and JOIN ... ON conjuncts.
	var err error
	for _, w := range b.sel.Where {
		if q.Preds, err = b.bindPred(q.Preds, w); err != nil {
			return nil, err
		}
	}
	for i, j := range b.sel.Joins {
		if q.Preds, err = b.bindPred(q.Preds, WherePred{Left: j.Left, Op: "=", Right: &b.sel.Joins[i].Right}); err != nil {
			return nil, err
		}
	}

	// GROUP BY first (outputs validate against it).
	groupSet := map[opt.ColRef]bool{}
	for _, g := range b.sel.GroupBy {
		c, _, err := b.resolve(g)
		if err != nil {
			return nil, err
		}
		q.GroupBy = append(q.GroupBy, c)
		groupSet[c] = true
	}

	// Select list. With an aggregate or a GROUP BY, each output is one
	// value per group.
	grouped := len(q.GroupBy) > 0 || slices.ContainsFunc(b.sel.Items, func(it SelectItem) bool { return it.Agg != nil })
	aggIdx := 0
	for i, item := range b.sel.Items {
		switch {
		case item.Star:
			if grouped {
				return nil, fmt.Errorf("sql: %w: * cannot appear with aggregates or GROUP BY", ErrType)
			}
			for _, a := range b.aliases {
				for _, c := range b.schemas[a].Cols {
					ref := opt.ColRef{Table: a, Col: c.Name}
					q.Outputs = append(q.Outputs, opt.OutputIR{
						Expr: &opt.ExprIR{Col: &ref}, As: c.Name,
					})
				}
			}
		case item.Agg != nil:
			ag, err := b.bindAgg(item.Agg)
			if err != nil {
				return nil, err
			}
			as := item.As
			if as == "" {
				as = fmt.Sprintf("%v_%d", ag.Func, aggIdx)
			}
			ag.As = as
			aggIdx++
			q.Outputs = append(q.Outputs, opt.OutputIR{Agg: ag, As: as})
		default:
			e, _, err := b.bindExpr(item.Expr)
			if err != nil {
				return nil, err
			}
			if grouped && (e.Col == nil || !groupSet[*e.Col]) {
				return nil, fmt.Errorf("sql: %w: output %d must be an aggregate or a GROUP BY column", ErrType, i+1)
			}
			as := item.As
			if as == "" && e.Col != nil {
				as = e.Col.Col
			}
			if as == "" {
				as = fmt.Sprintf("col%d", i)
			}
			q.Outputs = append(q.Outputs, opt.OutputIR{Expr: e, As: as})
		}
	}

	// ORDER BY resolves against output names/positions.
	for _, ob := range b.sel.OrderBy {
		idx := -1
		if ob.Pos > 0 {
			idx = ob.Pos - 1
		} else {
			for i, out := range q.Outputs {
				if out.As == ob.Name {
					idx = i
					break
				}
			}
		}
		if idx < 0 || idx >= len(q.Outputs) {
			return nil, fmt.Errorf("sql: %w: ORDER BY references unknown output %q", ErrUnknownName, ob.Name)
		}
		q.OrderBy = append(q.OrderBy, opt.OrderIR{Output: idx, Desc: ob.Desc})
	}
	return q, nil
}

func (b *binder) bindTables() error {
	b.rels = make(map[string]string)
	b.schemas = make(map[string]*table.Schema)
	add := func(tr TableRef) error {
		s, ok := b.lookup(tr.Name)
		if !ok {
			return fmt.Errorf("sql: %w: unknown table %q", ErrUnknownName, tr.Name)
		}
		if _, dup := b.rels[tr.Alias]; dup {
			return fmt.Errorf("%w %q", ErrDuplicateAlias, tr.Alias)
		}
		b.aliases = append(b.aliases, tr.Alias)
		b.rels[tr.Alias] = tr.Name
		b.schemas[tr.Alias] = s
		return nil
	}
	for _, tr := range b.sel.From {
		if err := add(tr); err != nil {
			return err
		}
	}
	for _, j := range b.sel.Joins {
		if err := add(j.Table); err != nil {
			return err
		}
	}
	return nil
}

// resolve maps a possibly-unqualified column to (alias, col) and its type.
func (b *binder) resolve(c ColName) (opt.ColRef, table.Type, error) {
	if c.Table != "" {
		s, ok := b.schemas[c.Table]
		if !ok {
			return opt.ColRef{}, 0, fmt.Errorf("sql: %w: unknown alias %q", ErrUnknownName, c.Table)
		}
		i := s.ColIndex(c.Col)
		if i < 0 {
			return opt.ColRef{}, 0, fmt.Errorf("sql: %w: table %q has no column %q", ErrUnknownName, c.Table, c.Col)
		}
		return opt.ColRef{Table: c.Table, Col: c.Col}, s.Cols[i].Type, nil
	}
	var found opt.ColRef
	var ft table.Type
	matches := 0
	for _, a := range b.aliases {
		if i := b.schemas[a].ColIndex(c.Col); i >= 0 {
			found = opt.ColRef{Table: a, Col: c.Col}
			ft = b.schemas[a].Cols[i].Type
			matches++
		}
	}
	switch matches {
	case 0:
		return opt.ColRef{}, 0, fmt.Errorf("sql: %w: unknown column %q", ErrUnknownName, c.Col)
	case 1:
		return found, ft, nil
	default:
		return opt.ColRef{}, 0, fmt.Errorf("sql: %w: ambiguous column %q", ErrUnknownName, c.Col)
	}
}

// The dialect's operators and aggregates, by the executor's names.
var (
	cmpOps   = map[string]exec.CmpOp{"=": exec.Eq, "<>": exec.Ne, "<": exec.Lt, "<=": exec.Le, ">": exec.Gt, ">=": exec.Ge}
	arithOps = map[string]exec.ArithOp{"+": exec.Add, "-": exec.Sub, "*": exec.Mul, "/": exec.Div}
	aggFuncs = map[string]exec.AggFunc{"COUNT": exec.Count, "SUM": exec.Sum, "MIN": exec.Min, "MAX": exec.Max, "AVG": exec.Avg}
)

// bindPred appends w's conjuncts to dst: one, or for a literal the column
// cannot hold none (<>) or two (=).
func (b *binder) bindPred(dst []opt.PredIR, w WherePred) ([]opt.PredIR, error) {
	op, ok := cmpOps[w.Op]
	if !ok {
		return dst, fmt.Errorf("sql: unknown operator %q", w.Op)
	}
	l, lt, err := b.resolve(w.Left)
	if err != nil {
		return dst, err
	}
	if w.Right != nil {
		r, rt, err := b.resolve(*w.Right)
		if err != nil {
			return dst, err
		}
		if lt.Physical() != rt.Physical() || (lt == table.Decimal) != (rt == table.Decimal) ||
			(lt == table.Date) != (rt == table.Date) {
			return dst, fmt.Errorf("sql: %w: cannot compare %v with %v", ErrType, lt, rt)
		}
		return append(dst, opt.PredIR{Left: l, Op: op, Right: r, IsJoin: true}), nil
	}
	c, d, err := typeLit(*w.Lit, lt)
	if err != nil && d == 0 {
		return dst, err
	}
	if d == 0 {
		return append(dst, opt.PredIR{Left: l, Op: op, Val: c}), nil
	}
	// The literal lies between c and c+d: keep what lies on the op's side.
	above, below := exec.Gt, exec.Le
	if d < 0 {
		above, below = exec.Ge, exec.Lt
	}
	if op == exec.Gt || op == exec.Ge || op == exec.Eq {
		dst = append(dst, opt.PredIR{Left: l, Op: above, Val: c})
	}
	if op == exec.Lt || op == exec.Le || op == exec.Eq {
		dst = append(dst, opt.PredIR{Left: l, Op: below, Val: c})
	}
	return dst, nil
}

// The typing rule, stated once. A literal means the decimal it is written
// as (a float: its shortest decimal form); typeLit types it for a column.
// DATE is a class of its own: only a DATE literal meets a DATE column, and
// a DATE literal meets no other column.
//   - INSERT: an integer literal into DECIMAL means whole units (29 is
//     29.00) and a fractional one rounds to the nearest cent, half away
//     from zero as math.Round does; a fractional literal into INT, or one
//     outside int64 once scaled, is refused with ErrType; an integer
//     literal into DOUBLE converts.
//   - Comparison: when the column cannot hold the literal exactly, < and >=
//     round it up to the column's unit, > and <= round it down, = matches
//     no row (> floor AND < ceil) and <> drops out; a literal outside int64
//     makes each operator match all rows or none.
//   - Arithmetic: +, -, SUM, MIN and MAX on DECIMAL stay decimal, an INT
//     operand beside it scaled ×100 (exec.ArithType types the node); an
//     integer literal is scaled here, at bind time, and refused when its
//     cents leave int64. A DECIMAL that meets *, /, AVG or a float is
//     lowered to col / 100.0. DATE beside INT or DECIMAL, and a column
//     comparison or join between two of INT, DECIMAL and DATE, is refused.

// typeLit types literal v for a column of type t: c is the column value
// nearest v and d the sign of v - c, 0 when c is v. An error with d != 0
// means v lies outside int64 on side d, and c is the int64 end there.
func typeLit(v table.Value, t table.Type) (c table.Value, d int, err error) {
	var s string
	switch {
	case (v.Type == table.Date) != (t == table.Date):
		return v, 0, fmt.Errorf("sql: %w: cannot use %v literal for %v column", ErrType, v.Type, t)
	case v.Type == t || v.Type.Physical() == t.Physical() && t != table.Decimal:
		v.Type = t
		return v, 0, nil
	case t == table.Float64 && v.Type == table.Int64:
		return table.FloatVal(float64(v.I)), 0, nil
	case t.Physical() == table.PhysInt && v.Type == table.Float64:
		s = strconv.FormatFloat(v.F, 'f', -1, 64)
	case t == table.Decimal && v.Type == table.Int64:
		s = strconv.FormatInt(v.I, 10)
	default:
		return v, 0, fmt.Errorf("sql: %w: cannot use %v literal for %v column", ErrType, v.Type, t)
	}
	step := 1
	if s[0] == '-' {
		step = -1
	}
	whole, frac, _ := strings.Cut(s, ".")
	if t == table.Decimal {
		frac += "00"
		whole, frac = whole+frac[:2], frac[2:]
	}
	c = table.Value{Type: t}
	c.I, err = strconv.ParseInt(whole, 10, 64) // the int64 end on a range error
	switch frac = strings.TrimRight(frac, "0"); {
	case err != nil:
		return c, step, fmt.Errorf("sql: %w: %v is outside a %v column", ErrType, v, t)
	case frac == "":
		return c, 0, nil
	case frac[0] >= '5': // a fraction is left only below 2^53: no wrap
		c.I += int64(step)
		return c, -step, nil
	}
	return c, step, nil
}

func (b *binder) bindAgg(a *AggCall) (*opt.AggIR, error) {
	fn, ok := aggFuncs[a.Func]
	if !ok {
		return nil, fmt.Errorf("sql: unknown aggregate %q", a.Func)
	}
	out := &opt.AggIR{Func: fn}
	if !a.Star {
		e, t, err := b.bindExpr(a.Arg)
		if err != nil {
			return nil, err
		}
		if (fn == exec.Sum || fn == exec.Avg) && t.Physical() == table.PhysString {
			return nil, fmt.Errorf("sql: %w: %s of a %v", ErrType, a.Func, t)
		}
		if fn == exec.Avg {
			e, _ = lower(e, t, true) // a float lowering refuses nothing
		}
		out.Arg = e
	} else if fn != exec.Count {
		return nil, fmt.Errorf("sql: %s(*) is not valid", a.Func)
	}
	return out, nil
}

// bindExpr resolves a scalar expression and reports its type, by
// exec.ArithType and the DECIMAL lowerings of the typing rule.
func (b *binder) bindExpr(e *AstExpr) (*opt.ExprIR, table.Type, error) {
	switch {
	case e.Col != nil:
		c, t, err := b.resolve(*e.Col)
		if err != nil {
			return nil, 0, err
		}
		return &opt.ExprIR{Col: &c}, t, nil
	case e.Lit != nil:
		v := *e.Lit
		return &opt.ExprIR{Const: &v}, v.Type, nil
	default:
		l, lt, err := b.bindExpr(e.L)
		if err != nil {
			return nil, 0, err
		}
		r, rt, err := b.bindExpr(e.R)
		if err != nil {
			return nil, 0, err
		}
		op, ok := arithOps[e.Op]
		if !ok {
			return nil, 0, fmt.Errorf("sql: unknown arithmetic operator %q", e.Op)
		}
		t, err := exec.ArithType(op, lt, rt)
		if err != nil {
			return nil, 0, fmt.Errorf("sql: %w", err)
		}
		if lt == table.Decimal || rt == table.Decimal {
			if op == exec.Mul {
				t = table.Float64
			}
			if l, err = lower(l, lt, t == table.Float64); err == nil {
				r, err = lower(r, rt, t == table.Float64)
			}
			if err != nil {
				return nil, 0, err
			}
		}
		return &opt.ExprIR{Op: op, L: l, R: r}, t, nil
	}
}

// lower applies the typing rule's DECIMAL lowerings to an operand e of
// type t: a DECIMAL in float arithmetic becomes e / 100.0, an INT in
// decimal arithmetic e * 100 — an integer literal its cents, refused when
// they leave int64.
func lower(e *opt.ExprIR, t table.Type, float bool) (*opt.ExprIR, error) {
	k, op := table.IntVal(100), exec.Mul
	switch {
	case float && t == table.Decimal:
		k, op = table.FloatVal(100), exec.Div
	case float || t != table.Int64:
		return e, nil
	case e.Const != nil:
		c := table.DecimalVal(e.Const.I * 100)
		if c.I/100 != e.Const.I {
			return nil, fmt.Errorf("sql: %w: %v is outside a decimal", ErrType, *e.Const)
		}
		return &opt.ExprIR{Const: &c}, nil
	}
	return &opt.ExprIR{Op: op, L: e, R: &opt.ExprIR{Const: &k}}, nil
}
