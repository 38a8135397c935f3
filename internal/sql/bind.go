package sql

import (
	"errors"
	"fmt"

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

// ErrType is the sentinel Bind wraps for every statement that does not
// type-check: arithmetic or SUM/AVG over a string, a comparison across
// physical classes, a literal a column cannot take, * beside aggregates,
// an output that is neither aggregated nor grouped. It is the engine-wide
// fault.ErrType, so errors.Is sees it on both sides of the wire.
var ErrType = fault.ErrType

// SchemaLookup resolves a relation name to its schema.
type SchemaLookup func(rel string) (*table.Schema, bool)

// Bind resolves a parsed SELECT against the catalog and produces the
// optimizer's query IR.
func Bind(sel *SelectStmt, lookup SchemaLookup) (*opt.Query, error) {
	b := &binder{sel: sel, lookup: lookup}
	return b.run()
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
	for _, w := range b.sel.Where {
		p, err := b.bindPred(w)
		if err != nil {
			return nil, err
		}
		q.Preds = append(q.Preds, *p)
	}
	for _, j := range b.sel.Joins {
		l, _, err := b.resolve(j.Left)
		if err != nil {
			return nil, err
		}
		r, _, err := b.resolve(j.Right)
		if err != nil {
			return nil, err
		}
		q.Preds = append(q.Preds, opt.PredIR{Left: l, Op: exec.Eq, Right: r, IsJoin: true})
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

	// Select list.
	hasAgg := false
	for _, item := range b.sel.Items {
		if item.Agg != nil {
			hasAgg = true
		}
	}
	aggIdx := 0
	for i, item := range b.sel.Items {
		switch {
		case item.Star:
			if hasAgg {
				return nil, fmt.Errorf("sql: %w: * cannot appear with aggregates", ErrType)
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
			if hasAgg {
				if e.Col == nil || !groupSet[*e.Col] {
					return nil, fmt.Errorf("sql: %w: output %d must be an aggregate or a GROUP BY column", ErrType, i+1)
				}
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

func cmpOpOf(s string) (exec.CmpOp, error) {
	switch s {
	case "=":
		return exec.Eq, nil
	case "<>":
		return exec.Ne, nil
	case "<":
		return exec.Lt, nil
	case "<=":
		return exec.Le, nil
	case ">":
		return exec.Gt, nil
	case ">=":
		return exec.Ge, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", s)
	}
}

func (b *binder) bindPred(w WherePred) (*opt.PredIR, error) {
	op, err := cmpOpOf(w.Op)
	if err != nil {
		return nil, err
	}
	l, lt, err := b.resolve(w.Left)
	if err != nil {
		return nil, err
	}
	if w.Right != nil {
		r, rt, err := b.resolve(*w.Right)
		if err != nil {
			return nil, err
		}
		if lt.Physical() != rt.Physical() {
			return nil, fmt.Errorf("sql: %w: cannot compare %v with %v", ErrType, lt, rt)
		}
		return &opt.PredIR{Left: l, Op: op, Right: r, IsJoin: true}, nil
	}
	v, err := coerce(*w.Lit, lt)
	if err != nil {
		return nil, err
	}
	return &opt.PredIR{Left: l, Op: op, Val: v}, nil
}

// coerce adapts a literal to a column's type (int literals compare against
// float columns, decimals are scaled, etc.).
func coerce(v table.Value, target table.Type) (table.Value, error) {
	if v.Type.Physical() == target.Physical() {
		v.Type = target
		return v, nil
	}
	switch {
	case target.Physical() == table.PhysFloat && v.Type.Physical() == table.PhysInt:
		return table.FloatVal(float64(v.I)), nil
	case target == table.Decimal && v.Type == table.Float64:
		return table.DecimalVal(int64(v.F * 100)), nil
	case target.Physical() == table.PhysInt && v.Type == table.Float64:
		return table.Value{Type: target, I: int64(v.F)}, nil
	default:
		return v, fmt.Errorf("sql: %w: cannot use %v literal for %v column", ErrType, v.Type, target)
	}
}

func (b *binder) bindAgg(a *AggCall) (*opt.AggIR, error) {
	var fn exec.AggFunc
	switch a.Func {
	case "COUNT":
		fn = exec.Count
	case "SUM":
		fn = exec.Sum
	case "MIN":
		fn = exec.Min
	case "MAX":
		fn = exec.Max
	case "AVG":
		fn = exec.Avg
	default:
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
		out.Arg = e
	} else if fn != exec.Count {
		return nil, fmt.Errorf("sql: %s(*) is not valid", a.Func)
	}
	return out, nil
}

// bindExpr resolves a scalar expression and reports its type, by the
// executor's promotion rule: / and int-float mixes are float64, integer
// arithmetic keeps its left operand's type. Arithmetic is numeric only.
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
		var op exec.ArithOp
		switch e.Op {
		case "+":
			op = exec.Add
		case "-":
			op = exec.Sub
		case "*":
			op = exec.Mul
		case "/":
			op = exec.Div
		default:
			return nil, 0, fmt.Errorf("sql: unknown arithmetic operator %q", e.Op)
		}
		if lt.Physical() == table.PhysString || rt.Physical() == table.PhysString {
			return nil, 0, fmt.Errorf("sql: %w: %v %s %v", ErrType, lt, e.Op, rt)
		}
		if op == exec.Div || lt.Physical() == table.PhysFloat || rt.Physical() == table.PhysFloat {
			lt = table.Float64
		}
		return &opt.ExprIR{Op: op, L: l, R: r}, lt, nil
	}
}
