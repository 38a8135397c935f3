package opt

import (
	"fmt"

	"energydb/internal/exec"
	"energydb/internal/table"
)

// ColRef names a column of a query's table (by alias).
type ColRef struct {
	Table string // alias
	Col   string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// PredIR is one conjunct of the WHERE clause: either column-vs-constant or
// column-vs-column (an equi-join predicate when the columns belong to
// different tables).
type PredIR struct {
	Left   ColRef
	Op     exec.CmpOp
	Right  ColRef      // valid when IsJoin
	Val    table.Value // valid when !IsJoin
	IsJoin bool
}

func (p PredIR) String() string {
	if p.IsJoin {
		return fmt.Sprintf("%v %v %v", p.Left, p.Op, p.Right)
	}
	return fmt.Sprintf("%v %v %v", p.Left, p.Op, p.Val)
}

// ExprIR is a scalar output expression: a column, a constant, or an
// arithmetic combination.
type ExprIR struct {
	Col   *ColRef
	Const *table.Value
	Op    exec.ArithOp // valid when L and R are set
	L, R  *ExprIR
}

func (e *ExprIR) String() string {
	switch {
	case e.Col != nil:
		return e.Col.String()
	case e.Const != nil:
		return e.Const.String()
	default:
		return fmt.Sprintf("(%s %v %s)", e.L, e.Op, e.R)
	}
}

// columns appends every column referenced by e to dst.
func (e *ExprIR) columns(dst []ColRef) []ColRef {
	switch {
	case e.Col != nil:
		return append(dst, *e.Col)
	case e.Const != nil:
		return dst
	default:
		return e.R.columns(e.L.columns(dst))
	}
}

// AggIR is one aggregate output.
type AggIR struct {
	Func exec.AggFunc
	Arg  *ExprIR // nil for COUNT(*)
	As   string
}

// OutputIR is one SELECT-list item: either a plain expression or an
// aggregate (mixing is resolved by the binder: plain columns must appear
// in GROUP BY when aggregates or a GROUP BY are present).
type OutputIR struct {
	Expr *ExprIR
	Agg  *AggIR
	As   string
}

// OrderIR is one ORDER BY key, naming an output column.
type OrderIR struct {
	Output int // index into Outputs
	Desc   bool
}

// Query is the bound single-block query IR the SQL front end produces and
// the optimizer consumes.
type Query struct {
	Tables  []string // aliases, in FROM order; alias -> relation via Rels
	Rels    map[string]string
	Preds   []PredIR
	Outputs []OutputIR
	GroupBy []ColRef
	OrderBy []OrderIR
	Limit   int64 // -1 = none
}

// HasAggs reports whether any output is an aggregate.
func (q *Query) HasAggs() bool {
	for _, o := range q.Outputs {
		if o.Agg != nil {
			return true
		}
	}
	return false
}
