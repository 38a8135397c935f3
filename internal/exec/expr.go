package exec

import (
	"fmt"

	"energydb/internal/table"
)

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Pred is a vectorised predicate. Eval filters the selection vector sel —
// ascending row indexes into b — in place and returns the surviving
// prefix (aliasing sel's backing array). Leaves charge CPU for every
// selected row they inspect, so later conjuncts after a selective one
// both run and cost less.
type Pred interface {
	Eval(ctx *Ctx, b *table.Batch, sel []int32) []int32
	String() string
}

// filterConst is the typed selection kernel for column-vs-constant
// comparisons: the operator and constant are hoisted out of the loop, and
// survivors are compacted into the front of sel.
func filterConst[T int64 | float64 | string](op CmpOp, col []T, c T, sel []int32) []int32 {
	out := sel[:0]
	switch op {
	case Eq:
		for _, i := range sel {
			if col[i] == c {
				out = append(out, i)
			}
		}
	case Ne:
		for _, i := range sel {
			if col[i] != c {
				out = append(out, i)
			}
		}
	case Lt:
		for _, i := range sel {
			if col[i] < c {
				out = append(out, i)
			}
		}
	case Le:
		for _, i := range sel {
			if col[i] <= c {
				out = append(out, i)
			}
		}
	case Gt:
		for _, i := range sel {
			if col[i] > c {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if col[i] >= c {
				out = append(out, i)
			}
		}
	}
	return out
}

// filterColCol is the typed kernel for column-vs-column comparisons.
func filterColCol[T int64 | float64 | string](op CmpOp, l, r []T, sel []int32) []int32 {
	out := sel[:0]
	switch op {
	case Eq:
		for _, i := range sel {
			if l[i] == r[i] {
				out = append(out, i)
			}
		}
	case Ne:
		for _, i := range sel {
			if l[i] != r[i] {
				out = append(out, i)
			}
		}
	case Lt:
		for _, i := range sel {
			if l[i] < r[i] {
				out = append(out, i)
			}
		}
	case Le:
		for _, i := range sel {
			if l[i] <= r[i] {
				out = append(out, i)
			}
		}
	case Gt:
		for _, i := range sel {
			if l[i] > r[i] {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if l[i] >= r[i] {
				out = append(out, i)
			}
		}
	}
	return out
}

// ColConst compares a column against a constant.
type ColConst struct {
	Col int
	Op  CmpOp
	Val table.Value
}

// Eval implements Pred.
func (p *ColConst) Eval(ctx *Ctx, b *table.Batch, sel []int32) []int32 {
	ctx.ChargeRows(len(sel), ctx.Costs.FilterCyclesPerRow)
	v := b.Vecs[p.Col]
	switch v.Type.Physical() {
	case table.PhysInt:
		return filterConst(p.Op, v.I, p.Val.I, sel)
	case table.PhysFloat:
		return filterConst(p.Op, v.F, p.Val.F, sel)
	default:
		return filterConst(p.Op, v.S, p.Val.S, sel)
	}
}

func (p *ColConst) String() string {
	return fmt.Sprintf("col%d %v %v", p.Col, p.Op, p.Val)
}

// ColCol compares two columns of the same physical class.
type ColCol struct {
	Left, Right int
	Op          CmpOp
}

// Eval implements Pred.
func (p *ColCol) Eval(ctx *Ctx, b *table.Batch, sel []int32) []int32 {
	ctx.ChargeRows(len(sel), ctx.Costs.FilterCyclesPerRow)
	l, r := b.Vecs[p.Left], b.Vecs[p.Right]
	switch l.Type.Physical() {
	case table.PhysInt:
		return filterColCol(p.Op, l.I, r.I, sel)
	case table.PhysFloat:
		return filterColCol(p.Op, l.F, r.F, sel)
	default:
		return filterColCol(p.Op, l.S, r.S, sel)
	}
}

func (p *ColCol) String() string {
	return fmt.Sprintf("col%d %v col%d", p.Left, p.Op, p.Right)
}

// And conjoins predicates (evaluated in order; later terms see earlier
// selections, so put cheap selective terms first).
type And struct{ Preds []Pred }

// Eval implements Pred.
func (p *And) Eval(ctx *Ctx, b *table.Batch, sel []int32) []int32 {
	for _, q := range p.Preds {
		sel = q.Eval(ctx, b, sel)
	}
	return sel
}

func (p *And) String() string {
	s := "("
	for i, q := range p.Preds {
		if i > 0 {
			s += " AND "
		}
		s += q.String()
	}
	return s + ")"
}

// Or disjoins predicates.
type Or struct {
	Preds []Pred

	keep []bool
	tmp  []int32
}

// Eval implements Pred.
func (p *Or) Eval(ctx *Ctx, b *table.Batch, sel []int32) []int32 {
	if len(sel) == 0 {
		return sel
	}
	n := b.PhysRows() // sel holds physical row indexes
	if cap(p.keep) < n {
		p.keep = make([]bool, n)
	}
	keep := p.keep[:n]
	if cap(p.tmp) < len(sel) {
		p.tmp = make([]int32, len(sel))
	}
	tmp := p.tmp
	for _, q := range p.Preds {
		for _, i := range q.Eval(ctx, b, tmp[:copy(tmp, sel)]) {
			keep[i] = true
		}
	}
	// Marked positions are a subset of sel, so clearing while compacting
	// restores the all-false invariant in O(len(sel)), not O(rows).
	out := sel[:0]
	for _, i := range sel {
		if keep[i] {
			keep[i] = false
			out = append(out, i)
		}
	}
	return out
}

func (p *Or) String() string {
	s := "("
	for i, q := range p.Preds {
		if i > 0 {
			s += " OR "
		}
		s += q.String()
	}
	return s + ")"
}

// Not negates a predicate.
type Not struct {
	Pred Pred

	tmp []int32
}

// Eval implements Pred.
func (p *Not) Eval(ctx *Ctx, b *table.Batch, sel []int32) []int32 {
	if len(sel) == 0 {
		return sel
	}
	if cap(p.tmp) < len(sel) {
		p.tmp = make([]int32, len(sel))
	}
	tmp := p.tmp
	kept := p.Pred.Eval(ctx, b, tmp[:copy(tmp, sel)])
	// Both sel and kept are ascending: emit sel minus kept with one merge.
	out := sel[:0]
	k := 0
	for _, i := range sel {
		for k < len(kept) && kept[k] < i {
			k++
		}
		if k < len(kept) && kept[k] == i {
			continue
		}
		out = append(out, i)
	}
	return out
}

func (p *Not) String() string { return "NOT " + p.Pred.String() }

// Scalar is a per-row expression tree: a ColRef, a Const or an Arith.
// A tree is plain immutable data — nothing in it evaluates or carries
// scratch, so fragments may share one — and NewProject compiles it into
// the kernel that does (fuse.go).
type Scalar interface {
	String() string
}

// ColRef is a column of the input, passed through unchanged.
type ColRef struct{ Col int }

func (e *ColRef) String() string { return fmt.Sprintf("col%d", e.Col) }

// Const is a constant.
type Const struct{ Val table.Value }

func (e *Const) String() string { return e.Val.String() }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string {
	return [...]string{"+", "-", "*", "/"}[o]
}

// Arith combines two numeric scalars. Integer-class operands promote to
// float64 when mixed with floats; Div always produces float64.
type Arith struct {
	Op   ArithOp
	L, R Scalar
}

func (e *Arith) String() string {
	return fmt.Sprintf("(%s %v %s)", e.L, e.Op, e.R)
}

// TruePred matches every row (no per-row charge: it does no work).
type TruePred struct{}

// Eval implements Pred.
func (TruePred) Eval(_ *Ctx, _ *table.Batch, sel []int32) []int32 { return sel }

func (TruePred) String() string { return "true" }
