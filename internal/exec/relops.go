package exec

import (
	"fmt"

	"energydb/internal/table"
)

// Filter drops rows failing the predicate (predicate positions reference
// the child's schema). Batches that pass entirely are forwarded as-is;
// partial survivors are NOT gathered — the surviving selection vector
// rides on a reused view batch sharing the child's vectors, and chains of
// filters compose their selections in place, deferring the one compaction
// to the consumer's materialisation boundary. The selection vector is
// borrowed (mem) from the first batch to Close.
type Filter struct {
	In   Operator
	Pred Pred

	mem  *batchMem
	sel  []int32
	view *table.Batch
}

// Schema implements Operator.
func (f *Filter) Schema() *table.Schema { return f.In.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error { return f.In.Open(ctx) }

// Next implements Operator.
func (f *Filter) Next(ctx *Ctx) (*table.Batch, error) {
	for {
		b, err := f.In.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Rows()
		if f.mem == nil {
			f.mem = ctx.borrow()
		}
		// Start from the child's selection when it carries one (copied into
		// our scratch: Eval compacts in place and must not corrupt the
		// child's batch), else from the identity.
		var sel []int32
		if b.Sel != nil {
			f.sel = room(&f.mem.sels, f.sel, n)[:n]
			sel = f.sel
			copy(sel, b.Sel)
		} else {
			sel = iotaSel(&f.mem.sels, &f.sel, n)
		}
		if f.Pred != nil {
			sel = f.Pred.Eval(ctx, b, sel)
		}
		switch len(sel) {
		case 0:
			continue
		case n:
			return b, nil
		}
		if f.view == nil {
			f.view = &table.Batch{Schema: f.In.Schema(), Vecs: make([]*table.Vector, len(b.Vecs))}
		}
		copy(f.view.Vecs, b.Vecs)
		f.view.SetSel(sel)
		return f.view, nil
	}
}

// Close implements Operator: the selection vector goes back to the
// recycler, and a second Close finds nothing to hand back.
func (f *Filter) Close(ctx *Ctx) error {
	if f.mem != nil {
		give(&f.mem.sels, f.sel)
	}
	f.mem, f.sel = nil, nil
	return f.In.Close(ctx)
}

// Project evaluates scalar expressions into a new batch. Its kernels'
// registers are borrowed (mem) from the first batch to Close, where the
// projection's claim on them ends.
type Project struct {
	In Operator

	schema *table.Schema
	exprs  []FusedExpr
	out    *table.Batch // reused output batch header
	mem    *batchMem
}

// NewProject builds a projection of in; names label the output columns.
// Every expression is compiled here (compileScalar), so one that cannot
// be evaluated — a string under arithmetic — is an error now, not a
// failure on the first batch.
func NewProject(in Operator, exprs []Scalar, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("exec: %d exprs, %d names", len(exprs), len(names))
	}
	compiled := make([]FusedExpr, len(exprs))
	cols := make([]table.Column, len(exprs))
	for i, e := range exprs {
		expr, typ, err := compileScalar(e, in.Schema())
		if err != nil {
			return nil, err
		}
		compiled[i] = expr
		cols[i] = table.Col(names[i], typ)
	}
	return &Project{In: in, exprs: compiled,
		schema: table.NewSchema(in.Schema().Name, cols...)}, nil
}

// Schema implements Operator.
func (p *Project) Schema() *table.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error { return p.In.Open(ctx) }

// Next implements Operator. Expressions evaluate the child's selected
// rows in place: an incoming selection is never compacted here but
// composed onto the output batch, so filter→project chains stay
// gather-free however sparse the selection.
func (p *Project) Next(ctx *Ctx) (*table.Batch, error) {
	b, err := p.In.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	if p.out == nil {
		p.out = &table.Batch{Schema: p.schema, Vecs: make([]*table.Vector, len(p.exprs))}
		p.mem = ctx.borrow()
	}
	out := p.out
	for i := range p.exprs {
		out.Vecs[i] = p.exprs[i].EvalInto(ctx, b, p.mem)
	}
	if b.Sel != nil && len(p.exprs) > 0 {
		out.SetSel(b.Sel)
	} else {
		out.SetRows(b.Rows())
	}
	return out, nil
}

// Close implements Operator: the registers go back to the recycler —
// under ee_invariants, poisoned and abandoned — and a second Close finds
// nothing to hand back.
func (p *Project) Close(ctx *Ctx) error {
	if m := p.mem; m != nil {
		for i := range p.exprs {
			p.exprs[i].release(m)
		}
	}
	p.out, p.mem = nil, nil
	return p.In.Close(ctx)
}

// Limit passes through at most N rows; N <= 0 yields an empty result
// without pulling from the child at all.
type Limit struct {
	In Operator
	N  int64

	seen int64
}

// Schema implements Operator.
func (l *Limit) Schema() *table.Schema { return l.In.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.seen = 0
	return l.In.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx *Ctx) (*table.Batch, error) {
	if l.N <= 0 || l.seen >= l.N {
		return nil, nil
	}
	b, err := l.In.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	remain := l.N - l.seen
	if int64(b.Rows()) <= remain {
		l.seen += int64(b.Rows())
		return b, nil
	}
	l.seen = l.N
	return b.Slice(0, int(remain)), nil
}

// Close implements Operator.
func (l *Limit) Close(ctx *Ctx) error { return l.In.Close(ctx) }
