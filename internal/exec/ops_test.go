package exec

import "energydb/internal/table"

// The operator helpers below serve this package's tests alone: no plan
// builds them.

// Run drains op and returns all produced batches, cloned.
func Run(ctx *Ctx, op Operator) ([]*table.Batch, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	var out []*table.Batch
	for {
		b, err := op.Next(ctx)
		if err != nil {
			_ = op.Close(ctx)
			return nil, err
		}
		if b == nil {
			break
		}
		if b.Rows() > 0 {
			out = append(out, b.Clone()) // operators may reuse batch buffers
		}
	}
	return out, op.Close(ctx)
}

// NewHashJoin is the hash equi-join of two operators on single key
// columns: a Prober streaming probe against the SharedBuild of build.
func NewHashJoin(build, probe Operator, buildKey, probeKey int) *Prober {
	return NewProber(NewSharedBuild(build, buildKey), probe, probeKey)
}

// Values is a leaf operator over an in-memory table (no storage charge).
// It reuses one view batch across Next calls, re-pointing its vectors at
// the table.
type Values struct {
	Tab       *table.Table
	BatchRows int

	next int
	view *table.Batch
}

// Schema implements Operator.
func (v *Values) Schema() *table.Schema { return v.Tab.Schema }

// Open implements Operator.
func (v *Values) Open(ctx *Ctx) error {
	v.next = 0
	if v.BatchRows <= 0 {
		v.BatchRows = 4096
	}
	return nil
}

// Next implements Operator.
func (v *Values) Next(ctx *Ctx) (*table.Batch, error) {
	if v.next >= v.Tab.Rows() {
		return nil, nil
	}
	hi := v.next + v.BatchRows
	if hi > v.Tab.Rows() {
		hi = v.Tab.Rows()
	}
	if v.view == nil {
		v.view = &table.Batch{Schema: v.Tab.Schema, Vecs: make([]*table.Vector, len(v.Tab.Schema.Cols))}
		for i := range v.view.Vecs {
			v.view.Vecs[i] = &table.Vector{}
		}
	}
	for i := range v.view.Vecs {
		v.Tab.Column(i).SliceInto(v.view.Vecs[i], v.next, hi)
	}
	v.view.SetRows(hi - v.next)
	v.next = hi
	return v.view, nil
}

// Close implements Operator.
func (v *Values) Close(ctx *Ctx) error { return nil }
