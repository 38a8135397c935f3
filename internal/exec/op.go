package exec

import (
	"energydb/internal/table"
)

// Operator is the volcano iterator contract, vectorised: Next returns
// batches until it returns nil. Open must (re)initialise state so an
// operator can be re-executed — block nested-loop join depends on
// re-opening its inner side.
//
// A returned batch (and the vectors and selection it references) is only
// valid until the next call to Next or Close on the same operator:
// producers may reuse buffers across calls. A consumer that retains rows
// beyond that — as Run does — must copy them first (Batch.Clone,
// Table.AppendBatch).
//
// Cardinality is explicit: Batch.Rows() is authoritative even for
// zero-column batches (count-only plans produce them). A batch may carry
// a deferred selection (Batch.Sel) instead of being compacted by the
// producer; consumers either compose it (Filter, Project, the hash join's
// probe) or resolve it once at their materialisation boundary (join
// build, aggregation, sort, output) via the selection-aware Batch
// mutators.
type Operator interface {
	// Schema describes the batches this operator produces.
	Schema() *table.Schema
	// Open prepares (or resets) the operator for a full iteration.
	Open(ctx *Ctx) error
	// Next returns the next batch, or nil at end of stream.
	Next(ctx *Ctx) (*table.Batch, error)
	// Close releases resources acquired by Open.
	Close(ctx *Ctx) error
}

// Collect drains op into a single table for convenient inspection.
func Collect(ctx *Ctx, op Operator) (*table.Table, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	t := table.NewTable(op.Schema())
	for {
		b, err := op.Next(ctx)
		if err != nil {
			_ = op.Close(ctx)
			return nil, err
		}
		if b == nil {
			break
		}
		t.AppendBatch(b)
	}
	return t, op.Close(ctx)
}

// RowCount drains op and returns only the row count (no materialisation).
func RowCount(ctx *Ctx, op Operator) (int64, error) {
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	var n int64
	for {
		b, err := op.Next(ctx)
		if err != nil {
			_ = op.Close(ctx)
			return 0, err
		}
		if b == nil {
			break
		}
		n += int64(b.Rows())
	}
	return n, op.Close(ctx)
}
