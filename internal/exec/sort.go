package exec

import (
	"fmt"
	"math"
	"slices"

	"energydb/internal/table"
)

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materialises its input and emits it ordered by the keys. When the
// materialised input exceeds ctx.MemBudgetBytes and a spill volume is
// attached, it behaves as an external sort: runs of budget size are
// charged as writes to the spill volume and read back once during the
// merge (the data-plane sort itself happens in memory; the timing plane
// pays the real I/O an external sort would).
//
// The comparison sort runs over an index permutation with one typed
// comparator per key closing over the raw column slice — no per-compare
// Value boxing — and the sorted order is materialised with one
// batch-level gather.
type Sort struct {
	In   Operator
	Keys []SortKey

	out   *table.Batch
	bytes int64 // materialised input size of the last Open
	next  int
	// Spills reports how many runs were spilled during the last Open.
	Spills int
}

// Schema implements Operator.
func (s *Sort) Schema() *table.Schema { return s.In.Schema() }

// keyCmp returns an ascending three-way comparator over rows a, b of the
// key column, specialised to the column's physical class.
func keyCmp(v *table.Vector) func(a, b int32) int {
	switch v.Type.Physical() {
	case table.PhysInt:
		col := v.I
		return func(a, b int32) int { return cmpOrd(col[a], col[b]) }
	case table.PhysFloat:
		col := v.F
		return func(a, b int32) int { return cmpOrd(col[a], col[b]) }
	default:
		col := v.S
		return func(a, b int32) int { return cmpOrd(col[a], col[b]) }
	}
}

func cmpOrd[T int64 | float64 | string](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

// AddWorker implements Sink; the one input fragment needs no state.
func (s *Sort) AddWorker(w int) {}

// Absorb implements Sink: it materialises one input batch.
func (s *Sort) Absorb(w int, wctx *Ctx, b *table.Batch) bool {
	s.bytes += b.ByteSize()
	s.out.AppendBatch(b)
	return true
}

// Open implements Operator: it drains the input under the barrier exchange
// and fully sorts it.
func (s *Sort) Open(ctx *Ctx) error {
	s.out = table.NewBatch(s.In.Schema(), 0)
	s.bytes = 0
	s.next = 0
	s.Spills = 0
	if err := RunFragments(ctx, "sort", OneFragment(s.In), s); err != nil {
		return err
	}

	n := s.out.Rows()
	if n > 1 {
		// Comparison sort cost: n log2 n per key column.
		logN := math.Log2(float64(n))
		ctx.ChargeRows(n, ctx.Costs.SortCyclesPerRowLog*logN*float64(len(s.Keys)))
		cmps := make([]func(a, b int32) int, len(s.Keys))
		for i, k := range s.Keys {
			cmps[i] = keyCmp(s.out.Vecs[k.Col])
			if k.Desc {
				asc := cmps[i]
				cmps[i] = func(a, b int32) int { return -asc(a, b) }
			}
		}
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		if len(cmps) == 1 {
			slices.SortStableFunc(perm, cmps[0])
		} else {
			slices.SortStableFunc(perm, func(a, b int32) int {
				for _, cmp := range cmps {
					if c := cmp(a, b); c != 0 {
						return c
					}
				}
				return 0
			})
		}
		s.out = s.out.Gather(perm)
	}

	// External-sort spill charge: write all runs, read them back to merge.
	if ctx.MemBudgetBytes > 0 && s.bytes > ctx.MemBudgetBytes && ctx.Temp != nil {
		runs := int((s.bytes + ctx.MemBudgetBytes - 1) / ctx.MemBudgetBytes)
		s.Spills = runs
		firstPage, pages := ctx.Temp.AllocBytes(s.bytes)
		for pg := firstPage; pg < firstPage+pages; pg++ {
			if err := ctx.Temp.WritePage(ctx.P, pg); err != nil {
				return fmt.Errorf("exec: sort spill: %w", err)
			}
		}
		if err := ctx.Temp.ReadRange(ctx.P, firstPage, firstPage+pages); err != nil {
			return fmt.Errorf("exec: sort spill: %w", err)
		}
		// Merge cost: one more comparison pass.
		ctx.ChargeRows(n, ctx.Costs.SortCyclesPerRowLog*math.Log2(float64(runs+1)))
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next(ctx *Ctx) (*table.Batch, error) {
	if s.next >= s.out.Rows() {
		return nil, nil
	}
	hi := s.next + ctx.VectorSize
	if hi > s.out.Rows() {
		hi = s.out.Rows()
	}
	b := s.out.Slice(s.next, hi)
	s.next = hi
	return b, nil
}

// Close implements Operator.
func (s *Sort) Close(ctx *Ctx) error {
	s.out = nil
	return nil
}
