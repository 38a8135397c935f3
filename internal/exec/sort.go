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
// charged as writes to the spill volume and read back once, in one
// multi-device ReadPages, during the merge (the data-plane sort itself
// happens in memory; the timing plane pays the real I/O an external sort
// would).
//
// The comparison sort runs over an index permutation with one typed
// comparator per key closing over the raw column slice — no per-compare
// Value boxing — and Next gathers each output batch through the
// permutation: the input is copied once, into the store. Keys order by
// table.Compare, ties keep input order.
//
// The store's arrays, the permutation and the one output batch Next
// refills are borrowed from the recycler (mem) from Open to Close, where
// the sort's claim on them ends.
type Sort struct {
	In   Operator
	Keys []SortKey

	mem   *batchMem
	store *table.Batch // the materialised input
	perm  []int32      // store rows in output order
	out   *table.Batch // refilled by every Next
	bytes int64        // materialised input size of the last Open
	next  int
	// Spills reports how many runs were spilled during the last Open.
	Spills int
}

// Schema implements Operator.
func (s *Sort) Schema() *table.Schema { return s.In.Schema() }

// keyCmp returns an ascending three-way comparator over rows a, b of the
// key column, specialised to the column's physical class, in table.Compare's
// order: a NaN sorts after every number, so first under DESC.
func keyCmp(v *table.Vector) func(a, b int32) int {
	switch v.Type.Physical() {
	case table.PhysInt:
		col := v.I
		return func(a, b int32) int { return table.Compare(col[a], col[b]) }
	case table.PhysFloat:
		col := v.F
		return func(a, b int32) int { return table.Compare(col[a], col[b]) }
	default:
		col := v.S
		return func(a, b int32) int { return table.Compare(col[a], col[b]) }
	}
}

// AddWorker implements Sink; the one input fragment needs no state.
func (s *Sort) AddWorker(w int) {}

// Absorb implements Sink: it materialises one input batch.
func (s *Sort) Absorb(w int, wctx *Ctx, b *table.Batch) bool {
	s.bytes += b.ByteSize()
	s.mem.store(s.store, b)
	return true
}

// Open implements Operator: it drains the input under the barrier exchange
// and fully sorts it. A failed Open hands back everything it borrowed.
func (s *Sort) Open(ctx *Ctx) error {
	s.release()
	s.mem = ctx.borrow()
	s.store = s.mem.batch(s.In.Schema(), 0)
	s.bytes = 0
	s.next = 0
	s.Spills = 0
	err := s.sort(ctx)
	if err != nil {
		s.release()
	}
	return err
}

// sort materialises the input into the store and orders the permutation.
func (s *Sort) sort(ctx *Ctx) error {
	if err := RunFragments(ctx, "sort", OneFragment(s.In), s); err != nil {
		return err
	}

	n := s.store.Rows()
	s.perm = takeLen(&s.mem.sels, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	if n > 1 {
		// Comparison sort cost: n log2 n per key column.
		logN := math.Log2(float64(n))
		ctx.ChargeRows(n, ctx.Costs.SortCyclesPerRowLog*logN*float64(len(s.Keys)))
		cmps := make([]func(a, b int32) int, len(s.Keys))
		for i, k := range s.Keys {
			cmps[i] = keyCmp(s.store.Vecs[k.Col])
			if k.Desc {
				asc := cmps[i]
				cmps[i] = func(a, b int32) int { return -asc(a, b) }
			}
		}
		if len(cmps) == 1 {
			slices.SortStableFunc(s.perm, cmps[0])
		} else {
			slices.SortStableFunc(s.perm, func(a, b int32) int {
				for _, cmp := range cmps {
					if c := cmp(a, b); c != 0 {
						return c
					}
				}
				return 0
			})
		}
	}

	// External-sort spill charge: write all runs, read them back to merge.
	if ctx.MemBudgetBytes > 0 && s.bytes > ctx.MemBudgetBytes && ctx.Temp != nil {
		runs := int((s.bytes + ctx.MemBudgetBytes - 1) / ctx.MemBudgetBytes)
		s.Spills = runs
		firstPage, pages := ctx.Temp.AllocBytes(s.bytes)
		spilled := make([]int64, pages)
		for i := range spilled {
			spilled[i] = firstPage + int64(i)
			if err := ctx.Temp.WritePage(ctx.P, spilled[i]); err != nil {
				return fmt.Errorf("exec: sort spill: %w", err)
			}
		}
		if err := ctx.Temp.ReadPages(ctx.P, spilled); err != nil {
			return fmt.Errorf("exec: sort spill: %w", err)
		}
		// Merge cost: one more comparison pass.
		ctx.ChargeRows(n, ctx.Costs.SortCyclesPerRowLog*math.Log2(float64(runs+1)))
	}
	return nil
}

// Next implements Operator: it gathers the next stretch of the
// permutation into the output batch.
func (s *Sort) Next(ctx *Ctx) (*table.Batch, error) {
	if s.next >= len(s.perm) {
		return nil, nil
	}
	hi := min(s.next+vectorSize, len(s.perm))
	s.out = s.mem.refill(s.out, s.store.Schema, hi-s.next)
	s.out.AppendGather(s.store, s.perm[s.next:hi])
	s.next = hi
	return s.out, nil
}

// Close implements Operator: the sort's claim on its memory ends.
func (s *Sort) Close(ctx *Ctx) error {
	s.release()
	return nil
}

// release hands the store, the permutation and the output batch back to
// the recycler — under ee_invariants, poisons and abandons them — and
// leaves nothing for a second call to hand back.
func (s *Sort) release() {
	m := s.mem
	if m == nil {
		return
	}
	m.reclaim(s.store)
	give(&m.sels, s.perm)
	if s.out != nil {
		m.reclaim(s.out)
	}
	s.mem, s.store, s.perm, s.out = nil, nil, nil, nil
}
