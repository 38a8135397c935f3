//go:build !ee_invariants

package exec

import "energydb/internal/table"

// give hands a back to free, a string array cleared so that it pins no
// string a statement produced at rest. The arrays a vector does not use
// are nil and stay out.
func give[T any](free *[][]T, a []T) {
	if cap(a) == 0 {
		return
	}
	if s, ok := any(a).([]string); ok {
		clear(s[:cap(s)])
	}
	*free = append(*free, a)
}

// refill readies out, a batch over schema made by m.batch, for the next
// batch of up to rows rows once the batch it held is dead: the release
// build refills it in place. A nil out is made.
func (m *batchMem) refill(out *table.Batch, schema *table.Schema, rows int) *table.Batch {
	if out == nil {
		return m.batch(schema, rows)
	}
	for _, v := range out.Vecs {
		m.fit(v, rows)
	}
	out.SetRows(0)
	return out
}

// retire is the release-build stand-in for the scan-scratch poisoner: the
// next block simply overwrites the previous one in place.
func (*scanScratch) retire() {}

// retire is the same stand-in for a Prober's gather memory: the next batch
// is gathered over the previous one.
func (*Prober) retire() {}

// poisonUnselected is the release-build stand-in for the late-column
// poisoner: cells outside the selection keep whatever they held.
func (*scanScratch) poisonUnselected(uint64, []int32) {}
