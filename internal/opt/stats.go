// Package opt is the cost-based query optimizer with *dual* cost models:
// every candidate physical plan is priced in seconds and in joules, and
// plan selection minimises a configurable objective (Time, Energy, or
// energy-delay product).
//
// This is the paper's §4.1 thesis made concrete: "query optimizers will
// need power models to estimate energy costs ... simple models may suffice
// in the same way simple models for device access times work well in
// practice." The energy model here is deliberately simple — marginal watts
// for busy CPU cores and storage, a holding-power rate for operator
// working memory — and the experiments show it is enough to change plans.
package opt

import (
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"

	"energydb/internal/table"
)

// ColStats summarises one column for cardinality estimation.
type ColStats struct {
	NDV int64 // number of distinct values
	Min table.Value
	Max table.Value
}

// TableStats summarises a relation.
type TableStats struct {
	Rows int64
	Cols []ColStats
}

// Analyze computes exact statistics over an in-memory table (the simulated
// analogue of ANALYZE; exact because the data plane is in memory anyway),
// reading the typed column slices.
func Analyze(t *table.Table) *TableStats {
	n := t.Rows()
	st := &TableStats{Rows: int64(n), Cols: make([]ColStats, len(t.Schema.Cols))}
	// An open-addressing set at most half full, shared by the columns.
	slots := make([]int32, 1<<bits.Len(uint(2*n)))
	for ci := range t.Schema.Cols {
		switch v := t.Column(ci); v.Type.Physical() {
		case table.PhysInt:
			st.Cols[ci] = columnStats(slots, v.I, hashInt, func(x int64) table.Value { return table.Value{Type: v.Type, I: x} })
		case table.PhysFloat:
			st.Cols[ci] = columnStats(slots, v.F, hashFloat, table.FloatVal)
		default:
			st.Cols[ci] = columnStats(slots, v.S, hashString, table.StrVal)
		}
	}
	return st
}

// columnStats computes one column's statistics. Min and Max are the first
// least and greatest keys by < and > (the builtins would return any NaN):
// a leading NaN is both and a later one is passed over, a known defect
// kept because plans are priced with these statistics. NDV is exact, with
// a Go map's equality (±0 is one float, each NaN counts once), over slots:
// an open-addressing table holding 1 + the row of each key filed, so that
// every value of the type can be a key.
func columnStats[K cmp.Ordered](slots []int32, keys []K, hash func(K) uint64, box func(K) table.Value) ColStats {
	if len(keys) == 0 {
		return ColStats{NDV: 1}
	}
	clear(slots)
	shift, mask := 64-bits.Len(uint(len(slots)-1)), len(slots)-1
	lo, hi, ndv := keys[0], keys[0], int64(0)
	for _, k := range keys[1:] {
		if k < lo {
			lo = k
		} else if k > hi {
			hi = k
		}
	}
	for i, k := range keys {
		if k != k {
			// A NaN equals no filed key, so it would be filed anew anyway;
			// counting it here keeps NaNs from probing one growing cluster.
			ndv++
			continue
		}
		for h := int(hash(k) >> shift); ; h = (h + 1) & mask {
			if at := slots[h]; at == 0 {
				slots[h] = int32(i + 1)
				ndv++
				break
			} else if keys[at-1] == k {
				break
			}
		}
	}
	return ColStats{NDV: ndv, Min: box(lo), Max: box(hi)}
}

// fibonacci spreads a 64-bit image over the top bits columnStats reads.
const fibonacci = 0x9E3779B97F4A7C15

func hashInt(x int64) uint64 { return uint64(x) * fibonacci }

func hashFloat(x float64) uint64 {
	if x == 0 {
		x = 0 // −0 hashes as +0, the value it equals
	}
	return math.Float64bits(x) * fibonacci
}

// stringSeed decides where a string is filed, never whether two are equal.
var stringSeed = maphash.MakeSeed()

func hashString(x string) uint64 { return maphash.String(stringSeed, x) }
