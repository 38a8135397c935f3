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
	"hash/maphash"
	"math"
	"math/bits"

	"energydb/internal/table"
)

// ColStats summarises one column for cardinality estimation.
type ColStats struct {
	NDV int64 // number of distinct values
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
			st.Cols[ci] = columnStats(slots, v.I, hashInt)
		case table.PhysFloat:
			st.Cols[ci] = columnStats(slots, v.F, hashFloat)
		default:
			st.Cols[ci] = columnStats(slots, v.S, hashString)
		}
	}
	return st
}

// columnStats computes one column's statistics. NDV is exact, with the
// equality grouping uses (±0 is one float, and so is every NaN), over
// slots: an open-addressing table holding 1 + the row of each key filed,
// so that every value of the type can be a key.
func columnStats[K int64 | float64 | string](slots []int32, keys []K, hash func(K) uint64) ColStats {
	if len(keys) == 0 {
		return ColStats{NDV: 1}
	}
	clear(slots)
	shift, mask := 64-bits.Len(uint(len(slots)-1)), len(slots)-1
	ndv, nan := int64(0), int64(0)
	for i, k := range keys {
		if k != k {
			nan = 1 // a NaN equals no filed key, so it is counted here
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
	return ColStats{NDV: ndv + nan}
}

// fibonacci spreads a 64-bit image over the top bits columnStats reads.
const fibonacci = 0x9E3779B97F4A7C15

func hashInt(x int64) uint64 { return uint64(x) * fibonacci }

func hashFloat(x float64) uint64 { return math.Float64bits(table.CanonFloat(x)) * fibonacci }

// stringSeed decides where a string is filed, never whether two are equal.
var stringSeed = maphash.MakeSeed()

func hashString(x string) uint64 { return maphash.String(stringSeed, x) }
