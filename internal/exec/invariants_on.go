//go:build ee_invariants

package exec

import (
	"math"

	"energydb/internal/table"
)

// Sentinels a retired scan scratch is overwritten with.
const (
	poisonWord   = 0x5a5a5a5a5a5a5a5a
	poisonByte   = 0x5a
	poisonString = "\x00poisoned"
	poisonSel    = 0x5a5a5a5a // far past any block: indexing through it panics
)

// retire is the checking version of the scan-scratch hand-over, called at
// the top of every scan Next and at Close. The volcano contract says the
// previous block's batch is dead at that point; the release build reuses
// its memory for the next block, which a consumer that illegally kept the
// batch (or a slice of one of its vectors) would see as plausible rows of
// the wrong block. Here the old memory is overwritten with sentinels, to
// its full capacity, and abandoned — the next block decodes into fresh
// memory — so such a consumer reads poison, every time, whatever the data.
// Abandoned means abandoned: nothing poisoned goes back to the recycler
// (release finds the scratch empty), so under this build no scan ever
// decodes into memory another scan has used, and a batch kept past Close
// reads poison, never a later statement's rows.
func (sc *scanScratch) retire() {
	if sc.read != nil {
		poisonBatch(sc.read)
	}
	poison(sc.raw, poisonByte)
	poison(sc.sel, poisonSel)
	*sc = scanScratch{}
}

// retire is the same hand-over for a Prober's gather memory, called at the
// top of its Next and at Close: the batch it returned last and the match
// vectors behind it are poisoned and abandoned, and the next batch is
// gathered into fresh memory.
func (p *Prober) retire() {
	if p.out != nil {
		poisonBatch(p.out)
	}
	poison(p.hash, poisonSel)
	poison(p.bsel, poisonSel)
	poison(p.psel, poisonSel)
	p.mem, p.out, p.hash, p.bsel, p.psel = nil, nil, nil, nil, nil
}

// give is the checking version of handing an array back to the recycler:
// a is poisoned to its full capacity and dropped, never recycled. Whoever
// kept a view of it reads poison, and take finds nothing another operator
// — or the same one — has used.
func give[T any](_ *[][]T, a []T) {
	switch s := any(a).(type) {
	case []int64:
		poison(s, poisonWord)
	case []float64:
		poison(s, math.Float64frombits(poisonWord))
	case []string:
		poison(s, poisonString)
	case []int32:
		poison(s, poisonSel)
	case []byte:
		poison(s, poisonByte)
	case []bool:
		poison(s, true)
	case []keySlot:
		poison(s, keySlot{ref: poisonSel, hash: poisonSel})
	}
}

// refill is the checking version of readying an output batch for the next
// batch: the one out held is dead, so its arrays are poisoned and
// abandoned, and the next batch — header, Vectors and arrays — is fresh,
// so a kept batch, vector or slice of one reads poison.
func (m *batchMem) refill(out *table.Batch, schema *table.Schema, rows int) *table.Batch {
	if out != nil {
		poisonBatch(out)
	}
	return m.batch(schema, rows)
}

// poisonBatch overwrites every vector of b, to its full capacity.
func poisonBatch(b *table.Batch) {
	for _, v := range b.Vecs {
		poison(v.I, poisonWord)
		poison(v.F, math.Float64frombits(poisonWord))
		poison(v.S, poisonString)
	}
}

// poisonUnselected is the checking version of the selection-driven scan's
// "unspecified cells" rule, called before a block's batch is handed out:
// every cell of a late column (bit i of late: column i) outside the
// ascending selection sel is overwritten with a sentinel, whether its
// codec happened to decode it or not, so a consumer that reads a
// deselected cell reads poison under every codec and every data set.
func (sc *scanScratch) poisonUnselected(late uint64, sel []int32) {
	for i, v := range sc.read.Vecs {
		if late>>uint(i)&1 != 0 {
			poisonOutside(v.I, sel, poisonWord)
			poisonOutside(v.F, sel, math.Float64frombits(poisonWord))
			poisonOutside(v.S, sel, poisonString)
		}
	}
}

// poisonOutside overwrites with v the cells of s that the ascending sel
// does not list.
func poisonOutside[T any](s []T, sel []int32, v T) {
	k := 0
	for i := range s {
		if k < len(sel) && int(sel[k]) == i {
			k++
			continue
		}
		s[i] = v
	}
}

// poison overwrites s to its full capacity with v.
func poison[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}
