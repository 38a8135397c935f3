//go:build ee_invariants

package exec

import (
	"fmt"
	"math"

	"energydb/internal/table"
)

// vecPoolInv is the checking version of the VecPool lifecycle hooks,
// compiled in with -tags ee_invariants (CI's race job uses it). It
// enforces the ownership half of the scratch-vector contract:
//
//   - double Put: returning the same vector twice would hand one buffer
//     to two operators, which then silently overwrite each other.
//   - use after Put: a Put transfers ownership to the pool, so any
//     append/reset by the old holder while the vector sits in the free
//     list is a write to memory someone else may now own. Detected by
//     snapshotting Len() at Put and comparing at Get.
//
// Violations panic: they are programming errors in operator code, never
// data-dependent conditions.
type vecPoolInv struct {
	released map[*table.Vector]int // pooled vector -> Len() snapshot at Put
}

func (inv *vecPoolInv) onPut(v *table.Vector) {
	if inv.released == nil {
		inv.released = make(map[*table.Vector]int)
	}
	if _, dup := inv.released[v]; dup {
		panic(fmt.Sprintf("exec: VecPool double Put of vector %p", v))
	}
	inv.released[v] = v.Len()
}

func (inv *vecPoolInv) onGet(v *table.Vector) {
	want, ok := inv.released[v]
	if !ok {
		return // entered the free list before checking was enabled
	}
	if got := v.Len(); got != want {
		panic(fmt.Sprintf("exec: VecPool vector %p mutated after Put (len %d at Put, %d now): the old holder kept writing to pooled memory", v, want, got))
	}
	delete(inv.released, v)
}

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
func (sc *scanScratch) retire() {
	if sc.read != nil {
		for _, v := range sc.read.Vecs {
			poison(v.I, poisonWord)
			poison(v.F, math.Float64frombits(poisonWord))
			poison(v.S, poisonString)
		}
	}
	poison(sc.raw, poisonByte)
	poison(sc.sel, poisonSel)
	*sc = scanScratch{}
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
