//go:build ee_invariants

package exec

import (
	"testing"

	"energydb/internal/compress"
	"energydb/internal/table"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("expected panic (%s), got none", want)
		}
	}()
	fn()
}

func TestVecPoolDoublePutPanics(t *testing.T) {
	p := &VecPool{}
	v := table.NewVector(table.Int64, 8)
	p.Put(v)
	mustPanic(t, "double Put", func() { p.Put(v) })
}

func TestVecPoolUseAfterPutPanics(t *testing.T) {
	p := &VecPool{}
	v := table.NewVector(table.Int64, 8)
	p.Put(v)
	// The old holder keeps appending to a vector the pool now owns.
	v.Append(table.Value{Type: table.Int64, I: 42})
	mustPanic(t, "use after Put", func() { p.Get(table.Int64, 8) })
}

func TestVecPoolCleanLifecycle(t *testing.T) {
	p := &VecPool{}
	v := table.NewVector(table.Int64, 8)
	v.Append(table.Value{Type: table.Int64, I: 1})
	p.Put(v)
	got := p.Get(table.Int64, 8)
	if got != v {
		t.Fatalf("expected the pooled vector back")
	}
	if got.Len() != 0 {
		t.Fatalf("Get must hand out a reset vector, len = %d", got.Len())
	}
	// A full Put/Get round trip re-arms cleanly.
	p.Put(got)
	if again := p.Get(table.Int64, 8); again != v {
		t.Fatalf("expected the pooled vector back on the second cycle")
	}
}

// TestScanPoisonsRetainedBatch keeps a scan's batch across Next on purpose
// — the batch, one of its vectors, a slice of a vector's values and its
// selection — and expects every one of them to read as poison afterwards,
// while the batch the scan handed out for the new block is intact.
func TestScanPoisonsRetainedBatch(t *testing.T) {
	tab := ordersLike(3000)
	check := func(t *testing.T, r *rig, scan Operator, intCol, strCol int) {
		r.run(t, func(ctx *Ctx) {
			if err := scan.Open(ctx); err != nil {
				t.Error(err)
				return
			}
			kept, err := scan.Next(ctx)
			if err != nil || kept == nil || kept.Sel == nil {
				t.Errorf("first batch: %v, err %v (the predicate should leave a selection)", kept, err)
				return
			}
			keptVec, keptInts, keptStrs, keptSel := kept.Vecs[intCol], kept.Vecs[intCol].I, kept.Vecs[strCol].S, kept.Sel
			first := keptInts[0]

			next, err := scan.Next(ctx)
			if err != nil || next == nil {
				t.Errorf("second batch: %v, err %v", next, err)
				return
			}
			if next == kept || next.Vecs[intCol] == keptVec {
				t.Error("under ee_invariants a scan must hand out fresh memory per block, so stale holders cannot see live rows")
			}
			if keptInts[0] != poisonWord || keptVec.I[0] != poisonWord || kept.Vecs[intCol].I[len(keptInts)-1] != poisonWord {
				t.Errorf("retained int values read %#x (was %d), want poison", keptInts[0], first)
			}
			if keptStrs[0] != poisonString {
				t.Errorf("retained string value reads %q, want poison", keptStrs[0])
			}
			if keptSel[0] != poisonSel {
				t.Errorf("retained selection reads %d, want poison", keptSel[0])
			}
			if got := next.Vecs[intCol].I[0]; got == poisonWord {
				t.Error("the live batch was poisoned")
			}
			liveInts := next.Vecs[intCol].I
			if err := scan.Close(ctx); err != nil {
				t.Error(err)
			}
			if liveInts[0] != poisonWord {
				t.Errorf("values kept across Close read %#x, want poison", liveInts[0])
			}
		})
	}
	pred := func() Pred { return &ColConst{Col: 0, Op: Gt, Val: table.IntVal(10)} }
	t.Run("column", func(t *testing.T) {
		r := newRig(2)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, []compress.Codec{
			compress.Delta, compress.Bitpack, compress.Dict, compress.LZ, compress.Bitpack, compress.Dict, compress.Raw})
		if err != nil {
			t.Fatal(err)
		}
		check(t, r, NewColumnScan(st, []int{0, 1, 5}, []int{1, 2}, pred()), 0, 1)
	})
	t.Run("row", func(t *testing.T) {
		r := newRig(2)
		st, err := PlaceRowMajor(tab, r.vol, 1, 1024, compress.LZ)
		if err != nil {
			t.Fatal(err)
		}
		check(t, r, NewRowScan(st, []int{1, 5}, pred()), 0, 1)
	})
}
