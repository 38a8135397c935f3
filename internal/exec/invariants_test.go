//go:build ee_invariants

package exec

import (
	"math"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/table"
)

// TestScanPoisonsRetainedBatch keeps a scan's batch across Next on purpose
// — the batch, one of its vectors, a slice of a vector's values and its
// selection — and expects every one of them to read as poison afterwards,
// while the batch the scan handed out for the new block is intact. The
// same holds across statements: a batch kept past Close reads poison after
// another scan has run to its end, never that scan's rows — this build
// abandons what it poisons, where the release build hands it to the next
// scan.
func TestScanPoisonsRetainedBatch(t *testing.T) {
	tab := ordersLike(3000)
	check := func(t *testing.T, r *rig, scan, other Operator, intCol, strCol int) {
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
			liveInts, liveStrs := next.Vecs[intCol].I, next.Vecs[strCol].S
			if err := scan.Close(ctx); err != nil {
				t.Error(err)
			}
			if liveInts[0] != poisonWord {
				t.Errorf("values kept across Close read %#x, want poison", liveInts[0])
			}

			// Another statement's scan, checked while each of its batches is
			// live: that is when recycled memory would show its rows.
			stillPoison := func(when string) {
				for i, v := range liveInts {
					if v != poisonWord {
						t.Errorf("%s: int cell %d kept across Close reads %#x, want poison", when, i, v)
						break
					}
				}
				for i, v := range liveStrs {
					if v != poisonString {
						t.Errorf("%s: string cell %d kept across Close reads %q, want poison", when, i, v)
						break
					}
				}
				if keptSel[0] != poisonSel || keptInts[0] != poisonWord || keptStrs[0] != poisonString {
					t.Errorf("%s: memory retired before Close stopped reading as poison", when)
				}
			}
			if err := other.Open(ctx); err != nil {
				t.Error(err)
				return
			}
			for blocks := 0; ; blocks++ {
				b, err := other.Next(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if b == nil {
					if blocks != 3 {
						t.Errorf("the other statement's scan saw %d blocks, want 3", blocks)
					}
					break
				}
				stillPoison("while another scan's batch is live")
			}
			if err := other.Close(ctx); err != nil {
				t.Error(err)
			}
			stillPoison("after another scan has run")
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
		check(t, r, NewColumnScan(st, []int{0, 1, 5}, []int{1, 2}, pred()), NewColumnScan(st, []int{0, 1, 5}, []int{1, 2}, pred()), 0, 1)
	})
	t.Run("row", func(t *testing.T) {
		r := newRig(2)
		st, err := PlaceRowMajor(tab, r.vol, 1, 1024, compress.LZ)
		if err != nil {
			t.Fatal(err)
		}
		check(t, r, NewRowScan(st, []int{1, 5}, pred()), NewRowScan(st, []int{1, 5}, pred()), 0, 1)
	})
}

// TestProberPoisonsRetainedBatch is the same hand-over check for the rows a
// Prober gathers: its output batch kept across Next — the batch, a vector,
// a slice of one — reads poison while the batch handed out for the next
// probe batch is intact and lies in fresh memory, and what is kept across
// Close reads poison after another join has run: this build abandons a
// Prober's arrays where the release build hands them to the next.
func TestProberPoisonsRetainedBatch(t *testing.T) {
	orders := ordersLike(9000)
	dim := joinFixture(9000)
	join := func() Operator {
		return NewHashJoin(&Values{Tab: dim}, &Values{Tab: orders, BatchRows: 1024}, 0, 0)
	}
	r := newRig(1)
	r.run(t, func(ctx *Ctx) {
		j := join()
		if err := j.Open(ctx); err != nil {
			t.Error(err)
			return
		}
		kept, err := j.Next(ctx)
		if err != nil || kept == nil {
			t.Errorf("first batch: %v, err %v", kept, err)
			return
		}
		keptVec, keptInts, keptStrs := kept.Vecs[0], kept.Vecs[0].I, kept.Vecs[1].S
		first := keptInts[0]
		next, err := j.Next(ctx)
		if err != nil || next == nil {
			t.Errorf("second batch: %v, err %v", next, err)
			return
		}
		if next == kept || next.Vecs[0] == keptVec {
			t.Error("under ee_invariants a Prober must gather every batch into fresh memory")
		}
		if keptInts[0] != poisonWord || keptVec.I[0] != poisonWord || keptStrs[0] != poisonString {
			t.Errorf("the retained batch reads %#x, %q (the key was %d), want poison", keptInts[0], keptStrs[0], first)
		}
		if next.Vecs[0].I[0] == poisonWord || next.Vecs[1].S[0] != "t" {
			t.Error("the live batch was poisoned")
		}
		liveInts, liveStrs := next.Vecs[0].I, next.Vecs[1].S
		if err := j.Close(ctx); err != nil {
			t.Error(err)
		}
		if n, err := RowCount(ctx, join()); err != nil || n != 2250 {
			t.Errorf("another join: %d rows, err %v", n, err)
		}
		for i := range liveInts {
			if liveInts[i] != poisonWord || liveStrs[i] != poisonString {
				t.Errorf("cell %d kept across Close reads %#x, %q after another join has run, want poison", i, liveInts[i], liveStrs[i])
				break
			}
		}
	})
}

// TestScanPoisonsUnselectedCells arms the selection-driven scan's
// "unspecified cells" rule: in the batch a filtered scan hands out, every
// cell of a late column outside the selection reads as poison — whatever
// its codec decoded — while the selected cells, and the predicate's own
// column throughout, hold the table's values. A block with no survivor is
// poison all over and still has its physical rows.
func TestScanPoisonsUnselectedCells(t *testing.T) {
	tab := ordersLike(3000)
	r := newRig(2)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, []compress.Codec{
		compress.Delta, compress.Bitpack, compress.Dict, compress.LZ, compress.Bitpack, compress.Dict, compress.Raw})
	if err != nil {
		t.Fatal(err)
	}
	read := []int{0, 1, 3, 5, 6} // key; then late: Bitpack ints, LZ floats, Dict and Raw strings
	// Nothing of block 0 (keys 1..1024), a run of block 1, a run and the
	// last row of block 2.
	keep := func(key int64) bool { return key > 1024 && key <= 1100 || key > 2100 && key <= 2200 || key == 3000 }
	k := func(op CmpOp, v int64) Pred { return &ColConst{Col: 0, Op: op, Val: table.IntVal(v)} }
	scan := NewColumnScan(st, read, []int{0, 1, 2, 3, 4}, &Or{Preds: []Pred{
		&And{Preds: []Pred{k(Gt, 1024), k(Le, 1100)}},
		&And{Preds: []Pred{k(Gt, 2100), k(Le, 2200)}},
		k(Eq, 3000),
	}})
	if scan.late != 0b11110 {
		t.Fatalf("late mask %#b, want every column but the key", scan.late)
	}
	r.run(t, func(ctx *Ctx) {
		if err := scan.Open(ctx); err != nil {
			t.Error(err)
			return
		}
		for blk := 0; ; blk++ {
			b, err := scan.Next(ctx)
			if err != nil {
				t.Error(err)
				break
			}
			if b == nil {
				if blk != 3 {
					t.Errorf("%d blocks, want 3", blk)
				}
				break
			}
			lo := blk * 1024
			n := min(1024, tab.Rows()-lo)
			if blk == 0 && b.Rows() != 0 {
				t.Errorf("block 0 keeps %d rows, want none", b.Rows())
			}
			for c, v := range b.Vecs {
				if v.Len() != n {
					t.Fatalf("block %d column %d has %d cells, want %d", blk, c, v.Len(), n)
				}
			}
			selected := make([]bool, n)
			for _, i := range b.Sel {
				selected[i] = true
			}
			for i := 0; i < n; i++ {
				key := tab.Column(0).I[lo+i]
				if selected[i] != keep(key) {
					t.Fatalf("block %d row %d (key %d): selected = %v", blk, i, key, selected[i])
				}
				if b.Vecs[0].I[i] != key {
					t.Fatalf("block %d row %d: the predicate's column reads %d, want %d", blk, i, b.Vecs[0].I[i], key)
				}
				wantI, wantF := tab.Column(1).I[lo+i], tab.Column(3).F[lo+i]
				wantS5, wantS6 := tab.Column(5).S[lo+i], tab.Column(6).S[lo+i]
				if !selected[i] {
					wantI, wantF = poisonWord, math.Float64frombits(poisonWord)
					wantS5, wantS6 = poisonString, poisonString
				}
				if gotI, gotF, gotS5, gotS6 := b.Vecs[1].I[i], b.Vecs[2].F[i], b.Vecs[3].S[i], b.Vecs[4].S[i]; gotI != wantI ||
					math.Float64bits(gotF) != math.Float64bits(wantF) || gotS5 != wantS5 || gotS6 != wantS6 {
					t.Fatalf("block %d row %d (selected %v): late cells read %#x %v %q %q, want %#x %v %q %q",
						blk, i, selected[i], gotI, gotF, gotS5, gotS6, wantI, wantF, wantS5, wantS6)
				}
			}
		}
		if err := scan.Close(ctx); err != nil {
			t.Error(err)
		}
	})
}
