package table

import (
	"reflect"
	"testing"
)

// mixedBatch builds a batch over all three physical classes with rows
// (i, i+0.5, s[i]) for i in [0, n).
func mixedBatch(n int) *Batch {
	s := NewSchema("mix",
		Col("i", Int64),
		Col("f", Float64),
		Col("s", String),
		Col("d", Date), // second int-class column
	)
	b := NewBatch(s, n)
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < n; i++ {
		b.AppendRow(
			IntVal(int64(i)),
			FloatVal(float64(i)+0.5),
			StrVal(names[i%len(names)]),
			DateVal(int64(1000+i)),
		)
	}
	return b
}

func rowsOf(b *Batch) [][]Value {
	out := make([][]Value, b.Rows())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

func TestVectorAppendSlice(t *testing.T) {
	src := mixedBatch(10)
	for c, col := range src.Vecs {
		dst := NewVector(col.Type, 0)
		dst.AppendSlice(col, 2, 7)
		dst.AppendSlice(col, 0, 0) // empty range is a no-op
		if dst.Len() != 5 {
			t.Fatalf("col %d: len = %d, want 5", c, dst.Len())
		}
		for i := 0; i < 5; i++ {
			if dst.Value(i) != col.Value(i+2) {
				t.Fatalf("col %d row %d: %v != %v", c, i, dst.Value(i), col.Value(i+2))
			}
		}
	}
}

func TestVectorAppendSlicePhysMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic appending float slice to int vector")
		}
	}()
	NewVector(Int64, 0).AppendSlice(NewVector(Float64, 0), 0, 0)
}

func TestBatchGather(t *testing.T) {
	b := mixedBatch(8)
	want := rowsOf(b)
	gather := func(sel []int32) *Batch {
		g := NewBatch(b.Schema, 0)
		g.AppendGather(b, sel)
		return g
	}

	// Empty selection.
	empty := gather(nil)
	if empty.Rows() != 0 {
		t.Fatalf("empty gather rows = %d", empty.Rows())
	}
	if len(empty.Vecs) != 4 {
		t.Fatalf("empty gather cols = %d", len(empty.Vecs))
	}

	// Full selection is the identity.
	full := gather([]int32{0, 1, 2, 3, 4, 5, 6, 7})
	if !reflect.DeepEqual(rowsOf(full), want) {
		t.Fatal("full gather changed rows")
	}

	// Mixed selection with repeats and reordering.
	sel := []int32{7, 0, 3, 3}
	g := gather(sel)
	if g.Rows() != 4 {
		t.Fatalf("gather rows = %d", g.Rows())
	}
	for i, s := range sel {
		if !reflect.DeepEqual(g.Row(i), want[s]) {
			t.Fatalf("gather row %d: %v, want row %d %v", i, g.Row(i), s, want[s])
		}
	}

	// Gather copies: mutating the source must not change the result.
	b.Vecs[0].I[7] = -1
	if g.Vecs[0].I[0] != 7 {
		t.Fatal("gather aliased the source")
	}
}

func TestBatchAppendBatch(t *testing.T) {
	a, b := mixedBatch(3), mixedBatch(5)
	out := NewBatch(a.Schema, 0)
	out.AppendBatch(a)
	out.AppendBatch(b)
	out.AppendBatch(NewBatch(a.Schema, 0)) // empty batch is a no-op
	if out.Rows() != 8 {
		t.Fatalf("rows = %d, want 8", out.Rows())
	}
	want := append(rowsOf(a), rowsOf(b)...)
	if !reflect.DeepEqual(rowsOf(out), want) {
		t.Fatal("AppendBatch rows differ")
	}
}

func TestTableAppendBatch(t *testing.T) {
	b := mixedBatch(6)
	tab := NewTable(b.Schema)
	tab.AppendBatch(b)
	tab.AppendBatch(b)
	if tab.Rows() != 12 {
		t.Fatalf("rows = %d, want 12", tab.Rows())
	}
	for i := 0; i < 6; i++ {
		if !reflect.DeepEqual(tab.Slice(6+i, 7+i).Row(0), b.Row(i)) {
			t.Fatalf("row %d differs after second append", 6+i)
		}
	}
}

func TestBatchSliceAndClone(t *testing.T) {
	b := mixedBatch(10)
	v := b.Slice(2, 5)
	if v.Rows() != 3 {
		t.Fatalf("slice rows = %d", v.Rows())
	}
	// Slice is a view over the same backing arrays.
	b.Vecs[0].I[2] = 99
	if v.Vecs[0].I[0] != 99 {
		t.Fatal("slice did not share backing array")
	}
	// Clone is a deep copy.
	c := b.Clone()
	b.Vecs[0].I[2] = 0
	if c.Vecs[0].I[2] != 99 {
		t.Fatal("clone shared backing array")
	}
}

func TestBatchReset(t *testing.T) {
	b := mixedBatch(4)
	b.Reset()
	if b.Rows() != 0 {
		t.Fatalf("rows after reset = %d", b.Rows())
	}
	b.AppendRow(IntVal(1), FloatVal(1.5), StrVal("x"), DateVal(2))
	if b.Rows() != 1 || b.Vecs[2].S[0] != "x" {
		t.Fatal("append after reset broken")
	}
}

// TestZeroColumnBatch covers the column-less batch contract: the batch
// APIs stay legal with an empty schema and cardinality flows through
// SetRows and every mutator instead of being inferred from vectors.
func TestZeroColumnBatch(t *testing.T) {
	s := NewSchema("empty")
	b := NewBatch(s, 0)
	if len(b.Vecs) != 0 || b.Rows() != 0 {
		t.Fatalf("fresh zero-column batch: vecs=%d rows=%d", len(b.Vecs), b.Rows())
	}
	b.SetRows(7)
	if b.Rows() != 7 {
		t.Fatalf("SetRows: rows = %d, want 7", b.Rows())
	}

	// AppendBatch accumulates cardinality with no columns to copy.
	acc := NewBatch(s, 0)
	acc.AppendBatch(b)
	acc.AppendBatch(b)
	if acc.Rows() != 14 {
		t.Fatalf("AppendBatch rows = %d, want 14", acc.Rows())
	}

	// AppendGather and Slice keep working on the empty column set.
	g := NewBatch(s, 0)
	if g.AppendGather(b, []int32{0, 2, 4}); g.Rows() != 3 || len(g.Vecs) != 0 {
		t.Fatalf("gather: rows=%d vecs=%d", g.Rows(), len(g.Vecs))
	}
	if v := b.Slice(2, 6); v.Rows() != 4 {
		t.Fatalf("slice rows = %d, want 4", v.Rows())
	}
	if v := b.Slice(0, 0); v.Rows() != 0 {
		t.Fatalf("empty slice rows = %d, want 0", v.Rows())
	}
	if c := b.Clone(); c.Rows() != 7 {
		t.Fatalf("clone rows = %d, want 7", c.Rows())
	}
	b.Reset()
	if b.Rows() != 0 {
		t.Fatalf("rows after reset = %d", b.Rows())
	}

	// A zero-column table accumulates batch cardinality too.
	tab := NewTable(s)
	acc.SetRows(5)
	tab.AppendBatch(acc)
	if tab.Rows() != 5 {
		t.Fatalf("table rows = %d, want 5", tab.Rows())
	}
}

// TestBatchSelection covers the deferred-selection contract: a batch
// carrying Sel exposes only the selected rows through the logical
// accessors, and materialising consumers resolve the selection once.
func TestBatchSelection(t *testing.T) {
	b := mixedBatch(8)
	want := rowsOf(b)
	b.SetSel([]int32{1, 3, 6})

	if b.Rows() != 3 || b.PhysRows() != 8 {
		t.Fatalf("rows=%d phys=%d, want 3/8", b.Rows(), b.PhysRows())
	}
	for i, p := range []int{1, 3, 6} {
		if !reflect.DeepEqual(b.Row(i), want[p]) {
			t.Fatalf("logical row %d: %v, want physical row %d %v", i, b.Row(i), p, want[p])
		}
	}

	// Slice narrows the selection, still without copying.
	v := b.Slice(1, 3)
	if v.Rows() != 2 || !reflect.DeepEqual(v.Row(0), want[3]) || !reflect.DeepEqual(v.Row(1), want[6]) {
		t.Fatalf("sliced selection wrong: %v", rowsOf(v))
	}

	// Clone and AppendBatch compact: fresh aligned vectors, Sel dropped.
	c := b.Clone()
	if c.Sel != nil || c.Rows() != 3 || c.PhysRows() != 3 {
		t.Fatalf("clone: sel=%v rows=%d phys=%d", c.Sel, c.Rows(), c.PhysRows())
	}
	for i, p := range []int{1, 3, 6} {
		if !reflect.DeepEqual(c.Row(i), want[p]) {
			t.Fatalf("clone row %d differs", i)
		}
	}

	// ByteSize counts logical rows only.
	if got, wantSz := b.ByteSize(), c.ByteSize(); got != wantSz {
		t.Fatalf("selected ByteSize = %d, compacted = %d", got, wantSz)
	}

	// Table.AppendBatch resolves the selection.
	tab := NewTable(b.Schema)
	tab.AppendBatch(b)
	if tab.Rows() != 3 || tab.Column(0).I[1] != 3 {
		t.Fatalf("table after selected append: rows=%d col0=%v", tab.Rows(), tab.Column(0).I)
	}

	// SetRows clears the selection.
	b.SetRows(8)
	if b.Sel != nil || b.Rows() != 8 {
		t.Fatalf("SetRows did not clear selection: sel=%v rows=%d", b.Sel, b.Rows())
	}
}

func TestVectorSliceInto(t *testing.T) {
	b := mixedBatch(10)
	for c, col := range b.Vecs {
		var view Vector
		col.SliceInto(&view, 3, 8)
		if view.Len() != 5 || view.Type != col.Type {
			t.Fatalf("col %d: len=%d type=%v", c, view.Len(), view.Type)
		}
		if view.Value(0) != col.Value(3) {
			t.Fatalf("col %d: view mismatch", c)
		}
		// Re-pointing the same view at a different range must fully
		// replace the previous window (no stale backing slice).
		col.SliceInto(&view, 0, 2)
		if view.Len() != 2 || view.Value(1) != col.Value(1) {
			t.Fatalf("col %d: re-pointed view mismatch", c)
		}
	}
}
