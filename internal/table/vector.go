package table

import (
	"fmt"
	"slices"
)

// Vector is a typed column of values. Exactly one of the backing slices is
// used, selected by the type's physical class.
type Vector struct {
	Type Type
	I    []int64
	F    []float64
	S    []string
}

// NewVector returns an empty vector of type t with the given capacity.
func NewVector(t Type, capacity int) *Vector {
	v := &Vector{Type: t}
	switch t.Physical() {
	case PhysInt:
		v.I = make([]int64, 0, capacity)
	case PhysFloat:
		v.F = make([]float64, 0, capacity)
	case PhysString:
		v.S = make([]string, 0, capacity)
	}
	return v
}

// Len reports the number of values.
func (v *Vector) Len() int {
	switch v.Type.Physical() {
	case PhysInt:
		return len(v.I)
	case PhysFloat:
		return len(v.F)
	default:
		return len(v.S)
	}
}

// Append adds a value, which must match the vector's physical class.
func (v *Vector) Append(val Value) {
	if val.Type.Physical() != v.Type.Physical() {
		panic(fmt.Sprintf("table: appending %v to %v vector", val.Type, v.Type))
	}
	switch v.Type.Physical() {
	case PhysInt:
		v.I = append(v.I, val.I)
	case PhysFloat:
		v.F = append(v.F, val.F)
	default:
		v.S = append(v.S, val.S)
	}
}

// AppendSlice bulk-appends elements [lo, hi) of src, which must share v's
// physical class. It is a single per-column copy, not hi-lo boxed appends.
func (v *Vector) AppendSlice(src *Vector, lo, hi int) {
	if src.Type.Physical() != v.Type.Physical() {
		panic(fmt.Sprintf("table: appending %v slice to %v vector", src.Type, v.Type))
	}
	switch v.Type.Physical() {
	case PhysInt:
		v.I = append(v.I, src.I[lo:hi]...)
	case PhysFloat:
		v.F = append(v.F, src.F[lo:hi]...)
	default:
		v.S = append(v.S, src.S[lo:hi]...)
	}
}

// AppendGather appends src's elements at the positions in sel, in order,
// growing v once for all of them.
func (v *Vector) AppendGather(src *Vector, sel []int32) {
	if src.Type.Physical() != v.Type.Physical() {
		panic(fmt.Sprintf("table: gathering %v into %v vector", src.Type, v.Type))
	}
	switch v.Type.Physical() {
	case PhysInt:
		v.I = gather(v.I, src.I, sel)
	case PhysFloat:
		v.F = gather(v.F, src.F, sel)
	default:
		v.S = gather(v.S, src.S, sel)
	}
}

// gather appends src's elements at the positions in sel to dst.
func gather[T any](dst, src []T, sel []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	out := dst[n:]
	for k, i := range sel {
		out[k] = src[i]
	}
	return dst
}

// Reset truncates the vector to zero length, keeping its capacity.
func (v *Vector) Reset() {
	v.I = v.I[:0:cap(v.I)]
	v.F = v.F[:0:cap(v.F)]
	v.S = v.S[:0:cap(v.S)]
}

// Value returns the i'th element boxed as a Value.
func (v *Vector) Value(i int) Value {
	switch v.Type.Physical() {
	case PhysInt:
		return Value{Type: v.Type, I: v.I[i]}
	case PhysFloat:
		return Value{Type: v.Type, F: v.F[i]}
	default:
		return Value{Type: v.Type, S: v.S[i]}
	}
}

// Slice returns a view of elements [lo, hi) sharing the backing array.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Type: v.Type}
	switch v.Type.Physical() {
	case PhysInt:
		out.I = v.I[lo:hi]
	case PhysFloat:
		out.F = v.F[lo:hi]
	default:
		out.S = v.S[lo:hi]
	}
	return out
}

// SliceInto points dst at elements [lo, hi) of v, sharing the backing
// array. It lets iterating operators reuse one view vector per column
// instead of allocating a fresh view per batch.
func (v *Vector) SliceInto(dst *Vector, lo, hi int) {
	dst.Type = v.Type
	dst.I, dst.F, dst.S = nil, nil, nil
	switch v.Type.Physical() {
	case PhysInt:
		dst.I = v.I[lo:hi]
	case PhysFloat:
		dst.F = v.F[lo:hi]
	default:
		dst.S = v.S[lo:hi]
	}
}

// ByteSize reports the in-memory (and on-wire) size of elements [lo, hi):
// 8 bytes for fixed-width classes, uvarint length prefix + bytes for
// strings. It matches EncodeBytes exactly.
func (v *Vector) ByteSize(lo, hi int) int64 {
	switch v.Type.Physical() {
	case PhysInt, PhysFloat:
		return int64(hi-lo) * 8
	default:
		var n int64
		for _, s := range v.S[lo:hi] {
			n += int64(uvarintLen(uint64(len(s)))) + int64(len(s))
		}
		return n
	}
}

// ByteSizeSel reports the wire size of the elements at the positions in
// sel, in the EncodeBytes format (8 bytes per fixed-width element,
// uvarint length prefix + bytes per string).
func (v *Vector) ByteSizeSel(sel []int32) int64 {
	switch v.Type.Physical() {
	case PhysInt, PhysFloat:
		return int64(len(sel)) * 8
	default:
		var n int64
		for _, i := range sel {
			s := v.S[i]
			n += int64(uvarintLen(uint64(len(s)))) + int64(len(s))
		}
		return n
	}
}

// Batch is a set of aligned column vectors: the unit the executor's
// operators pass between each other.
//
// Cardinality is explicit: Rows() reports the rows field maintained by
// every mutator, never inferred from vector lengths, so zero-column
// batches (count-only plans) carry a correct row count.
//
// Sel, when non-nil, is a selection vector: the batch's logical rows are
// Vecs' physical rows at the positions in Sel, in order, and
// Rows() == len(Sel). Producers use it to defer the gather a filter would
// otherwise perform per batch; consumers that materialise (AppendBatch,
// Clone, Row, ByteSize, Slice) resolve it transparently, so the one
// compaction happens at the materialisation boundary. Invariants: a batch
// without a selection has every vector aligned at Rows() values; a
// zero-column batch never carries a selection.
type Batch struct {
	Schema *Schema
	Vecs   []*Vector
	Sel    []int32

	rows int
}

// NewBatch returns an empty batch for the schema with the given row
// capacity. A schema with no columns is legal: the batch then carries
// cardinality only (set via SetRows / AppendBatch).
func NewBatch(s *Schema, capacity int) *Batch {
	b := &Batch{Schema: s, Vecs: make([]*Vector, len(s.Cols))}
	for i, c := range s.Cols {
		b.Vecs[i] = NewVector(c.Type, capacity)
	}
	return b
}

// Rows reports the logical row count.
func (b *Batch) Rows() int { return b.rows }

// SetRows sets the logical row count directly and clears any selection.
// It is how column-less batches carry cardinality, and how operators that
// write Vecs directly (bypassing the batch mutators) restore the row
// invariant afterwards.
func (b *Batch) SetRows(n int) {
	b.rows = n
	b.Sel = nil
}

// SetSel installs sel as the batch's selection vector (positions into the
// physical vectors) and sets the logical row count to len(sel). The batch
// aliases sel; it stays valid only as long as sel's backing array does.
func (b *Batch) SetSel(sel []int32) {
	b.Sel = sel
	b.rows = len(sel)
}

// PhysRows reports the physical row count of the backing vectors (equal
// to Rows() when no selection is installed).
func (b *Batch) PhysRows() int {
	if len(b.Vecs) == 0 {
		return b.rows
	}
	return b.Vecs[0].Len()
}

// AppendRow adds one tuple; len(vals) must equal the column count.
func (b *Batch) AppendRow(vals ...Value) {
	if len(vals) != len(b.Vecs) {
		panic(fmt.Sprintf("table: AppendRow with %d values into %d columns", len(vals), len(b.Vecs)))
	}
	for i, v := range vals {
		b.Vecs[i].Append(v)
	}
	b.rows++
}

// AppendBatch bulk-appends all logical rows of src column-wise: one slice
// copy (or gather, when src carries a selection) per column instead of
// one boxed []Value per row.
func (b *Batch) AppendBatch(src *Batch) {
	if len(src.Vecs) != len(b.Vecs) {
		panic(fmt.Sprintf("table: AppendBatch with %d columns into %d", len(src.Vecs), len(b.Vecs)))
	}
	if src.Sel != nil {
		for i, v := range src.Vecs {
			b.Vecs[i].AppendGather(v, src.Sel)
		}
	} else {
		for i, v := range src.Vecs {
			b.Vecs[i].AppendSlice(v, 0, v.Len())
		}
	}
	b.rows += src.rows
}

// AppendGather appends src's rows at the physical positions in sel,
// column-wise (sel indexes src's vectors directly, ignoring any selection
// already installed on src).
func (b *Batch) AppendGather(src *Batch, sel []int32) {
	if len(src.Vecs) != len(b.Vecs) {
		panic(fmt.Sprintf("table: AppendGather with %d columns into %d", len(src.Vecs), len(b.Vecs)))
	}
	for i, v := range src.Vecs {
		b.Vecs[i].AppendGather(v, sel)
	}
	b.rows += len(sel)
}

// Slice returns a batch viewing logical rows [lo, hi) without copying.
func (b *Batch) Slice(lo, hi int) *Batch {
	out := &Batch{Schema: b.Schema, Vecs: make([]*Vector, len(b.Vecs)), rows: hi - lo}
	if b.Sel != nil {
		copy(out.Vecs, b.Vecs)
		out.Sel = b.Sel[lo:hi]
		return out
	}
	for i, v := range b.Vecs {
		out.Vecs[i] = v.Slice(lo, hi)
	}
	return out
}

// Clone returns a deep copy of the batch's logical rows (fresh backing
// arrays, any selection compacted away).
func (b *Batch) Clone() *Batch {
	out := NewBatch(b.Schema, b.Rows())
	out.AppendBatch(b)
	return out
}

// Reset truncates all vectors to zero rows, keeping their capacity, and
// drops any selection.
func (b *Batch) Reset() {
	for _, v := range b.Vecs {
		v.Reset()
	}
	b.rows = 0
	b.Sel = nil
}

// Row returns logical tuple i boxed as values.
func (b *Batch) Row(i int) []Value {
	if b.Sel != nil {
		i = int(b.Sel[i])
	}
	out := make([]Value, len(b.Vecs))
	for c, v := range b.Vecs {
		out[c] = v.Value(i)
	}
	return out
}

// ByteSize reports the wire size of the batch's logical rows.
func (b *Batch) ByteSize() int64 {
	var n int64
	if b.Sel != nil {
		for _, v := range b.Vecs {
			n += v.ByteSizeSel(b.Sel)
		}
		return n
	}
	for _, v := range b.Vecs {
		n += v.ByteSize(0, v.Len())
	}
	return n
}

// Table is an in-memory columnar relation: the data plane the simulated
// storage charges I/O time against. Like Batch, it carries an explicit
// row count so zero-column (and count-only) relations stay well-defined.
type Table struct {
	Schema *Schema
	cols   []*Vector
	rows   int
}

// NewTable returns an empty table.
func NewTable(s *Schema) *Table {
	t := &Table{Schema: s, cols: make([]*Vector, len(s.Cols))}
	for i, c := range s.Cols {
		t.cols[i] = NewVector(c.Type, 0)
	}
	return t
}

// Rows reports the row count.
func (t *Table) Rows() int { return t.rows }

// Column returns the i'th column vector (shared, not copied).
func (t *Table) Column(i int) *Vector { return t.cols[i] }

// Grow copies every column into one of capacity exactly its length plus
// n: a loader that knows its row count sizes each column once instead of
// growing it by copies, and Grow(0) trims each to its length.
func (t *Table) Grow(n int) {
	for _, v := range t.cols {
		g := NewVector(v.Type, v.Len()+n)
		g.AppendSlice(v, 0, v.Len())
		*v = *g
	}
}

// AppendRow adds one tuple.
func (t *Table) AppendRow(vals ...Value) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("table: AppendRow with %d values into %d columns", len(vals), len(t.cols)))
	}
	for i, v := range vals {
		t.cols[i].Append(v)
	}
	t.rows++
}

// AppendBatch bulk-appends all logical rows of b column-wise, resolving
// any selection b carries.
func (t *Table) AppendBatch(b *Batch) {
	if len(b.Vecs) != len(t.cols) {
		panic(fmt.Sprintf("table: AppendBatch with %d columns into %d", len(b.Vecs), len(t.cols)))
	}
	if b.Sel != nil {
		for i, v := range b.Vecs {
			t.cols[i].AppendGather(v, b.Sel)
		}
	} else {
		for i, v := range b.Vecs {
			t.cols[i].AppendSlice(v, 0, v.Len())
		}
	}
	t.rows += b.Rows()
}

// Slice returns a batch viewing rows [lo, hi) without copying.
func (t *Table) Slice(lo, hi int) *Batch {
	b := &Batch{Schema: t.Schema, Vecs: make([]*Vector, len(t.cols)), rows: hi - lo}
	for i, c := range t.cols {
		b.Vecs[i] = c.Slice(lo, hi)
	}
	return b
}
