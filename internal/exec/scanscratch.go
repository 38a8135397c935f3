package exec

import (
	"fmt"
	"sync"

	"energydb/internal/compress"
	"energydb/internal/table"
)

// scanScratch is the decode memory one scan owns from its first block to
// its Close (CONTRACT.md, "Scan scratch lifetime"): the batch every block
// is decoded into, refilled in place; the byte image the byte-level codecs
// expand into; per column, the dictionary symbols carried from block to
// block; and the selection vector and output view handed downstream. All
// of it dies at the scan's next Next, as the volcano contract says of any
// batch. It belongs to one scan — fragments never share one. The batch
// header, its Vectors and the view are the scan's own; everything sized by
// the block is borrowed from the recycler (mem) and handed back at Close,
// when the scan's claim on it ends: the next operator to borrow fills the
// same arrays.
type scanScratch struct {
	mem  *batchMem
	read *table.Batch
	raw  []byte
	syms []compress.SymbolTable // by column position
	sel  []int32
	view *table.Batch
}

// batchMem is the recycler: the batch-sized memory operators borrow for
// what they refill or materialise — a scan for the blocks it decodes, a
// Prober for the rows it gathers, a join build, an aggregation or a sort
// for the rows and groups it keeps, a projection for its kernels'
// registers. It holds free arrays by element type, for the taking whatever
// the schema: an operator takes arrays as it needs them and hands them
// back when its claim ends, and the next borrower — the same statement's
// or another's — refills them. The statements of one engine share one
// (Memory, ctx.go) while any of them runs. At rest it pins nothing a
// statement produced: string arrays are cleared and symbol tables Reset
// on the way back.
type batchMem struct {
	ints    [][]int64
	floats  [][]float64
	strs    [][]string
	sels    [][]int32
	bools   [][]bool
	slots   [][]keySlot
	bytes   [][]byte
	symtabs [][]compress.SymbolTable
}

// batchMems keeps the batch memory of engines with no statement running,
// for any engine in the process to take. A sync.Pool needs no bound and no
// knob: an engine that finds it empty allocates as operators always did,
// and the collector reclaims what none has used for two cycles, so the
// live heap at rest is what it was without it.
var batchMems = sync.Pool{New: func() any { return new(batchMem) }}

// claim takes the memory the scan borrows from, at its first block (and,
// under ee_invariants, at every block).
func (sc *scanScratch) claim(ctx *Ctx) {
	if sc.mem == nil {
		sc.mem = ctx.borrow()
	}
}

// take hands out the smallest free array that holds rows cells, or the
// largest one when none does — so the array a build store grew to does not
// go to a scan block while the store regrows a small one — or makes one
// when free is empty, its capacity rows rounded up to a power of two, so
// that it serves the next, slightly larger request as well. One too small
// for the batch is regrown by whatever fills it, like any vector.
func take[T any](free *[][]T, rows int) []T {
	l := *free
	if len(l) == 0 {
		if rows > 0 {
			rows = ceilPow2(rows)
		}
		return make([]T, 0, rows)
	}
	best := 0
	for i := 1; i < len(l); i++ {
		if c, b := cap(l[i]), cap(l[best]); b < rows && c > b || c >= rows && c < b {
			best = i
		}
	}
	a, last := l[best], len(l)-1
	l[best], l[last] = l[last], nil
	*free = l[:last]
	return a[:0]
}

// takeLen is take for a caller that needs all n cells at once: an array
// too small for them goes back, and one of n cells is made, its capacity
// rounded up as take's is.
func takeLen[T any](free *[][]T, n int) []T {
	a := take(free, n)
	if cap(a) < n {
		give(free, a)
		a = make([]T, n, ceilPow2(n))
	}
	return a[:n]
}

// room returns a emptied, with room for n cells: a itself when it holds
// them, else an array from free that does, a going back to free.
func room[T any](free *[][]T, a []T, n int) []T {
	if cap(a) >= n {
		return a[:0]
	}
	b := takeLen(free, n)[:0]
	give(free, a)
	return b
}

// grow returns a with room for n more cells. When it has none, a's cells
// move to an array from free that holds them and n more — at least twice
// a's capacity, as append would grow it — and a goes back to free: an
// operator that materialises grows through the recycler, not past it.
func grow[T any](free *[][]T, a []T, n int) []T {
	if cap(a)-len(a) >= n {
		return a
	}
	b := append(takeLen(free, max(len(a)+n, 2*cap(a)))[:0], a...)
	give(free, a)
	return b
}

// batch returns an empty batch over schema whose header and Vectors are
// the caller's and whose arrays are borrowed, sized for rows where the
// recycler had none.
func (m *batchMem) batch(schema *table.Schema, rows int) *table.Batch {
	b := &table.Batch{Schema: schema, Vecs: make([]*table.Vector, len(schema.Cols))}
	vecs := make([]table.Vector, len(schema.Cols))
	for i, c := range schema.Cols {
		v := &vecs[i]
		v.Type = c.Type
		switch c.Type.Physical() {
		case table.PhysInt:
			v.I = take(&m.ints, rows)
		case table.PhysFloat:
			v.F = take(&m.floats, rows)
		default:
			v.S = take(&m.strs, rows)
		}
		b.Vecs[i] = v
	}
	return b
}

// reclaim takes the arrays of a batch made by batch back.
func (m *batchMem) reclaim(b *table.Batch) {
	for _, v := range b.Vecs {
		m.giveVec(v)
	}
}

// giveVec hands v's array back, and v lets go of it: a header some
// operator still holds — a filter's view of a scan batch — pins nothing.
func (m *batchMem) giveVec(v *table.Vector) {
	give(&m.ints, v.I)
	give(&m.floats, v.F)
	give(&m.strs, v.S)
	v.I, v.F, v.S = nil, nil, nil
}

// extend gives v room for n more cells, regrowing through m.
func (m *batchMem) extend(v *table.Vector, n int) {
	switch v.Type.Physical() {
	case table.PhysInt:
		v.I = grow(&m.ints, v.I, n)
	case table.PhysFloat:
		v.F = grow(&m.floats, v.F, n)
	default:
		v.S = grow(&m.strs, v.S, n)
	}
}

// fit empties v with room for n cells: in its own array when that holds
// them, else in one from m, v's old array going back.
func (m *batchMem) fit(v *table.Vector, n int) {
	switch v.Type.Physical() {
	case table.PhysInt:
		v.I = room(&m.ints, v.I, n)
	case table.PhysFloat:
		v.F = room(&m.floats, v.F, n)
	default:
		v.S = room(&m.strs, v.S, n)
	}
}

// store materialises src's rows at the end of dst, made by batch, growing
// dst's arrays through m.
func (m *batchMem) store(dst, src *table.Batch) {
	for _, v := range dst.Vecs {
		m.extend(v, src.Rows())
	}
	dst.AppendBatch(src)
}

// batch returns the decode target over schema, its arrays sized for rows
// where the recycler had none.
func (sc *scanScratch) batch(schema *table.Schema, rows int) *table.Batch {
	if sc.read == nil {
		sc.read = sc.mem.batch(schema, rows)
	}
	return sc.read
}

// expand decodes blk through the codec's byte-level Decode into the byte
// scratch, pre-sized from the block's recorded raw size.
func (sc *scanScratch) expand(codec compress.Codec, blk *block) ([]byte, error) {
	raw, err := codec.Decode(room(&sc.mem.bytes, sc.raw, int(blk.rawSize)), blk.enc)
	sc.raw = raw
	return raw, err
}

// column refills column i of the decode target from blk. A codec that can
// write typed memory does (ints under Delta/Bitpack, strings under Dict);
// any other pairing expands to bytes first. A non-nil sel lists, ascending,
// the rows that will be read: dictionary strings are materialised for those
// cells alone, while the sequential codecs decode the whole block anyway.
func (sc *scanScratch) column(i int, codec compress.Codec, blk *block, sel []int32) error {
	v, n := sc.read.Vecs[i], blk.hi-blk.lo
	got := n
	var err error
	sc.mem.fit(v, n)
	if dec, ok := codec.(compress.Int64Decoder); ok && v.Type.Physical() == table.PhysInt {
		v.I, err = dec.DecodeInt64s(v.I[:0], blk.enc)
		got = len(v.I)
	} else if dec, ok := codec.(compress.StringDecoder); ok && v.Type.Physical() == table.PhysString {
		if sc.syms == nil { // a scan that reads no dictionary column needs none
			sc.syms = takeLen(&sc.mem.symtabs, len(sc.read.Vecs))
		}
		v.S, err = dec.DecodeStrings(v.S[:0], blk.enc, &sc.syms[i], sel)
		got = len(v.S)
	} else {
		var raw []byte
		if raw, err = sc.expand(codec, blk); err == nil {
			err = table.DecodeVectorInto(v, raw, n)
		}
	}
	if err == nil && got != n {
		err = fmt.Errorf("exec: block of %d rows decoded to %d values", n, got)
	}
	return err
}

// size gives column i of the decode target n cells without filling them:
// they hold whatever the backing array did. Every vector of a batch has
// the block's row count, decoded or not.
func (sc *scanScratch) size(i, n int) {
	v := sc.read.Vecs[i]
	sc.mem.fit(v, n)
	switch v.Type.Physical() {
	case table.PhysInt:
		v.I = v.I[:n]
	case table.PhysFloat:
		v.F = v.F[:n]
	default:
		v.S = v.S[:n]
	}
}

// release ends the scan's claim on its memory at Close: the borrowed
// arrays go back to the recycler — string arrays cleared (give) and symbol
// tables Reset, so they pin no string this statement decoded — and the
// scratch is left empty, so a second Close finds nothing to hand back. The
// checking build's retire has poisoned and abandoned everything by then;
// it never recycles.
func (sc *scanScratch) release() {
	sc.retire()
	if m := sc.mem; m != nil {
		if sc.read != nil {
			m.reclaim(sc.read)
		}
		give(&m.bytes, sc.raw)
		for i := range sc.syms {
			sc.syms[i].Reset()
		}
		give(&m.symtabs, sc.syms)
		give(&m.sels, sc.sel)
	}
	*sc = scanScratch{}
}

// filter returns the rows of in that pred keeps, ascending, in the
// scratch's selection vector.
func (sc *scanScratch) filter(ctx *Ctx, in *table.Batch, pred Pred) []int32 {
	sel := iotaSel(&sc.mem.sels, &sc.sel, in.Rows())
	if pred != nil {
		sel = pred.Eval(ctx, in, sel)
	}
	return sel
}

// project returns the emit positions of in over the rows in sel. The
// output columns are always views of in's vectors; when only some rows
// survive, the surviving selection vector rides on the batch instead of
// being gathered here — compaction is deferred to the consumer's
// materialisation boundary. The returned batch aliases the scratch and is
// valid until the scan's next Next.
func (sc *scanScratch) project(in *table.Batch, sel []int32, emit []int, schema *table.Schema) *table.Batch {
	if sc.view == nil {
		sc.view = &table.Batch{Schema: schema, Vecs: make([]*table.Vector, len(emit))}
	}
	o := sc.view
	for oi, e := range emit {
		o.Vecs[oi] = in.Vecs[e]
	}
	if len(sel) == in.Rows() || len(emit) == 0 {
		// All rows survive, or there are no columns to select over: a
		// plain batch with explicit cardinality (zero-column batches never
		// carry a selection).
		o.SetRows(len(sel))
	} else {
		o.SetSel(sel)
	}
	return o
}
