package exec

import (
	"fmt"
	"slices"
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
// the block is borrowed (mem) and handed back at Close, when the scan's
// claim on it ends: the next operator to borrow, any statement's, fills
// the same arrays.
type scanScratch struct {
	mem  *batchMem
	read *table.Batch
	sel  []int32
	view *table.Batch
}

// batchMem is the batch-sized memory an operator borrows for the batches
// it refills — a scan for the blocks it decodes, a Prober for the rows it
// gathers: arrays by physical type and index vectors, free for the taking
// whatever the schema, plus a scan's byte image and per-column symbol
// tables. At rest it pins nothing a statement produced: string arrays are
// cleared and symbol tables Reset on the way back.
type batchMem struct {
	ints   [][]int64
	floats [][]float64
	strs   [][]string
	sels   [][]int32
	raw    []byte
	syms   []compress.SymbolTable // by column position
}

// batchMems recycles batch memory across statements, and across every
// engine in the process. A sync.Pool needs no bound and no knob: an
// operator that finds it empty allocates as operators always did, and the
// collector reclaims what none has used for two cycles, so the live heap
// at rest is what it was without it.
var batchMems = sync.Pool{New: func() any { return new(batchMem) }}

// borrowed returns the scan's block-sized memory, taking it from the
// recycler the first time.
func (sc *scanScratch) borrowed() *batchMem {
	if sc.mem == nil {
		sc.mem = batchMems.Get().(*batchMem)
	}
	return sc.mem
}

// take pops the array last given to free, or makes one of rows cells when
// there is none. One too small for the batch is regrown by whatever fills
// it, like any vector.
func take[T any](free *[][]T, rows int) []T {
	n := len(*free)
	if n == 0 {
		return make([]T, 0, rows)
	}
	a := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return a[:0]
}

// give hands a back to free; the two arrays a vector does not use are nil
// and stay out of it.
func give[T any](free *[][]T, a []T) {
	if cap(a) > 0 {
		*free = append(*free, a)
	}
}

// batch returns an empty batch over schema whose header and Vectors are
// the caller's and whose arrays are borrowed, sized for rows where the
// recycler had none.
func (m *batchMem) batch(schema *table.Schema, rows int) *table.Batch {
	b := &table.Batch{Schema: schema, Vecs: make([]*table.Vector, len(schema.Cols))}
	for i, c := range schema.Cols {
		v := &table.Vector{Type: c.Type}
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

// reclaim takes the arrays of a batch made by batch back, string arrays
// cleared so they pin no string the statement produced.
func (m *batchMem) reclaim(b *table.Batch) {
	for _, v := range b.Vecs {
		give(&m.ints, v.I)
		give(&m.floats, v.F)
		clear(v.S[:cap(v.S)])
		give(&m.strs, v.S)
	}
}

// batch returns the decode target over schema, its arrays sized for rows
// where the recycler had none.
func (sc *scanScratch) batch(schema *table.Schema, rows int) *table.Batch {
	if sc.read == nil {
		sc.read = sc.borrowed().batch(schema, rows)
	}
	return sc.read
}

// expand decodes blk through the codec's byte-level Decode into the byte
// scratch, pre-sized from the block's recorded raw size.
func (sc *scanScratch) expand(codec compress.Codec, blk *block) ([]byte, error) {
	m := sc.borrowed()
	raw, err := codec.Decode(slices.Grow(m.raw[:0], int(blk.rawSize)), blk.enc)
	m.raw = raw
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
	if dec, ok := codec.(compress.Int64Decoder); ok && v.Type.Physical() == table.PhysInt {
		v.I, err = dec.DecodeInt64s(v.I[:0], blk.enc)
		got = len(v.I)
	} else if dec, ok := codec.(compress.StringDecoder); ok && v.Type.Physical() == table.PhysString {
		m := sc.mem
		if short := len(sc.read.Vecs) - len(m.syms); short > 0 { // a scan that reads no dictionary column needs none
			m.syms = append(m.syms, make([]compress.SymbolTable, short)...)
		}
		v.S, err = dec.DecodeStrings(v.S[:0], blk.enc, &m.syms[i], sel)
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
	switch v := sc.read.Vecs[i]; v.Type.Physical() {
	case table.PhysInt:
		v.I = slices.Grow(v.I[:0], n)[:n]
	case table.PhysFloat:
		v.F = slices.Grow(v.F[:0], n)[:n]
	default:
		v.S = slices.Grow(v.S[:0], n)[:n]
	}
}

// release ends the scan's claim on its memory at Close: the borrowed
// arrays go back to the recycler — string arrays cleared and symbol tables
// Reset, so they pin no string this statement decoded — and the scratch is
// left empty, so a second Close finds nothing to hand back. The checking
// build's retire has poisoned and abandoned everything by then; it never
// recycles.
func (sc *scanScratch) release() {
	sc.retire()
	if m := sc.mem; m != nil {
		if sc.read != nil {
			m.reclaim(sc.read)
		}
		give(&m.sels, sc.sel)
		for i := range m.syms {
			m.syms[i].Reset()
		}
		batchMems.Put(m)
	}
	*sc = scanScratch{}
}

// filter returns the rows of in that pred keeps, ascending, in the
// scratch's selection vector.
func (sc *scanScratch) filter(ctx *Ctx, in *table.Batch, pred Pred) []int32 {
	if sc.sel == nil {
		sc.sel = take(&sc.borrowed().sels, in.Rows())
	}
	sel := iotaSel(&sc.sel, in.Rows())
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
