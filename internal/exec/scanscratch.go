package exec

import (
	"fmt"
	"slices"

	"energydb/internal/compress"
	"energydb/internal/table"
)

// scanScratch is the decode memory one scan owns from its first block to
// its Close (CONTRACT.md, "Scan scratch lifetime"): the batch every block
// is decoded into, refilled in place; the byte image the byte-level codecs
// expand into; per column, the dictionary symbols carried from block to
// block; and the selection vector and output view handed downstream. All
// of it dies at the scan's next Next, as the volcano contract says of any
// batch. It belongs to one scan — fragments never share one — and is let
// go at Close, so nothing of it outlives the statement.
type scanScratch struct {
	read *table.Batch
	raw  []byte
	syms []compress.SymbolTable
	sel  []int32
	view *table.Batch
}

// batch returns the decode target over schema, sized for rows the first
// time.
func (sc *scanScratch) batch(schema *table.Schema, rows int) *table.Batch {
	if sc.read == nil {
		sc.read = table.NewBatch(schema, rows)
	}
	return sc.read
}

// expand decodes blk through the codec's byte-level Decode into the byte
// scratch, pre-sized from the block's recorded raw size.
func (sc *scanScratch) expand(codec compress.Codec, blk *block) ([]byte, error) {
	raw, err := codec.Decode(slices.Grow(sc.raw[:0], int(blk.rawSize)), blk.enc)
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
	if dec, ok := codec.(compress.Int64Decoder); ok && v.Type.Physical() == table.PhysInt {
		v.I, err = dec.DecodeInt64s(v.I[:0], blk.enc)
		got = len(v.I)
	} else if dec, ok := codec.(compress.StringDecoder); ok && v.Type.Physical() == table.PhysString {
		if sc.syms == nil { // a scan that reads no dictionary column needs none
			sc.syms = make([]compress.SymbolTable, len(sc.read.Vecs))
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
	switch v := sc.read.Vecs[i]; v.Type.Physical() {
	case table.PhysInt:
		v.I = slices.Grow(v.I[:0], n)[:n]
	case table.PhysFloat:
		v.F = slices.Grow(v.F[:0], n)[:n]
	default:
		v.S = slices.Grow(v.S[:0], n)[:n]
	}
}

// release lets go of everything at Close.
func (sc *scanScratch) release() {
	sc.retire()
	*sc = scanScratch{}
}

// filter returns the rows of in that pred keeps, ascending, in the
// scratch's selection vector.
func (sc *scanScratch) filter(ctx *Ctx, in *table.Batch, pred Pred) []int32 {
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
