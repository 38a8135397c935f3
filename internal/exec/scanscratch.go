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
		sc.syms = make([]compress.SymbolTable, len(schema.Cols))
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
// any other pairing expands to bytes first.
func (sc *scanScratch) column(i int, codec compress.Codec, blk *block) error {
	v, n := sc.read.Vecs[i], blk.hi-blk.lo
	got := n
	var err error
	if dec, ok := codec.(compress.Int64Decoder); ok && v.Type.Physical() == table.PhysInt {
		v.I, err = dec.DecodeInt64s(v.I[:0], blk.enc)
		got = len(v.I)
	} else if dec, ok := codec.(compress.StringDecoder); ok && v.Type.Physical() == table.PhysString {
		v.S, err = dec.DecodeStrings(v.S[:0], blk.enc, &sc.syms[i])
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

// release lets go of everything at Close.
func (sc *scanScratch) release() {
	sc.retire()
	*sc = scanScratch{}
}

// emit filters in's rows with pred and projects the emit positions. The
// output columns are always views of in's vectors; when only some rows
// survive, the surviving selection vector rides on the batch instead of
// being gathered here — compaction is deferred to the consumer's
// materialisation boundary. The returned batch aliases the scratch and is
// valid until the scan's next Next.
func (sc *scanScratch) emit(ctx *Ctx, in *table.Batch, pred Pred, emit []int, schema *table.Schema) *table.Batch {
	n := in.Rows()
	sel := iotaSel(&sc.sel, n)
	if pred != nil {
		sel = pred.Eval(ctx, in, sel)
	}
	if sc.view == nil {
		sc.view = &table.Batch{Schema: schema, Vecs: make([]*table.Vector, len(emit))}
	}
	o := sc.view
	for oi, e := range emit {
		o.Vecs[oi] = in.Vecs[e]
	}
	if len(sel) == n || len(emit) == 0 {
		// All rows survive, or there are no columns to select over: a
		// plain batch with explicit cardinality (zero-column batches never
		// carry a selection).
		o.SetRows(len(sel))
	} else {
		o.SetSel(sel)
	}
	return o
}
