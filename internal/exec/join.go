package exec

import (
	"energydb/internal/table"
)

// joinSchema concatenates build and probe schemas, prefixing duplicate
// column names with the side's relation name.
func joinSchema(name string, l, r *table.Schema) *table.Schema {
	seen := map[string]bool{}
	var cols []table.Column
	add := func(rel string, c table.Column) {
		n := c.Name
		if seen[n] {
			n = rel + "." + n
		}
		seen[n] = true
		cols = append(cols, table.Column{Name: n, Type: c.Type, Width: c.Width})
	}
	for _, c := range l.Cols {
		add(l.Name, c)
	}
	for _, c := range r.Cols {
		add(r.Name, c)
	}
	return table.NewSchema(name, cols...)
}

// hashJoinKeys fills hs[k] with the bits of the join hash of the k'th key
// of kv — physical row sel[k] under a selection, row k without — one typed
// loop per class so the generic loops over the table call nothing per row.
func hashJoinKeys(hs []int32, kv *table.Vector, sel []int32) {
	switch kv.Type.Physical() {
	case table.PhysInt:
		for k := range hs {
			r := k
			if sel != nil {
				r = int(sel[k])
			}
			hs[k] = int32(hashInt64(kv.I[r]))
		}
	case table.PhysFloat:
		for k := range hs {
			r := k
			if sel != nil {
				r = int(sel[k])
			}
			hs[k] = int32(hashFloat64(kv.F[r]))
		}
	default:
		for k := range hs {
			r := k
			if sel != nil {
				r = int(sel[k])
			}
			hs[k] = int32(hashString(kv.S[r]))
		}
	}
}

// chainRows indexes the build rows, whose keys are keys, into t and
// threads equal keys through next, which arrives holding each row's hash in
// the row's own cell (hashJoinKeys) and leaves holding the row's link. It
// walks the rows backwards and heads each key's chain with the row in hand,
// so the id the table ends up holding is the key's first row and the chain
// behind it ascends. Equality is the key type's ==, as a Go map's would be:
// -0.0 and +0.0 are one key, and a NaN, equal to nothing, is left out — no
// probe could reach it.
func chainRows[T comparable](t *keyTable, next []int32, keys []T) {
rows:
	for r := len(keys) - 1; r >= 0; r-- {
		x, h := keys[r], uint32(next[r])
		next[r] = 0
		if x != x {
			continue
		}
		for i, id := t.seek(t.home(h), h); ; i, id = t.seek(i+1, h) {
			if id < 0 {
				t.put(i, h, int32(r))
				continue rows
			}
			if keys[id] == x {
				next[r] = id
				t.set(i, int32(r))
				continue rows
			}
		}
	}
}

// probeRows looks the probe keys up in the build's table — the k'th is
// physical row sel[k] of key, row k without a selection, and hashes to
// hs[k]. Matching (build, probe) physical index pairs are appended to
// bsel/psel, a key's build rows in ascending order; a full one grows
// through free, the outgrown array going back to it.
func probeRows[T comparable](bs *buildState, bkeys, key []T, hs, sel, bsel, psel []int32, free *[][]int32) ([]int32, []int32) {
	t, next := &bs.tab, bs.next
	for k, hbits := range hs {
		pi := int32(k)
		if sel != nil {
			pi = sel[k]
		}
		x, h := key[pi], uint32(hbits)
		for i, id := t.seek(t.home(h), h); id >= 0; i, id = t.seek(i+1, h) {
			if bkeys[id] == x {
				for {
					if len(bsel) == cap(bsel) || len(psel) == cap(psel) {
						bsel, psel = grow(free, bsel, 1), grow(free, psel, 1)
					}
					bsel = append(bsel, id)
					psel = append(psel, pi)
					if id = next[id]; id == 0 {
						break
					}
				}
				break
			}
		}
	}
	return bsel, psel
}

// NestedLoopJoin is the block nested-loop equi-join: for every outer
// batch it re-executes the inner operator from scratch. It needs almost
// no memory but re-reads the inner relation once per outer block —
// trading DRAM watts for repeated I/O, the other side of the §4.1
// tradeoff.
type NestedLoopJoin struct {
	Outer    Operator
	Inner    Operator
	OuterKey int
	InnerKey int

	schema     *table.Schema
	outerB     *table.Batch
	inner      bool // inner currently open
	osel, isel []int32
	out        *table.Batch // reusable output batch
	iscratch   *table.Batch // reusable compaction buffer for selected inner batches
}

// NewNestedLoopJoin builds a block nested-loop equi-join.
func NewNestedLoopJoin(outer, inner Operator, outerKey, innerKey int) *NestedLoopJoin {
	return &NestedLoopJoin{
		Outer: outer, Inner: inner, OuterKey: outerKey, InnerKey: innerKey,
		schema: joinSchema("nljoin", outer.Schema(), inner.Schema()),
	}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *table.Schema { return j.schema }

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Ctx) error {
	j.outerB = nil
	j.inner = false
	return j.Outer.Open(ctx)
}

// matchPairs compares every (outer, inner) key pair over the raw typed
// slices and appends matching index pairs to osel/isel.
func matchPairs[T int64 | float64 | string](ok, ik []T, osel, isel []int32) ([]int32, []int32) {
	for or, ov := range ok {
		for ir, iv := range ik {
			if ov == iv {
				osel = append(osel, int32(or))
				isel = append(isel, int32(ir))
			}
		}
	}
	return osel, isel
}

// Next implements Operator.
func (j *NestedLoopJoin) Next(ctx *Ctx) (*table.Batch, error) {
	for {
		if j.outerB == nil {
			ob, err := j.Outer.Next(ctx)
			if err != nil {
				return nil, err
			}
			if ob == nil {
				return nil, nil
			}
			if ob.Rows() == 0 {
				continue
			}
			// Copy: the outer child may reuse its batch while we hold this
			// block across many inner batches.
			j.outerB = ob.Clone()
			if err := j.Inner.Open(ctx); err != nil { // rescan inner
				return nil, err
			}
			j.inner = true
		}
		ib, err := j.Inner.Next(ctx)
		if err != nil {
			return nil, err
		}
		if ib == nil {
			if err := j.Inner.Close(ctx); err != nil {
				return nil, err
			}
			j.inner = false
			j.outerB = nil
			continue
		}
		if ib.Sel != nil {
			// The pairwise kernels run over whole vectors: compact a
			// selected inner batch once, here at the consumption boundary.
			if j.iscratch == nil {
				j.iscratch = table.NewBatch(j.Inner.Schema(), ib.Rows())
			}
			j.iscratch.Reset()
			j.iscratch.AppendBatch(ib)
			ib = j.iscratch
		}
		// Compare every (outer, inner) pair in the two blocks.
		ctx.ChargeRows(j.outerB.Rows()*ib.Rows(), ctx.Costs.FilterCyclesPerRow)
		osel, isel := j.osel[:0], j.isel[:0]
		ov, iv := j.outerB.Vecs[j.OuterKey], ib.Vecs[j.InnerKey]
		switch ov.Type.Physical() {
		case table.PhysInt:
			osel, isel = matchPairs(ov.I, iv.I, osel, isel)
		case table.PhysFloat:
			osel, isel = matchPairs(ov.F, iv.F, osel, isel)
		default:
			osel, isel = matchPairs(ov.S, iv.S, osel, isel)
		}
		j.osel, j.isel = osel, isel
		if len(osel) == 0 {
			continue
		}
		ctx.ChargeRows(len(osel), ctx.Costs.JoinOutputCyclesPerRow)
		if j.out == nil {
			j.out = table.NewBatch(j.schema, len(osel))
		}
		j.out.Reset()
		no := len(j.outerB.Vecs)
		for c, v := range j.outerB.Vecs {
			j.out.Vecs[c].AppendGather(v, osel)
		}
		for c, v := range ib.Vecs {
			j.out.Vecs[no+c].AppendGather(v, isel)
		}
		j.out.SetRows(len(osel))
		return j.out, nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close(ctx *Ctx) error {
	var err error
	if j.inner {
		err = j.Inner.Close(ctx)
		j.inner = false
	}
	j.outerB = nil
	j.out = nil
	j.iscratch = nil
	if e := j.Outer.Close(ctx); err == nil {
		err = e
	}
	return err
}
