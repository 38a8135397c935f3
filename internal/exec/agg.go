package exec

import (
	"math"
	"slices"

	"energydb/internal/table"
)

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Min
	Max
	Avg
)

func (f AggFunc) String() string {
	return [...]string{"count", "sum", "min", "max", "avg"}[f]
}

// AggSpec is one aggregate column: Func applied to the child's column Col
// (ignored for Count), labelled As in the output.
type AggSpec struct {
	Func AggFunc
	Col  int
	As   string
}

// HashAgg groups rows by the GroupBy columns and computes aggregates. The
// output schema is the group columns followed by one column per spec.
// Output order is deterministic (sorted by group key values, a NaN after
// every number) so results are reproducible at any degree of parallelism.
//
// The input is a fragment set run under the barrier exchange: every
// fragment aggregates its share into a table of its own (HashAgg is the
// exchange's Sink), and a partition-wise merge phase — a hash of the group
// key partitions the group space into disjoint slices, one merge process
// per partition — combines the partials. A serial plan is the set of one
// fragment: one table, drained inline, nothing to merge.
//
// A table's state is columnar throughout, indexed by group id, and a group
// costs no object of its own: the key cells sit in one typed vector per
// group column, appended when the group is first seen; the aggregates in
// one slice per spec; and a keyTable finds a row's group from the hash of
// its key cells, equality comparing cell against cell. Nothing on the
// per-row path formats, boxes or allocates, and the output is gathered
// from the key vectors, not boxed row by row.
type HashAgg struct {
	Frags   Fragments // the input pipeline
	GroupBy []int
	Aggs    []AggSpec

	schema *table.Schema
	locals []*aggTable  // per-worker partial tables while Open runs
	local0 [1]*aggTable // backing for the first, so a serial plan allocates no slice
	tab    *aggTable    // merged result after Open
	order  []int32      // group ids in output order
	next   int
}

// aggSchema derives the output schema: group columns then aggregates.
func aggSchema(ins *table.Schema, groupBy []int, aggs []AggSpec) *table.Schema {
	var cols []table.Column
	for _, g := range groupBy {
		cols = append(cols, ins.Cols[g])
	}
	for _, a := range aggs {
		t := table.Int64
		switch a.Func {
		case Count:
			t = table.Int64
		case Avg:
			t = table.Float64
		default:
			t = ins.Cols[a.Col].Type
			if a.Func == Sum && t.Physical() == table.PhysFloat {
				t = table.Float64
			}
		}
		name := a.As
		if name == "" {
			name = a.Func.String()
		}
		cols = append(cols, table.Col(name, t))
	}
	return table.NewSchema(ins.Name, cols...)
}

// NewHashAgg builds a grouping aggregation over the fragment set in.
func NewHashAgg(in Fragments, groupBy []int, aggs []AggSpec) *HashAgg {
	return &HashAgg{Frags: in, GroupBy: groupBy, Aggs: aggs,
		schema: aggSchema(in.Schema(), groupBy, aggs)}
}

// Schema implements Operator.
func (h *HashAgg) Schema() *table.Schema { return h.schema }

// AddWorker implements Sink: worker w aggregates into a table of its own.
func (h *HashAgg) AddWorker(w int) {
	h.locals = append(h.locals, newAggTable(h.Frags.Schema(), h.GroupBy, h.Aggs))
}

// Absorb implements Sink.
func (h *HashAgg) Absorb(w int, wctx *Ctx, b *table.Batch) bool {
	h.locals[w].absorb(wctx, b)
	return true
}

// Open implements Operator: it drains the input under the barrier
// exchange, merges the partial tables partition-wise, and fixes the
// output order.
func (h *HashAgg) Open(ctx *Ctx) error {
	h.next = 0
	h.order = nil
	h.tab = nil
	h.locals = h.local0[:0]
	err := RunFragments(ctx, "hashagg", h.Frags, h)
	if err == nil {
		h.tab, err = mergePartitioned(ctx, h.Frags.Schema(), h.GroupBy, h.Aggs, h.locals)
	}
	h.locals, h.local0[0] = nil, nil
	if err != nil {
		return err
	}
	h.order = make([]int32, h.tab.groups())
	for i := range h.order {
		h.order[i] = int32(i)
	}
	slices.SortFunc(h.order, h.tab.cmpKeys)
	return nil
}

// mergePartitioned combines per-worker partial tables partition-wise: the
// groups' partition hashes split the group space into ceilPow2(workers)
// disjoint partitions, one merge process per partition folds every worker's share
// of its partition (charging its own core), and the disjoint results
// concatenate. A single partial table needs no merge and is used as-is.
func mergePartitioned(ctx *Ctx, ins *table.Schema, groupBy []int, specs []AggSpec, locals []*aggTable) (*aggTable, error) {
	if len(locals) == 1 {
		return locals[0], nil
	}
	nparts := uint32(ceilPow2(len(locals)))
	parts := make([]*aggTable, nparts)
	if err := ParDo(ctx, "aggmerge", int(nparts), func(p int, wctx *Ctx) error {
		t := newAggTable(ins, groupBy, specs)
		for _, src := range locals {
			t.mergeFrom(wctx, src, uint32(p), nparts)
		}
		parts[p] = t
		return nil
	}); err != nil {
		return nil, err
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out.concat(p)
	}
	return out, nil
}

// aggTable is one worker's (or, after the merge, the whole operator's)
// grouping state, columnar and indexed by group id: the typed key cells,
// the row counts and the per-spec aggregates, plus the index that finds a
// key's group. Ids are handed out in first-seen order.
type aggTable struct {
	groupBy []int
	specs   []AggSpec
	index   keyTable       // key hash -> group id
	keys    []table.Vector // per group column: the groups' key cells
	counts  []int64        // per group: row count
	aggs    []aggCol       // per spec: columnar state
	parts   []uint32       // per group, filled by partHashes: the hash that partitions a merge
	gids    []int32        // reused per-batch group-id vector
	keyCols []keyCol       // reused per-batch resolved group columns
}

func newAggTable(ins *table.Schema, groupBy []int, specs []AggSpec) *aggTable {
	t := &aggTable{groupBy: groupBy, specs: specs, index: newKeyTable(0),
		keys: make([]table.Vector, len(groupBy)), aggs: make([]aggCol, len(specs)),
		keyCols: make([]keyCol, len(groupBy))}
	for i, g := range groupBy {
		t.keys[i].Type = ins.Cols[g].Type
	}
	for ai, a := range specs {
		t.aggs[ai].fn = a.Func
		if a.Func != Count {
			t.aggs[ai].phys = ins.Cols[a.Col].Type.Physical()
		}
	}
	return t
}

// groups is the number of groups in the table.
func (t *aggTable) groups() int { return len(t.counts) }

// keyCol is a column of candidate keys — a batch's group column, or
// another table's key vector — with its physical class and raw slice
// resolved once, so the per-row paths do not re-dispatch through a Vector.
type keyCol struct {
	phys table.Phys
	i    []int64
	f    []float64
	s    []string
}

func resolveKey(v *table.Vector) keyCol {
	return keyCol{phys: v.Type.Physical(), i: v.I, f: v.F, s: v.S}
}

// A float cell enters a group key in canonical form: -0.0 as +0.0 and every
// NaN as one NaN. Grouping is then by the equality the join already uses
// for ±0 (hashFloat64), all NaNs are one group rather than a group per bit
// pattern, and no two stored keys compare equal.
func canonFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return math.NaN()
	}
	return f
}

// mixKey folds the 64 bits of one key cell into the running hash h of the
// cells before it, with one multiply. From h == 0 it is hashInt64.
func mixKey(h uint32, cell uint64) uint32 {
	return uint32(((cell ^ uint64(h)<<32) * 0x9E3779B97F4A7C15) >> 32)
}

// hashKeys fills hs[k] with the bits of the hash of the key in logical row
// k of cols (physical row sel[k] under a selection), a column at a time, so
// the row loops do not dispatch on a type. Equal keys hash equal: a float
// hashes its canonical bits. The state between columns is the 32 bits kept:
// plenty to tell groups apart, and a collision costs one more comparison.
func hashKeys(hs []int32, cols []keyCol, sel []int32) {
	clear(hs)
	for _, c := range cols {
		switch c.phys {
		case table.PhysInt:
			for k, h := range hs {
				r := k
				if sel != nil {
					r = int(sel[k])
				}
				hs[k] = int32(mixKey(uint32(h), uint64(c.i[r])))
			}
		case table.PhysFloat:
			for k, h := range hs {
				r := k
				if sel != nil {
					r = int(sel[k])
				}
				hs[k] = int32(mixKey(uint32(h), math.Float64bits(canonFloat(c.f[r]))))
			}
		default:
			for k, h := range hs {
				r := k
				if sel != nil {
					r = int(sel[k])
				}
				hs[k] = int32(mixKey(uint32(h), uint64(hashString(c.s[r]))))
			}
		}
	}
}

// absorb folds one input batch into the table. A deferred upstream
// selection is read through, not compacted: the key paths and the typed
// update loops index the physical vectors via Batch.Sel.
func (t *aggTable) absorb(ctx *Ctx, b *table.Batch) {
	ctx.ChargeRows(b.Rows()*max(1, len(t.specs)), ctx.Costs.AggCyclesPerRow)
	t.assignGroups(b)
	for _, gid := range t.gids {
		t.counts[gid]++
	}
	for ai, a := range t.specs {
		if a.Func == Count {
			continue
		}
		t.aggs[ai].update(b.Vecs[a.Col], t.gids, b.Sel)
	}
}

// assignGroups fills t.gids with the group id of every logical row of b
// (t.gids[k] belongs to selected row k when a selection rides the batch),
// creating groups on first sight. The vector holds each row's key hash
// until the row's turn, then its group.
func (t *aggTable) assignGroups(b *table.Batch) {
	n := b.Rows()
	sel := b.Sel
	if cap(t.gids) < n {
		t.gids = make([]int32, n)
	}
	t.gids = t.gids[:n]
	for ci, g := range t.groupBy {
		t.keyCols[ci] = resolveKey(b.Vecs[g])
	}
	hashKeys(t.gids, t.keyCols, sel)
	for k, h := range t.gids {
		r := k
		if sel != nil {
			r = int(sel[k])
		}
		t.gids[k] = t.groupOf(uint32(h), t.keyCols, r)
	}
}

// groupOf returns the id of the group whose key is row r of cols, which
// hashes to h, making it a new group if the table has not seen the key.
func (t *aggTable) groupOf(h uint32, cols []keyCol, r int) int32 {
	for i, gid := t.index.seek(t.index.home(h), h); ; i, gid = t.index.seek(i+1, h) {
		if gid < 0 {
			gid = t.newGroup(cols, r)
			t.index.put(i, h, gid)
			return gid
		}
		if t.sameKey(gid, cols, r) {
			return gid
		}
	}
}

// sameKey reports whether group gid's key is row r of cols, cell against
// cell. Stored float cells are canonical, so ±0 agree under == and a NaN
// matches the one stored NaN.
func (t *aggTable) sameKey(gid int32, cols []keyCol, r int) bool {
	for ci := range cols {
		c := &cols[ci]
		switch c.phys {
		case table.PhysInt:
			if t.keys[ci].I[gid] != c.i[r] {
				return false
			}
		case table.PhysFloat:
			if k, x := t.keys[ci].F[gid], c.f[r]; k != x && (k == k || x == x) {
				return false
			}
		default:
			if t.keys[ci].S[gid] != c.s[r] {
				return false
			}
		}
	}
	return true
}

// newGroup appends a group with the key in row r of cols and zero state.
func (t *aggTable) newGroup(cols []keyCol, r int) int32 {
	gid := int32(len(t.counts))
	for ci := range cols {
		switch c, k := &cols[ci], &t.keys[ci]; c.phys {
		case table.PhysInt:
			k.I = append(k.I, c.i[r])
		case table.PhysFloat:
			k.F = append(k.F, canonFloat(c.f[r]))
		default:
			k.S = append(k.S, c.s[r])
		}
	}
	t.counts = append(t.counts, 0)
	for ai := range t.aggs {
		t.aggs[ai].grow()
	}
	return gid
}

// partHashes returns, per group, the hash that names the group's merge
// partition: FNV-1a over the key's binary encoding — 8 little-endian bytes
// per int or float cell, uvarint length then bytes per string cell — which
// is what partitioned the merge when tables were keyed by that encoding,
// so every merge process folds the groups it always did and the model
// clock has not moved. The encoding itself is never built. Hashes are
// computed once per group and kept: every merge process reads them.
func (t *aggTable) partHashes() []uint32 {
	for g := len(t.parts); g < t.groups(); g++ {
		h := uint32(fnvOffset)
		for ci := range t.keys {
			switch k := &t.keys[ci]; k.Type.Physical() {
			case table.PhysInt:
				h = fnvUint64(h, uint64(k.I[g]))
			case table.PhysFloat:
				h = fnvUint64(h, math.Float64bits(k.F[g]))
			default:
				s := k.S[g]
				n := uint64(len(s))
				for ; n >= 0x80; n >>= 7 {
					h = (h ^ uint32(byte(n)|0x80)) * fnvPrime
				}
				h = (h ^ uint32(n)) * fnvPrime
				for i := 0; i < len(s); i++ {
					h = (h ^ uint32(s[i])) * fnvPrime
				}
			}
		}
		t.parts = append(t.parts, h)
	}
	return t.parts
}

// fnvUint64 folds the 8 little-endian bytes of x into the FNV-1a state h.
func fnvUint64(h uint32, x uint64) uint32 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint32(byte(x))) * fnvPrime
		x >>= 8
	}
	return h
}

// mergeFrom folds src's groups of partition part (of nparts) into t.
// Partial states combine exactly: counts and sums add, extrema compare,
// and Avg re-derives from the merged sum and count. Folding charges the
// merge work — one aggregate update per partial group per spec — to the
// calling (merge worker's) process. t files its groups under the partition
// hash: a table is fed by absorb or by mergeFrom, never both.
func (t *aggTable) mergeFrom(ctx *Ctx, src *aggTable, part, nparts uint32) {
	mask := nparts - 1
	folded := 0
	for ci := range src.keys {
		t.keyCols[ci] = resolveKey(&src.keys[ci])
	}
	for sg, h := range src.partHashes() {
		if h&mask != part {
			continue
		}
		folded++
		gid := t.groupOf(h, t.keyCols, sg)
		t.counts[gid] += src.counts[sg]
		for ai := range t.aggs {
			t.aggs[ai].mergeGroup(gid, &src.aggs[ai], int32(sg))
		}
	}
	ctx.ChargeRows(folded*max(1, len(t.specs)), ctx.Costs.AggCyclesPerRow)
}

// concat appends src's groups to t. The tables must be key-disjoint (they
// hold different partitions), so ids simply shift by t's group count. The
// result is for reading out: its index is not kept up.
func (t *aggTable) concat(src *aggTable) {
	for ci := range t.keys {
		t.keys[ci].AppendSlice(&src.keys[ci], 0, src.groups())
	}
	t.counts = append(t.counts, src.counts...)
	for ai := range t.aggs {
		t.aggs[ai].concat(&src.aggs[ai])
	}
}

// cmpKeys orders groups a and b by their key cells, column by column. The
// order is total — a NaN sorts after every number — and two groups never
// tie: their keys differ, and stored floats are canonical.
func (t *aggTable) cmpKeys(a, b int32) int {
	for ci := range t.keys {
		var c int
		switch k := &t.keys[ci]; k.Type.Physical() {
		case table.PhysInt:
			c = cmpOrd(k.I[a], k.I[b])
		case table.PhysFloat:
			x, y := k.F[a], k.F[b]
			if c = cmpOrd(x, y); x != x || y != y {
				c = cmpOrd(btoi(x != x), btoi(y != y))
			}
		default:
			c = cmpOrd(k.S[a], k.S[b])
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// aggCol is the columnar state of one aggregate spec, indexed by group id.
// It carries what its function reads at output and nothing else: a Sum the
// sum in the input column's class, an Avg the float sum, a Min or Max the
// extremum so far and whether there is one. A Count has no state here (the
// table counts rows once for every spec), nor has a Sum or Avg over a
// string column, which yields the zero value.
type aggCol struct {
	fn   AggFunc
	phys table.Phys
	sumI []int64   // Sum over an int column
	sumF []float64 // Sum over a float column; Avg over either
	extI []int64   // Min/Max, by the column's class
	extF []float64
	extS []string
	seen []bool // Min/Max: the group has an extremum
}

func (c *aggCol) grow() {
	switch {
	case c.fn == Sum && c.phys == table.PhysInt:
		c.sumI = append(c.sumI, 0)
	case (c.fn == Sum || c.fn == Avg) && c.phys != table.PhysString:
		c.sumF = append(c.sumF, 0)
	case c.fn == Min || c.fn == Max:
		switch c.phys {
		case table.PhysInt:
			c.extI = append(c.extI, 0)
		case table.PhysFloat:
			c.extF = append(c.extF, 0)
		default:
			c.extS = append(c.extS, "")
		}
		c.seen = append(c.seen, false)
	}
}

// update folds one input column into the per-group state, one typed loop
// per kind of state and physical class with no Value boxing. gids[k] is
// the group of logical row k; with a deferred selection the physical row
// is sel[k], read through in place rather than pre-gathered.
func (c *aggCol) update(v *table.Vector, gids []int32, sel []int32) {
	switch {
	case c.sumI != nil:
		addInto(c.sumI, v.I, gids, sel)
	case c.sumF != nil && c.phys == table.PhysInt:
		addInto(c.sumF, v.I, gids, sel)
	case c.sumF != nil:
		addInto(c.sumF, v.F, gids, sel)
	case c.seen != nil:
		switch c.phys {
		case table.PhysInt:
			updateExt(c.extI, c.seen, c.fn == Max, v.I, gids, sel)
		case table.PhysFloat:
			updateExt(c.extF, c.seen, c.fn == Max, v.F, gids, sel)
		default:
			updateExt(c.extS, c.seen, c.fn == Max, v.S, gids, sel)
		}
	}
}

// addInto adds vals, converted to the sums' type, into the per-group sums.
func addInto[S, T int64 | float64](sums []S, vals []T, gids, sel []int32) {
	for k, gid := range gids {
		r := k
		if sel != nil {
			r = int(sel[k])
		}
		sums[gid] += S(vals[r])
	}
}

// updateExt folds vals into the per-group extrema ext: maxima if wantMax,
// else minima.
func updateExt[T int64 | float64 | string](ext []T, seen []bool, wantMax bool, vals []T, gids, sel []int32) {
	for k, gid := range gids {
		r := k
		if sel != nil {
			r = int(sel[k])
		}
		foldExt(ext, seen, wantMax, gid, vals[r])
	}
}

// foldExt folds x into group gid's extremum.
func foldExt[T int64 | float64 | string](ext []T, seen []bool, wantMax bool, gid int32, x T) {
	if !seen[gid] {
		ext[gid], seen[gid] = x, true
	} else if wantMax && x > ext[gid] || !wantMax && x < ext[gid] {
		ext[gid] = x
	}
}

// mergeGroup folds src's partial state for group sg into t's group gid.
func (c *aggCol) mergeGroup(gid int32, src *aggCol, sg int32) {
	switch {
	case c.sumI != nil:
		c.sumI[gid] += src.sumI[sg]
	case c.sumF != nil:
		c.sumF[gid] += src.sumF[sg]
	case c.seen != nil && src.seen[sg]:
		switch c.phys {
		case table.PhysInt:
			foldExt(c.extI, c.seen, c.fn == Max, gid, src.extI[sg])
		case table.PhysFloat:
			foldExt(c.extF, c.seen, c.fn == Max, gid, src.extF[sg])
		default:
			foldExt(c.extS, c.seen, c.fn == Max, gid, src.extS[sg])
		}
	}
}

// concat appends src's per-group state (disjoint partitions, ids shift).
func (c *aggCol) concat(src *aggCol) {
	c.sumI = append(c.sumI, src.sumI...)
	c.sumF = append(c.sumF, src.sumF...)
	c.extI = append(c.extI, src.extI...)
	c.extF = append(c.extF, src.extF...)
	c.extS = append(c.extS, src.extS...)
	c.seen = append(c.seen, src.seen...)
}

// Next implements Operator.
func (h *HashAgg) Next(ctx *Ctx) (*table.Batch, error) {
	if h.next >= len(h.order) {
		// No input rows and no grouping: emit the global aggregate row.
		if h.next == 0 && len(h.GroupBy) == 0 && len(h.order) == 0 {
			h.next = 1
			b := table.NewBatch(h.schema, 1)
			h.appendEmptyRow(b)
			b.SetRows(1)
			return b, nil
		}
		return nil, nil
	}
	hi := h.next + ctx.VectorSize
	if hi > len(h.order) {
		hi = len(h.order)
	}
	b := table.NewBatch(h.schema, hi-h.next)
	gids := h.order[h.next:hi]
	for i := range h.tab.keys {
		b.Vecs[i].AppendGather(&h.tab.keys[i], gids)
	}
	for ai := range h.Aggs {
		h.appendAgg(b.Vecs[len(h.GroupBy)+ai], ai, gids)
	}
	b.SetRows(hi - h.next)
	h.next = hi
	return b, nil
}

// appendAgg appends spec ai's value for each of gids to out.
func (h *HashAgg) appendAgg(out *table.Vector, ai int, gids []int32) {
	c, counts := &h.tab.aggs[ai], h.tab.counts
	for _, gid := range gids {
		switch {
		case c.fn == Count:
			out.I = append(out.I, counts[gid])
		case c.sumI != nil:
			out.I = append(out.I, c.sumI[gid])
		case c.fn == Avg && c.sumF != nil && counts[gid] != 0:
			out.F = append(out.F, c.sumF[gid]/float64(counts[gid]))
		case c.fn == Sum && c.sumF != nil:
			out.F = append(out.F, c.sumF[gid])
		case c.extI != nil && c.seen[gid]:
			out.I = append(out.I, c.extI[gid])
		case c.extF != nil && c.seen[gid]:
			out.F = append(out.F, c.extF[gid])
		case c.extS != nil && c.seen[gid]:
			out.S = append(out.S, c.extS[gid])
		default:
			// An extremum nothing was folded into, or a Sum or Avg over
			// strings or over no rows: the zero value.
			out.Append(table.Value{Type: out.Type})
		}
	}
}

// appendEmptyRow emits the zero-group global aggregate (count 0, sum 0,
// zero-valued min/max) for aggregation over an empty input.
func (h *HashAgg) appendEmptyRow(b *table.Batch) {
	for ai, a := range h.Aggs {
		colType := h.schema.Cols[ai].Type
		switch a.Func {
		case Count:
			b.Vecs[ai].Append(table.IntVal(0))
		case Avg:
			b.Vecs[ai].Append(table.FloatVal(0))
		default:
			b.Vecs[ai].Append(table.Value{Type: colType})
		}
	}
}

// Close implements Operator.
func (h *HashAgg) Close(ctx *Ctx) error {
	h.tab = nil
	h.order = nil
	return nil
}

// GroupCount reports the number of groups after Open.
func (h *HashAgg) GroupCount() int { return len(h.order) }
