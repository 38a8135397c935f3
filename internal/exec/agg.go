package exec

import (
	"encoding/binary"
	"math"
	"sort"

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
// Output order is deterministic (sorted by group key values) so results
// are reproducible at any degree of parallelism.
//
// The input is a fragment set run under the barrier exchange: every
// fragment aggregates its share into a table of its own (HashAgg is the
// exchange's Sink), and a partition-wise merge phase — the binary group
// keys hash-partition the group space into disjoint slices, one merge
// process per partition — combines the partials. A serial plan is the set
// of one fragment: one table, drained inline, nothing to merge.
//
// Group keys are a collision-free binary encoding of the raw column
// values — fixed 8 bytes for int- and float-class columns, length-prefixed
// bytes for strings — built into a reused buffer, so the per-row path
// neither formats nor allocates. Aggregate state is columnar (one slice
// per aggregate, indexed by group id) and updated from the raw typed
// slices without boxing.
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
	h.order = make([]int32, len(h.tab.keys))
	for i := range h.order {
		h.order[i] = int32(i)
	}
	sort.Slice(h.order, func(x, y int) bool {
		a, b := h.tab.keys[h.order[x]], h.tab.keys[h.order[y]]
		for i := range a {
			if c := a[i].Compare(b[i]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

// mergePartitioned combines per-worker partial tables partition-wise: the
// binary group keys split the group space into ceilPow2(workers) disjoint
// partitions, one merge process per partition folds every worker's share
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
// grouping state: the group hash table, boxed output keys, and columnar
// per-group aggregate state.
type aggTable struct {
	groupBy []int
	specs   []AggSpec
	groups  map[string]int32 // encoded key -> group id
	encKeys []string         // per group: the collision-free binary key
	keys    [][]table.Value  // per group: boxed group-by values (output only)
	counts  []int64          // per group: row count
	aggs    []aggCol         // per spec: columnar state
	keyBuf  []byte           // reused per-row key encoding buffer
	gids    []int32          // reused per-batch group-id vector
	keyCols []keyCol         // reused per-batch resolved group columns
}

func newAggTable(ins *table.Schema, groupBy []int, specs []AggSpec) *aggTable {
	t := &aggTable{groupBy: groupBy, specs: specs,
		groups: make(map[string]int32), aggs: make([]aggCol, len(specs))}
	for ai, a := range specs {
		if a.Func != Count {
			t.aggs[ai].phys = ins.Cols[a.Col].Type.Physical()
		}
	}
	return t
}

// keyCol is a group column with its physical class and raw slices
// resolved once per batch, so the per-row key encoder does not re-dispatch
// on the column type.
type keyCol struct {
	phys table.Phys
	i    []int64
	f    []float64
	s    []string
}

// absorb folds one input batch into the table. A deferred upstream
// selection is read through, not compacted: the key encoder and the typed
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
// creating groups on first sight. The encoded key is injective: 8 fixed
// bytes per int/float column, uvarint length prefix + bytes per string
// column — two distinct key tuples can never encode to the same byte
// string (the old Value.String()+"\x00" scheme collided on strings
// containing NUL).
func (t *aggTable) assignGroups(b *table.Batch) {
	n := b.Rows()
	sel := b.Sel
	if cap(t.gids) < n {
		t.gids = make([]int32, n)
	}
	t.gids = t.gids[:n]
	// Hoist the per-column dispatch out of the row loop: resolve each
	// group column's physical class and raw slice once per batch.
	if t.keyCols == nil {
		t.keyCols = make([]keyCol, len(t.groupBy))
	}
	cols := t.keyCols
	for ci, g := range t.groupBy {
		v := b.Vecs[g]
		cols[ci] = keyCol{phys: v.Type.Physical(), i: v.I, f: v.F, s: v.S}
	}
	for k := 0; k < n; k++ {
		r := k
		if sel != nil {
			r = int(sel[k])
		}
		buf := t.keyBuf[:0]
		for _, c := range cols {
			switch c.phys {
			case table.PhysInt:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c.i[r]))
			case table.PhysFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.f[r]))
			default:
				s := c.s[r]
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		}
		t.keyBuf = buf
		gid, ok := t.groups[string(buf)] // compiler avoids the alloc on lookup
		if !ok {
			gid = t.newGroup(b, r, string(buf))
		}
		t.gids[k] = gid
	}
}

func (t *aggTable) newGroup(b *table.Batch, r int, key string) int32 {
	gid := int32(len(t.keys))
	t.groups[key] = gid
	t.encKeys = append(t.encKeys, key)
	kv := make([]table.Value, len(t.groupBy))
	for i, g := range t.groupBy {
		kv[i] = b.Vecs[g].Value(r)
	}
	t.keys = append(t.keys, kv)
	t.counts = append(t.counts, 0)
	for ai := range t.aggs {
		if t.specs[ai].Func != Count {
			t.aggs[ai].grow()
		}
	}
	return gid
}

// mergeFrom folds src's groups whose binary key hashes to partition part
// (of nparts) into t. Partial states combine exactly: counts and sums
// add, extrema compare, and Avg re-derives from the merged sum and count.
// Folding charges the merge work — one aggregate update per partial group
// per spec — to the calling (merge worker's) process.
func (t *aggTable) mergeFrom(ctx *Ctx, src *aggTable, part, nparts uint32) {
	mask := nparts - 1
	folded := 0
	for sg, key := range src.encKeys {
		if nparts > 1 && hashString(key)&mask != part {
			continue
		}
		folded++
		gid, ok := t.groups[key]
		if !ok {
			gid = int32(len(t.keys))
			t.groups[key] = gid
			t.encKeys = append(t.encKeys, key)
			t.keys = append(t.keys, src.keys[sg])
			t.counts = append(t.counts, 0)
			for ai := range t.aggs {
				if t.specs[ai].Func != Count {
					t.aggs[ai].grow()
				}
			}
		}
		t.counts[gid] += src.counts[sg]
		for ai := range t.aggs {
			if t.specs[ai].Func == Count {
				continue
			}
			t.aggs[ai].mergeGroup(gid, &src.aggs[ai], int32(sg))
		}
	}
	ctx.ChargeRows(folded*max(1, len(t.specs)), ctx.Costs.AggCyclesPerRow)
}

// concat appends src's groups to t. The tables must be key-disjoint (they
// hold different partitions), so ids simply shift by t's group count.
func (t *aggTable) concat(src *aggTable) {
	base := int32(len(t.keys))
	for sg, key := range src.encKeys {
		t.groups[key] = base + int32(sg)
	}
	t.encKeys = append(t.encKeys, src.encKeys...)
	t.keys = append(t.keys, src.keys...)
	t.counts = append(t.counts, src.counts...)
	for ai := range t.aggs {
		if t.specs[ai].Func != Count {
			t.aggs[ai].concat(&src.aggs[ai])
		}
	}
}

// aggCol is the columnar state of one aggregate spec, indexed by group id.
// Only the slices matching the input column's physical class are used.
type aggCol struct {
	phys table.Phys
	sumI []int64
	sumF []float64
	minI []int64
	maxI []int64
	minF []float64
	maxF []float64
	minS []string
	maxS []string
	seen []bool
}

func (c *aggCol) grow() {
	switch c.phys {
	case table.PhysInt:
		c.sumI = append(c.sumI, 0)
		c.sumF = append(c.sumF, 0)
		c.minI = append(c.minI, 0)
		c.maxI = append(c.maxI, 0)
	case table.PhysFloat:
		c.sumF = append(c.sumF, 0)
		c.minF = append(c.minF, 0)
		c.maxF = append(c.maxF, 0)
	default:
		// Sums stay allocated (and zero) so Sum/Avg over a string column
		// yields the zero value instead of panicking.
		c.sumI = append(c.sumI, 0)
		c.sumF = append(c.sumF, 0)
		c.minS = append(c.minS, "")
		c.maxS = append(c.maxS, "")
	}
	c.seen = append(c.seen, false)
}

// update folds one input column into the per-group state, one typed loop
// per physical class with no Value boxing. gids[k] is the group of logical
// row k; with a deferred selection the physical row is sel[k], read
// through in place rather than pre-gathered.
func (c *aggCol) update(v *table.Vector, gids []int32, sel []int32) {
	switch c.phys {
	case table.PhysInt:
		for k, gid := range gids {
			r := k
			if sel != nil {
				r = int(sel[k])
			}
			x := v.I[r]
			c.sumI[gid] += x
			c.sumF[gid] += float64(x)
			if !c.seen[gid] {
				c.minI[gid], c.maxI[gid] = x, x
				c.seen[gid] = true
			} else if x < c.minI[gid] {
				c.minI[gid] = x
			} else if x > c.maxI[gid] {
				c.maxI[gid] = x
			}
		}
	case table.PhysFloat:
		for k, gid := range gids {
			r := k
			if sel != nil {
				r = int(sel[k])
			}
			x := v.F[r]
			c.sumF[gid] += x
			if !c.seen[gid] {
				c.minF[gid], c.maxF[gid] = x, x
				c.seen[gid] = true
			} else if x < c.minF[gid] {
				c.minF[gid] = x
			} else if x > c.maxF[gid] {
				c.maxF[gid] = x
			}
		}
	default:
		for k, gid := range gids {
			r := k
			if sel != nil {
				r = int(sel[k])
			}
			x := v.S[r]
			if !c.seen[gid] {
				c.minS[gid], c.maxS[gid] = x, x
				c.seen[gid] = true
			} else if x < c.minS[gid] {
				c.minS[gid] = x
			} else if x > c.maxS[gid] {
				c.maxS[gid] = x
			}
		}
	}
}

// mergeGroup folds src's partial state for group sg into t's group gid.
func (c *aggCol) mergeGroup(gid int32, src *aggCol, sg int32) {
	switch c.phys {
	case table.PhysInt:
		c.sumI[gid] += src.sumI[sg]
		c.sumF[gid] += src.sumF[sg]
		if src.seen[sg] {
			if !c.seen[gid] {
				c.minI[gid], c.maxI[gid] = src.minI[sg], src.maxI[sg]
				c.seen[gid] = true
			} else {
				if src.minI[sg] < c.minI[gid] {
					c.minI[gid] = src.minI[sg]
				}
				if src.maxI[sg] > c.maxI[gid] {
					c.maxI[gid] = src.maxI[sg]
				}
			}
		}
	case table.PhysFloat:
		c.sumF[gid] += src.sumF[sg]
		if src.seen[sg] {
			if !c.seen[gid] {
				c.minF[gid], c.maxF[gid] = src.minF[sg], src.maxF[sg]
				c.seen[gid] = true
			} else {
				if src.minF[sg] < c.minF[gid] {
					c.minF[gid] = src.minF[sg]
				}
				if src.maxF[sg] > c.maxF[gid] {
					c.maxF[gid] = src.maxF[sg]
				}
			}
		}
	default:
		c.sumI[gid] += src.sumI[sg]
		c.sumF[gid] += src.sumF[sg]
		if src.seen[sg] {
			if !c.seen[gid] {
				c.minS[gid], c.maxS[gid] = src.minS[sg], src.maxS[sg]
				c.seen[gid] = true
			} else {
				if src.minS[sg] < c.minS[gid] {
					c.minS[gid] = src.minS[sg]
				}
				if src.maxS[sg] > c.maxS[gid] {
					c.maxS[gid] = src.maxS[sg]
				}
			}
		}
	}
}

// concat appends src's per-group state (disjoint partitions, ids shift).
func (c *aggCol) concat(src *aggCol) {
	c.sumI = append(c.sumI, src.sumI...)
	c.sumF = append(c.sumF, src.sumF...)
	c.minI = append(c.minI, src.minI...)
	c.maxI = append(c.maxI, src.maxI...)
	c.minF = append(c.minF, src.minF...)
	c.maxF = append(c.maxF, src.maxF...)
	c.minS = append(c.minS, src.minS...)
	c.maxS = append(c.maxS, src.maxS...)
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
	for _, gid := range h.order[h.next:hi] {
		h.appendRow(b, gid)
	}
	b.SetRows(hi - h.next)
	h.next = hi
	return b, nil
}

// appendRow boxes group gid into one output row (per group, not per input
// row, so boxing here is off the hot path).
func (h *HashAgg) appendRow(b *table.Batch, gid int32) {
	for i, v := range h.tab.keys[gid] {
		b.Vecs[i].Append(v)
	}
	for ai, a := range h.Aggs {
		colType := h.schema.Cols[len(h.GroupBy)+ai].Type
		c := &h.tab.aggs[ai]
		out := b.Vecs[len(h.GroupBy)+ai]
		switch a.Func {
		case Count:
			out.Append(table.IntVal(h.tab.counts[gid]))
		case Sum:
			if colType.Physical() == table.PhysFloat {
				out.Append(table.FloatVal(c.sumF[gid]))
			} else {
				out.Append(table.Value{Type: colType, I: c.sumI[gid]})
			}
		case Avg:
			if h.tab.counts[gid] == 0 {
				out.Append(table.FloatVal(0))
			} else {
				out.Append(table.FloatVal(c.sumF[gid] / float64(h.tab.counts[gid])))
			}
		case Min, Max:
			out.Append(c.extreme(a.Func, gid, colType))
		}
	}
}

// extreme boxes the min or max of group gid as a Value of type t, zero if
// the group saw no rows.
func (c *aggCol) extreme(f AggFunc, gid int32, t table.Type) table.Value {
	if !c.seen[gid] {
		return table.Value{Type: t}
	}
	switch c.phys {
	case table.PhysInt:
		if f == Min {
			return table.Value{Type: t, I: c.minI[gid]}
		}
		return table.Value{Type: t, I: c.maxI[gid]}
	case table.PhysFloat:
		if f == Min {
			return table.Value{Type: t, F: c.minF[gid]}
		}
		return table.Value{Type: t, F: c.maxF[gid]}
	default:
		if f == Min {
			return table.Value{Type: t, S: c.minS[gid]}
		}
		return table.Value{Type: t, S: c.maxS[gid]}
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
