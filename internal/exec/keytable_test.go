package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"energydb/internal/table"
)

// oldEncoding is the group-key encoder the aggregation used when its
// tables were keyed by an encoded string: 8 little-endian bytes per int or
// float cell, uvarint length then bytes per string cell. It survives here
// as the oracle: group identity is this encoding of the canonical cells,
// and a group's merge partition is FNV-1a over it.
func oldEncoding(b *table.Batch, cols []int, r int) string {
	var buf []byte
	for _, c := range cols {
		switch v := b.Vecs[c]; v.Type.Physical() {
		case table.PhysInt:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I[r]))
		case table.PhysFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(canonFloat(v.F[r])))
		default:
			buf = binary.AppendUvarint(buf, uint64(len(v.S[r])))
			buf = append(buf, v.S[r]...)
		}
	}
	return string(buf)
}

// keyStream decodes fuzz bytes into rows of 1–3 key columns whose types
// shape picks. Cells are drawn to repeat (small ints, a short list of
// floats, short strings) and to be awkward: ±0, two NaNs, subnormals,
// infinities, the empty string, strings with NULs, and raw 8-byte cells.
func keyStream(data []byte, shape uint8) *table.Batch {
	ncols := 1 + int(shape)%3
	cols := make([]table.Column, ncols)
	for c, s := 0, int(shape)/3; c < ncols; c, s = c+1, s/3 {
		cols[c] = table.Col(fmt.Sprintf("k%d", c), []table.Type{table.Int64, table.Float64, table.String}[s%3])
	}
	b := table.NewBatch(table.NewSchema("keys", cols...), 0)
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, math.Inf(1), math.MaxFloat64}
	rows := 0
	for len(data) > 0 {
		for _, v := range b.Vecs {
			var tag byte
			if len(data) > 0 {
				tag, data = data[0], data[1:]
			}
			raw := func() uint64 {
				var w [8]byte
				data = data[copy(w[:], data):]
				return binary.LittleEndian.Uint64(w[:])
			}
			switch v.Type.Physical() {
			case table.PhysInt:
				if tag&1 != 0 {
					v.I = append(v.I, int64(raw()))
				} else {
					v.I = append(v.I, int64(int8(tag))>>1)
				}
			case table.PhysFloat:
				if tag&1 != 0 {
					v.F = append(v.F, math.Float64frombits(raw()))
				} else {
					v.F = append(v.F, floats[int(tag>>1)%len(floats)])
				}
			default:
				n := min(int(tag)%4, len(data))
				v.S = append(v.S, string(data[:n]))
				data = data[n:]
			}
		}
		rows++
	}
	b.SetRows(rows)
	return b
}

// checkTable holds a keyTable to its invariants: a power-of-two slot
// count, at most half full, every id filed once and findable from its
// hash.
func checkTable(t *testing.T, kt *keyTable, ids int) {
	t.Helper()
	if n := len(kt.slots); n&(n-1) != 0 || uint32(n-1) != kt.mask || n>>(32-kt.shift) != 1 {
		t.Fatalf("table geometry: %d slots, mask %#x, shift %d", n, kt.mask, kt.shift)
	}
	if kt.n != ids || 2*kt.n > len(kt.slots) {
		t.Fatalf("table holds %d ids in %d slots, want %d and at most half full", kt.n, len(kt.slots), ids)
	}
	seen := map[int32]bool{}
	for _, s := range kt.slots {
		if s.ref == 0 {
			continue
		}
		if seen[s.ref-1] {
			t.Fatalf("id %d is filed twice", s.ref-1)
		}
		seen[s.ref-1] = true
		found := false
		for i, id := kt.seek(kt.home(s.hash), s.hash); id >= 0 && !found; i, id = kt.seek(i+1, s.hash) {
			found = id == s.ref-1
		}
		if !found {
			t.Fatalf("id %d is not reachable from its hash %#x", s.ref-1, s.hash)
		}
	}
}

// FuzzKeyTable files arbitrary key streams into the executor's hash table
// through both of its users and into Go maps, and holds them to each
// other. The aggregation must hand out the ids a map keyed by the old
// encoding of the canonical cells does, first-seen, whether rows arrive
// one batch at a time (so the table passes through every size) or under a
// constant hash (every key in one probe sequence). The join must list, for
// every key probed, the build rows a map[K][]int32 lists, ascending — at
// one partition and at four, and under the constant hash.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte("\x02\x04\x06\x02\x04\x08"), uint8(0), false)
	f.Add([]byte("\x00\x02\x04\x06\x00\x02\x05\x05"), uint8(3), false)                     // one float column
	f.Add([]byte("\x01a\x02a\x00\x00\x03\x00\x00\x00\x01a"), uint8(6), true)               // one string column, NULs
	f.Add([]byte("\x02\x00\x01a\x02\x02\x01a\x02\x04\x00"), uint8(2+3*(0+3*1+9*2)), false) // int, float, string
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, collide bool) {
		if len(data) > 1<<13 {
			t.Skip()
		}
		b := keyStream(data, shape)
		n := b.Rows()
		all := make([]int, len(b.Vecs))
		for c := range all {
			all[c] = c
		}

		// The aggregation: ids against the oracle's, a row at a time.
		want := map[string]int32{}
		agg := newAggTable(b.Schema, all, nil)
		row := &table.Batch{Schema: b.Schema, Vecs: b.Vecs}
		slots := len(agg.index.slots)
		for r := 0; r < n; r++ {
			key := oldEncoding(b, all, r)
			id, ok := want[key]
			if !ok {
				id = int32(len(want))
				want[key] = id
			}
			var got int32
			if collide {
				for c, v := range b.Vecs {
					agg.keyCols[c] = resolveKey(v)
				}
				got = agg.groupOf(42, agg.keyCols, r)
			} else {
				row.SetSel([]int32{int32(r)})
				agg.assignGroups(row)
				got = agg.gids[0]
			}
			if got != id {
				t.Fatalf("row %d: group %d, the oracle says %d", r, got, id)
			}
			if grown := len(agg.index.slots); grown != slots { // at every power of two
				if slots = grown; grown != 4*(len(want)-1) {
					t.Fatalf("row %d: the table grew to %d slots at %d groups", r, grown, len(want))
				}
				checkTable(t, &agg.index, len(want))
			}
		}
		checkTable(t, &agg.index, len(want))
		for c := range all {
			if agg.keys[c].Len() != len(want) {
				t.Fatalf("key column %d holds %d cells for %d groups", c, agg.keys[c].Len(), len(want))
			}
		}

		// The join, on the first column: the stream is both sides.
		for _, nparts := range []uint32{1, 4} {
			if collide && nparts > 1 {
				continue // a constant hash names one partition
			}
			switch kv := b.Vecs[0]; kv.Type.Physical() {
			case table.PhysInt:
				fuzzJoin(t, kv, kv.I, nparts, collide)
			case table.PhysFloat:
				fuzzJoin(t, kv, kv.F, nparts, collide)
			default:
				fuzzJoin(t, kv, kv.S, nparts, collide)
			}
		}
	})
}

// fuzzJoin builds the join's tables over keys the way runJoinBuild does —
// rows ordered by partition, one table and one span of the chain each —
// probes them with the same keys, and holds the matches to a Go map's.
func fuzzJoin[T comparable](t *testing.T, kv *table.Vector, keys []T, nparts uint32, collide bool) {
	hs := make([]int32, len(keys))
	if collide {
		for i := range hs {
			hs[i] = 42
		}
	} else {
		hashJoinKeys(hs, kv, 0, nil)
	}
	mask := nparts - 1
	var order []int32
	spans := make([][2]int, nparts)
	for p := range spans {
		spans[p][0] = len(order)
		for r, h := range hs {
			if uint32(h)&mask == uint32(p) {
				order = append(order, int32(r))
			}
		}
		spans[p][1] = len(order)
	}
	bkeys := make([]T, len(order))
	bs := &buildState{nparts: nparts, tabs: make([]keyTable, nparts), next: make([]int32, len(order))}
	want := map[T][]int32{}
	for i, r := range order {
		bkeys[i] = keys[r]
		bs.next[i] = hs[r]
		want[keys[r]] = append(want[keys[r]], int32(i))
	}
	for p, span := range spans {
		bs.tabs[p] = newKeyTable(span[1] - span[0])
		chainRows(&bs.tabs[p], bs.next, bkeys, span[0], span[1])
	}
	bsel, psel := probeRows(bs, bkeys, keys, hs, nil, nil, nil)
	got := map[int32][]int32{}
	for i, pi := range psel {
		if i > 0 && pi < psel[i-1] {
			t.Fatalf("probe rows out of order: %d after %d", pi, psel[i-1])
		}
		got[pi] = append(got[pi], bsel[i])
	}
	for pi, x := range keys {
		if !reflect.DeepEqual(got[int32(pi)], want[x]) {
			t.Fatalf("%d partitions: probe row %d (%v) matched build rows %v, a map says %v", nparts, pi, x, got[int32(pi)], want[x])
		}
	}
}

// TestMergePartitionIsTheOldEncodingsHash: mergeFrom sends each partial
// group to the partition FNV-1a over the old encoder's bytes names — the
// assignment the model clock was recorded under — and every group to
// exactly one.
func TestMergePartitionIsTheOldEncodingsHash(t *testing.T) {
	s := table.NewSchema("t",
		table.Col("i", table.Int64), table.Col("d", table.Date), table.Col("f", table.Float64),
		table.Col("s", table.String), table.Col("v", table.Int64))
	b := table.NewBatch(s, 0)
	strs := []string{"", "a", "a\x00", "\x00a", "BUILDING", string(make([]byte, 200))}
	for i := 0; i < 600; i++ {
		b.AppendRow(table.IntVal(int64(i%37)-18), table.DateVal(int64(9000+i%11)),
			table.FloatVal(float64(i%13)/4-1), table.StrVal(strs[i%len(strs)]), table.IntVal(int64(i)))
	}
	ctx := benchCtx()
	for _, groupBy := range [][]int{{0}, {1}, {2}, {3}, {0, 1, 0}, {3, 2}, {0, 1, 2, 3}} {
		src := newAggTable(s, groupBy, []AggSpec{{Func: Sum, Col: 4}})
		src.absorb(ctx, b)
		wantSum := map[string]int64{}
		for r := 0; r < b.Rows(); r++ {
			wantSum[oldEncoding(b, groupBy, r)] += b.Vecs[4].I[r]
		}
		for _, nparts := range []uint32{1, 2, 4, 8} {
			placed := 0
			for part := uint32(0); part < nparts; part++ {
				dst := newAggTable(s, groupBy, src.specs)
				dst.mergeFrom(ctx, src, part, nparts)
				keys := &table.Batch{Schema: s, Vecs: make([]*table.Vector, len(s.Cols))}
				for ci, g := range groupBy {
					keys.Vecs[g] = &dst.keys[ci]
				}
				for g := 0; g < dst.groups(); g++ {
					enc := oldEncoding(keys, groupBy, g)
					if p := hashString(enc) & (nparts - 1); p != part {
						t.Errorf("group by %v, %d partitions: a group of partition %d was merged into %d", groupBy, nparts, p, part)
					}
					if got := dst.aggs[0].sumI[g]; got != wantSum[enc] {
						t.Errorf("group by %v: a merged group sums to %d, want %d", groupBy, got, wantSum[enc])
					}
				}
				placed += dst.groups()
			}
			if placed != len(wantSum) {
				t.Errorf("group by %v, %d partitions: %d groups placed, want each of %d once", groupBy, nparts, placed, len(wantSum))
			}
		}
	}
}

// TestGroupByFloatZeroNaN: a float group column holding +0.0, -0.0 and
// NaNs of two bit patterns among ordinary keys groups ±0 together — the
// equality the join uses — and all NaNs together, and the output order is
// total: ascending, the NaN group last, the same rows at every DOP. (Keys
// used to be the raw bits: three groups for those values, which the output
// comparison called equal, so their order was whatever the sort was
// handed.)
func TestGroupByFloatZeroNaN(t *testing.T) {
	s := table.NewSchema("t", table.Col("pad", table.Int64), table.Col("g", table.Float64), table.Col("v", table.Int64))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000abc)}
	tab := table.NewTable(s)
	for i := 0; i < 8192; i++ {
		g := float64(i%7) - 3.5 // ordinary keys either side of zero
		if i%3 == 0 {
			g = special[(i/3)%len(special)]
		}
		tab.AppendRow(table.IntVal(int64(i)), table.FloatVal(g), table.IntVal(1))
	}
	specs := []AggSpec{{Func: Count, As: "n"}, {Func: Sum, Col: 1, As: "s"}}
	var first *table.Table
	for _, dop := range []int{1, 2, 4, 8} {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 512, rawCodecs(3))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			frags, q := colScanFrags(st, []int{1, 2}, []int{0, 1}, nil, dop, 1)
			got, err = Collect(ctx, partitionedAgg(frags, q, []int{0}, specs))
			if err != nil {
				t.Error(err)
			}
		})
		if got == nil {
			return
		}
		g, n := got.Column(0).F, got.Column(1).I
		if len(g) != 9 { // seven ordinary keys, zero, NaN
			t.Fatalf("dop %d: %d groups %v, want 9", dop, len(g), g)
		}
		var rows int64
		for i := range g {
			rows += n[i]
			switch {
			case i == len(g)-1:
				if g[i] == g[i] || math.Float64bits(g[i]) != math.Float64bits(math.NaN()) {
					t.Errorf("dop %d: the last group is %v (%#x), want the one NaN", dop, g[i], math.Float64bits(g[i]))
				}
			case i > 0 && !(g[i-1] < g[i]):
				t.Errorf("dop %d: group %d (%v) does not sort after group %d (%v)", dop, i, g[i], i-1, g[i-1])
			}
			if g[i] == 0 && math.Signbit(g[i]) {
				t.Errorf("dop %d: the zero group's key is -0.0", dop)
			}
		}
		if rows != 8192 {
			t.Errorf("dop %d: the groups count %d rows, want 8192", dop, rows)
		}
		if first == nil {
			first = got
		} else if fingerprint64(first) != fingerprint64(got) {
			t.Errorf("dop %d: the result differs from dop 1's", dop)
		}
	}
}

// TestHashTablesAllocatePerTable pins what the tables cost in objects: a
// join build over 65 536 distinct keys and an aggregation into 65 536
// groups allocate by the doubling of a handful of flat arrays — O(log n)
// objects, where a map to row lists and a string and a boxed tuple per
// group allocated two or three per key.
func TestHashTablesAllocatePerTable(t *testing.T) {
	const n = 1 << 16
	keys := benchInts(n)
	ctx := benchCtx()
	build := testing.AllocsPerRun(3, func() {
		sb := NewSharedBuild(OneFragment(&Values{Tab: keys}), 0, 1)
		bs, err := sb.acquire(ctx)
		if err != nil || bs.buildB.Rows() != n {
			t.Errorf("build: %v, err %v", bs, err)
		}
		sb.release()
	})
	// 39 here, 65 831 at f425ea0: the row store adopts the one partition's
	// rows (two columns grown by appending), and the index is two arrays,
	// the table and the chain.
	if build > 64 {
		t.Errorf("a join build over %d distinct keys allocates %.0f objects, want O(log n)", n, build)
	}
	agg := testing.AllocsPerRun(3, func() {
		h := NewHashAgg(OneFragment(&Values{Tab: keys}), []int{0}, []AggSpec{{Func: Count}, {Func: Sum, Col: 1}})
		if err := h.Open(ctx); err != nil || h.GroupCount() != n {
			t.Errorf("%d groups, err %v, want %d", h.GroupCount(), err, n)
		}
		h.Close(ctx)
	})
	// 111 here, 131 828 at f425ea0: three per-group arrays (key, count,
	// sum) each grown by appending from nothing — 30-odd steps apiece to
	// 65 536, which is what keeps this above 64 — the index doubling from 8
	// slots (14 steps), and the output order.
	if agg > 128 {
		t.Errorf("an aggregation into %d groups allocates %.0f objects, want O(log n)", n, agg)
	}
	t.Logf("join build %.0f objects, aggregation %.0f", build, agg)
}
