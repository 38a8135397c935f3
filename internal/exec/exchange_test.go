package exec

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"energydb/internal/energy"
	"energydb/internal/table"
)

// colScanFrags builds dop column-scan fragments sharing one morsel
// dispenser, ready to wire under any exchange (Parallel merge, partitioned
// agg, partitioned join build). newPred builds a fresh predicate per
// fragment; nil means no predicate.
func colScanFrags(st *StoredTable, readCols, emit []int, newPred func() Pred, dop, morselBlocks int) ([]Operator, *Morsels) {
	q := NewMorsels(st.NumBlocks(), morselBlocks)
	frags := make([]Operator, dop)
	for i := range frags {
		var p Pred
		if newPred != nil {
			p = newPred()
		}
		cs := NewColumnScan(st, readCols, emit, p)
		cs.Morsels = q
		frags[i] = cs
	}
	return frags, q
}

// partitionedAgg is the aggregation over frags sharing q.
func partitionedAgg(frags []Operator, q *Morsels, groupBy []int, aggs []AggSpec) *HashAgg {
	return NewHashAgg(NewFragments(frags, q, nil), groupBy, aggs)
}

// partitionedJoin is the hash join whose build side runs as frags sharing
// q, hash-partitioned partitions ways.
func partitionedJoin(frags []Operator, q *Morsels, probe Operator, buildKey, probeKey, partitions int) *Prober {
	return NewProber(NewSharedBuild(NewFragments(frags, q, nil), buildKey, partitions), probe, probeKey)
}

// anchor is what one pipeline shape measured at the commit before serial
// execution became the one-fragment case of the fragment runner (8065757),
// on newParRig(4, 3) over ordersLike placed column-major in 1024-row raw
// blocks: simulated seconds and wall-meter joules as float64 bits, and
// fingerprint64 of the collected result. Serial and DOP-1 forms are one
// code path now, so comparing them with each other proves nothing; these
// constants are the outside reference that trips if the inline path
// drifts.
type anchor struct{ elapsed, joules, fp uint64 }

var parentAnchors = map[string]anchor{
	"agg":       {0x3f7e2574df55c12e, 0x3fd6222f51b58da1, 0xa570c0f29984261f},
	"joinbuild": {0x3f7460728f1c45ba, 0x3fcdc7c4eccb3691, 0x7c34e1e7d919d4e4},
	"filter":    {0x3f6e39848ea32411, 0x3fc694c54975bfce, 0x4f1de9d21fdcc42b},
	"probe":     {0x3f74548757b99149, 0x3fcd9e6eb22bfe58, 0xfad45a014ad326d6},
	"sort":      {0x3f7687ee970e2d18, 0x3fd0d9440bc4cd85, 0x3db145873d436ade},
}

// fingerprint64 hashes a result row by row, column by column, with full
// float bits.
func fingerprint64(tab *table.Table) uint64 {
	h := fnv.New64a()
	for i := 0; i < tab.Rows(); i++ {
		for c := range tab.Schema.Cols {
			switch v := tab.Column(c); {
			case v.I != nil:
				fmt.Fprintf(h, "%d|", v.I[i])
			case v.F != nil:
				fmt.Fprintf(h, "%x|", math.Float64bits(v.F[i]))
			default:
				fmt.Fprintf(h, "%s|", v.S[i])
			}
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// checkAnchor runs mk's pipeline over a fresh placement of ordersLike(rows)
// and holds its model clock and result to the named parent anchor.
func checkAnchor(t *testing.T, name, form string, rows int, mk func(st *StoredTable) Operator) {
	t.Helper()
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(ordersLike(rows), r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	var got *table.Table
	elapsed := r.run(t, func(ctx *Ctx) {
		if got, err = Collect(ctx, mk(st)); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		return
	}
	joules := float64(r.meter.TotalEnergy(energy.Seconds(elapsed)))
	want := parentAnchors[name]
	if math.Float64bits(elapsed) != want.elapsed || math.Float64bits(joules) != want.joules {
		t.Errorf("%s/%s: model clock %.9f s %.9f J, parent recorded %.9f s %.9f J", name, form,
			elapsed, joules, math.Float64frombits(want.elapsed), math.Float64frombits(want.joules))
	}
	if fp := fingerprint64(got); fp != want.fp {
		t.Errorf("%s/%s: result fingerprint %#x, parent recorded %#x", name, form, fp, want.fp)
	}
	if live := r.eng.Live(); live != 0 {
		t.Errorf("%s/%s: %d processes still live", name, form, live)
	}
}

// TestMorselTailDistribution pins the skew-aware sizing: full-size morsels
// until fewer than two remain, then claims halve so the tail tapers and
// the final claims are small; coverage is exact and in order.
func TestMorselTailDistribution(t *testing.T) {
	m := NewMorsels(64, 4)
	var sizes []int
	next := 0
	for {
		lo, hi, ok := m.Claim()
		if !ok {
			break
		}
		if lo != next {
			t.Fatalf("claim starts at %d, want %d (gap or overlap)", lo, next)
		}
		if hi <= lo {
			t.Fatalf("empty claim [%d, %d)", lo, hi)
		}
		sizes = append(sizes, hi-lo)
		next = hi
	}
	if next != 64 {
		t.Fatalf("claims cover [0, %d), want [0, 64)", next)
	}
	// 14 full morsels (56 blocks), then the tail halves: 4, 2, 1, 1.
	want := []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 2, 1, 1}
	if len(sizes) != len(want) {
		t.Fatalf("claim sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("claim %d size %d, want %d (%v)", i, sizes[i], want[i], sizes)
		}
	}
	// A whole-range dispenser (the serial scan's private one) is exempt:
	// one claim, no tail split.
	s := NewMorsels(10, 10)
	if lo, hi, ok := s.Claim(); !ok || lo != 0 || hi != 10 {
		t.Fatalf("serial dispenser claim = [%d, %d) ok=%v, want [0, 10)", lo, hi, ok)
	}
	if _, _, ok := s.Claim(); ok {
		t.Fatal("serial dispenser handed out a second claim")
	}
	// After Reset all blocks are claimable again.
	m.Reset()
	if lo, hi, ok := m.Claim(); !ok || lo != 0 || hi != 4 {
		t.Fatalf("post-reset claim = [%d, %d) ok=%v, want [0, 4)", lo, hi, ok)
	}
}

// aggSpecsExact are aggregate specs whose results are independent of
// accumulation order (integer sums, extrema, averages of integers), so
// serial and partitioned plans must agree exactly at any DOP.
func aggSpecsExact() []AggSpec {
	return []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Col: 1, As: "sum_cust"},  // o_custkey (int)
		{Func: Min, Col: 3, As: "min_price"}, // o_totalprice (float)
		{Func: Max, Col: 3, As: "max_price"},
		{Func: Avg, Col: 1, As: "avg_cust"},
	}
}

// TestPartitionedAggMatchesSerial: the partitioned parallel aggregation
// must produce exactly the serial HashAgg's output (same groups, same
// values, same deterministic order) at every DOP.
func TestPartitionedAggMatchesSerial(t *testing.T) {
	tab := ordersLike(20000)
	read := []int{0, 1, 2, 3} // o_orderkey, o_custkey, o_orderstatus, o_totalprice
	emit := []int{0, 1, 2, 3}
	newPred := func() Pred {
		return &ColConst{Col: 3, Op: Lt, Val: table.FloatVal(80000)}
	}
	groupBy := []int{2} // o_orderstatus

	serial := func() *table.Table {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			agg := NewHashAgg(OneFragment(NewColumnScan(st, read, emit, newPred())), groupBy, aggSpecsExact())
			got, err = Collect(ctx, agg)
			if err != nil {
				t.Error(err)
			}
		})
		return got
	}()

	for _, dop := range []int{1, 2, 4} {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			frags, q := colScanFrags(st, read, emit, newPred, dop, 2)
			agg := partitionedAgg(frags, q, groupBy, aggSpecsExact())
			got, err = Collect(ctx, agg)
			if err != nil {
				t.Error(err)
			}
		})
		tablesEqual(t, serial, got)
		if live := r.eng.Live(); live != 0 {
			t.Fatalf("dop=%d: %d processes still live", dop, live)
		}
	}
}

// TestOneFragmentAggMatchesParent: the aggregation over one fragment —
// the serial scan, or a lone fragment claiming from a dispenser —
// reproduces what the parent's serial HashAgg measured, order-sensitive
// float sum included.
func TestOneFragmentAggMatchesParent(t *testing.T) {
	specs := []AggSpec{
		{Func: Sum, Col: 1, As: "sum_price"}, // float sum: order-sensitive
		{Func: Count, As: "n"},
	}
	read, emit := []int{1, 3, 5}, []int{0, 1, 2} // o_custkey, o_totalprice, o_orderpriority
	checkAnchor(t, "agg", "serial", 12000, func(st *StoredTable) Operator {
		return NewHashAgg(OneFragment(NewColumnScan(st, read, emit, nil)), []int{2}, specs)
	})
	checkAnchor(t, "agg", "dispenser", 12000, func(st *StoredTable) Operator {
		frags, q := colScanFrags(st, read, emit, nil, 1, 2)
		return partitionedAgg(frags, q, []int{2}, specs)
	})
}

// TestPartitionedAggEmptyInput: a partitioned aggregation over an empty
// table yields no groups with GROUP BY, and the single zero row without.
func TestPartitionedAggEmptyInput(t *testing.T) {
	empty := table.NewTable(ordersLike(0).Schema)
	for _, grouped := range []bool{true, false} {
		r := newParRig(4, 2)
		st, err := PlaceColumnMajor(empty, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, 4, 2)
			var gb []int
			if grouped {
				gb = []int{0}
			}
			agg := partitionedAgg(frags, q, gb, []AggSpec{{Func: Count, As: "n"}, {Func: Sum, Col: 1, As: "s"}})
			got, err = Collect(ctx, agg)
			if err != nil {
				t.Error(err)
			}
		})
		want := 0
		if !grouped {
			want = 1 // the global zero row
		}
		if got.Rows() != want {
			t.Fatalf("grouped=%v: rows = %d, want %d", grouped, got.Rows(), want)
		}
		if !grouped && got.Column(0).I[0] != 0 {
			t.Fatalf("global count over empty input = %d, want 0", got.Column(0).I[0])
		}
		if live := r.eng.Live(); live != 0 {
			t.Fatalf("%d processes still live", live)
		}
	}
}

// TestPartitionedAggDeterministic: same program, same seeds → bit-identical
// results, simulated elapsed time and energy across runs.
func TestPartitionedAggDeterministic(t *testing.T) {
	tab := ordersLike(15000)
	run := func() (float64, energy.Joules, *table.Table) {
		r := newParRig(4, 3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		elapsed := r.run(t, func(ctx *Ctx) {
			frags, q := colScanFrags(st, []int{1, 2, 3}, []int{0, 1, 2}, func() Pred {
				return &ColConst{Col: 2, Op: Gt, Val: table.FloatVal(20000)}
			}, 4, 2)
			agg := partitionedAgg(frags, q, []int{1}, aggSpecsExact2())
			got, err = Collect(ctx, agg)
			if err != nil {
				t.Error(err)
			}
		})
		return elapsed, r.meter.TotalEnergy(energy.Seconds(elapsed)), got
	}
	t1, e1, tab1 := run()
	t2, e2, tab2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%.9fs, %.6fJ) vs (%.9fs, %.6fJ)", t1, float64(e1), t2, float64(e2))
	}
	tablesEqual(t, tab1, tab2)
}

// aggSpecsExact2 matches the 3-column read set of the determinism test
// (cols: o_custkey, o_orderstatus, o_totalprice).
func aggSpecsExact2() []AggSpec {
	return []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Col: 0, As: "s"},
		{Func: Min, Col: 2, As: "lo"},
		{Func: Max, Col: 2, As: "hi"},
	}
}

// TestPartitionedAggEarlyCloseUnderLimit: a LIMIT above the aggregation
// closes it before the output drains; every worker and merge process must
// already have exited (the barrier exchange completes inside Open).
func TestPartitionedAggEarlyCloseUnderLimit(t *testing.T) {
	tab := ordersLike(15000)
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, 4, 2)
		agg := partitionedAgg(frags, q, []int{1}, []AggSpec{{Func: Count, As: "n"}})
		n, err := RowCount(ctx, &Limit{In: agg, N: 3})
		if err != nil {
			t.Error(err)
		}
		if n != 3 {
			t.Errorf("got %d rows, want 3", n)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live after early close", live)
	}
}

// TestPartitionedAggChargesManyCores: the fragment workers must charge
// their own cores — realised concurrency, not just planned DOP.
func TestPartitionedAggChargesManyCores(t *testing.T) {
	tab := ordersLike(20000)
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, 4, 2)
		agg := partitionedAgg(frags, q, []int{1}, []AggSpec{{Func: Sum, Col: 0, As: "s"}})
		if _, err := RowCount(ctx, agg); err != nil {
			t.Error(err)
		}
	})
	if peak := r.cpu.PeakBusyCores(); peak < 2 {
		t.Fatalf("peak busy cores = %d, want >= 2 (workers did not run concurrently)", peak)
	}
}

// TestPartitionedAggFragmentError: a fragment failing mid-stream must
// surface its error from Open and leave no live process.
func TestPartitionedAggFragmentError(t *testing.T) {
	tab := ordersLike(20000)
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		q := NewMorsels(st.NumBlocks(), 2)
		frags := []Operator{
			&errAfterOne{sch: table.NewSchema("orders", tab.Schema.Cols[0])},
		}
		for i := 0; i < 3; i++ {
			cs := NewColumnScan(st, []int{0}, []int{0}, nil)
			cs.Morsels = q
			frags = append(frags, cs)
		}
		agg := partitionedAgg(frags, q, nil, []AggSpec{{Func: Count, As: "n"}})
		_, err := Run(ctx, agg)
		if !errors.Is(err, errExploded) {
			t.Errorf("err = %v, want fragment error", err)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live after fragment error", live)
	}
}

// joinFixture builds a dimension table whose keys cover a quarter of the
// orders key space, so joins produce a deterministic, non-trivial match set.
func joinFixture(n int) *table.Table {
	s := table.NewSchema("dim", table.Col("d_key", table.Int64), table.Col("d_tag", table.String))
	d := table.NewTable(s)
	for i := 1; i <= n; i += 4 {
		d.AppendRow(table.IntVal(int64(i)), table.StrVal("t"))
	}
	return d
}

// TestPartitionedJoinBuildMatchesSerial: the partitioned parallel build
// must join exactly the serial HashJoin's rows at every DOP (row order may
// differ: build rows regroup by partition, so compare sorted).
func TestPartitionedJoinBuildMatchesSerial(t *testing.T) {
	orders := ordersLike(16000)
	dim := joinFixture(16000)
	read := []int{0, 3} // o_orderkey, o_totalprice
	emit := []int{0, 1}

	serial := func() *table.Table {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(orders, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		var sch *table.Schema
		r.run(t, func(ctx *Ctx) {
			j := NewHashJoin(NewColumnScan(st, read, emit, nil), &Values{Tab: dim}, 0, 0)
			sch = j.Schema()
			batches, err := Run(ctx, j)
			if err != nil {
				t.Error(err)
				return
			}
			got = flattenSorted(t, sch, batches, 0)
		})
		return got
	}()

	for _, dop := range []int{1, 2, 4} {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(orders, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			frags, q := colScanFrags(st, read, emit, nil, dop, 2)
			j := partitionedJoin(frags, q, &Values{Tab: dim}, 0, 0, dop)
			batches, err := Run(ctx, j)
			if err != nil {
				t.Error(err)
				return
			}
			got = flattenSorted(t, j.Schema(), batches, 0)
		})
		tablesEqual(t, serial, got)
		if live := r.eng.Live(); live != 0 {
			t.Fatalf("dop=%d: %d processes still live", dop, live)
		}
	}
}

// TestOneFragmentJoinBuildMatchesParent: one build fragment, one
// partition reproduces the parent's serial HashJoin, output order
// included; so does the sort above one scan.
func TestOneFragmentJoinBuildMatchesParent(t *testing.T) {
	read, emit := []int{0, 3}, []int{0, 1}
	dim := joinFixture(8000)
	checkAnchor(t, "joinbuild", "serial", 8000, func(st *StoredTable) Operator {
		return NewHashJoin(NewColumnScan(st, read, emit, nil), &Values{Tab: dim}, 0, 0)
	})
	checkAnchor(t, "joinbuild", "dispenser", 8000, func(st *StoredTable) Operator {
		frags, q := colScanFrags(st, read, emit, nil, 1, 2)
		return partitionedJoin(frags, q, &Values{Tab: dim}, 0, 0, 1)
	})
	checkAnchor(t, "sort", "serial", 8000, func(st *StoredTable) Operator {
		return &Sort{In: NewColumnScan(st, read, emit, nil), Keys: []SortKey{{Col: 1, Desc: true}}}
	})
}

// TestPartitionedJoinEmptyBuild: an empty build side joins to nothing and
// leaves no live process at any DOP.
func TestPartitionedJoinEmptyBuild(t *testing.T) {
	empty := table.NewTable(ordersLike(0).Schema)
	dim := joinFixture(1000)
	r := newParRig(4, 2)
	st, err := PlaceColumnMajor(empty, r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		frags, q := colScanFrags(st, []int{0}, []int{0}, nil, 4, 2)
		j := partitionedJoin(frags, q, &Values{Tab: dim}, 0, 0, 4)
		n, err := RowCount(ctx, j)
		if err != nil {
			t.Error(err)
		}
		if n != 0 {
			t.Errorf("empty build joined %d rows", n)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live", live)
	}
}

// TestPartitionedJoinEarlyCloseUnderLimit: LIMIT above the join closes it
// mid-probe; the build workers finished in Open and the probe holds no
// processes, so the engine must drain clean.
func TestPartitionedJoinEarlyCloseUnderLimit(t *testing.T) {
	orders := ordersLike(16000)
	dim := joinFixture(16000)
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(orders, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		frags, q := colScanFrags(st, []int{0, 3}, []int{0, 1}, nil, 4, 2)
		j := partitionedJoin(frags, q, &Values{Tab: dim}, 0, 0, 4)
		n, err := RowCount(ctx, &Limit{In: j, N: 50})
		if err != nil {
			t.Error(err)
		}
		if n != 50 {
			t.Errorf("got %d rows, want 50", n)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live after early close", live)
	}
}

// TestPartitionedJoinDeterministic: repeated runs produce identical
// timing, energy and (sorted) results.
func TestPartitionedJoinDeterministic(t *testing.T) {
	orders := ordersLike(12000)
	dim := joinFixture(12000)
	run := func() (float64, energy.Joules, *table.Table) {
		r := newParRig(4, 3)
		st, err := PlaceColumnMajor(orders, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		elapsed := r.run(t, func(ctx *Ctx) {
			frags, q := colScanFrags(st, []int{0, 3}, []int{0, 1}, nil, 4, 2)
			j := partitionedJoin(frags, q, &Values{Tab: dim}, 0, 0, 4)
			batches, err := Run(ctx, j)
			if err != nil {
				t.Error(err)
				return
			}
			got = flattenSorted(t, j.Schema(), batches, 0)
		})
		return elapsed, r.meter.TotalEnergy(energy.Seconds(elapsed)), got
	}
	t1, e1, tab1 := run()
	t2, e2, tab2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%.9fs, %.6fJ) vs (%.9fs, %.6fJ)", t1, float64(e1), t2, float64(e2))
	}
	tablesEqual(t, tab1, tab2)
}

// TestPartitionedJoinNegativeZeroKey: Go map equality treats +0.0 and
// -0.0 as the same key, so the partition hash must collapse them too — a
// partitioned build filing 0.0 must be found by a probe carrying -0.0,
// exactly as the serial single-map join does.
func TestPartitionedJoinNegativeZeroKey(t *testing.T) {
	negZeroHash := hashFloat64(math.Copysign(0, -1))
	if hashFloat64(0) != negZeroHash {
		t.Fatalf("hashFloat64(+0)=%#x != hashFloat64(-0)=%#x: ±0 must share a partition", hashFloat64(0), negZeroHash)
	}
	fs := table.NewSchema("fkeys", table.Col("k", table.Float64), table.Col("v", table.Int64))
	build := table.NewTable(fs)
	probe := table.NewTable(fs)
	negZero := math.Copysign(0, -1)
	for i := 0; i < 64; i++ {
		build.AppendRow(table.FloatVal(float64(i)), table.IntVal(int64(i)))
		probe.AppendRow(table.FloatVal(float64(i)), table.IntVal(int64(i)))
	}
	build.AppendRow(table.FloatVal(0), table.IntVal(1000))       // +0.0 on the build side
	probe.AppendRow(table.FloatVal(negZero), table.IntVal(2000)) // -0.0 probes it

	count := func(mk func() *Prober) int64 {
		r := newParRig(4, 2)
		var n int64
		r.run(t, func(ctx *Ctx) {
			var err error
			n, err = RowCount(ctx, mk())
			if err != nil {
				t.Error(err)
			}
		})
		return n
	}
	serial := count(func() *Prober {
		return NewHashJoin(&Values{Tab: build}, &Values{Tab: probe}, 0, 0)
	})
	// Values doesn't morsel, so fragments must cover disjoint row sets:
	// one real fragment plus one over an empty table keeps the build rows
	// exact while still exercising the multi-fragment, multi-partition path.
	par := count(func() *Prober {
		empty := table.NewTable(fs)
		frags := []Operator{&Values{Tab: build}, &Values{Tab: empty}}
		return partitionedJoin(frags, nil, &Values{Tab: probe}, 0, 0, 4)
	})
	if serial != par {
		t.Fatalf("partitioned join found %d rows, serial %d (±0.0 keys must match)", par, serial)
	}
	// Both must include the ±0.0 match: 64 diagonal matches + the zero-key
	// cross matches (+0.0 build row also matches the probe's k=0 row, etc.).
	if serial < 65 {
		t.Fatalf("serial join found %d rows, want >= 65", serial)
	}
}
