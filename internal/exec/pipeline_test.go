package exec

import (
	"errors"
	"testing"

	"energydb/internal/table"
)

// This file tests the fragmented whole-pipeline shapes: Filter fragments
// and hash-join Probers running under the Parallel merge. The serial
// operators are the reference; DOP 1 must reproduce them bit for bit (a
// single fragment drains morsels in serial order), and any DOP must
// reproduce the same multiset of rows.

// filterFrags builds dop Filter-over-scan fragments sharing one morsel
// dispenser — the exec shape the optimizer's PFilter.BuildFragments
// produces. Each fragment gets fresh predicate scratch (fragments run
// concurrently and must not share mutable state).
func filterFrags(st *StoredTable, readCols, emit []int, newPred func() Pred, dop, morselBlocks int) ([]Operator, *Morsels) {
	frags, q := colScanFrags(st, readCols, emit, nil, dop, morselBlocks)
	for i := range frags {
		frags[i] = &Filter{In: frags[i], Pred: newPred()}
	}
	return frags, q
}

// TestOneFragmentFilterMatchesParent: one filter fragment — the serial
// pipeline, or the same fragment in a worker under the Parallel merge —
// feeds the aggregation above it exactly what the parent's serial pipeline
// did, order-sensitive float sum included.
func TestOneFragmentFilterMatchesParent(t *testing.T) {
	read, emit := []int{1, 3}, []int{0, 1} // o_custkey, o_totalprice
	newPred := func() Pred {
		return &ColConst{Col: 1, Op: Lt, Val: table.FloatVal(70000)}
	}
	specs := []AggSpec{
		{Func: Sum, Col: 1, As: "sum_price"}, // float sum: order-sensitive
		{Func: Count, As: "n"},
	}
	checkAnchor(t, "filter", "serial", 12000, func(st *StoredTable) Operator {
		in := &Filter{In: NewColumnScan(st, read, emit, nil), Pred: newPred()}
		return NewHashAgg(OneFragment(in), []int{0}, specs)
	})
	checkAnchor(t, "filter", "merge", 12000, func(st *StoredTable) Operator {
		frags, q := filterFrags(st, read, emit, newPred, 1, 2)
		return NewHashAgg(OneFragment(NewParallel(NewFragments(frags, q))), []int{0}, specs)
	})
}

// TestParallelFilterMatchesSerialAnyDOP: fragmented filter pipelines at
// DOP 2, 4, 8 must aggregate to exactly the serial results (the specs are
// accumulation-order independent) and leave no live process.
func TestParallelFilterMatchesSerialAnyDOP(t *testing.T) {
	tab := ordersLike(20000)
	read := []int{0, 1, 2, 3}
	emit := []int{0, 1, 2, 3}
	newPred := func() Pred {
		return &ColConst{Col: 3, Op: Gt, Val: table.FloatVal(30000)}
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
			f := &Filter{In: NewColumnScan(st, read, emit, nil), Pred: newPred()}
			got, err = Collect(ctx, NewHashAgg(OneFragment(f), groupBy, aggSpecsExact()))
			if err != nil {
				t.Error(err)
			}
		})
		return got
	}()

	for _, dop := range []int{2, 4, 8} {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			frags, q := filterFrags(st, read, emit, newPred, dop, 2)
			got, err = Collect(ctx, NewHashAgg(OneFragment(NewParallel(NewFragments(frags, q))), groupBy, aggSpecsExact()))
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

// proberFrags builds dop Probers over scan fragments sharing one morsel
// dispenser, all probing one shared build of dim — the exec shape
// PJoin.BuildFragments produces.
func proberFrags(st *StoredTable, dim *table.Table, readCols, emit []int, probeKey, dop, morselBlocks int) ([]Operator, *Morsels) {
	frags, q := colScanFrags(st, readCols, emit, nil, dop, morselBlocks)
	sb := NewSharedBuild(&Values{Tab: dim}, 0)
	for i := range frags {
		frags[i] = NewProber(sb, frags[i], probeKey)
	}
	return frags, q
}

// TestOneFragmentProbeMatchesParent: one Prober — NewHashJoin's, or one
// in a worker under the Parallel merge — reproduces the parent's serial
// HashJoin, output order included.
func TestOneFragmentProbeMatchesParent(t *testing.T) {
	read, emit := []int{0, 3}, []int{0, 1}
	dim := joinFixture(8000)
	checkAnchor(t, "probe", "serial", 8000, func(st *StoredTable) Operator {
		return NewHashJoin(&Values{Tab: dim}, NewColumnScan(st, read, emit, nil), 0, 0)
	})
	checkAnchor(t, "probe", "merge", 8000, func(st *StoredTable) Operator {
		frags, q := proberFrags(st, dim, read, emit, 0, 1, 2)
		return NewParallel(NewFragments(frags, q))
	})
}

// TestParallelProbeMatchesSerialAnyDOP: DOP probers over one shared
// build must join exactly the serial rows (sorted compare: fragments
// complete in I/O order) at every DOP, leaving no live process.
func TestParallelProbeMatchesSerialAnyDOP(t *testing.T) {
	orders := ordersLike(16000)
	dim := joinFixture(16000)
	read := []int{0, 3}
	emit := []int{0, 1}

	serial := func() *table.Table {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(orders, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			j := NewHashJoin(&Values{Tab: dim}, NewColumnScan(st, read, emit, nil), 0, 0)
			batches, err := Run(ctx, j)
			if err != nil {
				t.Error(err)
				return
			}
			got = flattenSorted(t, j.Schema(), batches, 0)
		})
		return got
	}()

	for _, dop := range []int{2, 4, 8} {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(orders, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			frags, q := proberFrags(st, dim, read, emit, 0, dop, 2)
			par := NewParallel(NewFragments(frags, q))
			batches, err := Run(ctx, par)
			if err != nil {
				t.Error(err)
				return
			}
			got = flattenSorted(t, par.Schema(), batches, 0)
		})
		tablesEqual(t, serial, got)
		if live := r.eng.Live(); live != 0 {
			t.Fatalf("dop=%d: %d processes still live", dop, live)
		}
	}
}

// TestParallelProbeChargesManyCores: probe fragments must charge their
// own cores — realised concurrency on the probe side, not just a
// parallel scan feeding a serial probe.
func TestParallelProbeChargesManyCores(t *testing.T) {
	orders := ordersLike(20000)
	dim := joinFixture(20000)
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(orders, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		frags, q := proberFrags(st, dim, []int{0, 3}, []int{0, 1}, 0, 4, 2)
		if _, err := RowCount(ctx, NewParallel(NewFragments(frags, q))); err != nil {
			t.Error(err)
		}
	})
	if peak := r.cpu.PeakBusyCores(); peak < 2 {
		t.Fatalf("peak busy cores = %d, want >= 2 (probers did not run concurrently)", peak)
	}
}

// TestParallelProbeEarlyCloseUnderLimit: LIMIT above the merged probers
// closes them mid-stream; the workers must unwind and the shared build
// must release, leaving no live process.
func TestParallelProbeEarlyCloseUnderLimit(t *testing.T) {
	orders := ordersLike(16000)
	dim := joinFixture(16000)
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(orders, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		frags, q := proberFrags(st, dim, []int{0, 3}, []int{0, 1}, 0, 4, 2)
		n, err := RowCount(ctx, &Limit{In: NewParallel(NewFragments(frags, q)), N: 25})
		if err != nil {
			t.Error(err)
		}
		if n != 25 {
			t.Errorf("got %d rows, want 25", n)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live after early close", live)
	}
}

// TestParallelProbeFragmentError: a probe fragment failing mid-stream
// must fail the merge fast and leave no live process; the shared build's
// sticky error state must not pin anything either.
func TestParallelProbeFragmentError(t *testing.T) {
	orders := ordersLike(16000)
	dim := joinFixture(16000)
	r := newParRig(4, 3)
	st, err := PlaceColumnMajor(orders, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		q := NewMorsels(st.NumBlocks(), 2)
		sb := NewSharedBuild(&Values{Tab: dim}, 0)
		bad := &errAfterOne{sch: table.NewSchema("orders", orders.Schema.Cols[0])}
		frags := []Operator{NewProber(sb, bad, 0)}
		for i := 0; i < 3; i++ {
			cs := NewColumnScan(st, []int{0, 3}, []int{0, 1}, nil)
			cs.Morsels = q
			frags = append(frags, NewProber(sb, cs, 0))
		}
		_, err := Run(ctx, NewParallel(NewFragments(frags, q)))
		if !errors.Is(err, errExploded) {
			t.Errorf("err = %v, want fragment error", err)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live after fragment error", live)
	}
}
