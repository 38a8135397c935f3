package exec

import (
	"testing"

	"energydb/internal/table"
)

// TestHashAggNulByteGroupsDistinct is the regression test for the old
// group-key scheme (Value.String() + "\x00" concatenation): the key
// tuples ("a\x00", "b") and ("a", "\x00b") rendered to the same string
// and their groups merged. The length-prefixed binary encoding keeps
// them distinct.
func TestHashAggNulByteGroupsDistinct(t *testing.T) {
	s := table.NewSchema("t",
		table.Col("g1", table.String),
		table.Col("g2", table.String),
		table.Col("v", table.Int64),
	)
	tab := table.NewTable(s)
	tab.AppendRow(table.StrVal("a\x00"), table.StrVal("b"), table.IntVal(1))
	tab.AppendRow(table.StrVal("a"), table.StrVal("\x00b"), table.IntVal(10))
	tab.AppendRow(table.StrVal("a\x00"), table.StrVal("b"), table.IntVal(2))

	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Values{Tab: tab}), []int{0, 1},
			[]AggSpec{{Func: Count, As: "n"}, {Func: Sum, Col: 2, As: "s"}})
		var err error
		got, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 2 {
		t.Fatalf("groups = %d, want 2 (NUL-containing keys collided)", got.Rows())
	}
	sums := map[string]int64{}
	for i := 0; i < got.Rows(); i++ {
		sums[got.Column(0).S[i]+"|"+got.Column(1).S[i]] = got.Column(3).I[i]
	}
	if sums["a\x00|b"] != 3 || sums["a|\x00b"] != 10 {
		t.Fatalf("group sums = %v", sums)
	}
}

// TestHashAggIntFloatKeysDistinct checks the fixed-width halves of the
// key encoding: int and float group columns that share raw bit patterns
// across rows must still form distinct groups.
func TestHashAggIntFloatKeysDistinct(t *testing.T) {
	s := table.NewSchema("t",
		table.Col("gi", table.Int64),
		table.Col("gf", table.Float64),
	)
	tab := table.NewTable(s)
	tab.AppendRow(table.IntVal(1), table.FloatVal(2))
	tab.AppendRow(table.IntVal(1), table.FloatVal(3))
	tab.AppendRow(table.IntVal(2), table.FloatVal(2))
	tab.AppendRow(table.IntVal(1), table.FloatVal(2))

	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Values{Tab: tab}), []int{0, 1}, []AggSpec{{Func: Count, As: "n"}})
		var err error
		got, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 3 {
		t.Fatalf("groups = %d, want 3", got.Rows())
	}
}

// TestHashAggOutputSortedByKey pins the deterministic output order:
// groups emit sorted ascending by the group key values.
func TestHashAggOutputSortedByKey(t *testing.T) {
	tab := ordersLike(2000)
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Values{Tab: tab}), []int{1}, []AggSpec{{Func: Count, As: "n"}})
		var err error
		got, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})
	for i := 1; i < got.Rows(); i++ {
		if got.Column(0).I[i] <= got.Column(0).I[i-1] {
			t.Fatalf("group keys not ascending at %d: %d after %d",
				i, got.Column(0).I[i], got.Column(0).I[i-1])
		}
	}
}

// TestHashAggSumAvgOverStringYieldsZero pins the ill-typed-but-reachable
// case (the SQL binder does not reject SUM over a string column): it must
// produce the zero value, not panic.
func TestHashAggSumAvgOverStringYieldsZero(t *testing.T) {
	s := table.NewSchema("t", table.Col("g", table.Int64), table.Col("s", table.String))
	tab := table.NewTable(s)
	tab.AppendRow(table.IntVal(1), table.StrVal("a"))
	tab.AppendRow(table.IntVal(1), table.StrVal("b"))

	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Values{Tab: tab}), []int{0},
			[]AggSpec{{Func: Sum, Col: 1, As: "s"}, {Func: Avg, Col: 1, As: "a"}})
		var err error
		got, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 1 || got.Column(1).S[0] != "" || got.Column(2).F[0] != 0 {
		t.Fatalf("sum/avg over string: %v rows, sum=%q avg=%v",
			got.Rows(), got.Column(1).S[0], got.Column(2).F[0])
	}
}

// TestPredSelectionVectors exercises the selection-vector kernels — int,
// string and float, each narrowing the selection the one before it left —
// through And composition against a scalar reference evaluation.
func TestPredSelectionVectors(t *testing.T) {
	tab := ordersLike(3000)
	pred := &And{Preds: []Pred{
		&ColConst{Col: 0, Op: Gt, Val: table.IntVal(500)},
		&And{Preds: []Pred{
			&ColConst{Col: 0, Op: Le, Val: table.IntVal(2500)},
			&ColConst{Col: 2, Op: Ne, Val: table.StrVal("F")},
		}},
		&ColConst{Col: 3, Op: Ge, Val: table.FloatVal(30000)},
	}}
	want := 0
	for i := 0; i < tab.Rows(); i++ {
		k := tab.Column(0).I[i]
		if k > 500 && k <= 2500 && tab.Column(2).S[i] != "F" && tab.Column(3).F[i] >= 30000 {
			want++
		}
	}
	r := newRig(1)
	var got int64
	r.run(t, func(ctx *Ctx) {
		var err error
		got, err = RowCount(ctx, &Filter{In: &Values{Tab: tab, BatchRows: 700}, Pred: pred})
		if err != nil {
			t.Error(err)
		}
	})
	if got != int64(want) {
		t.Fatalf("rows = %d, want %d", got, want)
	}
}

// TestFilterBatchReuseSafeWithCollect ensures the buffer-reuse contract
// holds end to end: a selective filter's reused output batch must not
// corrupt rows already drained into a table.
func TestFilterBatchReuseSafeWithCollect(t *testing.T) {
	tab := ordersLike(4000)
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		f := &Filter{In: &Values{Tab: tab, BatchRows: 256},
			Pred: &ColConst{Col: 1, Op: Le, Val: table.IntVal(300)}}
		var err error
		got, err = Collect(ctx, f)
		if err != nil {
			t.Error(err)
		}
	})
	i := 0
	for r := 0; r < tab.Rows(); r++ {
		if tab.Column(1).I[r] > 300 {
			continue
		}
		if got.Column(0).I[i] != tab.Column(0).I[r] || got.Column(6).S[i] != tab.Column(6).S[r] {
			t.Fatalf("filtered row %d corrupted", i)
		}
		i++
	}
	if i != got.Rows() {
		t.Fatalf("rows = %d, want %d", got.Rows(), i)
	}
}

// TestLimitSliceView checks Limit's zero-copy partial batch.
func TestLimitSliceView(t *testing.T) {
	tab := ordersLike(1000)
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		var err error
		got, err = Collect(ctx, &Limit{In: &Values{Tab: tab, BatchRows: 300}, N: 450})
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 450 {
		t.Fatalf("rows = %d, want 450", got.Rows())
	}
	for i := 0; i < 450; i++ {
		if got.Column(0).I[i] != tab.Column(0).I[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestHashAggReadsThroughSelection checks the selection-aware grouping
// path: a filtered batch carrying a deferred selection vector must
// aggregate identically to the pre-compacted equivalent, with the key
// encoder and the typed update loops indexing physical rows through Sel
// instead of gathering into a scratch batch first.
func TestHashAggReadsThroughSelection(t *testing.T) {
	s := table.NewSchema("t",
		table.Col("g", table.String),
		table.Col("v", table.Int64),
		table.Col("f", table.Float64),
	)
	tab := table.NewTable(s)
	groups := []string{"red", "green", "blue"}
	for i := 0; i < 5000; i++ {
		tab.AppendRow(
			table.StrVal(groups[i%3]),
			table.IntVal(int64(i)),
			table.FloatVal(float64(i)/7),
		)
	}
	specs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Col: 1, As: "s"},
		{Func: Min, Col: 1, As: "lo"},
		{Func: Max, Col: 2, As: "hi"},
		{Func: Avg, Col: 2, As: "m"},
	}
	pred := &ColConst{Col: 1, Op: Lt, Val: table.IntVal(3000)}

	// Through the selection: Filter defers its gather, HashAgg reads Sel.
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Filter{In: &Values{Tab: tab}, Pred: pred}), []int{0}, specs)
		var err error
		got, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})

	// Reference: compact the survivors first, then aggregate.
	compact := table.NewTable(s)
	for i := 0; i < 3000; i++ {
		compact.AppendRow(tab.Column(0).Value(i), tab.Column(1).Value(i), tab.Column(2).Value(i))
	}
	r2 := newRig(1)
	var want *table.Table
	r2.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Values{Tab: compact}), []int{0}, specs)
		var err error
		want, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})

	if got.Rows() != want.Rows() {
		t.Fatalf("groups: got %d, want %d", got.Rows(), want.Rows())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := range want.Schema.Cols {
			if got.Column(c).Value(r).Compare(want.Column(c).Value(r)) != 0 {
				t.Fatalf("row %d col %d: got %v, want %v",
					r, c, got.Column(c).Value(r), want.Column(c).Value(r))
			}
		}
	}
}
