package exec

import (
	"testing"

	"energydb/internal/compress"
	"energydb/internal/table"
)

// selProbe wraps an operator and records, per batch, the logical row
// count and whether the batch carried a deferred selection — the test
// hook for the (batch, sel) pushdown contract.
type selProbe struct {
	In Operator

	batches  int
	selected int // batches that carried a selection vector
	rows     int // logical rows seen
}

func (p *selProbe) Schema() *table.Schema { return p.In.Schema() }
func (p *selProbe) Open(ctx *Ctx) error   { return p.In.Open(ctx) }
func (p *selProbe) Close(ctx *Ctx) error  { return p.In.Close(ctx) }

func (p *selProbe) Next(ctx *Ctx) (*table.Batch, error) {
	b, err := p.In.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	p.batches++
	if b.Sel != nil {
		p.selected++
	}
	p.rows += b.Rows()
	return b, nil
}

// TestColumnScanZeroColumns: a scan that projects no columns (the
// count-only plan) must emit the table's full cardinality without reading
// a single byte from the volume.
func TestColumnScanZeroColumns(t *testing.T) {
	tab := ordersLike(5000)
	r := newRig(2)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	r.run(t, func(ctx *Ctx) {
		got, err = RowCount(ctx, NewColumnScan(st, nil, nil, nil))
		if err != nil {
			t.Error(err)
		}
	})
	if got != 5000 {
		t.Fatalf("zero-column scan rows = %d, want 5000", got)
	}
	if read := r.vol.Stats().BytesRead; read != 0 {
		t.Fatalf("zero-column scan read %d bytes, want 0", read)
	}
}

// TestRowScanZeroEmitCountsRows: a row scan with an empty emit list still
// reads the blocks (row stores carry all columns together) but must emit
// zero-column batches with the surviving cardinality.
func TestRowScanZeroEmitCountsRows(t *testing.T) {
	tab := ordersLike(3000)
	r := newRig(2)
	st, err := PlaceRowMajor(tab, r.vol, 1, 512, compress.Raw)
	if err != nil {
		t.Fatal(err)
	}
	pred := &ColConst{Col: 1, Op: Le, Val: table.IntVal(100)}
	want := int64(0)
	for i := 0; i < tab.Rows(); i++ {
		if tab.Column(1).I[i] <= 100 {
			want++
		}
	}
	var got int64
	r.run(t, func(ctx *Ctx) {
		got, err = RowCount(ctx, NewRowScan(st, nil, pred))
		if err != nil {
			t.Error(err)
		}
	})
	if got != want {
		t.Fatalf("zero-emit row scan rows = %d, want %d", got, want)
	}
}

// TestFilterChainPushdown drives a 3-deep filter chain and checks both
// the result and the contract: partially-selective filters hand their
// survivors downstream as (batch, sel) views — no intermediate gather —
// and the final materialisation resolves the composed selection once.
func TestFilterChainPushdown(t *testing.T) {
	tab := ordersLike(4000)
	r := newRig(1)

	want := 0
	for i := 0; i < tab.Rows(); i++ {
		if tab.Column(0).I[i] > 500 && tab.Column(3).F[i] > 30000 && tab.Column(2).S[i] != "P" {
			want++
		}
	}
	if want == 0 || want == tab.Rows() {
		t.Fatalf("degenerate selectivity: want = %d", want)
	}

	probe2, probe3 := &selProbe{}, &selProbe{}
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		f1 := &Filter{In: &Values{Tab: tab, BatchRows: 512},
			Pred: &ColConst{Col: 0, Op: Gt, Val: table.IntVal(500)}}
		probe2.In = f1
		f2 := &Filter{In: probe2, Pred: &ColConst{Col: 3, Op: Gt, Val: table.FloatVal(30000)}}
		probe3.In = f2
		f3 := &Filter{In: probe3, Pred: &ColConst{Col: 2, Op: Ne, Val: table.StrVal("P")}}
		var err error
		got, err = Collect(ctx, f3)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != want {
		t.Fatalf("filter chain rows = %d, want %d", got.Rows(), want)
	}
	for i := 0; i < got.Rows(); i++ {
		if got.Column(0).I[i] <= 500 || got.Column(3).F[i] <= 30000 || got.Column(2).S[i] == "P" {
			t.Fatalf("row %d violates a predicate", i)
		}
	}
	// Selections were pushed, not gathered: the partially-filtered batches
	// between the filters carried selection vectors.
	if probe2.selected == 0 || probe3.selected == 0 {
		t.Fatalf("no deferred selections between filters: probe2=%+v probe3=%+v", probe2, probe3)
	}
	if probe3.rows >= probe2.rows {
		t.Fatalf("second filter dropped nothing: %d -> %d", probe2.rows, probe3.rows)
	}
}

// TestProjectComposesSelection: a projection between filters must forward
// an incoming selection instead of compacting, and arithmetic over a
// selected batch must produce values aligned with the survivors.
func TestProjectComposesSelection(t *testing.T) {
	tab := ordersLike(2000)
	r := newRig(1)
	probe := &selProbe{}
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		// Gt 700 leaves the partial batch (keys 513..1024) at 324/512
		// survivors.
		f := &Filter{In: &Values{Tab: tab, BatchRows: 512},
			Pred: &ColConst{Col: 0, Op: Gt, Val: table.IntVal(700)}}
		p := mustProject(t, f,
			[]Scalar{&ColRef{Col: 0}, &Arith{Op: Mul, L: &ColRef{Col: 3}, R: &Const{Val: table.FloatVal(2)}}},
			[]string{"k", "double_price"})
		probe.In = p
		var err error
		got, err = Collect(ctx, probe)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 1300 {
		t.Fatalf("rows = %d, want 1300", got.Rows())
	}
	if probe.selected == 0 {
		t.Fatal("projection compacted the selection instead of composing it")
	}
	for i := 0; i < got.Rows(); i++ {
		k := got.Column(0).I[i]
		if k <= 700 {
			t.Fatalf("row %d: key %d failed the filter", i, k)
		}
		wantP := tab.Column(3).F[k-1] * 2 // o_orderkey is i+1
		if got.Column(1).F[i] != wantP {
			t.Fatalf("row %d: price %v, want %v", i, got.Column(1).F[i], wantP)
		}
	}
}

// TestProjectFusedSparseSelection: the arithmetic kernel is
// selection-aware, so even a very sparse selection rides through the
// projection uncompacted (no gather, no arithmetic on deselected rows)
// and the values still line up row for row.
func TestProjectFusedSparseSelection(t *testing.T) {
	tab := ordersLike(2000)
	r := newRig(1)
	probe := &selProbe{}
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		// Gt 1000 leaves batch 513..1024 at 24/512 survivors; the kernel
		// evaluates only those.
		f := &Filter{In: &Values{Tab: tab, BatchRows: 512},
			Pred: &ColConst{Col: 0, Op: Gt, Val: table.IntVal(1000)}}
		p := mustProject(t, f,
			[]Scalar{&ColRef{Col: 0}, &Arith{Op: Mul, L: &ColRef{Col: 3}, R: &Const{Val: table.FloatVal(2)}}},
			[]string{"k", "double_price"})
		probe.In = p
		var err error
		got, err = Collect(ctx, probe)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 1000 {
		t.Fatalf("rows = %d, want 1000", got.Rows())
	}
	if probe.selected == 0 {
		t.Fatal("fused projection compacted the sparse selection instead of composing it")
	}
	for i := 0; i < got.Rows(); i++ {
		k := got.Column(0).I[i]
		if k <= 1000 {
			t.Fatalf("row %d: key %d failed the filter", i, k)
		}
		wantP := tab.Column(3).F[k-1] * 2
		if got.Column(1).F[i] != wantP {
			t.Fatalf("row %d: price %v, want %v", i, got.Column(1).F[i], wantP)
		}
	}
}

// TestSelectedBatchesIntoJoinsAndAggs runs filtered (selected) inputs
// into both join algorithms and the aggregate, which must resolve the
// deferred selections at their materialisation boundaries.
func TestSelectedBatchesIntoJoinsAndAggs(t *testing.T) {
	orders := ordersLike(2000)
	keysSchema := table.NewSchema("keys", table.Col("k", table.Int64))
	keys := table.NewTable(keysSchema)
	for i := 1; i <= 2000; i += 4 {
		keys.AppendRow(table.IntVal(int64(i)))
	}
	filtered := func() Operator {
		return &Filter{In: &Values{Tab: orders, BatchRows: 256},
			Pred: &ColConst{Col: 0, Op: Le, Val: table.IntVal(1000)}}
	}
	want := int64(250) // keys 1,5,...,997 within 1..1000

	r := newRig(1)
	var hj, nl, aggN int64
	var aggSum float64
	r.run(t, func(ctx *Ctx) {
		var err error
		// Filtered probe side (selection-aware probe loop).
		if hj, err = RowCount(ctx, NewHashJoin(&Values{Tab: keys}, filtered(), 0, 0)); err != nil {
			t.Error(err)
		}
		// Filtered build side and filtered NL inner (compaction boundary).
		if _, err = RowCount(ctx, NewHashJoin(filtered(), &Values{Tab: keys}, 0, 0)); err != nil {
			t.Error(err)
		}
		if nl, err = RowCount(ctx, NewNestedLoopJoin(&Values{Tab: keys, BatchRows: 128}, filtered(), 0, 0)); err != nil {
			t.Error(err)
		}
		agg := NewHashAgg(OneFragment(filtered()), nil, []AggSpec{
			{Func: Count, As: "n"}, {Func: Sum, Col: 3, As: "s"},
		})
		res, err := Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
		aggN = res.Column(0).I[0]
		aggSum = res.Column(1).F[0]
	})
	if hj != want || nl != want {
		t.Fatalf("hash join %d, NL join %d, want %d", hj, nl, want)
	}
	if aggN != 1000 {
		t.Fatalf("agg count over filtered input = %d, want 1000", aggN)
	}
	var wantSum float64
	for i := 0; i < 1000; i++ {
		wantSum += orders.Column(3).F[i]
	}
	if diff := aggSum - wantSum; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("agg sum over filtered input = %v, want %v", aggSum, wantSum)
	}
}

// TestLimitZeroAndNegative: Limit with N == 0 or N < 0 yields an empty
// stream without touching the child.
func TestLimitZeroAndNegative(t *testing.T) {
	tab := ordersLike(100)
	r := newRig(1)
	for _, n := range []int64{0, -1} {
		var got int64
		r.run(t, func(ctx *Ctx) {
			var err error
			got, err = RowCount(ctx, &Limit{In: &Values{Tab: tab}, N: n})
			if err != nil {
				t.Error(err)
			}
		})
		if got != 0 {
			t.Fatalf("LIMIT %d rows = %d, want 0", n, got)
		}
	}
}
