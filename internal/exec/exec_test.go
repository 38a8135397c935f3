package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"energydb/internal/buffer"
	"energydb/internal/compress"
	"energydb/internal/energy"
	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/table"
)

// rig bundles a minimal simulated machine for executor tests.
type rig struct {
	eng   *sim.Engine
	meter *energy.Meter
	cpu   *hw.CPU
	vol   *storage.Volume
}

func newRig(nSSD int) *rig {
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	cpu := hw.NewCPU(eng, meter, "cpu", hw.ScanCPU2008())
	devs := make([]storage.BlockDevice, nSSD)
	for i := range devs {
		devs[i] = hw.NewSSD(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	vol := storage.NewVolume("vol", storage.Striped, 16<<10, devs)
	return &rig{eng: eng, meter: meter, cpu: cpu, vol: vol}
}

// run executes fn as the only query process and returns elapsed sim time.
func (r *rig) run(t *testing.T, fn func(ctx *Ctx)) float64 {
	t.Helper()
	r.eng.Go("query", func(p *sim.Proc) {
		ctx := NewCtx(p, r.cpu)
		fn(ctx)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return r.eng.Now()
}

// mustProject is NewProject for expressions the test knows compile.
func mustProject(t testing.TB, in Operator, exprs []Scalar, names []string) *Project {
	t.Helper()
	p, err := NewProject(in, exprs, names)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ordersLike builds a small deterministic table shaped like TPC-H ORDERS.
func ordersLike(n int) *table.Table {
	s := table.NewSchema("orders",
		table.Col("o_orderkey", table.Int64),
		table.Col("o_custkey", table.Int64),
		table.ColW("o_orderstatus", table.String, 1),
		table.Col("o_totalprice", table.Float64),
		table.Col("o_orderdate", table.Date),
		table.ColW("o_orderpriority", table.String, 15),
		table.ColW("o_clerk", table.String, 15),
	)
	rng := rand.New(rand.NewSource(17))
	statuses := []string{"F", "O", "P"}
	prios := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	t := table.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendRow(
			table.IntVal(int64(i+1)),
			table.IntVal(rng.Int63n(int64(n/4+1))+1),
			table.StrVal(statuses[rng.Intn(3)]),
			table.FloatVal(1000+rng.Float64()*99000),
			table.DateVal(int64(8000+rng.Intn(2400))),
			table.StrVal(prios[rng.Intn(5)]),
			table.StrVal(fmt.Sprintf("Clerk#%09d", rng.Intn(1000))),
		)
	}
	return t
}

func rawCodecs(n int) []compress.Codec {
	cs := make([]compress.Codec, n)
	for i := range cs {
		cs[i] = compress.Raw
	}
	return cs
}

func TestColumnScanProjectsAndFilters(t *testing.T) {
	r := newRig(3)
	tab := ordersLike(5000)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		// Read orderkey + totalprice, keep price > 50000, emit both.
		scan := NewColumnScan(st, []int{0, 3}, []int{0, 1},
			&ColConst{Col: 1, Op: Gt, Val: table.FloatVal(50000)})
		var err error
		got, err = Collect(ctx, scan)
		if err != nil {
			t.Error(err)
		}
	})
	want := 0
	for i := 0; i < tab.Rows(); i++ {
		if tab.Column(3).F[i] > 50000 {
			want++
		}
	}
	if got.Rows() != want {
		t.Fatalf("filtered rows = %d, want %d", got.Rows(), want)
	}
	if len(got.Schema.Cols) != 2 || got.Schema.Cols[1].Name != "o_totalprice" {
		t.Fatalf("schema = %v", got.Schema)
	}
	for i := 0; i < got.Rows(); i++ {
		if got.Column(1).F[i] <= 50000 {
			t.Fatal("predicate violated")
		}
	}
}

func TestColumnScanReadsOnlyProjectedColumns(t *testing.T) {
	tab := ordersLike(20000)

	bytesFor := func(readCols []int) int64 {
		r := newRig(3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 4096, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		emit := make([]int, len(readCols))
		for i := range emit {
			emit[i] = i
		}
		r.run(t, func(ctx *Ctx) {
			if _, err := RowCount(ctx, NewColumnScan(st, readCols, emit, nil)); err != nil {
				t.Error(err)
			}
		})
		return r.vol.Stats().BytesRead
	}
	two := bytesFor([]int{0, 1})
	seven := bytesFor([]int{0, 1, 2, 3, 4, 5, 6})
	if two*2 >= seven {
		t.Fatalf("projection pushdown broken: 2 cols read %d bytes vs 7 cols %d", two, seven)
	}
}

func TestRowScanMatchesColumnScanResults(t *testing.T) {
	tab := ordersLike(3000)
	pred := func() Pred { return &ColConst{Col: 1, Op: Le, Val: table.IntVal(100)} }

	rRow := newRig(2)
	stRow, err := PlaceRowMajor(tab, rRow.vol, 1, 512, compress.Raw)
	if err != nil {
		t.Fatal(err)
	}
	var rowRes *table.Table
	rRow.run(t, func(ctx *Ctx) {
		rowRes, err = Collect(ctx, NewRowScan(stRow, []int{0, 1}, pred()))
		if err != nil {
			t.Error(err)
		}
	})

	rCol := newRig(2)
	stCol, err := PlaceColumnMajor(tab, rCol.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	var colRes *table.Table
	rCol.run(t, func(ctx *Ctx) {
		colRes, err = Collect(ctx, NewColumnScan(stCol, []int{0, 1}, []int{0, 1}, pred()))
		if err != nil {
			t.Error(err)
		}
	})

	if rowRes.Rows() != colRes.Rows() {
		t.Fatalf("row scan %d rows, column scan %d rows", rowRes.Rows(), colRes.Rows())
	}
	for i := 0; i < rowRes.Rows(); i++ {
		if rowRes.Column(0).I[i] != colRes.Column(0).I[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestRowScanUsesBufferPool(t *testing.T) {
	r := newRig(2)
	tab := ordersLike(2000)
	st, err := PlaceRowMajor(tab, r.vol, 7, 512, compress.Raw)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(1024, buffer.NewLRU())
	r.eng.Go("query", func(p *sim.Proc) {
		ctx := NewCtx(p, r.cpu)
		ctx.Pool = pool
		// Scan twice: second pass should be all hits.
		for i := 0; i < 2; i++ {
			if _, err := RowCount(ctx, NewRowScan(st, []int{0}, nil)); err != nil {
				t.Error(err)
			}
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	stats := pool.Stats()
	// Every unique page misses exactly once (first pass); the second pass
	// plus boundary pages shared between adjacent blocks are all hits.
	if stats.Misses == 0 || stats.Hits <= stats.Misses {
		t.Fatalf("pool stats = %+v, want hits > misses > 0", stats)
	}
	// Volume I/O only happened for the misses.
	if r.vol.Stats().PagesRead != stats.Misses {
		t.Fatalf("volume reads %d != misses %d", r.vol.Stats().PagesRead, stats.Misses)
	}
}

func TestCompressedScanFasterButHotterOnWeakStorage(t *testing.T) {
	// The Figure 2 shape in miniature: LZ-compressed column scan on a
	// 90 W CPU + 5 W flash rig must be faster but use more energy.
	tab := ordersLike(60000)
	type res struct {
		elapsed float64
		joules  float64
		cpuSec  float64
	}
	measure := func(codec compress.Codec) res {
		r := newRig(3)
		codecs := make([]compress.Codec, 7)
		for i := range codecs {
			codecs[i] = codec
		}
		st, err := PlaceColumnMajor(tab, r.vol, 1, 8192, codecs)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := r.run(t, func(ctx *Ctx) {
			scan := NewColumnScan(st, []int{0, 1, 3, 4, 5}, []int{0, 1, 2, 3, 4},
				&ColConst{Col: 2, Op: Gt, Val: table.FloatVal(0)})
			if _, err := RowCount(ctx, scan); err != nil {
				t.Error(err)
			}
		})
		return res{
			elapsed: elapsed,
			joules:  float64(r.meter.TotalEnergy(energy.Seconds(elapsed))),
			cpuSec:  r.cpu.BusyCoreSeconds(),
		}
	}
	raw := measure(compress.Raw)
	lz := measure(compress.LZ)
	if lz.elapsed >= raw.elapsed {
		t.Fatalf("compressed scan not faster: lz=%v raw=%v", lz.elapsed, raw.elapsed)
	}
	if lz.joules <= raw.joules {
		t.Fatalf("compressed scan should cost more energy on this rig: lz=%vJ raw=%vJ",
			lz.joules, raw.joules)
	}
	if lz.cpuSec <= raw.cpuSec {
		t.Fatalf("compression should add CPU time: lz=%v raw=%v", lz.cpuSec, raw.cpuSec)
	}
}

func TestFilterAndProject(t *testing.T) {
	tab := ordersLike(1000)
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		src := &Values{Tab: tab, BatchRows: 256}
		f := &Filter{In: src, Pred: &ColConst{Col: 0, Op: Le, Val: table.IntVal(10)}}
		p := mustProject(t, f,
			[]Scalar{&ColRef{Col: 0}, &Arith{Op: Mul, L: &ColRef{Col: 3}, R: &Const{Val: table.FloatVal(2)}}},
			[]string{"k", "double_price"})
		var err error
		got, err = Collect(ctx, p)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 10 {
		t.Fatalf("rows = %d, want 10", got.Rows())
	}
	for i := 0; i < 10; i++ {
		wantP := tab.Column(3).F[i] * 2
		if got.Column(1).F[i] != wantP {
			t.Fatalf("row %d: price %v, want %v", i, got.Column(1).F[i], wantP)
		}
	}
}

func TestHashJoinCorrectness(t *testing.T) {
	// Join orders to a small customers table and verify against a naive
	// nested loop over the raw data.
	orders := ordersLike(2000)
	custSchema := table.NewSchema("cust",
		table.Col("c_custkey", table.Int64),
		table.ColW("c_name", table.String, 18),
	)
	cust := table.NewTable(custSchema)
	for i := 1; i <= 200; i++ {
		cust.AppendRow(table.IntVal(int64(i)), table.StrVal(fmt.Sprintf("Customer%04d", i)))
	}

	want := 0
	for i := 0; i < orders.Rows(); i++ {
		if orders.Column(1).I[i] <= 200 {
			want++
		}
	}

	r := newRig(1)
	var hj, nl int64
	r.run(t, func(ctx *Ctx) {
		j := NewHashJoin(
			&Values{Tab: cust}, &Values{Tab: orders},
			0, // c_custkey
			1, // o_custkey
		)
		var err error
		hj, err = RowCount(ctx, j)
		if err != nil {
			t.Error(err)
		}
		n := NewNestedLoopJoin(&Values{Tab: cust, BatchRows: 64}, &Values{Tab: orders, BatchRows: 512}, 0, 1)
		nl, err = RowCount(ctx, n)
		if err != nil {
			t.Error(err)
		}
	})
	if hj != int64(want) || nl != int64(want) {
		t.Fatalf("hash join %d, NL join %d, want %d", hj, nl, want)
	}
}

func TestNestedLoopRescansInnerIO(t *testing.T) {
	// Block NL join over a stored inner must re-read the inner relation
	// once per outer block — that is the I/O-for-memory trade.
	orders := ordersLike(4000)
	r := newRig(2)
	st, err := PlaceColumnMajor(orders, r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	outerSchema := table.NewSchema("keys", table.Col("k", table.Int64))
	outer := table.NewTable(outerSchema)
	for i := 1; i <= 8; i++ {
		outer.AppendRow(table.IntVal(int64(i * 100)))
	}
	r.run(t, func(ctx *Ctx) {
		inner := NewColumnScan(st, []int{0}, []int{0}, nil)
		j := NewNestedLoopJoin(&Values{Tab: outer, BatchRows: 2}, inner, 0, 0)
		if _, err := RowCount(ctx, j); err != nil {
			t.Error(err)
		}
	})
	// 8 outer rows in blocks of 2 = 4 rescans of the inner column.
	onePass := st.ColEncodedBytes(0)
	gotBytes := r.vol.Stats().BytesRead
	if gotBytes < 3*onePass {
		t.Fatalf("inner not rescanned: read %d bytes, one pass is %d", gotBytes, onePass)
	}
}

func TestSortOrdersRows(t *testing.T) {
	tab := ordersLike(500)
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		s := &Sort{In: &Values{Tab: tab}, Keys: []SortKey{{Col: 3, Desc: true}}}
		var err error
		got, err = Collect(ctx, s)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 500 {
		t.Fatalf("rows = %d", got.Rows())
	}
	for i := 1; i < got.Rows(); i++ {
		if got.Column(3).F[i] > got.Column(3).F[i-1] {
			t.Fatal("descending order violated")
		}
	}
}

func TestSortSpillsChargeTempIO(t *testing.T) {
	tab := ordersLike(4000)
	r := newRig(2)
	r.eng.Go("query", func(p *sim.Proc) {
		ctx := NewCtx(p, r.cpu)
		ctx.MemBudgetBytes = 16 << 10 // tiny: force spill
		ctx.Temp = r.vol
		s := &Sort{In: &Values{Tab: tab}, Keys: []SortKey{{Col: 0}}}
		if _, err := RowCount(ctx, s); err != nil {
			t.Error(err)
		}
		if s.Spills == 0 {
			t.Error("expected spills with tiny memory budget")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.vol.Stats()
	if st.PagesWritten == 0 || st.PagesRead == 0 {
		t.Fatalf("spill I/O not charged: %+v", st)
	}
}

func TestHashAgg(t *testing.T) {
	tab := ordersLike(3000)
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Values{Tab: tab}),
			[]int{2}, // group by o_orderstatus
			[]AggSpec{
				{Func: Count, As: "n"},
				{Func: Sum, Col: 3, As: "revenue"},
				{Func: Min, Col: 0, As: "first_key"},
				{Func: Max, Col: 0, As: "last_key"},
				{Func: Avg, Col: 3, As: "avg_price"},
			})
		var err error
		got, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 3 { // statuses F, O, P
		t.Fatalf("groups = %d, want 3", got.Rows())
	}
	// Cross-check totals against raw data.
	var wantN [3]int64
	var wantSum [3]float64
	statusIdx := map[string]int{"F": 0, "O": 1, "P": 2}
	for i := 0; i < tab.Rows(); i++ {
		si := statusIdx[tab.Column(2).S[i]]
		wantN[si]++
		wantSum[si] += tab.Column(3).F[i]
	}
	var totalN int64
	for i := 0; i < got.Rows(); i++ {
		si := statusIdx[got.Column(0).S[i]]
		if got.Column(1).I[i] != wantN[si] {
			t.Fatalf("group %v count = %d, want %d", got.Column(0).S[i], got.Column(1).I[i], wantN[si])
		}
		diff := got.Column(2).F[i] - wantSum[si]
		if diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("group %v sum mismatch", got.Column(0).S[i])
		}
		totalN += got.Column(1).I[i]
	}
	if totalN != int64(tab.Rows()) {
		t.Fatalf("counts sum to %d, want %d", totalN, tab.Rows())
	}
}

func TestHashAggGlobalNoRows(t *testing.T) {
	empty := table.NewTable(table.NewSchema("e", table.Col("x", table.Int64)))
	r := newRig(1)
	var got *table.Table
	r.run(t, func(ctx *Ctx) {
		agg := NewHashAgg(OneFragment(&Values{Tab: empty}), nil, []AggSpec{{Func: Count, As: "n"}})
		var err error
		got, err = Collect(ctx, agg)
		if err != nil {
			t.Error(err)
		}
	})
	if got.Rows() != 1 || got.Column(0).I[0] != 0 {
		t.Fatalf("global count over empty input = %v", got)
	}
}

func TestLimitStopsEarlyAndCancelsScanIO(t *testing.T) {
	tab := ordersLike(50000)
	r := newRig(3)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	r.run(t, func(ctx *Ctx) {
		scan := NewColumnScan(st, []int{0}, []int{0}, nil)
		lim := &Limit{In: scan, N: 10}
		got, err = RowCount(ctx, lim)
		if err != nil {
			t.Error(err)
		}
	})
	if got != 10 {
		t.Fatalf("limit rows = %d", got)
	}
	// The scan must not have read the whole column.
	if r.vol.Stats().BytesRead >= st.ColEncodedBytes(0) {
		t.Fatalf("limit did not cancel the scan: read %d of %d bytes",
			r.vol.Stats().BytesRead, st.ColEncodedBytes(0))
	}
}

func TestOrPredicate(t *testing.T) {
	tab := ordersLike(1000)
	r := newRig(1)
	var got int64
	r.run(t, func(ctx *Ctx) {
		p := &Or{Preds: []Pred{
			&ColConst{Col: 0, Op: Le, Val: table.IntVal(5)},
			&ColConst{Col: 0, Op: Gt, Val: table.IntVal(995)},
		}}
		f := &Filter{In: &Values{Tab: tab}, Pred: p}
		var err error
		got, err = RowCount(ctx, f)
		if err != nil {
			t.Error(err)
		}
	})
	if got != 10 {
		t.Fatalf("or-pred rows = %d, want 10", got)
	}
}

func TestNotPredicate(t *testing.T) {
	tab := ordersLike(100)
	r := newRig(1)
	var got int64
	r.run(t, func(ctx *Ctx) {
		p := &Not{Pred: &ColConst{Col: 0, Op: Le, Val: table.IntVal(40)}}
		got, _ = RowCount(ctx, &Filter{In: &Values{Tab: tab}, Pred: p})
	})
	if got != 60 {
		t.Fatalf("not-pred rows = %d, want 60", got)
	}
}

func TestColColPredicate(t *testing.T) {
	s := table.NewSchema("t", table.Col("a", table.Int64), table.Col("b", table.Int64))
	tab := table.NewTable(s)
	for i := 0; i < 100; i++ {
		tab.AppendRow(table.IntVal(int64(i)), table.IntVal(int64(i%10)*10))
	}
	r := newRig(1)
	var got int64
	r.run(t, func(ctx *Ctx) {
		got, _ = RowCount(ctx, &Filter{In: &Values{Tab: tab},
			Pred: &ColCol{Left: 0, Right: 1, Op: Eq}})
	})
	want := int64(0)
	for i := 0; i < 100; i++ {
		if int64(i) == int64(i%10)*10 {
			want++
		}
	}
	if got != want {
		t.Fatalf("colcol rows = %d, want %d", got, want)
	}
}

func TestCompressionRatioMeasured(t *testing.T) {
	tab := ordersLike(20000)
	r := newRig(1)
	codecs := []compress.Codec{
		compress.Delta, compress.Bitpack, compress.Dict, compress.LZ,
		compress.Bitpack, compress.Dict, compress.Dict,
	}
	st, err := PlaceColumnMajor(tab, r.vol, 1, 4096, codecs)
	if err != nil {
		t.Fatal(err)
	}
	ratio := st.CompressionRatio()
	if ratio >= 0.8 || ratio <= 0.05 {
		t.Fatalf("orders-like compression ratio = %v, expected meaningful compression", ratio)
	}
	if st.RawBytes() <= 0 || st.EncodedBytes() <= 0 || st.NumBlocks() == 0 {
		t.Fatal("placement accounting broken")
	}
}
