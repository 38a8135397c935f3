//go:build !ee_invariants

// The scan-memory recycler, seen from outside it. The ee_invariants build
// poisons and abandons a scan's memory instead of recycling it, so there is
// nothing here for it to run; invariants_test.go holds its side.

package exec

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"energydb/internal/compress"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// arrays lists where the backing array of each of b's vectors starts, and
// where its selection's does.
func arrays(b *table.Batch) []unsafe.Pointer {
	var out []unsafe.Pointer
	for _, v := range b.Vecs {
		switch v.Type.Physical() {
		case table.PhysInt:
			out = append(out, unsafe.Pointer(unsafe.SliceData(v.I)))
		case table.PhysFloat:
			out = append(out, unsafe.Pointer(unsafe.SliceData(v.F)))
		default:
			out = append(out, unsafe.Pointer(unsafe.SliceData(v.S)))
		}
	}
	if b.Sel != nil {
		out = append(out, unsafe.Pointer(unsafe.SliceData(b.Sel)))
	}
	return out
}

func overlap(a, b []unsafe.Pointer) bool {
	for _, p := range a {
		for _, q := range b {
			if p == q {
				return true
			}
		}
	}
	return false
}

// drain opens scan, runs it to its end and closes it, returning the rows
// it produced, cloned batch by batch, and the arrays its batches lay in.
// Like everything below it runs on a simulated process, so it reports
// instead of failing.
func drain(ctx *Ctx, scan Operator, opened bool) (*table.Table, []unsafe.Pointer, error) {
	if !opened {
		if err := scan.Open(ctx); err != nil {
			return nil, nil, err
		}
	}
	out := table.NewTable(scan.Schema())
	var where []unsafe.Pointer
	for {
		b, err := scan.Next(ctx)
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			return out, where, scan.Close(ctx)
		}
		where = append(where, arrays(b)...)
		out.AppendBatch(b.Clone())
	}
}

// sameRows holds got to rows [lo, hi) of want, bit for bit.
func sameRows(t *testing.T, what string, got *table.Batch, want *table.Table, lo, hi int) {
	t.Helper()
	if got.Sel != nil || got.Rows() != hi-lo {
		t.Errorf("%s: %d rows (selection: %v), want rows %d..%d unselected", what, got.Rows(), got.Sel != nil, lo, hi)
		return
	}
	for c, v := range got.Vecs {
		if !sameVector(v, want.Column(c).Slice(lo, hi)) {
			t.Errorf("%s: column %d differs from the table", what, c)
		}
	}
}

// TestScanRecyclingIsInvisible: a scan decodes into the arrays an earlier
// scan — of another table, for another statement — handed back, and no
// result can tell. Rows cloned out of scan A, over orders, are bit for bit
// what they were after scan B has decoded customer into A's arrays (take
// hands a block the smallest array that holds it, so B, whose one block is
// shorter than A's, is the one to reuse); a batch of scan C,
// held mid-stream as a consumer may until C's next Next, is untouched by
// scans D and E, which open, run and close in the meantime on the same
// goroutine — where the recycler would hand them C's memory first, had C
// let go of any.
func TestScanRecyclingIsInvisible(t *testing.T) {
	db := tpch.Generate(0.005, 2009)
	r := newRig(2)
	place := func(name string, file int32, blockRows int) *StoredTable {
		tab := db.Tables[name]
		st, err := PlaceColumnMajor(tab, r.vol, file, blockRows, tpch.DefaultCodecs(tab.Schema))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	customer, orders, nation := place("customer", 1, 8192), place("orders", 2, 1000), place("nation", 3, 8192)
	fullScan := func(st *StoredTable) *ColumnScan { return NewColumnScan(st, allCols(st), allCols(st), nil) }
	whole := func(what string, got *table.Table, st *StoredTable) {
		sameRows(t, what, got.Slice(0, got.Rows()), st.Tab, 0, st.Tab.Rows())
	}

	r.run(t, func(ctx *Ctx) {
		// The recycler is a sync.Pool: it may drop what it is given (under
		// the race detector it drops a quarter on purpose) and a collection
		// empties it, so reuse is certain only over a few tries.
		reused := false
		for try := 0; try < 40 && !reused; try++ {
			a, aArrays, err := drain(ctx, fullScan(orders), false)
			if err != nil {
				t.Error(err)
				return
			}
			b, bArrays, err := drain(ctx, fullScan(customer), false)
			if err != nil {
				t.Error(err)
				return
			}
			reused = overlap(aArrays, bArrays)
			whole("scan A's cloned rows after scan B", a, orders)
			whole("scan B's rows", b, customer)
		}
		if !reused {
			t.Error("a scan over customer never decoded into an array the orders scan before it had handed back")
		}

		c := fullScan(orders)
		if err := c.Open(ctx); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Next(ctx); err != nil {
			t.Error(err)
			return
		}
		held, err := c.Next(ctx) // block 1: rows 1000..2000
		if err != nil || held == nil {
			t.Errorf("scan C's second batch: %v, err %v", held, err)
			return
		}
		heldArrays := arrays(held)
		for _, st := range []*StoredTable{customer, nation} {
			got, where, err := drain(ctx, fullScan(st), false)
			if err != nil {
				t.Error(err)
				return
			}
			whole("a scan run while C's batch is held", got, st)
			if overlap(where, heldArrays) {
				t.Error("a second scan decoded into arrays scan C still owns")
			}
		}
		sameRows(t, "scan C's held batch", held, orders.Tab, 1000, 2000)
		rest, _, err := drain(ctx, c, true)
		if err != nil {
			t.Error(err)
			return
		}
		sameRows(t, "the rest of scan C", rest.Slice(0, rest.Rows()), orders.Tab, 2000, orders.Tab.Rows())
	})
}

// TestProberRecyclingIsInvisible is the same for the rows a join gathers:
// a second statement's Prober gathers into the arrays the first one's
// handed back at Close — by address — and the first statement's result,
// cloned out batch by batch as a consumer must, is bit for bit what the
// join of the tables says after the second has overwritten them. Strings
// included: an output array goes back cleared and comes back refilled.
func TestProberRecyclingIsInvisible(t *testing.T) {
	orders := ordersLike(9000)
	dim := joinFixture(9000) // d_key 1, 5, 9, …: a quarter of the order keys
	probe := func(tab *table.Table) Operator {
		return NewHashJoin(&Values{Tab: dim}, &Values{Tab: tab}, 0, 0)
	}
	// matches holds got to the join of dim with tab's rows from row lo on:
	// every fourth order, the dimension's two columns in front.
	matches := func(what string, got *table.Table, tab *table.Table, lo int) {
		t.Helper()
		i := 0
		for r := lo; r < tab.Rows(); r++ {
			if (tab.Column(0).I[r]-1)%4 != 0 {
				continue
			}
			if i >= got.Rows() {
				t.Errorf("%s: %d rows, the join has more", what, got.Rows())
				return
			}
			if got.Column(0).I[i] != tab.Column(0).I[r] || got.Column(1).S[i] != "t" {
				t.Errorf("%s: row %d carries dimension row (%d, %q) for order %d", what, i, got.Column(0).I[i], got.Column(1).S[i], tab.Column(0).I[r])
				return
			}
			for c := range tab.Schema.Cols {
				if !sameVector(got.Column(2+c).Slice(i, i+1), tab.Column(c).Slice(r, r+1)) {
					t.Errorf("%s: row %d column %d differs from order %d", what, i, c, tab.Column(0).I[r])
					return
				}
			}
			i++
		}
		if i != got.Rows() {
			t.Errorf("%s: %d rows, the join has %d", what, got.Rows(), i)
		}
	}
	later := orders.Slice(4096, orders.Rows()).Clone() // another statement's rows
	laterTab := table.NewTable(orders.Schema)
	laterTab.AppendBatch(later)

	r := newRig(1)
	r.run(t, func(ctx *Ctx) {
		reused := false
		for try := 0; try < 40 && !reused; try++ { // a sync.Pool may drop what it is given
			a, aArrays, err := drain(ctx, probe(orders), false)
			if err != nil {
				t.Error(err)
				return
			}
			b, bArrays, err := drain(ctx, probe(laterTab), false)
			if err != nil {
				t.Error(err)
				return
			}
			reused = overlap(aArrays, bArrays)
			matches("the first join's cloned rows after the second", a, orders, 0)
			matches("the second join's rows", b, orders, 4096)
		}
		if !reused {
			t.Error("a second Prober never gathered into an array the first had handed back")
		}
	})
}

// TestWarmProberAllocatesHeadersOnly is TestWarmScanAllocatesHeadersOnly
// for the probe side: once the recycler is warm, a whole run of a Prober
// — Open with its build of 16 rows, every Next over 64k probe rows that all
// match, Close — allocates the batch header, its Vectors and the build's
// few rows, not the output arrays and match vectors it used to buy per
// statement: 4 096 rows × (3 × 8 + 16) bytes of columns and two index
// vectors grown to 16 KB — 266 592 bytes at f425ea0, ≈ 2 100 here. The
// same holds when every key matches four build rows, so that the match
// vectors outgrow a probe batch, and the probe side runs through a Filter
// (its selection vector): both grew past the recycler — ≈ 17.6 KB per
// warm run at 1083bd3, ≈ 1.2 KB since they borrow from it.
func TestWarmProberAllocatesHeadersOnly(t *testing.T) {
	probeT := benchInts(benchRows)
	for i, k := range probeT.Column(1).I {
		probeT.Column(1).I[i] = k % 16
	}
	bs := table.NewSchema("dim", table.Col("d_key", table.Int64), table.Col("d_name", table.String))
	for _, tc := range []struct {
		name    string
		matches int // build rows per key
		filter  bool
	}{{"one match per key", 1, false}, {"four matches per key behind a filter", 4, true}} {
		build := table.NewTable(bs)
		for i := 0; i < 16*tc.matches; i++ {
			build.AppendRow(table.IntVal(int64(i%16)), table.StrVal("dim"))
		}
		r := newRig(1)
		r.run(t, func(ctx *Ctx) {
			whole := func() (uint64, error) {
				var probe Operator = &Values{Tab: probeT}
				if tc.filter {
					probe = &Filter{In: probe, Pred: &ColConst{Col: 0, Op: Ge, Val: table.IntVal(0)}}
				}
				j := NewHashJoin(&Values{Tab: build}, probe, 0, 1)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				n, err := RowCount(ctx, j)
				runtime.ReadMemStats(&m1)
				if err == nil && n != int64(benchRows*tc.matches) {
					err = fmt.Errorf("%d rows, want %d", n, benchRows*tc.matches)
				}
				return m1.TotalAlloc - m0.TotalAlloc, err
			}
			const warmProberBytes = 8 << 10
			least := ^uint64(0)
			for try := 0; try < 17 && (try < 2 || least >= warmProberBytes); try++ {
				n, err := whole()
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
					return
				}
				if try > 0 {
					least = min(least, n)
				}
			}
			t.Logf("%s: %d bytes", tc.name, least)
			if least >= warmProberBytes {
				t.Errorf("%s: a warm Prober run allocates %d bytes, want under %d", tc.name, least, warmProberBytes)
			}
		})
	}
}

// TestScanDoubleCloseHandsBackOnce: Close is legal after Close (CONTRACT.md,
// "every fragment is closed on every exit path"), and the second one finds
// nothing to hand back — had it handed the same memory back again, the
// recycler would lend it to two scans at once. Two scans opened after a
// double Close, both mid-block, share no array, selection included, and
// neither holds one array under two columns.
func TestScanDoubleCloseHandsBackOnce(t *testing.T) {
	tab := ordersLike(3000)
	r := newRig(2)
	col, err := PlaceColumnMajor(tab, r.vol, 1, 1024, []compress.Codec{
		compress.Delta, compress.Bitpack, compress.Dict, compress.LZ, compress.Bitpack, compress.Dict, compress.Raw})
	if err != nil {
		t.Fatal(err)
	}
	row, err := PlaceRowMajor(tab, r.vol, 2, 1024, compress.LZ)
	if err != nil {
		t.Fatal(err)
	}
	all := allCols(col)
	pred := func() Pred { return &ColConst{Col: 0, Op: Gt, Val: table.IntVal(10)} } // leaves a selection
	for _, layout := range []struct {
		name string
		mk   func() Operator
	}{
		{"column", func() Operator { return NewColumnScan(col, all, all, pred()) }},
		{"row", func() Operator { return NewRowScan(row, all, pred()) }},
	} {
		name, mk := layout.name, layout.mk
		r.run(t, func(ctx *Ctx) {
			// first opens s and returns where its first batch lies.
			first := func(s Operator) ([]unsafe.Pointer, error) {
				if err := s.Open(ctx); err != nil {
					return nil, err
				}
				b, err := s.Next(ctx)
				if err == nil && (b == nil || b.Sel == nil) {
					err = fmt.Errorf("first batch %v: the predicate should leave a selection", b)
				}
				if err != nil {
					return nil, err
				}
				return arrays(b), nil
			}
			for round := 0; round < 8; round++ {
				x, y, z := mk(), mk(), mk()
				_, err := first(x)
				for i := 0; i < 2 && err == nil; i++ {
					err = x.Close(ctx)
				}
				var held [2][]unsafe.Pointer
				for i, s := range []Operator{y, z} {
					if err == nil {
						held[i], err = first(s)
					}
				}
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				both := append(held[0], held[1]...)
				for i, p := range both {
					if overlap(both[:i], both[i:i+1]) {
						t.Errorf("%s, round %d: array %p is lent out twice among two open scans", name, round, p)
					}
				}
				for _, s := range []Operator{y, z} {
					if err := s.Close(ctx); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
}

// warmScanBytes bounds what one whole scan may allocate once the recycler
// is warm. It is below the smallest block-sized array of the wire_short
// tables that have one worth the name (750 customer rows × 8 bytes), so a
// single array bought per statement trips it.
const warmScanBytes = 4 << 10

// TestWarmScanAllocatesHeadersOnly is the byte pin beside
// TestScanDecodeSteadyStateAllocs' count: once the recycler is warm, a
// whole scan — Open, every Next, Close, with its reader process and the
// volume reads under it — of each statement shape of the eeperf wire_short
// workload allocates headers only: the batch, its Vectors and view and a
// dictionary's intern map (0.7–1.3 KB), and under them the reader
// processes, their mailboxes and the volume's per-request bookkeeping
// (1.3–2.6 KB, by the pages read). The readings at b9566b0, where every
// scan bought the block-sized arrays it decoded into, stand beside each
// shape. The row layout scans the tables' numeric columns, as in
// TestScanDecodeSteadyStateAllocs: a string cell outside a dictionary is
// its own allocation by design.
func TestWarmScanAllocatesHeadersOnly(t *testing.T) {
	db := tpch.Generate(0.005, 2009)
	r := newRig(1)
	eq := func(col int, k int64) Pred { return &ColConst{Col: col, Op: Eq, Val: table.IntVal(k)} }
	for i, sh := range []struct {
		name, table string
		cols        []string // read; the first is the predicate's, the rest are emitted
		key         int64
	}{
		// b9566b0, column / row: 68 360 / 42 800 bytes; here ≈ 2 600–3 100 / 2 100–2 700
		{"point", "customer", []string{"c_custkey", "c_name", "c_acctbal", "c_mktsegment"}, 377},
		// b9566b0: 232 064 / 545 304; here ≈ 1 800–2 600 / 3 900
		{"aggregate", "orders", []string{"o_custkey", "o_totalprice"}, 377},
		// b9566b0: 4 712 / 3 568 (25 rows: no array worth recycling); here ≈ 2 100–2 700 / 2 400
		{"lookup", "nation", []string{"n_nationkey", "n_name", "n_regionkey"}, 7},
	} {
		tab := db.Tables[sh.table]
		col, err := PlaceColumnMajor(tab, r.vol, int32(2*i+1), 8192, tpch.DefaultCodecs(tab.Schema))
		if err != nil {
			t.Fatal(err)
		}
		read := make([]int, len(sh.cols))
		for j, c := range sh.cols {
			read[j] = tab.Schema.MustColIndex(c)
		}
		emit := make([]int, len(read)-1)
		for j := range emit {
			emit[j] = j + 1
		}
		num := numericOnly(tab)
		row, err := PlaceRowMajor(num, r.vol, int32(2*i+2), 8192, compress.LZ)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []struct {
			name string
			mk   func() Operator
		}{
			{"column", func() Operator { return NewColumnScan(col, read, emit, eq(0, sh.key)) }},
			{"row", func() Operator {
				return NewRowScan(row, allCols(row), eq(num.Schema.MustColIndex(sh.cols[0]), sh.key))
			}},
		} {
			layout, mk := l.name, l.mk
			r.run(t, func(ctx *Ctx) {
				// whole is the bytes one scan allocates from Open to Close;
				// a plan's operators are built before it runs.
				whole := func() (bytes uint64, err error) {
					s := mk()
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					if err = s.Open(ctx); err != nil {
						return 0, err
					}
					rows := 0
					for b, err := s.Next(ctx); b != nil || err != nil; b, err = s.Next(ctx) {
						if err != nil {
							return 0, err
						}
						rows += b.Rows()
					}
					if err = s.Close(ctx); err != nil {
						return 0, err
					}
					runtime.ReadMemStats(&m1)
					if rows == 0 {
						return 0, fmt.Errorf("the scan kept no row")
					}
					return m1.TotalAlloc - m0.TotalAlloc, nil
				}
				// The first run buys the arrays. After it, the least of a
				// few: the recycler may drop what it is given (see
				// TestScanRecyclingIsInvisible), and the next scan then buys
				// again.
				least := ^uint64(0)
				for try := 0; try < 17 && (try < 2 || least >= warmScanBytes); try++ {
					n, err := whole()
					if err != nil {
						t.Errorf("%s/%s: %v", sh.name, layout, err)
						return
					}
					if try > 0 {
						least = min(least, n)
					}
				}
				t.Logf("%s/%s: %d bytes", sh.name, layout, least)
				if least >= warmScanBytes {
					t.Errorf("%s/%s: a warm scan allocates %d bytes, want under %d", sh.name, layout, least, warmScanBytes)
				}
			})
		}
	}
}

// drainHeld opens op, made by b, runs it to its end and closes it,
// returning the rows it produced, cloned batch by batch, and every array it
// held borrowed — after Open and after each Next.
func drainHeld(ctx *Ctx, b borrower, op Operator) (*table.Table, []unsafe.Pointer, error) {
	if err := op.Open(ctx); err != nil {
		return nil, nil, err
	}
	var h held
	b.held(op, &h)
	out := table.NewTable(op.Schema())
	for {
		batch, err := op.Next(ctx)
		if err != nil {
			_ = op.Close(ctx)
			return nil, nil, err
		}
		if batch == nil {
			return out, h.pointers(), op.Close(ctx)
		}
		b.held(op, &h)
		out.AppendBatch(batch.Clone())
	}
}

// sameTables reports whether a and b hold the same rows, bit for bit.
func sameTables(a, b *table.Table) bool {
	if a.Rows() != b.Rows() {
		return false
	}
	for c := range a.Schema.Cols {
		if !sameVector(a.Column(c), b.Column(c)) {
			return false
		}
	}
	return true
}

// TestMaterialisingRecyclingIsInvisible is TestProberRecyclingIsInvisible
// for every operator that borrows what it materialises or refills — the
// hash-join build, the aggregation (its per-worker, partition and result
// tables, order and output batch), the sort (its store, permutation and
// output batch) and the projection's registers: a second statement's
// instance works in arrays the first one's handed back, by address, and
// both statements' rows, cloned batch by batch, are bit for bit what each
// gave on its first run, run after run.
func TestMaterialisingRecyclingIsInvisible(t *testing.T) {
	tabs := []*table.Table{ordersLike(9000), ordersLike(6000)}
	for _, b := range borrowers() {
		r := newRig(1)
		r.run(t, func(ctx *Ctx) {
			var want [2]*table.Table
			reused := false
			for try := 0; try < 40 && !reused; try++ { // a sync.Pool may drop what it is given
				var where [2][]unsafe.Pointer
				for i, tab := range tabs {
					got, w, err := drainHeld(ctx, b, b.plan(tab))
					if err != nil {
						t.Errorf("%s: %v", b.name, err)
						return
					}
					if want[i] == nil {
						want[i] = got
					} else if !sameTables(got, want[i]) {
						t.Errorf("%s, statement %d, run %d: the rows differ from its first run's", b.name, i, try)
					}
					where[i] = w
				}
				reused = overlap(where[0], where[1])
			}
			if !reused {
				t.Errorf("%s: the second statement never worked in an array the first had handed back", b.name)
			}
		})
	}
}

// TestMaterialisingDoubleCloseHandsBackOnce is
// TestScanDoubleCloseHandsBackOnce for every borrower: one run to its
// first batch and closed twice hands its memory back once, so two opened
// after it, each run to its first batch, hold no array in common, and
// neither holds one array twice.
func TestMaterialisingDoubleCloseHandsBackOnce(t *testing.T) {
	tab := ordersLike(9000)
	for _, b := range borrowers() {
		r := newRig(1)
		r.run(t, func(ctx *Ctx) {
			// first opens op and returns where its first batch lies and
			// what it holds borrowed, each array once.
			first := func(op Operator) (map[unsafe.Pointer]bool, error) {
				if err := op.Open(ctx); err != nil {
					return nil, err
				}
				batch, err := op.Next(ctx)
				if err == nil && batch == nil {
					err = fmt.Errorf("no first batch")
				}
				if err != nil {
					return nil, err
				}
				var h held
				b.held(op, &h)
				set := map[unsafe.Pointer]bool{}
				for _, p := range h.pointers() {
					if set[p] {
						return nil, fmt.Errorf("array %p is held twice", p)
					}
					set[p] = true
				}
				for _, p := range arrays(batch) {
					set[p] = true
				}
				return set, nil
			}
			for round := 0; round < 8; round++ {
				x, y, z := b.plan(tab), b.plan(tab), b.plan(tab)
				_, err := first(x)
				for i := 0; i < 2 && err == nil; i++ {
					err = x.Close(ctx)
				}
				var sets [2]map[unsafe.Pointer]bool
				for i, op := range []Operator{y, z} {
					if err == nil {
						sets[i], err = first(op)
					}
				}
				if err != nil {
					t.Errorf("%s: %v", b.name, err)
					return
				}
				for p := range sets[0] {
					if sets[1][p] {
						t.Errorf("%s, round %d: array %p is lent out twice among two open operators", b.name, round, p)
					}
				}
				for _, op := range []Operator{y, z} {
					if err := op.Close(ctx); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
}
