package exec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/energy"
	"energydb/internal/sim"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// TestLateColsMask: the late mask names exactly the read columns the
// predicate tree does not read, and is empty — every column decoded first,
// the scan before it was selection-driven — whenever that cannot be known.
func TestLateColsMask(t *testing.T) {
	c := func(col int) Pred { return &ColConst{Col: col, Op: Eq, Val: table.IntVal(1)} }
	cases := []struct {
		name  string
		pred  Pred
		ncols int
		want  uint64
	}{
		{"no predicate", nil, 3, 0},
		{"leaf", c(1), 3, 0b101},
		{"col-col", &ColCol{Left: 0, Right: 2, Op: Lt}, 4, 0b1010},
		{"and/or/not", &And{Preds: []Pred{c(0), &Or{Preds: []Pred{c(3), &Not{Pred: c(4)}}}}}, 6, 0b100110},
		{"every column read", &And{Preds: []Pred{c(0), c(1)}}, 2, 0},
		{"unknown type", TruePred{}, 3, 0},
		{"unknown type in a tree", &And{Preds: []Pred{c(0), TruePred{}}}, 3, 0},
		{"64 columns", c(63), 64, 1<<63 - 1},
		{"65 columns", c(0), 65, 0},
	}
	for _, tc := range cases {
		if got := lateCols(tc.pred, tc.ncols); got != tc.want {
			t.Errorf("%s: late = %#b, want %#b", tc.name, got, tc.want)
		}
	}
}

// keyPreds builds the predicate shapes of the differential test over batch
// column 0, an int column holding keys: none, keeping no row, one key, about
// 2 % of the rows, every row, and Or / Not trees built by hand (the SQL
// dialect has neither). Each call returns fresh predicates: Or and Not
// carry scratch.
func keyPreds(keys []int64) map[string]func() Pred {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	n := len(sorted)
	lo, hi, mid := sorted[0], sorted[n-1], sorted[n/2]
	band := sorted[min(n-1, n/2+max(1, n/50))] // about 2 % of the rows above mid
	k := func(op CmpOp, v int64) Pred { return &ColConst{Col: 0, Op: op, Val: table.IntVal(v)} }
	return map[string]func() Pred{
		"none":    func() Pred { return nil },
		"keep0":   func() Pred { return k(Lt, lo) },
		"onekey":  func() Pred { return k(Eq, mid) },
		"band2pc": func() Pred { return &And{Preds: []Pred{k(Ge, mid), k(Lt, band)}} },
		"all":     func() Pred { return k(Ge, lo) },
		"or": func() Pred {
			return &Or{Preds: []Pred{k(Eq, lo), k(Eq, hi), &And{Preds: []Pred{k(Ge, mid), k(Lt, band)}}}}
		},
		"not":     func() Pred { return &Not{Pred: k(Le, sorted[n-1-max(1, n/50)])} },
		"not-or":  func() Pred { return &Not{Pred: &Or{Preds: []Pred{k(Lt, mid), k(Ge, band)}}} },
		"or-none": func() Pred { return &Or{Preds: []Pred{k(Lt, lo), k(Gt, hi)}} },
	}
}

// drainScan runs scan to its end on a fresh process of r and returns the
// rows it emitted, selection resolved (every batch through Clone, its first
// row through Row as well). It also holds every batch to the row-count rule
// of the selection-driven scan: each vector has the block's physical rows,
// decoded or not.
func drainScan(t *testing.T, r *rig, scan *ColumnScan) *table.Table {
	t.Helper()
	out := table.NewTable(scan.Schema())
	r.run(t, func(ctx *Ctx) {
		if err := scan.Open(ctx); err != nil {
			t.Error(err)
			return
		}
		for {
			b, err := scan.Next(ctx)
			if err != nil {
				t.Error(err)
				break
			}
			if b == nil {
				break
			}
			for c, v := range b.Vecs {
				if v.Len() != b.PhysRows() {
					t.Errorf("column %d has %d cells in a batch of %d physical rows", c, v.Len(), b.PhysRows())
				}
			}
			kept := b.Clone()
			if kept.Rows() > 0 {
				first := b.Row(0)
				for c, v := range kept.Vecs {
					if v.Value(0).Compare(first[c]) != 0 {
						t.Errorf("Row(0) column %d = %v, Clone holds %v", c, first[c], v.Value(0))
					}
				}
			}
			out.AppendBatch(kept)
		}
		if err := scan.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return out
}

// TestScanSelectionDrivenMatchesFullDecode is the differential test of the
// selection-driven scan: on every TPC-H table, with every column in turn
// as the late column behind a predicate on the table's key, the rows
// emitted equal those of the same scan with no late column — every column
// decoded before the predicate, the scan as it was. Customer at SF 0.005
// is a single block (the short-statement shape), lineitem several.
func TestScanSelectionDrivenMatchesFullDecode(t *testing.T) {
	db := tpch.Generate(0.005, 2009)
	if n := db.Tables["customer"].Rows(); n > 8192 {
		t.Fatalf("customer has %d rows: no longer a single block", n)
	}
	if n := db.Tables["lineitem"].Rows(); n <= 2*8192 {
		t.Fatalf("lineitem has %d rows: no longer several blocks", n)
	}
	for name, tab := range db.Tables {
		r := newRig(2)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 8192, tpch.DefaultCodecs(tab.Schema))
		if err != nil {
			t.Fatal(err)
		}
		preds := keyPreds(tab.Column(0).I)
		for ci, col := range tab.Schema.Cols {
			read, emit := []int{0, ci}, []int{0, 1}
			if ci == 0 {
				read, emit = []int{0}, []int{0}
			}
			for shape, mk := range preds {
				driven := NewColumnScan(st, read, emit, mk())
				if shape != "none" && ci != 0 && driven.late != 0b10 {
					t.Fatalf("%s.%s/%s: late mask %#b, want column 1 late", name, col.Name, shape, driven.late)
				}
				full := NewColumnScan(st, read, emit, mk())
				full.late = 0
				got, want := drainScan(t, r, driven), drainScan(t, r, full)
				if got.Rows() != want.Rows() {
					t.Fatalf("%s.%s/%s: %d rows, decoding everything first gives %d", name, col.Name, shape, got.Rows(), want.Rows())
				}
				for c := range emit {
					if !sameVector(got.Column(c), want.Column(c)) {
						t.Fatalf("%s.%s/%s: column %d differs from decoding everything first", name, col.Name, shape, c)
					}
				}
				switch shape {
				case "none", "all":
					if got.Rows() != tab.Rows() {
						t.Fatalf("%s.%s/%s: %d rows of %d", name, col.Name, shape, got.Rows(), tab.Rows())
					}
				case "keep0", "or-none":
					if got.Rows() != 0 {
						t.Fatalf("%s.%s/%s: %d rows, want none", name, col.Name, shape, got.Rows())
					}
				default:
					if got.Rows() == 0 || got.Rows() == tab.Rows() {
						t.Fatalf("%s.%s/%s: %d rows of %d: the shape is meant to keep some", name, col.Name, shape, got.Rows(), tab.Rows())
					}
				}
			}
		}
	}
}

// selectAnchors are the model clock and result of a ColumnScan → HashAgg
// over TPC-H SF 0.005 (seed 2009, default codecs, 8192-row blocks) as
// measured at dd2a808, the parent of the selection-driven scan, which
// decoded every read column before the predicate: float64 bits of sim
// seconds and joules, and fingerprint64 of the groups. The scan charges
// for every read column whatever it decodes, so they must not move.
var selectAnchors = map[string]anchor{
	"customer/point": {0x3f38cf7831227025, 0x3f802ed9d865e6b3, 0x1fbfd33c838616b0},
	"customer/none":  {0x3f38cf0cd1580532, 0x3f802da0abacd96e, 0xcbf29ce484222325},
	"lineitem/band":  {0x3f7fba074d514191, 0x3fce28a2f35137a0, 0x4e43cc40ad190d4f},
	"lineitem/most":  {0x3f803aa5426f3b4c, 0x3fd50894bee95f56, 0x22fea4aa0d9857da},
}

// TestScanSelectionDrivenKeepsModelClock: decoding less is host work only.
// A filtered scan under an aggregation costs the simulated machine exactly
// the seconds and joules it cost at the parent, and yields the same groups
// (order-sensitive float sums included).
func TestScanSelectionDrivenKeepsModelClock(t *testing.T) {
	db := tpch.Generate(0.005, 2009)
	cust, li := db.Tables["customer"], db.Tables["lineitem"]
	cols := func(tab *table.Table, names ...string) []int {
		out := make([]int, len(names))
		for i, n := range names {
			out[i] = tab.Schema.MustColIndex(n)
		}
		return out
	}
	custRead := cols(cust, "c_custkey", "c_name", "c_acctbal", "c_mktsegment")
	liRead := cols(li, "l_orderkey", "l_quantity", "l_extendedprice", "l_returnflag", "l_shipdate")
	keys, dates := slices.Clone(li.Column(liRead[0]).I), slices.Clone(li.Column(liRead[4]).I)
	slices.Sort(keys)
	slices.Sort(dates)
	cases := []struct {
		name    string
		tab     *table.Table
		read    []int
		pred    Pred
		groupBy []int
		specs   []AggSpec
	}{
		{"customer/point", cust, custRead, &ColConst{Col: 0, Op: Eq, Val: table.IntVal(377)},
			[]int{1, 3}, []AggSpec{{Func: Sum, Col: 2, As: "bal"}, {Func: Count, As: "n"}}},
		{"customer/none", cust, custRead, &ColConst{Col: 0, Op: Lt, Val: table.IntVal(0)},
			[]int{3}, []AggSpec{{Func: Sum, Col: 2, As: "bal"}, {Func: Count, As: "n"}}},
		{"lineitem/band", li, liRead, &And{Preds: []Pred{
			&ColConst{Col: 0, Op: Ge, Val: table.IntVal(keys[len(keys)/2])},
			&ColConst{Col: 0, Op: Lt, Val: table.IntVal(keys[len(keys)/2+len(keys)/50])}}},
			[]int{3}, []AggSpec{{Func: Sum, Col: 2, As: "price"}, {Func: Sum, Col: 1, As: "qty"}, {Func: Count, As: "n"}}},
		{"lineitem/most", li, liRead, &ColConst{Col: 4, Op: Le, Val: table.DateVal(dates[len(dates)-len(dates)/50])},
			[]int{3}, []AggSpec{{Func: Sum, Col: 2, As: "price"}, {Func: Sum, Col: 1, As: "qty"}, {Func: Count, As: "n"}}},
	}
	for _, tc := range cases {
		r := newRig(2)
		st, err := PlaceColumnMajor(tc.tab, r.vol, 1, 8192, tpch.DefaultCodecs(tc.tab.Schema))
		if err != nil {
			t.Fatal(err)
		}
		emit := make([]int, len(tc.read))
		for i := range emit {
			emit[i] = i
		}
		var got *table.Table
		elapsed := r.run(t, func(ctx *Ctx) {
			scan := NewColumnScan(st, tc.read, emit, tc.pred)
			if got, err = Collect(ctx, NewHashAgg(OneFragment(scan), tc.groupBy, tc.specs)); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			continue
		}
		joules := float64(r.meter.TotalEnergy(energy.Seconds(elapsed)))
		want := selectAnchors[tc.name]
		if eb, jb, fp := math.Float64bits(elapsed), math.Float64bits(joules), fingerprint64(got); eb != want.elapsed || jb != want.joules || fp != want.fp {
			t.Errorf("%s: model clock and result {%#x, %#x, %#x} (%.9f s, %.9f J, %d groups), parent recorded {%#x, %#x, %#x}",
				tc.name, eb, jb, fp, elapsed, joules, got.Rows(), want.elapsed, want.joules, want.fp)
		}
	}
}

// TestCorruptLateColumnBlock pins the corruption rule of the
// selection-driven scan both ways: a block is validated when it is decoded,
// and only then. A corrupt block of a late column fails the statement,
// typed, with everything closed behind it, as soon as one row of the block
// survives the predicate; a predicate that keeps none of its rows never
// decodes it, and the statement succeeds with the intact table's result.
func TestCorruptLateColumnBlock(t *testing.T) {
	tab := ordersLike(6144)
	place := func(r *rig, corrupt bool) *StoredTable {
		codecs := rawCodecs(7)
		codecs[0], codecs[3], codecs[5] = compress.Delta, compress.LZ, compress.Dict
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, codecs)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			// Block 1 holds keys 1025..2048.
			st.cols[3][1].enc = []byte{0xff, 0xff, 0xff}
			st.cols[5][1].enc = []byte{0xD1, 0xff, 0xff, 0xff}
		}
		return st
	}
	// One statement: sum and count over the rows a key predicate keeps,
	// reading one of the corrupted columns late.
	run := func(corrupt bool, late int, pred Pred) (*table.Table, error) {
		r := newRig(2)
		st := place(r, corrupt)
		var got *table.Table
		var err error
		r.eng.Go("query", func(p *sim.Proc) {
			ctx := NewCtx(p, r.cpu)
			scan := NewColumnScan(st, []int{0, late}, []int{0, 1}, pred)
			if scan.late != 2 {
				t.Errorf("late mask %#b, want column 1 late", scan.late)
			}
			got, err = Collect(ctx, NewHashAgg(OneFragment(scan), nil, []AggSpec{{Func: Sum, Col: 0, As: "s"}, {Func: Count, As: "n"}}))
		})
		if rerr := r.eng.Run(); rerr != nil {
			t.Errorf("Run = %v, want nil", rerr)
		}
		if live := r.eng.Live(); live != 0 {
			t.Errorf("%d live process(es) after drain: %v", live, r.eng.LiveNames())
		}
		return got, err
	}
	key := func(op CmpOp, v int64) Pred { return &ColConst{Col: 0, Op: op, Val: table.IntVal(v)} }
	for _, late := range []int{3, 5} {
		name := tab.Schema.Cols[late].Name
		// One surviving row inside the corrupt block.
		if _, err := run(true, late, key(Eq, 1500)); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: a surviving row in the corrupt block: err = %v, want compress.ErrCorrupt", name, err)
		}
		// No surviving row inside it: keys outside 1025..2048.
		outside := func() Pred { return &Or{Preds: []Pred{key(Le, 1024), key(Gt, 2048)}} }
		got, err := run(true, late, outside())
		if err != nil {
			t.Errorf("%s: no surviving row in the corrupt block: err = %v, want success", name, err)
			continue
		}
		want, err := run(false, late, outside())
		if err != nil {
			t.Fatal(err)
		}
		tablesEqual(t, want, got)
		if n := got.Column(1).I[0]; n != 6144-1024 {
			t.Errorf("%s: counted %d rows, want %d", name, n, 6144-1024)
		}
	}
}

// TestDictSparseDecodeAllocsFollowSurvivors: what a point lookup into a
// near-unique dictionary column allocates follows the rows it keeps, not
// the block: one string per surviving cell, against one per symbol for the
// whole block.
func TestDictSparseDecodeAllocsFollowSurvivors(t *testing.T) {
	cust := tpch.Generate(0.005, 2009).Tables["customer"]
	st, err := PlaceColumnMajor(cust, newRig(1).vol, 1, 8192, tpch.DefaultCodecs(cust.Schema))
	if err != nil {
		t.Fatal(err)
	}
	ctx := benchCtx()
	read := []int{0, cust.Schema.MustColIndex("c_name")}
	allocs := func(pred Pred) float64 {
		return testing.AllocsPerRun(10, func() {
			scan := NewColumnScan(st, read, []int{0, 1}, pred)
			out, err := scan.decodeEmit(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pred != nil && (out.Rows() != 1 || out.Row(0)[1].S != fmt.Sprintf("Customer#%09d", 377)) {
				t.Fatalf("point lookup returned %d rows", out.Rows())
			}
		})
	}
	point, whole := allocs(&ColConst{Col: 0, Op: Eq, Val: table.IntVal(377)}), allocs(nil)
	if whole < float64(cust.Rows()) {
		t.Fatalf("decoding the whole block: %v allocs for %d distinct names — the column is not near-unique", whole, cust.Rows())
	}
	if point > 40 {
		t.Errorf("a one-row lookup allocates %v objects (the whole block: %v): it should not follow the block", point, whole)
	}
}
