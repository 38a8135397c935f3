package exec

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"energydb/internal/energy"
	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/table"
)

// multiCoreCPU2008 is ScanCPU2008 widened to n cores with a non-zero idle
// floor, so parallel-scan tests can observe both the DOP speedup and the
// race-to-idle energy win (idle watts are paid for the whole elapsed time).
func multiCoreCPU2008(n int) hw.CPUSpec {
	spec := hw.ScanCPU2008()
	spec.Name = fmt.Sprintf("scan-cpu-%dc", n)
	spec.Cores = n
	spec.IdleWatts = 40
	spec.ActivePerCore = 20
	return spec
}

// newParRig builds a rig whose CPU has the given core count.
func newParRig(cores, nSSD int) *rig {
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	cpu := hw.NewCPU(eng, meter, "cpu", multiCoreCPU2008(cores))
	devs := make([]storage.BlockDevice, nSSD)
	for i := range devs {
		devs[i] = hw.NewSSD(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	vol := storage.NewVolume("vol", storage.Striped, 16<<10, devs)
	return &rig{eng: eng, meter: meter, cpu: cpu, vol: vol}
}

// parallelColScan builds a DOP-way parallel column scan over st: dop
// fragments sharing one morsel dispenser under a Parallel merge. newPred
// builds a fresh predicate per fragment (predicates carry scratch state
// and must not be shared); nil means no predicate.
func parallelColScan(st *StoredTable, readCols, emit []int, newPred func() Pred, dop, morselBlocks int) *Parallel {
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
	return NewParallel(NewFragments(frags, q, nil))
}

// sortByCol orders batches' rows by an int64 column for order-insensitive
// comparison (parallel scans emit blocks in completion order).
func flattenSorted(t *testing.T, sch *table.Schema, batches []*table.Batch, keyCol int) *table.Table {
	t.Helper()
	out := table.NewTable(sch)
	for _, b := range batches {
		out.AppendBatch(b)
	}
	idx := make([]int, out.Rows())
	for i := range idx {
		idx[i] = i
	}
	key := out.Column(keyCol)
	sort.Slice(idx, func(a, b int) bool { return key.I[idx[a]] < key.I[idx[b]] })
	sorted := table.NewTable(sch)
	for _, r := range idx {
		row := make([]table.Value, len(sch.Cols))
		for c := range sch.Cols {
			row[c] = out.Column(c).Value(r)
		}
		sorted.AppendRow(row...)
	}
	return sorted
}

func tablesEqual(t *testing.T, want, got *table.Table) {
	t.Helper()
	if want.Rows() != got.Rows() {
		t.Fatalf("row count: want %d, got %d", want.Rows(), got.Rows())
	}
	for c := range want.Schema.Cols {
		wv, gv := want.Column(c), got.Column(c)
		for r := 0; r < want.Rows(); r++ {
			if wv.Value(r).Compare(gv.Value(r)) != 0 {
				t.Fatalf("row %d col %d: want %v, got %v", r, c, wv.Value(r), gv.Value(r))
			}
		}
	}
}

func TestParallelColumnScanMatchesSerial(t *testing.T) {
	tab := ordersLike(20000)
	newPred := func() Pred {
		// Position within the read-set batch: o_totalprice is read[1].
		return &ColConst{Col: 1, Op: Lt, Val: table.FloatVal(40000)}
	}
	read := []int{0, 3}       // o_orderkey, o_totalprice
	emit := []int{0, 1}       // both
	var serial *table.Table   // baseline
	var serialElapsed float64 // baseline sim time
	for _, dop := range []int{1, 2, 4, 8} {
		r := newParRig(8, 3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		elapsed := r.run(t, func(ctx *Ctx) {
			var op Operator
			if dop == 0 {
				op = NewColumnScan(st, read, emit, newPred())
			} else {
				op = parallelColScan(st, read, emit, newPred, dop, 2)
			}
			batches, err := Run(ctx, op)
			if err != nil {
				t.Error(err)
				return
			}
			got = flattenSorted(t, op.Schema(), batches, 0)
		})
		if serial == nil {
			// dop==1 over the parallel path is the reference; also check
			// it against the plain serial scan.
			r2 := newParRig(8, 3)
			st2, err := PlaceColumnMajor(tab, r2.vol, 1, 1024, rawCodecs(7))
			if err != nil {
				t.Fatal(err)
			}
			var ser *table.Table
			serialElapsed = r2.run(t, func(ctx *Ctx) {
				op := NewColumnScan(st2, read, emit, newPred())
				batches, err := Run(ctx, op)
				if err != nil {
					t.Error(err)
					return
				}
				ser = flattenSorted(t, op.Schema(), batches, 0)
			})
			serial = ser
		}
		tablesEqual(t, serial, got)
		if dop == 1 {
			// DOP=1 is the serial plan with an extra process hop: results
			// identical (checked above) and timing within a whisker.
			if elapsed > serialElapsed*1.05 {
				t.Fatalf("DOP=1 elapsed %.4fs, serial %.4fs", elapsed, serialElapsed)
			}
		}
	}
}

func TestParallelScanEmptyTable(t *testing.T) {
	r := newParRig(4, 2)
	empty := table.NewTable(ordersLike(0).Schema)
	st, err := PlaceColumnMajor(empty, r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		op := parallelColScan(st, []int{0}, []int{0}, nil, 4, 2)
		n, err := RowCount(ctx, op)
		if err != nil {
			t.Error(err)
		}
		if n != 0 {
			t.Errorf("empty table scan returned %d rows", n)
		}
	})
}

func TestParallelScanFewerBlocksThanWorkers(t *testing.T) {
	// 700 rows in 1024-row blocks = 1 block; 4 workers, 3 of which claim
	// nothing and exit immediately.
	r := newParRig(4, 2)
	tab := ordersLike(700)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		op := parallelColScan(st, []int{0}, []int{0}, nil, 4, 2)
		n, err := RowCount(ctx, op)
		if err != nil {
			t.Error(err)
		}
		if n != 700 {
			t.Errorf("got %d rows, want 700", n)
		}
	})
}

func TestParallelScanDeterministic(t *testing.T) {
	run := func() (float64, energy.Joules, int64) {
		r := newParRig(4, 3)
		tab := ordersLike(12000)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		elapsed := r.run(t, func(ctx *Ctx) {
			op := parallelColScan(st, []int{0, 1}, []int{0, 1}, func() Pred {
				return &ColConst{Col: 1, Op: Gt, Val: table.IntVal(100)}
			}, 4, 2)
			n, err = RowCount(ctx, op)
			if err != nil {
				t.Error(err)
			}
		})
		return elapsed, r.meter.TotalEnergy(energy.Seconds(elapsed)), n
	}
	t1, e1, n1 := run()
	t2, e2, n2 := run()
	if t1 != t2 || e1 != e2 || n1 != n2 {
		t.Fatalf("non-deterministic: (%.9f s, %.6f J, %d rows) vs (%.9f s, %.6f J, %d rows)",
			t1, float64(e1), n1, t2, float64(e2), n2)
	}
}

func TestParallelScanEarlyClose(t *testing.T) {
	// A LIMIT above the merge cancels all workers mid-scan; the engine
	// must drain with no process left blocked.
	r := newParRig(4, 3)
	tab := ordersLike(20000)
	st, err := PlaceColumnMajor(tab, r.vol, 1, 512, rawCodecs(7))
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, func(ctx *Ctx) {
		op := &Limit{In: parallelColScan(st, []int{0}, []int{0}, nil, 4, 2), N: 100}
		n, err := RowCount(ctx, op)
		if err != nil {
			t.Error(err)
		}
		if n != 100 {
			t.Errorf("got %d rows, want 100", n)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live after early close", live)
	}
}

func TestParallelRowScanMatchesSerial(t *testing.T) {
	tab := ordersLike(10000)
	newPred := func() Pred {
		return &ColConst{Col: 3, Op: Ge, Val: table.FloatVal(50000)}
	}
	collect := func(mk func(st *StoredTable) Operator) (*table.Table, *rig) {
		r := newParRig(4, 3)
		st, err := PlaceRowMajor(tab, r.vol, 1, 1024, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		r.run(t, func(ctx *Ctx) {
			op := mk(st)
			batches, err := Run(ctx, op)
			if err != nil {
				t.Error(err)
				return
			}
			got = flattenSorted(t, op.Schema(), batches, 0)
		})
		return got, r
	}
	serial, _ := collect(func(st *StoredTable) Operator {
		rs := NewRowScan(st, []int{0, 3}, newPred())
		rs.Window = 4
		return rs
	})
	par, _ := collect(func(st *StoredTable) Operator {
		q := NewMorsels(st.NumBlocks(), 2)
		frags := make([]Operator, 4)
		for i := range frags {
			rs := NewRowScan(st, []int{0, 3}, newPred())
			rs.Window = 2
			rs.Morsels = q
			frags[i] = rs
		}
		return NewParallel(NewFragments(frags, q, nil))
	})
	tablesEqual(t, serial, par)
}

// TestParallelScanRaceToIdle is the tentpole's acceptance check at the
// operator level: on a multi-core CPU a CPU-bound scan finishes ~DOP×
// sooner while drawing DOP× active power, so elapsed time falls and — with
// a real idle floor amortised over less time — total energy falls too.
func TestParallelScanRaceToIdle(t *testing.T) {
	tab := ordersLike(30000)
	measure := func(dop int) (elapsed float64, joules float64, rows int64) {
		r := newParRig(4, 3)
		st, err := PlaceColumnMajor(tab, r.vol, 1, 1024, rawCodecs(7))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		elapsed = r.run(t, func(ctx *Ctx) {
			newPred := func() Pred {
				return &ColConst{Col: 1, Op: Gt, Val: table.IntVal(0)}
			}
			var op Operator
			if dop == 1 {
				op = NewColumnScan(st, []int{0, 1}, []int{0, 1}, newPred())
			} else {
				op = parallelColScan(st, []int{0, 1}, []int{0, 1}, newPred, dop, 2)
			}
			n, err = RowCount(ctx, op)
			if err != nil {
				t.Error(err)
			}
		})
		return elapsed, float64(r.meter.TotalEnergy(energy.Seconds(elapsed))), n
	}
	t1, e1, n1 := measure(1)
	t4, e4, n4 := measure(4)
	if n1 != n4 {
		t.Fatalf("row counts differ: %d vs %d", n1, n4)
	}
	if t4 >= t1 {
		t.Fatalf("DOP=4 no faster: %.4fs vs %.4fs serial", t4, t1)
	}
	if e4 > e1*1.001 {
		t.Fatalf("DOP=4 used more energy: %.3fJ vs %.3fJ serial", e4, e1)
	}
	t.Logf("serial: %.4fs %.3fJ; DOP=4: %.4fs %.3fJ (%.2fx faster, %.2fx energy)",
		t1, e1, t4, e4, t1/t4, e4/e1)
}

// errExploded is the sentinel errAfterOne fails with; tests assert on it
// with errors.Is, per the typed-error taxonomy (no message matching).
var errExploded = errors.New("fragment exploded")

// errAfterOne produces one row then fails, standing in for a fragment
// hitting e.g. a codec decode error mid-scan.
type errAfterOne struct {
	sch  *table.Schema
	sent bool
}

func (e *errAfterOne) Schema() *table.Schema { return e.sch }
func (e *errAfterOne) Open(ctx *Ctx) error   { e.sent = false; return nil }
func (e *errAfterOne) Close(ctx *Ctx) error  { return nil }
func (e *errAfterOne) Next(ctx *Ctx) (*table.Batch, error) {
	if e.sent {
		return nil, errExploded
	}
	e.sent = true
	b := table.NewBatch(e.sch, 1)
	b.Vecs[0].Append(table.IntVal(1))
	b.SetRows(1)
	return b, nil
}

// TestParallelFragmentErrorFailsFast: when one fragment errors, Next must
// cancel and drain the sibling workers before surfacing the error — the
// doomed query must not scan the rest of the table — and the engine must
// be left with no live process.
func TestParallelFragmentErrorFailsFast(t *testing.T) {
	r := newParRig(4, 3)
	tab := ordersLike(20000)
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
		_, err := Run(ctx, NewParallel(NewFragments(frags, q, nil)))
		if !errors.Is(err, errExploded) {
			t.Errorf("err = %v, want fragment error", err)
		}
	})
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d processes still live after fragment error", live)
	}
}
