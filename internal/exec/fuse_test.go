package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"energydb/internal/energy"
	"energydb/internal/fault"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// refEval is the reference the compiled kernel is held to: e over one row
// of boxed values, node at a time, by the promotion rule in words — Div
// and int/float mixes are float64, integer arithmetic wraps and is
// DECIMAL beside a DECIMAL operand, else keeps its left operand's type,
// division by zero is zero.
func refEval(e Scalar, row []table.Value) table.Value {
	switch v := e.(type) {
	case *ColRef:
		return row[v.Col]
	case *Const:
		return v.Val
	}
	a := e.(*Arith)
	l, r := refEval(a.L, row), refEval(a.R, row)
	asF := func(v table.Value) float64 {
		if v.Type.Physical() == table.PhysFloat {
			return v.F
		}
		return float64(v.I)
	}
	if a.Op == Div || l.Type.Physical() == table.PhysFloat || r.Type.Physical() == table.PhysFloat {
		x, y := asF(l), asF(r)
		switch {
		case a.Op == Add:
			return table.FloatVal(x + y)
		case a.Op == Sub:
			return table.FloatVal(x - y)
		case a.Op == Mul:
			return table.FloatVal(x * y)
		case y == 0:
			return table.FloatVal(0)
		}
		return table.FloatVal(x / y)
	}
	typ := l.Type
	if r.Type == table.Decimal {
		typ = r.Type
	}
	return table.Value{Type: typ, I: [...]int64{l.I + r.I, l.I - r.I, l.I * r.I}[a.Op]}
}

// arithNodes counts the Arith nodes of e: what a batch is charged for.
func arithNodes(e Scalar) int {
	if a, ok := e.(*Arith); ok {
		return 1 + arithNodes(a.L) + arithNodes(a.R)
	}
	return 0
}

// fuseSchema is the input of the differential test: two int64 columns (the
// second full of zeros, for Div), a decimal, two floats (again one with
// zeros) and a string, which only a bare column reference may name.
var fuseSchema = table.NewSchema("t",
	table.Col("a", table.Int64), table.Col("z", table.Int64), table.Col("d", table.Decimal),
	table.Col("x", table.Float64), table.Col("y", table.Float64), table.Col("s", table.String))

func fuseBatch(rng *rand.Rand, n int) *table.Batch {
	b := table.NewBatch(fuseSchema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(table.IntVal(rng.Int63n(2000)-1000), table.IntVal(rng.Int63n(3)-1),
			table.DecimalVal(rng.Int63()), // large: integer products wrap
			table.FloatVal(rng.NormFloat64()*1e3), table.FloatVal(float64(rng.Intn(3)-1)),
			table.StrVal(fmt.Sprintf("s%d", i)))
	}
	return b
}

// randScalar draws a tree of at most the given depth whose arithmetic is
// over the numeric columns and numeric constants, on either side; depth 0
// — and one draw in four above it — is a leaf, so roots are sometimes a
// bare column (the string one included) or a bare constant.
func randScalar(rng *rand.Rand, depth int, root bool) Scalar {
	if depth == 0 || rng.Intn(4) == 0 {
		switch k := rng.Intn(8); {
		case k < 5:
			return &ColRef{Col: k}
		case k == 5 && root:
			return []Scalar{&ColRef{Col: 5}, &Const{Val: table.StrVal("k")}}[rng.Intn(2)]
		case k == 6:
			return &Const{Val: table.FloatVal(float64(rng.Intn(5)) / 2)}
		}
		return &Const{Val: table.IntVal(rng.Int63n(5) - 1)}
	}
	return &Arith{Op: ArithOp(rng.Intn(4)), L: randScalar(rng, depth-1, false), R: randScalar(rng, depth-1, false)}
}

// TestFusedExprMatchesReference: over seeded random trees the compiled
// kernel — one instance carried across batches that grow and shrink —
// equals the reference bit for bit on every selected cell, returns
// PhysRows cells whatever the selection, and charges exactly selected
// rows × Arith nodes × ProjectCyclesPerRow.
func TestFusedExprMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	type input struct {
		b    *table.Batch
		sel  []int32 // installed as the batch's selection; nil: none
		rows []int32 // the physical rows that selects
	}
	var inputs []input
	for _, n := range []int{511, 8192, 1} {
		b := fuseBatch(rng, n)
		all := iotaSel(new([][]int32), new([]int32), n)
		pick := func(p float64) []int32 {
			return slices.DeleteFunc(slices.Clone(all), func(int32) bool { return rng.Float64() >= p })
		}
		dense, sparse := pick(0.7), pick(0.04)
		inputs = append(inputs, input{b, nil, all}, input{b, dense, dense}, input{b, sparse, sparse}, input{b, all[:0], nil})
	}
	r := newRig(1)
	mem := new(batchMem)
	// check holds one evaluation to the reference; it runs on the query
	// process, so it reports instead of failing the test from there.
	check := func(ctx *Ctx, e Scalar, k *FusedExpr, typ table.Type, b *table.Batch, rows []int32) error {
		before := r.cpu.TotalCycles()
		got := k.EvalInto(ctx, b, mem)
		charged := r.cpu.TotalCycles() - before
		if want := float64(len(rows)) * float64(arithNodes(e)) * ctx.Costs.ProjectCyclesPerRow; charged != want {
			return fmt.Errorf("charged %v cycles, want %v", charged, want)
		}
		if got.Type != typ || got.Len() != b.PhysRows() {
			return fmt.Errorf("a %v vector of %d cells, want %v of %d", got.Type, got.Len(), typ, b.PhysRows())
		}
		row := make([]table.Value, len(b.Vecs))
		for _, i := range rows {
			for c, v := range b.Vecs {
				row[c] = v.Value(int(i))
			}
			g, w := got.Value(int(i)), refEval(e, row)
			if g.Type != w.Type || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) || g.S != w.S {
				return fmt.Errorf("row %d: got %+v, reference %+v", i, g, w)
			}
		}
		return nil
	}
	r.run(t, func(ctx *Ctx) {
		for tree := 0; tree < 80; tree++ {
			e := randScalar(rng, 1+tree%5, true)
			k, typ, err := compileScalar(e, fuseSchema)
			if err != nil {
				t.Errorf("%v: %v", e, err)
				return
			}
			for _, in := range inputs {
				if in.sel == nil {
					in.b.SetRows(in.b.PhysRows())
				} else {
					in.b.SetSel(in.sel)
				}
				if err := check(ctx, e, &k, typ, in.b, in.rows); err != nil {
					t.Errorf("%v over %d of %d rows: %v", e, len(in.rows), in.b.PhysRows(), err)
					return
				}
			}
		}
	})
}

// TestFuseRefusesStringArithmetic: a string under an Arith is a typed
// error when the projection is built — with the string a column or a
// constant, on either side, at any depth — never a panic on the first
// batch; a string the projection only passes through is fine.
func TestFuseRefusesStringArithmetic(t *testing.T) {
	in := &Values{Tab: table.NewTable(fuseSchema)}
	one, str, name := &Const{Val: table.IntVal(1)}, &Const{Val: table.StrVal("x")}, &ColRef{Col: 5}
	for _, e := range []Scalar{
		&Arith{Op: Add, L: name, R: one},
		&Arith{Op: Mul, L: one, R: name},
		&Arith{Op: Add, L: str, R: one},
		&Arith{Op: Div, L: &ColRef{Col: 3}, R: &Arith{Op: Sub, L: one, R: str}},
	} {
		if _, err := NewProject(in, []Scalar{e}, []string{"x"}); !errors.Is(err, fault.ErrType) {
			t.Errorf("%v: error %v, want fault.ErrType", e, err)
		}
	}
	if _, err := NewProject(in, []Scalar{name, str}, []string{"s", "k"}); err != nil {
		t.Errorf("string column and constant passed through: %v", err)
	}
}

// projectAnchors are the model clock and result of ColumnScan → Project →
// HashAgg over lineitem (TPC-H SF 0.005, seed 2009, default codecs,
// 8192-row blocks) as measured at 9d264a0, when a projection's constants
// and columns went through the node-at-a-time evaluator and its arithmetic
// through the fused one: float64 bits of sim seconds and joules, and
// fingerprint64 of the groups.
var projectAnchors = map[string]anchor{
	"project/all":    {0x3f7a6fe870415b95, 0x3fd33d894d712202, 0x1c0255daee669c9a},
	"project/dense":  {0x3f7a7d7144e6b9de, 0x3fd3a78a228337ae, 0x9e0be7536da56060},
	"project/sparse": {0x3f797cd5be8defc2, 0x3fc77cbd4e37ffac, 0xf8aeaf661c82520d},
}

// TestProjectKeepsModelClock: one evaluator in place of three is host
// work only. Q1's SUM(l_extendedprice * (1 - l_discount)) shape beside a
// constant-root and a column-only expression costs the simulated machine
// the seconds and joules it cost at the parent and sums to the same bits,
// unfiltered and under a dense and a sparse selection.
func TestProjectKeepsModelClock(t *testing.T) {
	li := tpch.Generate(0.005, 2009).Tables["lineitem"]
	read := []int{li.Schema.MustColIndex("l_extendedprice"), li.Schema.MustColIndex("l_discount"),
		li.Schema.MustColIndex("l_returnflag"), li.Schema.MustColIndex("l_shipdate")}
	dates := slices.Clone(li.Column(read[3]).I)
	slices.Sort(dates)
	for _, tc := range []struct {
		name string
		pred Pred
	}{
		{"project/all", nil},
		{"project/dense", &ColConst{Col: 3, Op: Le, Val: table.DateVal(dates[len(dates)-len(dates)/50])}},
		{"project/sparse", &ColConst{Col: 3, Op: Lt, Val: table.DateVal(dates[len(dates)/50])}},
	} {
		r := newRig(2)
		st, err := PlaceColumnMajor(li, r.vol, 1, 8192, tpch.DefaultCodecs(li.Schema))
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Table
		elapsed := r.run(t, func(ctx *Ctx) {
			scan := NewColumnScan(st, read, []int{0, 1, 2, 3}, tc.pred)
			proj := mustProject(t, scan, []Scalar{
				&ColRef{Col: 2},
				&Const{Val: table.IntVal(1)},
				&Arith{Op: Mul, L: &ColRef{Col: 0}, R: &Arith{Op: Sub, L: &Const{Val: table.IntVal(1)}, R: &ColRef{Col: 1}}},
			}, []string{"flag", "one", "disc_price"})
			agg := NewHashAgg(OneFragment(proj), []int{0}, []AggSpec{
				{Func: Sum, Col: 2, As: "revenue"}, {Func: Sum, Col: 1, As: "ones"}, {Func: Count, As: "n"}})
			if got, err = Collect(ctx, agg); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			continue
		}
		joules := float64(r.meter.TotalEnergy(energy.Seconds(elapsed)))
		want := projectAnchors[tc.name]
		if eb, jb, fp := math.Float64bits(elapsed), math.Float64bits(joules), fingerprint64(got); eb != want.elapsed || jb != want.joules || fp != want.fp {
			t.Errorf("%s: model clock and result {%#x, %#x, %#x} (%.9f s, %.9f J, %d groups), parent recorded {%#x, %#x, %#x}",
				tc.name, eb, jb, fp, elapsed, joules, got.Rows(), want.elapsed, want.joules, want.fp)
		}
	}
}

// TestProjectSteadyStateAllocs: after its first batch a projection's Next
// allocates nothing — column, constant and arithmetic outputs alike —
// whether the batches arrive whole, densely selected or nearly empty.
func TestProjectSteadyStateAllocs(t *testing.T) {
	tab := benchInts(200 * 512)
	ctx := benchCtx()
	for _, tc := range []struct {
		name string
		pred Pred
	}{
		{"whole", nil},
		{"dense", &ColConst{Col: 1, Op: Lt, Val: table.IntVal(700)}},
		{"sparse", &ColConst{Col: 1, Op: Lt, Val: table.IntVal(20)}},
	} {
		var in Operator = &Values{Tab: tab, BatchRows: 512}
		if tc.pred != nil {
			in = &Filter{In: in, Pred: tc.pred}
		}
		p := mustProject(t, in, []Scalar{
			&ColRef{Col: 0},
			&Const{Val: table.FloatVal(0.5)},
			&Arith{Op: Div, L: &Arith{Op: Mul, L: &ColRef{Col: 1}, R: &Const{Val: table.IntVal(2)}}, R: &ColRef{Col: 0}},
		}, []string{"k", "half", "x"})
		next := func() {
			if b, err := p.Next(ctx); err != nil || b == nil || len(b.Vecs) != 3 {
				t.Fatalf("%s: batch %v, err %v", tc.name, b, err)
			}
		}
		if err := p.Open(ctx); err != nil {
			t.Fatal(err)
		}
		next() // the first batch sizes the registers and fills the constant
		if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
			t.Errorf("%s: %v allocs per batch in steady state, want 0", tc.name, allocs)
		}
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
