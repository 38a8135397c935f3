package opt

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/energy"
	"energydb/internal/exec"
	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/table"
)

// testWorld is a catalog over a simulated 1-CPU + 3-SSD machine with two
// relations: a fact table (ordersish) and a small dimension (custish).
type testWorld struct {
	eng   *sim.Engine
	meter *energy.Meter
	cpu   *hw.CPU
	vol   *storage.Volume
	cat   *Catalog
	env   *Env
}

func newWorld(t *testing.T, factRows, dimRows int) *testWorld {
	t.Helper()
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	cpu := hw.NewCPU(eng, meter, "cpu", hw.ScanCPU2008())
	devs := make([]storage.BlockDevice, 3)
	for i := range devs {
		devs[i] = hw.NewDisk(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	vol := storage.NewVolume("vol", storage.Striped, 16<<10, devs)

	fact := factTable(factRows)
	dim := dimTable(dimRows)
	cat := NewCatalog()

	addRel := func(tab *table.Table, fileBase int32) {
		colsRaw := make([]compress.Codec, len(tab.Schema.Cols))
		colsLZ := make([]compress.Codec, len(tab.Schema.Cols))
		for i := range colsRaw {
			colsRaw[i] = compress.Raw
			colsLZ[i] = compress.LZ
		}
		stRaw, err := exec.PlaceColumnMajor(tab, vol, fileBase, 8192, colsRaw)
		if err != nil {
			t.Fatal(err)
		}
		stLZ, err := exec.PlaceColumnMajor(tab, vol, fileBase+1, 8192, colsLZ)
		if err != nil {
			t.Fatal(err)
		}
		stRow, err := exec.PlaceRowMajor(tab, vol, fileBase+2, 8192, compress.Raw)
		if err != nil {
			t.Fatal(err)
		}
		cat.Add(tab.Schema.Name, &Placement{
			Variants: []Variant{
				{Name: "col/raw", ST: stRaw},
				{Name: "col/lz", ST: stLZ},
				{Name: "row/raw", ST: stRow},
			},
			Stats: Analyze(tab),
		})
	}
	addRel(fact, 10)
	addRel(dim, 20)

	spec := hw.FlashSSD2008()
	env := &Env{
		CPUFreqHz:       2.4e9,
		Cores:           1,
		ScanBW:          3 * spec.SeqReadBW,
		PageLatency:     spec.Latency,
		PageBytes:       16 << 10,
		CPUWattPerCore:  90,
		StorageWatt:     5,
		DRAMWattPerByte: 1.3e-9, // ~1.3 W/GB datasheet
		Costs:           exec.DefaultCosts(),
	}
	return &testWorld{eng: eng, meter: meter, cpu: cpu, vol: vol, cat: cat, env: env}
}

func factTable(n int) *table.Table {
	s := table.NewSchema("fact",
		table.Col("f_key", table.Int64),
		table.Col("f_dim", table.Int64),
		table.Col("f_price", table.Float64),
		table.ColW("f_tag", table.String, 10),
	)
	rng := rand.New(rand.NewSource(11))
	tags := []string{"alpha", "beta", "gamma", "delta"}
	t := table.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendRow(
			table.IntVal(int64(i)),
			table.IntVal(rng.Int63n(50)),
			table.FloatVal(rng.Float64()*1000),
			table.StrVal(tags[rng.Intn(len(tags))]),
		)
	}
	return t
}

func dimTable(n int) *table.Table {
	s := table.NewSchema("dim",
		table.Col("d_key", table.Int64),
		table.ColW("d_name", table.String, 12),
	)
	t := table.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendRow(table.IntVal(int64(i)), table.StrVal(fmt.Sprintf("dim-%03d", i)))
	}
	return t
}

// execute runs a plan on the world's hardware and returns the result.
func (w *testWorld) execute(t *testing.T, plan *Plan) *table.Table {
	t.Helper()
	var out *table.Table
	w.eng.Go("query", func(p *sim.Proc) {
		ctx := exec.NewCtx(p, w.cpu)
		op, err := plan.Build(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		out, err = exec.Collect(ctx, op)
		if err != nil {
			t.Error(err)
		}
	})
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func col(tbl, c string) ColRef { return ColRef{Table: tbl, Col: c} }

func TestOptimizeSingleTableFilter(t *testing.T) {
	w := newWorld(t, 20000, 50)
	q := &Query{
		Tables: []string{"f"},
		Rels:   map[string]string{"f": "fact"},
		Preds: []PredIR{
			{Left: col("f", "f_dim"), Op: exec.Eq, Val: table.IntVal(7)},
		},
		Outputs: []OutputIR{
			{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "k"},
		},
		Limit: -1,
	}
	plan, err := Optimize(q, w.cat, w.env, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	got := w.execute(t, plan)

	// Cross-check against the raw data.
	fact, _ := w.cat.Get("fact")
	tab := fact.Variants[0].ST.Tab
	want := 0
	for i := 0; i < tab.Rows(); i++ {
		if tab.Column(1).I[i] == 7 {
			want++
		}
	}
	if got.Rows() != want {
		t.Fatalf("rows = %d, want %d", got.Rows(), want)
	}
	if !strings.Contains(plan.Explain(), "scan") {
		t.Fatal("explain missing scan node")
	}
}

func TestAccessPathFlipsWithObjective(t *testing.T) {
	// The Figure 2 flip at plan level: on a 90 W CPU with 5 W flash, the
	// time objective should choose the compressed variant (less I/O, scan
	// is I/O-bound) while the energy objective should choose raw (the
	// decompression cycles cost more joules than the saved I/O).
	// Scan a compressible column (small ints compress ~5x under LZ); a
	// random-float column would make raw optimal under both objectives.
	w := newWorld(t, 30000, 50)
	q := func() *Query {
		return &Query{
			Tables: []string{"f"},
			Rels:   map[string]string{"f": "fact"},
			Outputs: []OutputIR{
				{Agg: &AggIR{Func: exec.Sum, Arg: &ExprIR{Col: &ColRef{Table: "f", Col: "f_dim"}}, As: "s"}},
			},
			Limit: -1,
		}
	}
	timePlan, err := Optimize(q(), w.cat, w.env, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	energyPlan, err := Optimize(q(), w.cat, w.env, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	tv := findScanVariant(timePlan.Root)
	ev := findScanVariant(energyPlan.Root)
	if tv != "col/lz" {
		t.Errorf("time objective chose %q, want col/lz\n%s", tv, timePlan.Explain())
	}
	if ev != "col/raw" {
		t.Errorf("energy objective chose %q, want col/raw\n%s", ev, energyPlan.Explain())
	}
	// Both models must agree with their own accounting.
	if timePlan.Cost().Seconds > energyPlan.Cost().Seconds {
		t.Error("time-optimal plan is slower than energy-optimal plan")
	}
	if energyPlan.Cost().Joules > timePlan.Cost().Joules {
		t.Error("energy-optimal plan uses more joules than time-optimal plan")
	}
}

func findScanVariant(n PhysNode) string {
	switch v := n.(type) {
	case *PScan:
		return v.Variant.Name
	case *PJoin:
		if s := findScanVariant(v.Left); s != "" {
			return s
		}
		return findScanVariant(v.Right)
	case *PFilter:
		return findScanVariant(v.In)
	case *PProject:
		return findScanVariant(v.In)
	case *PAgg:
		return findScanVariant(v.In)
	case *PSort:
		return findScanVariant(v.In)
	case *PLimit:
		return findScanVariant(v.In)
	default:
		return ""
	}
}

func TestJoinPlanCorrectness(t *testing.T) {
	w := newWorld(t, 5000, 50)
	q := &Query{
		Tables: []string{"f", "d"},
		Rels:   map[string]string{"f": "fact", "d": "dim"},
		Preds: []PredIR{
			{Left: col("f", "f_dim"), Op: exec.Eq, Right: col("d", "d_key"), IsJoin: true},
			{Left: col("d", "d_key"), Op: exec.Lt, Val: table.IntVal(10)},
		},
		Outputs: []OutputIR{
			{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "k"},
			{Expr: &ExprIR{Col: &ColRef{Table: "d", Col: "d_name"}}, As: "n"},
		},
		Limit: -1,
	}
	plan, err := Optimize(q, w.cat, w.env, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	got := w.execute(t, plan)

	fact, _ := w.cat.Get("fact")
	tab := fact.Variants[0].ST.Tab
	want := 0
	for i := 0; i < tab.Rows(); i++ {
		if tab.Column(1).I[i] < 10 {
			want++
		}
	}
	if got.Rows() != want {
		t.Fatalf("join rows = %d, want %d", got.Rows(), want)
	}
}

func TestJoinAlgorithmFlipsWithMemoryPower(t *testing.T) {
	// §4.1: pricing memory steeply should tip the optimizer from hash
	// join to nested-loop join. With an 8-row dimension the NL penalty is
	// small; sweep the DRAM holding-power knob until the flip happens.
	w := newWorld(t, 200000, 8)
	mkQ := func() *Query {
		return &Query{
			Tables: []string{"f", "d"},
			Rels:   map[string]string{"f": "fact", "d": "dim"},
			Preds: []PredIR{
				{Left: col("f", "f_dim"), Op: exec.Eq, Right: col("d", "d_key"), IsJoin: true},
			},
			Outputs: []OutputIR{
				{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "k"},
			},
			Limit: -1,
		}
	}
	algoAt := func(wattPerByte float64, obj Objective) string {
		env := *w.env
		env.DRAMWattPerByte = wattPerByte
		plan, err := Optimize(mkQ(), w.cat, &env, obj)
		if err != nil {
			t.Fatal(err)
		}
		return findJoinAlgo(plan.Root)
	}
	// At datasheet power both objectives pick hash.
	if a := algoAt(1.3e-9, MinTime); a != "hash" {
		t.Fatalf("time objective picked %q at datasheet power", a)
	}
	if a := algoAt(1.3e-9, MinEnergy); a != "hash" {
		t.Fatalf("energy objective picked %q at datasheet power", a)
	}
	// Sweep upward: the energy objective must flip to NL at some price
	// while the time objective never moves (memory watts don't cost time).
	flipped := false
	for _, wpb := range []float64{1e-6, 1e-4, 1e-2, 1} {
		if algoAt(wpb, MinEnergy) == "nl" {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("energy objective never flipped to nested-loop join")
	}
	if a := algoAt(1, MinTime); a != "hash" {
		t.Fatalf("time objective flipped to %q — it should ignore memory power", a)
	}
}

func findJoinAlgo(n PhysNode) string {
	switch v := n.(type) {
	case *PJoin:
		return v.Algo
	case *PFilter:
		return findJoinAlgo(v.In)
	case *PProject:
		return findJoinAlgo(v.In)
	case *PAgg:
		return findJoinAlgo(v.In)
	case *PSort:
		return findJoinAlgo(v.In)
	case *PLimit:
		return findJoinAlgo(v.In)
	default:
		return ""
	}
}

func TestAggregationPlan(t *testing.T) {
	w := newWorld(t, 8000, 50)
	q := &Query{
		Tables: []string{"f"},
		Rels:   map[string]string{"f": "fact"},
		Outputs: []OutputIR{
			{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_tag"}}, As: "tag"},
			{Agg: &AggIR{Func: exec.Count, As: "n"}, As: "n"},
			{Agg: &AggIR{Func: exec.Sum, Arg: &ExprIR{Col: &ColRef{Table: "f", Col: "f_price"}}, As: "rev"}, As: "rev"},
		},
		GroupBy: []ColRef{col("f", "f_tag")},
		OrderBy: []OrderIR{{Output: 0}},
		Limit:   -1,
	}
	plan, err := Optimize(q, w.cat, w.env, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	got := w.execute(t, plan)
	if got.Rows() != 4 {
		t.Fatalf("groups = %d, want 4", got.Rows())
	}
	var n int64
	for i := 0; i < got.Rows(); i++ {
		n += got.Column(1).I[i]
	}
	if n != 8000 {
		t.Fatalf("counts sum to %d", n)
	}
	// Sorted by tag ascending.
	for i := 1; i < got.Rows(); i++ {
		if got.Column(0).S[i] < got.Column(0).S[i-1] {
			t.Fatal("order by violated")
		}
	}
}

func TestLimitPlan(t *testing.T) {
	w := newWorld(t, 5000, 50)
	q := &Query{
		Tables:  []string{"f"},
		Rels:    map[string]string{"f": "fact"},
		Outputs: []OutputIR{{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "k"}},
		Limit:   7,
	}
	plan, err := Optimize(q, w.cat, w.env, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	got := w.execute(t, plan)
	if got.Rows() != 7 {
		t.Fatalf("rows = %d, want 7", got.Rows())
	}
}

func TestDisconnectedJoinGraphErrors(t *testing.T) {
	w := newWorld(t, 100, 10)
	q := &Query{
		Tables:  []string{"f", "d"},
		Rels:    map[string]string{"f": "fact", "d": "dim"},
		Outputs: []OutputIR{{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "k"}},
		Limit:   -1,
	}
	if _, err := Optimize(q, w.cat, w.env, MinTime); err == nil {
		t.Fatal("expected disconnected-join error")
	}
}

func TestUnknownRelationErrors(t *testing.T) {
	w := newWorld(t, 100, 10)
	q := &Query{
		Tables: []string{"x"},
		Rels:   map[string]string{"x": "ghost"},
		Limit:  -1,
	}
	if _, err := Optimize(q, w.cat, w.env, MinTime); err == nil {
		t.Fatal("expected unknown-relation error")
	}
}

func TestAnalyzeStats(t *testing.T) {
	tab := dimTable(25)
	st := Analyze(tab)
	if st.Rows != 25 {
		t.Fatalf("rows = %d", st.Rows)
	}
	if st.Cols[0].NDV != 25 {
		t.Fatalf("key NDV = %d, want 25", st.Cols[0].NDV)
	}
	if st.Cols[0].Min.I != 0 || st.Cols[0].Max.I != 24 {
		t.Fatalf("min/max = %v/%v", st.Cols[0].Min, st.Cols[0].Max)
	}
}

func TestCostScore(t *testing.T) {
	c, e := Cost{Seconds: 2, Joules: 10}, &Env{}
	if e.Score(c, MinTime) != 2 || e.Score(c, MinEnergy) != 10 || e.Score(c, MinEDP) != 20 {
		t.Fatalf("scores: %v %v %v", e.Score(c, MinTime), e.Score(c, MinEnergy), e.Score(c, MinEDP))
	}
	d := c.Add(Cost{Seconds: 1, Joules: 1, MemBytes: 5})
	if d.Seconds != 3 || d.Joules != 11 || d.MemBytes != 5 {
		t.Fatalf("add: %+v", d)
	}
}

// TestParallelScanDOPChoice: on a multi-core Env a CPU-bound scan should
// be planned parallel under MinTime (elapsed falls toward cpu/dop) but
// serial under MinEnergy (the joule account is flat in DOP, so the
// per-worker startup overhead makes dop=1 strictly cheapest). The chosen
// parallel plan must execute to the same result as the serial one.
func TestParallelScanDOPChoice(t *testing.T) {
	w := newWorld(t, 40000, 50)
	w.env.Cores = 8
	// Model storage as fast enough (bandwidth and per-page latency) that
	// the scan is CPU-bound in the cost model; execution correctness below
	// is independent of this.
	w.env.ScanBW *= 8
	w.env.PageLatency /= 50

	q := &Query{
		Tables: []string{"f"},
		Rels:   map[string]string{"f": "fact"},
		Preds: []PredIR{
			{Left: col("f", "f_price"), Op: exec.Lt, Val: table.FloatVal(900)},
		},
		Outputs: []OutputIR{
			{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "k"},
			{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_price"}}, As: "p"},
		},
		Limit: -1,
	}
	fast, err := Optimize(q, w.cat, w.env, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fast.Explain(), "dop=") {
		t.Fatalf("MinTime plan is serial on an 8-core env:\n%s", fast.Explain())
	}
	lean, err := Optimize(q, w.cat, w.env, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(lean.Explain(), "dop=") {
		t.Fatalf("MinEnergy plan went parallel (joules should be flat in DOP):\n%s", lean.Explain())
	}
	if fast.Cost().Seconds >= lean.Cost().Seconds {
		t.Fatalf("parallel plan models no speedup: %v vs %v", fast.Cost(), lean.Cost())
	}

	// Both plans must produce the same rows (order-insensitive: the
	// parallel scan merges blocks in completion order).
	sum := func(tab *table.Table) (int, float64, float64) {
		var ks, ps float64
		for i := 0; i < tab.Rows(); i++ {
			ks += float64(tab.Column(0).I[i])
			ps += tab.Column(1).F[i]
		}
		return tab.Rows(), ks, ps
	}
	gotN, gotK, gotP := sum(w.execute(t, fast))
	wantN, wantK, wantP := sum(w.execute(t, lean))
	// The float checksum is summed in arrival order, which differs between
	// the serial and merged streams — equal up to summation rounding.
	if gotN != wantN || gotK != wantK || math.Abs(gotP-wantP) > math.Abs(wantP)*1e-12 {
		t.Fatalf("parallel result (%d, %v, %v) != serial (%d, %v, %v)",
			gotN, gotK, gotP, wantN, wantK, wantP)
	}
}

// TestParallelScanCostModel pins the dop sweep arithmetic of a scan stage
// (fragmented, as bestScan prices it): elapsed approaches max(io, cpu/dop)
// while joules only grow by startup overhead.
func TestParallelScanCostModel(t *testing.T) {
	w := newWorld(t, 40000, 50)
	w.env.Cores = 8
	w.env.ScanBW *= 8
	w.env.PageLatency /= 50
	o := &optimizer{q: &Query{}, cat: w.cat, env: w.env, obj: MinTime}
	pl, err := w.cat.Get("fact")
	if err != nil {
		t.Fatal(err)
	}
	pw := pipeWork{scan: o.scanWork(pl.Variants[0].ST, []int{0, 2}, float64(pl.Stats.Rows), 1)}
	price := func(dop int) Cost {
		stream, busy := o.fragmented(pw, 0, 0, 1, dop)
		return Cost{Seconds: stream, Joules: busy*o.env.CPUWattPerCore + pw.scan.ioJoules}
	}
	c1, c4 := price(1), price(4)
	if c4.Seconds >= c1.Seconds {
		t.Fatalf("dop=4 models no speedup: %v vs %v", c4, c1)
	}
	if c4.Joules <= c1.Joules {
		t.Fatalf("dop=4 models an energy win out of nowhere: %v vs %v", c4, c1)
	}
	if c4.Joules > c1.Joules*1.5 {
		t.Fatalf("dop=4 startup overhead too large: %v vs %v", c4, c1)
	}
}

// aggQuery is a many-group GROUP BY + SUM over the fact table.
func aggQuery() *Query {
	return &Query{
		Tables: []string{"f"},
		Rels:   map[string]string{"f": "fact"},
		Outputs: []OutputIR{
			{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_dim"}}, As: "k"},
			{Agg: &AggIR{Func: exec.Count, As: "n"}},
			{Agg: &AggIR{Func: exec.Sum, Arg: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "s"}},
		},
		GroupBy: []ColRef{{Table: "f", Col: "f_dim"}},
		Limit:   -1,
	}
}

// TestParallelAggDOPChoice: with a CPU-bound pipeline on a multi-core Env,
// MinTime must fragment the whole scan→project→aggregate pipeline (agg
// line carries dop=) while MinEnergy keeps the aggregation serial, and the
// two plans must execute to identical results (integer aggregates only, so
// equality is exact at any DOP).
func TestParallelAggDOPChoice(t *testing.T) {
	w := newWorld(t, 40000, 50)
	w.env.Cores = 8
	w.env.ScanBW *= 8
	w.env.PageLatency /= 50

	aggDop := regexp.MustCompile(`(?m)^\s*agg .*dop=`)
	fast, err := Optimize(aggQuery(), w.cat, w.env, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	if !aggDop.MatchString(fast.Explain()) {
		t.Fatalf("MinTime kept the aggregation serial on an 8-core env:\n%s", fast.Explain())
	}
	lean, err := Optimize(aggQuery(), w.cat, w.env, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if aggDop.MatchString(lean.Explain()) {
		t.Fatalf("MinEnergy bought parallel aggregation (joules are flat in DOP):\n%s", lean.Explain())
	}
	if fast.Cost().Seconds >= lean.Cost().Seconds {
		t.Fatalf("parallel agg models no speedup: %v vs %v", fast.Cost(), lean.Cost())
	}
	if lean.Cost().Joules > fast.Cost().Joules {
		t.Fatalf("MinEnergy plan hotter than MinTime plan: %v vs %v", lean.Cost(), fast.Cost())
	}

	got := w.execute(t, fast)
	want := w.execute(t, lean)
	if got.Rows() != want.Rows() {
		t.Fatalf("group counts differ: %d vs %d", got.Rows(), want.Rows())
	}
	for i := 0; i < want.Rows(); i++ {
		for c := range want.Schema.Cols {
			if want.Column(c).Value(i).Compare(got.Column(c).Value(i)) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, c,
					got.Column(c).Value(i), want.Column(c).Value(i))
			}
		}
	}
}

// TestParallelProbeDOPChoice: MinTime must parallelise a hash join rooted
// at scans by fragmenting the probe pipeline (probe_dop=), MinEnergy must
// not, and both plans must join to the same multiset of rows.
func TestParallelProbeDOPChoice(t *testing.T) {
	w := newWorld(t, 40000, 50)
	w.env.Cores = 8
	w.env.ScanBW *= 8
	w.env.PageLatency /= 50

	q := func() *Query {
		return &Query{
			Tables: []string{"f", "d"},
			Rels:   map[string]string{"f": "fact", "d": "dim"},
			Preds: []PredIR{
				{Left: col("f", "f_dim"), Op: exec.Eq, Right: col("d", "d_key"), IsJoin: true},
			},
			Outputs: []OutputIR{
				{Expr: &ExprIR{Col: &ColRef{Table: "f", Col: "f_key"}}, As: "k"},
				{Expr: &ExprIR{Col: &ColRef{Table: "d", Col: "d_name"}}, As: "name"},
			},
			Limit: -1,
		}
	}
	fast, err := Optimize(q(), w.cat, w.env, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fast.Explain(), "probe_dop=") {
		t.Fatalf("MinTime kept the join serial on an 8-core env:\n%s", fast.Explain())
	}
	lean, err := Optimize(q(), w.cat, w.env, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(lean.Explain(), "probe_dop=") {
		t.Fatalf("MinEnergy bought a parallel join:\n%s", lean.Explain())
	}

	count := func(tab *table.Table) (int, float64) {
		var ks float64
		for i := 0; i < tab.Rows(); i++ {
			ks += float64(tab.Column(0).I[i])
		}
		return tab.Rows(), ks
	}
	gotN, gotK := count(w.execute(t, fast))
	wantN, wantK := count(w.execute(t, lean))
	if gotN != wantN || gotK != wantK {
		t.Fatalf("parallel probe result (%d, %v) != serial (%d, %v)", gotN, gotK, wantN, wantK)
	}
}
