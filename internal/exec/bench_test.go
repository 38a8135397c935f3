package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/energy"
	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// benchCtx returns a Ctx with all simulated-hardware cost constants zeroed,
// so benchmarks measure the real CPU work of the executor kernels rather
// than discrete-event bookkeeping: with zero cycles charged, hw.CPU.Use
// returns before touching the event queue and nothing ever parks.
func benchCtx() *Ctx {
	eng := sim.NewEngine()
	cpu := hw.NewCPU(eng, energy.NewMeter(), "cpu", hw.ScanCPU2008())
	return &Ctx{CPU: cpu, Costs: CostParams{}, VectorSize: 4096}
}

// benchInts builds an n-row table of two int64 columns: a sequential key
// and a uniform value in [0, 1000).
func benchInts(n int) *table.Table {
	s := table.NewSchema("ints",
		table.Col("k", table.Int64),
		table.Col("v", table.Int64),
	)
	rng := rand.New(rand.NewSource(42))
	t := table.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendRow(table.IntVal(int64(i)), table.IntVal(rng.Int63n(1000)))
	}
	return t
}

// benchStrings builds an n-row table of a string column drawn from nGroups
// distinct values plus an int64 payload.
func benchStrings(n, nGroups int) *table.Table {
	s := table.NewSchema("strs",
		table.Col("g", table.String),
		table.Col("v", table.Int64),
	)
	rng := rand.New(rand.NewSource(43))
	groups := make([]string, nGroups)
	for i := range groups {
		groups[i] = fmt.Sprintf("group-%06d", i)
	}
	t := table.NewTable(s)
	for i := 0; i < n; i++ {
		t.AppendRow(table.StrVal(groups[rng.Intn(nGroups)]), table.IntVal(rng.Int63n(1000)))
	}
	return t
}

const benchRows = 1 << 16

// BenchmarkFilterInt drains a ~50% selective int64 comparison filter.
func BenchmarkFilterInt(b *testing.B) {
	tab := benchInts(benchRows)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := RowCount(ctx, &Filter{
			In:   &Values{Tab: tab},
			Pred: &ColConst{Col: 1, Op: Lt, Val: table.IntVal(500)},
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no rows passed")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkFilterString drains a selective string comparison filter.
func BenchmarkFilterString(b *testing.B) {
	tab := benchStrings(benchRows, 1000)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := RowCount(ctx, &Filter{
			In:   &Values{Tab: tab},
			Pred: &ColConst{Col: 0, Op: Lt, Val: table.StrVal("group-000500")},
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no rows passed")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkHashAggGroups aggregates 64k rows into 1000 string groups
// (count, sum, min, max over the int payload).
func BenchmarkHashAggGroups(b *testing.B) {
	tab := benchStrings(benchRows, 1000)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewHashAgg(OneFragment(&Values{Tab: tab}), []int{0}, []AggSpec{
			{Func: Count, As: "n"},
			{Func: Sum, Col: 1, As: "s"},
			{Func: Min, Col: 1, As: "lo"},
			{Func: Max, Col: 1, As: "hi"},
		})
		n, err := RowCount(ctx, agg)
		if err != nil {
			b.Fatal(err)
		}
		if n != 1000 {
			b.Fatalf("groups = %d", n)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkHashJoinProbe joins a 64k-row probe side against a 256-row
// build side on an int64 key (~25% of probe rows match).
func BenchmarkHashJoinProbe(b *testing.B) {
	probe := benchInts(benchRows) // v in [0, 1000)
	bs := table.NewSchema("dim", table.Col("d_key", table.Int64), table.Col("d_name", table.String))
	build := table.NewTable(bs)
	for i := 0; i < 256; i++ {
		build.AppendRow(table.IntVal(int64(i)), table.StrVal(fmt.Sprintf("dim-%04d", i)))
	}
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := NewHashJoin(&Values{Tab: build}, &Values{Tab: probe}, 0, 1)
		n, err := RowCount(ctx, j)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no matches")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// The hash-table kernels before → after the join's map[K][]int32 and the
// aggregation's map[string]int32 + boxed keys became one open-addressing
// table over columnar keys (PR 22; before = f425ea0 with this file copied
// in), ten alternating runs of both test binaries on the 2-vCPU development
// box, go1.24, -cpu 1, -benchtime 50x; the box's other tenants move a run
// by ±15 %, so the least of the ten stands beside the median:
//
//	                         before: min / median   B/op  allocs     after: min / median   B/op  allocs
//	HashAggGroups             4.82 /  5.64 ms    677 912   2 261      2.43 / 3.05 ms    247 736    117
//	HashAggIntGroups         17.97 / 22.19 ms  8 560 406  32 480      5.09 / 5.86 ms  2 468 458    124
//	HashAggThreeKeys         25.52 / 30.74 ms 10 365 704  32 499      5.99 / 8.01 ms  3 709 311    181
//	HashJoinProbe            1.023 / 1.111 ms    102 208     321     1.022 / 1.264 ms    16 044     37
//	HashJoinUniqueBuild      14.56 / 18.61 ms 11 338 251  65 888      3.46 / 5.04 ms  6 767 179     69
//	ParallelJoinBuild/dop1    9.65 / 12.94 ms 11 443 202  66 349      2.62 / 3.28 ms  6 746 197    524
//
// HashJoinProbe — 64k probes of a 256-row table, three in four of them
// misses — is the one kernel that did not get faster: two more sessions of
// 8 and 6 alternating runs read 1.095 / 1.323 → 1.001 / 1.134 and 1.053 /
// 1.115 → 0.958 / 0.985 ms. Level with the runtime's map, unresolved either
// way on this box; what it stopped buying is the output batch and match
// vectors per statement.

// benchKeys builds a 64k-row table shaped like what TPC-H Q3 groups: an
// int64 key drawn from nGroups values, a date and a priority that are
// functions of it (so the three-column key has as many groups as the
// first), and a payload.
func benchKeys(nGroups int) *table.Table {
	s := table.NewSchema("keys",
		table.Col("k", table.Int64),
		table.Col("d", table.Date),
		table.Col("p", table.Int64),
		table.Col("v", table.Int64),
	)
	rng := rand.New(rand.NewSource(44))
	t := table.NewTable(s)
	for i := 0; i < benchRows; i++ {
		k := rng.Int63n(int64(nGroups)) * 4 // order keys are sparse
		t.AppendRow(table.IntVal(k), table.DateVal(9000+k%2400), table.IntVal(k%5), table.IntVal(rng.Int63n(1000)))
	}
	return t
}

// benchAggKeys drains one aggregation of tab over the groupBy columns.
func benchAggKeys(b *testing.B, tab *table.Table, groupBy []int, groups int) {
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := NewHashAgg(OneFragment(&Values{Tab: tab}), groupBy, []AggSpec{
			{Func: Count, As: "n"},
			{Func: Sum, Col: 3, As: "s"},
		})
		n, err := RowCount(ctx, agg)
		if err != nil {
			b.Fatal(err)
		}
		if n != int64(groups) {
			b.Fatalf("groups = %d, want %d", n, groups)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkHashAggIntGroups aggregates 64k rows into ~16k groups on one
// int64 key (count, sum): the many-group shape the analytic statements of
// eeperf have and BenchmarkHashAggGroups' 1 000 string groups do not.
func BenchmarkHashAggIntGroups(b *testing.B) {
	tab := benchKeys(1 << 14)
	benchAggKeys(b, tab, []int{0}, distinctInts(tab.Column(0).I))
}

// BenchmarkHashAggThreeKeys is the same rows grouped on (int64, date,
// int64) — Q3's l_orderkey, o_orderdate, o_shippriority.
func BenchmarkHashAggThreeKeys(b *testing.B) {
	tab := benchKeys(1 << 14)
	benchAggKeys(b, tab, []int{0, 1, 2}, distinctInts(tab.Column(0).I))
}

func distinctInts(xs []int64) int {
	seen := map[int64]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

// BenchmarkHashJoinUniqueBuild builds on 64k unique int64 keys (a primary
// key, as every TPC-H build side is) and probes it with 64k rows of which
// about a quarter match — the build BenchmarkHashJoinProbe's 256 rows make
// nothing of.
func BenchmarkHashJoinUniqueBuild(b *testing.B) {
	build := benchInts(benchRows) // k = 0..64k-1
	probe := benchKeys(1 << 16)   // k = 4 × [0, 64k): a quarter lands in the build's range
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := NewHashJoin(&Values{Tab: build}, &Values{Tab: probe}, 0, 0)
		n, err := RowCount(ctx, j)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no matches")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// BenchmarkFusedExpr drains a projection computing (v*2 + k) / (v + 1)
// over 64k rows (16 batches), operator built once and re-drained per
// iteration, through the compiled kernel — the only evaluator. The two
// it replaced measured, at 9d264a0 on the same 2-vCPU box (-benchtime
// 200x): the node-at-a-time fallback with pooled scratch 1.55 ms/op,
// 42 Mrows/s, 2 allocs/op; the pre-fusion evaluator allocating a vector
// per node per batch 3.25 ms/op, 20 Mrows/s, 3.15 MB/op, 194 allocs/op;
// this kernel 1.01 ms/op, 65 Mrows/s, 2 allocs/op.
func BenchmarkFusedExpr(b *testing.B) {
	tab := benchInts(benchRows)
	expr := &Arith{Op: Div,
		L: &Arith{Op: Add,
			L: &Arith{Op: Mul, L: &ColRef{Col: 1}, R: &Const{Val: table.IntVal(2)}},
			R: &ColRef{Col: 0}},
		R: &Arith{Op: Add, L: &ColRef{Col: 1}, R: &Const{Val: table.IntVal(1)}}}
	b.Run("fused", func(b *testing.B) {
		ctx := benchCtx()
		p := mustProject(b, &Values{Tab: tab}, []Scalar{expr}, []string{"x"})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := RowCount(ctx, p)
			if err != nil {
				b.Fatal(err)
			}
			if n != benchRows {
				b.Fatalf("rows = %d", n)
			}
		}
		b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
	})
}

// BenchmarkSortInt sorts 64k rows by the random int64 payload column.
func BenchmarkSortInt(b *testing.B) {
	tab := benchInts(benchRows)
	ctx := benchCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Sort{In: &Values{Tab: tab}, Keys: []SortKey{{Col: 1}, {Col: 0}}}
		n, err := RowCount(ctx, s)
		if err != nil {
			b.Fatal(err)
		}
		if n != benchRows {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
}

// benchScan runs one simulated column scan of tab at the given DOP on a
// fresh multi-core rig and returns the simulated elapsed seconds. Unlike
// the kernel benchmarks above, this path keeps the discrete-event engine
// live (charges are real), because the morsel/merge machinery under test
// *is* simulator bookkeeping plus real block decoding.
func benchScan(b *testing.B, tab *table.Table, dop int) float64 {
	b.Helper()
	// Rig construction and placement encoding are per-iteration setup, not
	// the scan under measurement: keep them off the timer.
	b.StopTimer()
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	spec := hw.ScanCPU2008()
	spec.Cores = 8
	cpu := hw.NewCPU(eng, meter, "cpu", spec)
	devs := make([]storage.BlockDevice, 3)
	for i := range devs {
		devs[i] = hw.NewSSD(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	vol := storage.NewVolume("vol", storage.Striped, 16<<10, devs)
	st, err := PlaceColumnMajor(tab, vol, 1, 4096, rawCodecs(len(tab.Schema.Cols)))
	if err != nil {
		b.Fatal(err)
	}
	eng.Go("query", func(p *sim.Proc) {
		ctx := NewCtx(p, cpu)
		newPred := func() Pred {
			return &ColConst{Col: 1, Op: Lt, Val: table.IntVal(500)}
		}
		var op Operator
		if dop <= 1 {
			op = NewColumnScan(st, []int{0, 1}, []int{0, 1}, newPred())
		} else {
			op = parallelColScan(st, []int{0, 1}, []int{0, 1}, newPred, dop, 0)
		}
		n, err := RowCount(ctx, op)
		if err != nil {
			b.Error(err)
		}
		if n == 0 {
			b.Error("no rows passed")
		}
	})
	b.StartTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	return eng.Now()
}

// BenchmarkColumnScan measures the full simulated scan path (placement
// decode + predicate + event bookkeeping) at DOP 1, 4 and 8. ns/op is the
// real cost of simulating the scan; the sim_ms metric is the *simulated*
// elapsed time, which is what shrinks with DOP.
func BenchmarkColumnScan(b *testing.B) {
	tab := benchInts(benchRows)
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				simSecs = benchScan(b, tab, dop)
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// benchPipelineRig builds the simulated machine the pipeline benchmarks
// run on (8 cores, 3 SSDs) and returns its parts.
func benchPipelineRig() (*sim.Engine, *hw.CPU, *storage.Volume) {
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	spec := hw.ScanCPU2008()
	spec.Cores = 8
	cpu := hw.NewCPU(eng, meter, "cpu", spec)
	devs := make([]storage.BlockDevice, 3)
	for i := range devs {
		devs[i] = hw.NewSSD(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	return eng, cpu, storage.NewVolume("vol", storage.Striped, 16<<10, devs)
}

// BenchmarkParallelHashAgg measures the partitioned parallel aggregation
// end to end (scan fragments → thread-local partials → partition-wise
// merge) at DOP 1, 4 and 8 over a stored table. sim_ms is the simulated
// elapsed time; ns/op the real cost of simulating it.
func BenchmarkParallelHashAgg(b *testing.B) {
	tab := benchStrings(benchRows, 1000)
	specs := []AggSpec{
		{Func: Count, As: "n"},
		{Func: Sum, Col: 1, As: "s"},
		{Func: Min, Col: 1, As: "lo"},
		{Func: Max, Col: 1, As: "hi"},
	}
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(tab, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					agg := partitionedAgg(frags, q, []int{0}, specs)
					n, err := RowCount(ctx, agg)
					if err != nil {
						b.Error(err)
					}
					if n != 1000 {
						b.Errorf("groups = %d", n)
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// BenchmarkParallelJoinBuild measures the partitioned parallel hash-join
// build (scan fragments → key partitioning → concurrent per-partition
// table builds) plus a serial probe, at build DOP 1, 4 and 8.
func BenchmarkParallelJoinBuild(b *testing.B) {
	build := benchInts(benchRows) // build side: 64k rows, sequential keys
	probeT := benchInts(1 << 12)  // small probe: the build is what's measured
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(build, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					j := partitionedJoin(frags, q, &Values{Tab: probeT}, 0, 0, dop)
					n, err := RowCount(ctx, j)
					if err != nil {
						b.Error(err)
					}
					if n == 0 {
						b.Error("no matches")
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// BenchmarkParallelFilterPipeline measures the fragmented filter pipeline
// (scan fragments → per-fragment Filter → Parallel merge → serial agg) at
// DOP 1, 4 and 8 — the scan→filter→agg shape the optimizer sweeps.
func BenchmarkParallelFilterPipeline(b *testing.B) {
	tab := benchInts(benchRows)
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(tab, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					for i := range frags {
						frags[i] = &Filter{In: frags[i],
							Pred: &ColConst{Col: 1, Op: Lt, Val: table.IntVal(500)}}
					}
					agg := NewHashAgg(OneFragment(NewParallel(NewFragments(frags, q, nil))), nil,
						[]AggSpec{{Func: Count, As: "n"}, {Func: Sum, Col: 1, As: "s"}})
					if _, err := RowCount(ctx, agg); err != nil {
						b.Error(err)
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// BenchmarkParallelProbe measures the fragmented probe pipeline (scan
// fragments → Probers over one shared build → Parallel merge) at probe
// DOP 1, 4 and 8 — the scan→probe→agg shape. The build side is small so
// the probe stream is what's measured.
func BenchmarkParallelProbe(b *testing.B) {
	probeT := benchInts(benchRows) // probe side: 64k rows, what's measured
	build := benchInts(1 << 12)    // small build
	for _, dop := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			var simSecs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, cpu, vol := benchPipelineRig()
				st, err := PlaceColumnMajor(probeT, vol, 1, 4096, rawCodecs(2))
				if err != nil {
					b.Fatal(err)
				}
				eng.Go("query", func(p *sim.Proc) {
					ctx := NewCtx(p, cpu)
					frags, q := colScanFrags(st, []int{0, 1}, []int{0, 1}, nil, dop, 0)
					sb := NewSharedBuild(OneFragment(&Values{Tab: build}), 0, 1)
					for i := range frags {
						frags[i] = NewProber(sb, frags[i], 0)
					}
					n, err := RowCount(ctx, NewParallel(NewFragments(frags, q, nil)))
					if err != nil {
						b.Error(err)
					}
					if n == 0 {
						b.Error("no matches")
					}
				})
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simSecs = eng.Now()
			}
			b.ReportMetric(simSecs*1e3, "sim_ms")
			b.ReportMetric(float64(benchRows)*float64(b.N)/float64(b.Elapsed().Seconds())/1e6, "Mrows/s")
		})
	}
}

// BenchmarkColumnScanDecode measures the column scan's decode step on its
// own — one lineitem column (SF 0.01, 8 blocks of 8192 rows) under one
// codec, decoded block after block into the scan's scratch and projected,
// without the simulated I/O and charges around it. One op is one pass over
// the 8 blocks; MB/s is of logical (decoded) bytes. Steady state allocates
// nothing (TestScanDecodeSteadyStateAllocs pins that); what allocs/op
// shows is the first pass amortised over b.N.
//
// The point/* cases are the short-statement shape instead: one op is one
// fresh scan of the one customer block of SF 0.005 (750 rows) behind
// c_custkey = K, which keeps one row, with c_name (Dict, 750 symbols) or
// c_acctbal (LZ floats) as the column decoded late. allocs/op there is what
// a point lookup pays per statement, scratch included.
//
// Before → after the scan scratch (PR 15; before: Decode(nil, …) growing
// by doubling, then a fresh vector per column per block), alternating runs
// of both builds on the 2-vCPU development box, go1.24, -cpu 1, medians:
//
//	          before                          after
//	delta      828 µs/op   575 MB/s     212 allocs    129 µs/op  3 686 MB/s  0 allocs
//	bitpack    980 µs/op   487 MB/s     212 allocs    286 µs/op  1 666 MB/s  0 allocs
//	dict     2 906 µs/op   108 MB/s  59 839 allocs    137 µs/op  2 299 MB/s  0 allocs
//	lz       1 953 µs/op   244 MB/s     194 allocs  1 319 µs/op    362 MB/s  0 allocs
//	raw        342 µs/op 1 394 MB/s      48 allocs    103 µs/op  4 627 MB/s  0 allocs
//
// Before → after selection-driven decode and LZ's fast token (PR 17),
// measured the same way (seven alternating runs of both builds, a noisier
// day: the box's other tenants move every row by ±10 %):
//
//	            before                         after
//	delta        149 µs/op  3 202 MB/s    0 allocs    155 µs/op  3 081 MB/s   0 allocs
//	bitpack      300 µs/op  1 592 MB/s    0 allocs    289 µs/op  1 652 MB/s   0 allocs
//	dict         216 µs/op  1 459 MB/s    0 allocs    200 µs/op  1 580 MB/s   0 allocs
//	lz         1 431 µs/op    333 MB/s    0 allocs    864 µs/op    552 MB/s   0 allocs
//	raw          112 µs/op  4 253 MB/s    0 allocs    120 µs/op  3 977 MB/s   0 allocs
//	point/dict   121 µs/op              785 allocs     22 µs/op              19 allocs
//	point/lz    22.6 µs/op               18 allocs   18.1 µs/op              15 allocs
//
// LZ's token loop was not the floor it was taken for: the stream is about
// one token per float (0–3 literal bytes, a 4–16 byte match, one-byte
// length headers), and the loop spent its time in three uvarint calls, an
// append, a grow and a memmove per token. With those tokens decoded by
// fixed-size moves a lineitem float block (64 KB) takes 45–60 µs, from
// about 140. A point lookup used to make a string of every c_name in the
// block; it makes one.
func BenchmarkColumnScanDecode(b *testing.B) {
	li := lineitemBlocks(b)
	ctx := benchCtx()
	for _, c := range decodeCases {
		b.Run(c.name, func(b *testing.B) {
			scan, logical := columnDecodeScan(b, li, c, "", nil)
			nblocks := scan.ST.NumBlocks()
			b.SetBytes(logical)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < nblocks; blk++ {
					if _, err := scan.decodeEmit(ctx, blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	cust := tpch.Generate(0.005, 2009).Tables["customer"]
	for _, c := range []decodeCase{
		{"point/dict", "c_name", compress.Dict},
		{"point/lz", "c_acctbal", compress.LZ},
	} {
		b.Run(c.name, func(b *testing.B) {
			first, _ := columnDecodeScan(b, cust, c, "c_custkey", &ColConst{Col: 0, Op: Eq, Val: table.IntVal(377)})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan := NewColumnScan(first.ST, first.ReadCols, first.Emit, first.Pred)
				if out, err := scan.decodeEmit(ctx, 0); err != nil {
					b.Fatal(err)
				} else if out.Rows() != 1 {
					b.Fatalf("%d rows, want 1", out.Rows())
				}
			}
		})
	}
}

// BenchmarkRowScanDecode is the same for the row layout: lineitem's numeric
// columns as 8 row-major blocks, raw (the engine's row placement) and LZ.
// Before → after the scan scratch (PR 15), measured as above: raw 2 630 →
// 1 685 µs/op (1 632 → 2 548 MB/s, 168 → 0 allocs), lz 16 340 →
// 12 882 µs/op (262 → 333 MB/s, 402 → 0 allocs). With LZ's fast token
// (PR 17): lz 14 114 → 10 082 µs/op (304 → 426 MB/s); raw, whose path it
// does not touch, read 1 460 → 1 861 µs/op in those runs while single runs
// of either build ranged over 1 660–2 760 — memory-bound and unresolved.
func BenchmarkRowScanDecode(b *testing.B) {
	li := lineitemBlocks(b)
	ctx := benchCtx()
	for _, codec := range []compress.Codec{compress.Raw, compress.LZ} {
		b.Run(codec.Name(), func(b *testing.B) {
			scan := rowDecodeScan(b, li, codec)
			nblocks := scan.ST.NumBlocks()
			b.SetBytes(scan.ST.RawBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < nblocks; blk++ {
					if _, err := scan.decodeEmit(ctx, blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
