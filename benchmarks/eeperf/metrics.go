package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// This file is the benchmark's glossary: every metric it prints, with
// its unit, direction, bounds, definition and — for per-layer metrics —
// which end-to-end metric it should move on which workload. -list prints
// it, BENCHMARK.json mirrors the names (TestBenchmarkJSONMatchesList),
// and benchmarks/README.md cites it.

// metric is one measured value as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression, as
	// BENCHMARK.json states it: it has to hold across runs whose seeds
	// differ, so it covers what a different data set and statement list
	// do to the metric, not only what the host's noise does.
	Bound float64
	// Same is the bound between two runs of the same commit on the same
	// seed (-aa): model-clock metrics repeat to the last bit.
	Same       float64
	Def        string
	ShouldMove string // per-layer only
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Same: 0.25,
		Def: "generate + open + load + connect + forced placement + prepare of the hot texts; lower quartile of the kept fresh builds"},
	{Name: "host_stmts_per_s", Unit: "stmts/s", Better: "higher", Bound: 0.25, Same: 0.25,
		Def: "statements / lower-quartile measured-phase wall time (submit + drain + collect)"},
	{Name: "host_allocs_per_stmt", Unit: "mallocs/stmt", Better: "lower", Bound: 0.02, Same: 0.01,
		Def: "runtime.MemStats.Mallocs delta over the measured phase / statements, median"},
	{Name: "host_alloc_kb_per_stmt", Unit: "KB/stmt", Better: "lower", Bound: 0.02, Same: 0.01,
		Def: "TotalAlloc delta over the measured phase / statements, median"},
	{Name: "host_live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Same: 0.05,
		Def: "HeapAlloc after two runtime.GC() at the end of the measured phase, database and results still reachable, median"},
	{Name: "sim_stmt_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Same: 1e-9,
		Def: "simulated latency of every SELECT that completed: submission to completion in closed loops (Result.Elapsed, admission wait included), due time to completion in open loops"},
	{Name: "sim_stmt_ms_p95", Unit: "ms", Better: "lower", Bound: 0.15, Same: 1e-9,
		Def: "same, 95th percentile; every workload has >= 200 SELECTs so >= 10 samples lie beyond it"},
	{Name: "sim_makespan_s", Unit: "s", Better: "lower", Bound: 0.05, Same: 1e-9,
		Def: "simulated clock at the end of Drain minus the clock after set-up"},
	{Name: "joules_per_stmt", Unit: "J/stmt", Better: "lower", Bound: 0.05, Same: 1e-9,
		Def: "wall-meter joules over the measured phase / statements attempted, idle floor included"},
	{Name: "marginal_joules_per_stmt", Unit: "J/stmt", Better: "lower", Bound: 0.05, Same: 1e-9,
		Def: "(wall-meter joules - idle watts x makespan) / statements attempted: the joules above the idle floor, the part software controls"},
	{Name: "deadline_hit_rate", Unit: "frac", Better: "higher", Bound: 0.10, Same: 1e-9,
		Def: "deadline-bound statements that returned rows by their deadline / deadline-bound statements attempted; 1.0 when the workload sets no deadline"},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.01, Same: 1e-9,
		Def: "statements whose outcome is correct / attempted: fingerprint equals the golden for the seed (or, without a golden, every repetition's and the embedded replay's), deadline misses where the reference has them"},
}

// listGlossary prints the workload and metric glossary.
func listGlossary(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END\tUNIT\tBETTER\tBOUND\tSAME-SEED\tDEFINITION")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%g\t%g\t%s\n", m.Name, m.Unit, m.Better, m.Bound, m.Same, m.Def)
	}
	fmt.Fprintln(tw, "\nPER-LAYER\tUNIT\tBETTER\tMEASURED BY\tSHOULD MOVE")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, m.Def, m.ShouldMove)
	}
	_ = tw.Flush() // the writer is stdout; a failed write has no better place to go
}
