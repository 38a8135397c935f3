// Command eesim runs the multi-tenant diurnal workload simulator: N
// tenants with sinusoidal arrival curves drive a mixed
// interactive/analytic/insert workload through the server's wire
// protocol, print the per-tenant billing report, and write the
// latency/energy trajectory to a JSON file for CI tracking.
//
//	go run ./cmd/eesim -tenants 4 -days 2 -out BENCH_workload.json
//
// Its stdout for -tenants 4 -days 2 is pinned in
// internal/bench/testdata/eesim.golden.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"energydb/internal/bench"
)

func main() {
	tenants := flag.Int("tenants", 4, "number of tenants")
	days := flag.Float64("days", 2, "simulated days")
	out := flag.String("out", "", "write the trajectory JSON here (e.g. BENCH_workload.json)")
	flag.Parse()

	res, err := bench.RunWorkload(bench.WorkloadConfig{Tenants: *tenants, Days: *days})
	if err != nil {
		fmt.Fprintf(os.Stderr, "eesim: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res.Render())
	if gap := res.AttributionError(); gap > 1e-6 {
		fmt.Fprintf(os.Stderr, "eesim: billing does not close (gap %.2e J)\n", gap)
		os.Exit(1)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "eesim: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "eesim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
