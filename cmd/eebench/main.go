// Command eebench regenerates every figure and ablation from the paper's
// evaluation; internal/bench's tests assert the expected shapes.
package main

import (
	"flag"
	"fmt"
	"os"

	"energydb/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: f1, f2, streams, policies, joinflip, consolidate, buffer, wal, cluster, ep, all")
	sf := flag.Float64("sf", 0, "TPC-H scale factor override (f1/f2)")
	flag.Parse()

	run := func(name string, fn func() (interface{ Render() string }, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		r, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(r.Render())
	}

	run("f1", func() (interface{ Render() string }, error) {
		return bench.RunFigure1(bench.Figure1Config{SF: *sf})
	})
	run("f2", func() (interface{ Render() string }, error) {
		return bench.RunFigure2(bench.Figure2Config{SF: *sf})
	})
	run("streams", func() (interface{ Render() string }, error) {
		return bench.RunStreams(bench.StreamsConfig{SF: *sf})
	})
	run("policies", func() (interface{ Render() string }, error) {
		return bench.RunPolicies(bench.PoliciesConfig{})
	})
	run("joinflip", func() (interface{ Render() string }, error) { return bench.RunJoinFlip() })
	run("consolidate", func() (interface{ Render() string }, error) { return bench.RunConsolidation() })
	run("buffer", func() (interface{ Render() string }, error) { return bench.RunBufferPolicy() })
	run("wal", func() (interface{ Render() string }, error) { return bench.RunGroupCommit() })
	run("cluster", func() (interface{ Render() string }, error) { return bench.RunCluster() })
	run("ep", func() (interface{ Render() string }, error) { return bench.RunProportionality() })
}
