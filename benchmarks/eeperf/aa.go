package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// runAA is the benchmark's own steadiness check: two interleaved sets of
// n runs per workload (A B B A …) of the same binary, then, per
// end-to-end metric, both medians, both spreads (inter-quartile range
// over median), and the relative difference of the medians in the
// metric's worse direction, each held against the metric's bound. With
// varySeed, run i of either set uses seed+i and the BENCHMARK.json
// bounds apply — the acceptance protocol of the driver; otherwise every
// run uses the same seed and the tighter same-seed bounds apply.
// It returns the process exit code: non-zero when any check fails.
func runAA(n int, only string, seed int64, seconds float64, varySeed bool) int {
	bad := 0
	fmt.Printf("# eeperf -aa %d (seed %d, vary-seed %v, %g s measured per run)\n\n", n, seed, varySeed, seconds)
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set := [4]int{0, 1, 1, 0}[i%4]
			s := seed
			if varySeed {
				s += int64(len(sets[set]["setup_s"]))
			}
			res, err := childRun(w.Name, s, seconds)
			if err != nil {
				return fail("%v", err)
			}
			for name, m := range res.Metrics {
				sets[set][name] = append(sets[set][name], m.Value)
			}
		}
		fmt.Printf("## %s\n\n", w.Name)
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tmedian A\tmedian B\tIQR/med A\tIQR/med B\tB worse by\tbound\tverdict")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := medianInterp(a), medianInterp(b)
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			bound := d.Same
			if varySeed {
				bound = d.Bound
			}
			sa, sb := iqrOverMedian(a), iqrOverMedian(b)
			verdict := "ok"
			// setup_s is held to its bound on the medians only: it is short
			// enough that its spread is the scheduler's, not the set-up's.
			if math.Abs(worse) > bound || (d.Name != "setup_s" && math.Max(sa, sb) > bound) {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2e\t%.2e\t%+.2e\t%g\t%s\n",
				d.Name, d.Unit, ma, mb, sa, sb, worse, bound, verdict)
		}
		if err := tw.Flush(); err != nil {
			return fail("%v", err)
		}
		fmt.Println()
	}
	if bad > 0 {
		return fail("%d metric checks outside their bounds", bad)
	}
	fmt.Println("all metrics within their bounds")
	return 0
}

// medianInterp is the conventional median (mean of the middle two for an
// even count), as the driver computes it over a set of runs.
func medianInterp(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
