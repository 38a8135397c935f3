// Package energydb's benchmarks regenerate every figure and ablation of
// the paper's evaluation (go test -bench=. -benchmem). Each benchmark
// reports the experiment's headline metrics as custom benchmark units so
// `go test -bench` output doubles as the results table; the shapes each
// one must keep are asserted in internal/bench's tests.
package energydb_test

import (
	"testing"

	"energydb/internal/bench"
)

// BenchmarkFigure1 reproduces the TPC-H disk-count sweep (Figure 1).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure1(bench.Figure1Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Best().Disks), "best-disks")
		b.ReportMetric(100*r.EEGainVsFastest(), "EE-gain-%")
		b.ReportMetric(100*r.PerfDropVsFastest(), "perf-drop-%")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkConcurrentStreams drives 8 concurrent sessions through the
// admission-controlled Session API and reports the makespan plus the
// attribution ledger (Σ per-query attributed joules vs the wall meter).
func BenchmarkConcurrentStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunStreams(bench.StreamsConfig{Streams: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Seconds*1000, "sim_ms")
		b.ReportMetric(r.MeterJ, "meter_J")
		b.ReportMetric(r.AttributionError(), "attr_gap")
		b.ReportMetric(float64(r.Admission.PeakActive), "peak_active")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkPolicyComparison runs the workload-energy-manager scenario:
// the mixed deadline + background workload under FIFO, EDF, EDF+DVFS,
// and the consolidating energy policy, reporting each configuration's
// SLO compliance and attributed whole-server joules.
func BenchmarkPolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunPolicies(bench.PoliciesConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			b.ReportMetric(p.Seconds*1000, p.Name+"_sim_ms")
			b.ReportMetric(p.MeterJ, p.Name+"_J")
			b.ReportMetric(p.SLO(), p.Name+"_slo")
		}
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkFigure2 reproduces the compressed-vs-raw scan (Figure 2).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure2(bench.Figure2Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup(), "speedup-x")
		b.ReportMetric(r.EnergyRatio(), "energy-ratio-x")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkJoinFlip reproduces the §4.1 join-algorithm flip sweep (E3).
func BenchmarkJoinFlip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunJoinFlip()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FlipPrice, "flip-W/byte")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkConsolidation reproduces the §4.2 batching-window sweep (E4).
func BenchmarkConsolidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunConsolidation()
		if err != nil {
			b.Fatal(err)
		}
		base := r.Points[0].DiskJoules
		best := base
		for _, p := range r.Points {
			if p.DiskJoules < best {
				best = p.DiskJoules
			}
		}
		b.ReportMetric(100*(1-best/base), "disk-J-saved-%")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkBufferPolicy reproduces the §4.3 replacement-policy study (E5).
func BenchmarkBufferPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunBufferPolicy()
		if err != nil {
			b.Fatal(err)
		}
		var lru, ea float64
		for _, p := range r.Points {
			switch p.Policy {
			case "lru":
				lru = p.DiskJoules
			case "energy":
				ea = p.DiskJoules
			}
		}
		b.ReportMetric(100*(1-ea/lru), "disk-J-vs-lru-%")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkGroupCommit reproduces the §5.2 batching-factor sweep (E6).
func BenchmarkGroupCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunGroupCommit()
		if err != nil {
			b.Fatal(err)
		}
		first := r.Points[0]
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(100*(1-last.JoulesPerCommit/first.JoulesPerCommit), "J/commit-saved-%")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkCluster reproduces the §2.4 consolidation comparison (E7).
func BenchmarkCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunCluster()
		if err != nil {
			b.Fatal(err)
		}
		var spread, cons float64
		for _, p := range r.Results {
			switch p.Policy {
			case "spread":
				spread = p.TotalJoules
			case "consolidate":
				cons = p.TotalJoules
			}
		}
		b.ReportMetric(100*(1-cons/spread), "energy-saved-%")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}

// BenchmarkProportionality reproduces the §2.3 power-vs-load curve (E8).
func BenchmarkProportionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunProportionality()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Index, "EP-index")
		b.ReportMetric(r.DynamicRange, "dynamic-range")
		if i == 0 {
			b.Log("\n" + r.Render())
		}
	}
}
