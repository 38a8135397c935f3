package bench

import (
	"strings"
	"testing"
)

// These tests are the reproduction's acceptance criteria: they assert
// the *shape* of every reproduced figure and ablation, not absolute
// numbers (our substrate is a simulator, not the authors' testbed).

func TestFigure2Shape(t *testing.T) {
	r, err := RunFigure2(Figure2Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Compressed is materially faster (paper: 1.82x)...
	if sp := r.Speedup(); sp < 1.2 || sp > 2.5 {
		t.Fatalf("speedup = %.2f, want in [1.2, 2.5]", sp)
	}
	// ...but costs more energy (paper: 1.44x).
	if er := r.EnergyRatio(); er < 1.1 {
		t.Fatalf("energy ratio = %.2f, want >= 1.1", er)
	}
	// Uncompressed is disk-bound; compression shifts the bottleneck
	// toward the CPU (the paper's compressed point was near-balanced:
	// 5.1s CPU of 5.5s total; our substrate lands mixed-bound).
	rawFrac := r.Uncompressed.CPUSec / r.Uncompressed.TotalSec
	lzFrac := r.Compressed.CPUSec / r.Compressed.TotalSec
	if rawFrac > 0.35 {
		t.Fatalf("uncompressed scan should be disk-bound: cpu fraction %.2f", rawFrac)
	}
	if lzFrac < 0.45 || lzFrac < 1.8*rawFrac {
		t.Fatalf("compression should shift the bottleneck to CPU: %.2f -> %.2f", rawFrac, lzFrac)
	}
	// Compression is real.
	if r.Compressed.Ratio > 0.7 || r.Compressed.Ratio < 0.1 {
		t.Fatalf("compression ratio = %.2f", r.Compressed.Ratio)
	}
	// The metered joules match the paper's power arithmetic (both models
	// integrate 90 W busy CPU + 5 W flash).
	for _, run := range []Figure2Run{r.Uncompressed, r.Compressed} {
		if diff := run.Joules/run.PaperModel - 1; diff < -0.05 || diff > 0.05 {
			t.Fatalf("%s: metered %.3f J vs paper arithmetic %.3f J", run.Name, run.Joules, run.PaperModel)
		}
	}
	if !strings.Contains(r.Render(), "Figure 2") {
		t.Fatal("render broken")
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-engine sweep")
	}
	r, err := RunFigure1(Figure1Config{SF: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Time decreases monotonically with disks (more spindles never hurt).
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Seconds > r.Points[i-1].Seconds*1.02 {
			t.Fatalf("time not decreasing: %v", r.Points)
		}
	}
	// Diminishing returns: the relative gain of each disk doubling shrinks.
	g1 := r.Points[0].Seconds / r.Points[1].Seconds // 36 -> 66
	g3 := r.Points[2].Seconds / r.Points[3].Seconds // 108 -> 204
	if g1 <= g3 {
		t.Fatalf("returns not diminishing: 36->66 %.2fx vs 108->204 %.2fx", g1, g3)
	}
	// EE peaks at an interior point — the paper's headline claim — and
	// that point is 66 disks, as in the paper.
	if r.BestIdx == 0 || r.BestIdx == len(r.Points)-1 {
		t.Fatalf("EE peak at edge point %d disks:\n%s", r.Best().Disks, r.Render())
	}
	if r.Best().Disks != 66 {
		t.Fatalf("EE peak at %d disks, want 66:\n%s", r.Best().Disks, r.Render())
	}
	// The efficiency-vs-performance tradeoff exists and points the right
	// way (paper: +14% EE for -45% performance; our simulator's magnitudes
	// differ).
	if r.EEGainVsFastest() < 0.05 {
		t.Fatalf("EE gain vs fastest = %.2f, want >= 0.05", r.EEGainVsFastest())
	}
	if d := r.PerfDropVsFastest(); d < 0.10 || d > 0.70 {
		t.Fatalf("perf drop vs fastest = %.2f, want in [0.10, 0.70]", d)
	}
	// Workload-level accounting is lossless: the 24 streams cover each
	// run wall-to-wall, so per-query attributed joules sum to the wall
	// meter at every disk count.
	for _, p := range r.Points {
		if diff := p.AttributedJ - p.Joules; diff < -1e-6*p.Joules || diff > 1e-6*p.Joules {
			t.Fatalf("%d disks: attributed %.6f J vs meter %.6f J", p.Disks, p.AttributedJ, p.Joules)
		}
	}
}

func TestStreamsShape(t *testing.T) {
	r, err := RunStreams(StreamsConfig{SF: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Streams) != 8 || r.Admission.Completed != 8*6 {
		t.Fatalf("streams/queries: %d/%d", len(r.Streams), r.Admission.Completed)
	}
	// Attribution is lossless across the concurrent sessions.
	if e := r.AttributionError(); e > 1e-6 {
		t.Fatalf("attribution gap = %.3g", e)
	}
	// Every stream did real work and paid a real bill, part marginal,
	// part idle floor.
	for _, s := range r.Streams {
		if s.Rows == 0 || s.AttributedJ <= 0 || s.MarginalJ <= 0 || s.MarginalJ >= s.AttributedJ {
			t.Fatalf("stream bill: %+v", s)
		}
	}
	// 8 streams on the SmallServer's 8 cores: admission never
	// oversubscribes.
	if r.Admission.PeakActive > 8 {
		t.Fatalf("peak active = %d on 8 cores", r.Admission.PeakActive)
	}
}

func TestJoinFlipShape(t *testing.T) {
	r, err := RunJoinFlip()
	if err != nil {
		t.Fatal(err)
	}
	// At datasheet DRAM power both objectives pick hash join.
	first := r.Points[0]
	if first.TimeAlgo != "hash" || first.EnergyAlgo != "hash" {
		t.Fatalf("datasheet point: %+v", first)
	}
	// The flip exists somewhere in the sweep, is energy-rational under
	// the model, and never affects the time objective.
	if r.FlipPrice == 0 {
		t.Fatal("energy objective never flipped to nested-loop")
	}
	for _, p := range r.Points {
		if p.TimeAlgo != "hash" {
			t.Fatalf("time objective moved at %v W/byte", p.DRAMWattPerByte)
		}
		if p.EnergyAlgo == "nl" && p.NLJoules >= p.HashJoules {
			t.Fatalf("flip not energy-rational at %v: nl %.3f vs hash %.3f",
				p.DRAMWattPerByte, p.NLJoules, p.HashJoules)
		}
	}
}

func TestConsolidationShape(t *testing.T) {
	r, err := RunConsolidation()
	if err != nil {
		t.Fatal(err)
	}
	base := r.Points[0] // window 0
	best := base
	for _, p := range r.Points[1:] {
		// Batching costs latency...
		if p.MeanLatency <= base.MeanLatency {
			t.Fatalf("window %v did not raise latency", p.WindowSec)
		}
		if p.DiskJoules < best.DiskJoules {
			best = p
		}
	}
	// ...and some window saves meaningful disk energy (>= 15%).
	if best.DiskJoules > base.DiskJoules*0.85 {
		t.Fatalf("no window saved energy: base %.1f best %.1f", base.DiskJoules, best.DiskJoules)
	}
}

func TestBufferPolicyShape(t *testing.T) {
	r, err := RunBufferPolicy()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BufferPolicyPoint{}
	for _, p := range r.Points {
		byName[p.Policy] = p
	}
	// The energy-aware policy must spend less disk energy than LRU and
	// CLOCK (it protects expensive disk pages).
	ea := byName["energy"]
	for _, rival := range []string{"lru", "clock"} {
		if ea.DiskJoules >= byName[rival].DiskJoules {
			t.Fatalf("energy policy disk J %.1f not below %s %.1f",
				ea.DiskJoules, rival, byName[rival].DiskJoules)
		}
	}
}

func TestGroupCommitShape(t *testing.T) {
	r, err := RunGroupCommit()
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.JoulesPerCommit >= first.JoulesPerCommit {
		t.Fatalf("batching did not cut J/commit: %.4f -> %.4f",
			first.JoulesPerCommit, last.JoulesPerCommit)
	}
	if last.MeanLatency <= first.MeanLatency {
		t.Fatalf("batching did not raise latency: %.4f -> %.4f",
			first.MeanLatency, last.MeanLatency)
	}
	if last.Flushes >= first.Flushes {
		t.Fatal("batching did not reduce flushes")
	}
}

func TestClusterShape(t *testing.T) {
	r, err := RunCluster()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	migrations := map[string]int64{}
	for _, p := range r.Results {
		byName[p.Policy] = p.TotalJoules
		migrations[p.Policy] = p.Migrations
	}
	if byName["consolidate"] >= byName["spread"] {
		t.Fatal("consolidation did not save energy")
	}
	if byName["sticky"] >= byName["spread"] {
		t.Fatal("sticky did not save energy")
	}
	if migrations["sticky"] >= migrations["consolidate"] {
		t.Fatal("sticky should migrate less than consolidate")
	}
}

func TestProportionalityShape(t *testing.T) {
	r, err := RunProportionality()
	if err != nil {
		t.Fatal(err)
	}
	// 2008 hardware: far from proportional (the paper's complaint), with
	// EE rising with utilisation (peak efficiency only at peak load).
	if r.Index > 0.8 {
		t.Fatalf("model too proportional for 2008 hardware: %.2f", r.Index)
	}
	if r.DynamicRange > 0.6 || r.DynamicRange <= 0 {
		t.Fatalf("dynamic range = %.2f", r.DynamicRange)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Efficiency < r.Points[i-1].Efficiency {
			t.Fatal("EE should rise with utilisation on non-proportional hardware")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.Addf(1, 2.5)
	tb.Add("x")
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "2.5") {
		t.Fatalf("table render:\n%s", out)
	}
}
