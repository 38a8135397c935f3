package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The generators are the benchmark's inputs: the same seed must give the
// same bytes, another seed other bytes.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(2009).dump(), w.gen(2009).dump(), w.gen(2010).dump()
		if a != b {
			t.Errorf("%s: two generations from seed 2009 differ", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 2009 and 2010 generate the same list", w.Name)
		}
		pl := w.gen(2009)
		selects := 0
		for i, s := range pl.Stmts {
			if !s.Insert {
				selects++
			}
			if s.Conn >= w.Conns || s.Slot >= w.Slots {
				t.Fatalf("%s: statement %d addresses conn %d slot %d, the workload has %d x %d",
					w.Name, i, s.Conn, s.Slot, w.Conns, w.Slots)
			}
			if i > 0 && s.At < pl.Stmts[i-1].At {
				t.Fatalf("%s: statement %d arrives before statement %d", w.Name, i, i-1)
			}
		}
		if !percentileSupported(selects, 0.95) || selects < 200 {
			t.Errorf("%s: %d SELECTs do not support a p95", w.Name, selects)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{8, 1, 5, 3, 7, 2, 6, 4} // 1..8
	for _, c := range []struct{ p, want float64 }{
		{0.25, 2}, {0.5, 4}, {0.95, 8}, {0, 1}, {1, 8}, {0.126, 2}, {0.125, 1},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(1..8, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %g, want 0", got)
	}
	if xs[0] != 8 {
		t.Error("nearestRank sorted its argument in place")
	}
	// With 4 kept repetitions the lower quartile is the minimum, with 8
	// the second smallest: always a repetition that ran, never a blend.
	if got := lowerQuartile([]float64{3.3, 3.1, 3.4, 3.2}); got != 3.1 {
		t.Errorf("lowerQuartile of 4 = %g, want 3.1", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
		ok   bool
	}{
		{200, 0.95, 10, true}, {199, 0.95, 9, false}, {240, 0.95, 12, true},
		{5000, 0.95, 250, true}, {200, 0.99, 2, false}, {0, 0.95, 0, false},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
		if got := percentileSupported(c.n, c.p); got != c.ok {
			t.Errorf("percentileSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

// iqrOverMedian must agree with Python's statistics.quantiles(n=4).
func TestIQROverMedian(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrOverMedian(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrOverMedian(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := iqrOverMedian([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrOverMedian(1,2,4,8,16) = %g, want %g", got, want)
	}
	if got := medianInterp([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianInterp(1..4) = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},  // nested child with its own child
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25}, // grandchild: not root's business
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent's end
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 38},  // wholly inside what a and b cover
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60) and [90,100)
		2: 30 - 10,
		3: 10, 4: 30, 5: 30, 6: 3,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, -1)
	tr.end(id)
	if id != 0 || tr.durations("x") != nil || tr.selfSeconds("x") != 0 {
		t.Error("a nil tracer recorded something")
	}
}

func TestFrameScan(t *testing.T) {
	frame := func(n int) []byte {
		b := make([]byte, 4+n)
		b[0], b[1] = byte(n), byte(n>>8)
		return b
	}
	stream := append(append(frame(1), frame(300)...), frame(7)...)
	for _, chunk := range []int{1, 3, 4, 5, 64, len(stream)} {
		var f frameScan
		var got int64
		for off := 0; off < len(stream); off += chunk {
			got += f.scan(stream[off:min(off+chunk, len(stream))])
		}
		if got != 3 {
			t.Errorf("chunks of %d bytes: %d frames, want 3", chunk, got)
		}
	}
}

func TestCountFailed(t *testing.T) {
	pl := &plan{Stmts: []stmt{{}, {}, {Budget: 0.2}, {Budget: 0.2}, {Budget: 0.2}, {}}}
	ref := []string{"aa", "bb", "cc", "deadline", "dd", "ee"}
	got := []string{"aa", "xx", "deadline", "cc", "error", "error"}
	// 1: wrong rows; 2 and 3: a deadline flipped, which is allowed;
	// 4 and 5: errors are never correct.
	if failed, first := countFailed(pl, got, ref); failed != 3 || first == "" {
		t.Errorf("countFailed = %d (%q), want 3", failed, first)
	}
	if failed, _ := countFailed(pl, ref, ref); failed != 0 {
		t.Errorf("a list failed against itself: %d", failed)
	}
}

// BENCHMARK.json is the contract the driver reads; -list is what the
// harness prints. They must name the same things in the same order.
func TestBenchmarkJSONMatchesList(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i, d := range want {
			name(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the harness %s [%s] %s",
					kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries a bound", d.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s: BENCHMARK.json bound %v, the harness %g", d.Name, g.Bound, d.Bound)
			case bounded && (d.Bound <= 0 || d.Bound > 0.25 || d.Same > d.Bound):
				t.Errorf("%s: bounds %g / %g are outside (0, 0.25] or out of order", d.Name, d.Bound, d.Same)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd, true)
	check("per-layer", bj.PerLayer, perLayer, false)
}
