package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEnergyIdentity(t *testing.T) {
	// 1 Joule = 1 Watt x 1 second (Section 2.1).
	if got := Energy(1, 1); got != 1 {
		t.Fatalf("Energy(1W,1s) = %v, want 1J", got)
	}
	if got := Energy(90, 3.2); math.Abs(float64(got)-288) > 1e-9 {
		t.Fatalf("Energy(90W,3.2s) = %v, want 288J", got)
	}
}

func TestAvgPower(t *testing.T) {
	tests := []struct {
		e    Joules
		d    Seconds
		want Watts
	}{
		{100, 10, 10},
		{0, 10, 0},
		{100, 0, 0}, // guarded division
		{338, 10, 33.8},
	}
	for _, tc := range tests {
		if got := AvgPower(tc.e, tc.d); math.Abs(float64(got-tc.want)) > 1e-9 {
			t.Errorf("AvgPower(%v,%v) = %v, want %v", tc.e, tc.d, got, tc.want)
		}
	}
}

func TestEfficiencyOf(t *testing.T) {
	if got := EfficiencyOf(100, 50); got != 2 {
		t.Fatalf("EfficiencyOf = %v, want 2", got)
	}
	if got := EfficiencyOf(100, 0); got != 0 {
		t.Fatalf("EfficiencyOf with zero energy = %v, want 0", got)
	}
}

// Property: Energy/AvgPower round-trip for positive durations.
func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(w float64, d float64) bool {
		w = math.Abs(math.Mod(w, 1e6))
		d = math.Abs(math.Mod(d, 1e6)) + 1e-3
		e := Energy(Watts(w), Seconds(d))
		back := AvgPower(e, Seconds(d))
		return math.Abs(float64(back)-w) <= 1e-6*math.Max(1, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceIntegration(t *testing.T) {
	tr := NewTrace("cpu", 10)
	tr.Set(2, 90)  // 2s at 10W = 20J
	tr.Set(5, 0)   // 3s at 90W = 270J
	tr.Set(10, 10) // 5s at 0W = 0J
	if got := tr.EnergyAt(10); math.Abs(float64(got)-290) > 1e-9 {
		t.Fatalf("EnergyAt(10) = %v, want 290", got)
	}
	// Partial interval at current power: 2s more at 10W.
	if got := tr.EnergyAt(12); math.Abs(float64(got)-310) > 1e-9 {
		t.Fatalf("EnergyAt(12) = %v, want 310", got)
	}
}

func TestTracePanicsOnTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time going backwards")
		}
	}()
	tr := NewTrace("x", 1)
	tr.Set(5, 2)
	tr.Set(4, 3)
}

func TestTracePanicsOnPastQuery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on querying the past")
		}
	}()
	tr := NewTrace("x", 1)
	tr.Set(5, 2)
	tr.EnergyAt(1)
}

// Property: energy is additive over any split of a constant-power interval.
func TestTraceAdditivity(t *testing.T) {
	f := func(w uint16, split uint16) bool {
		total := Seconds(10)
		s := Seconds(float64(split%1000) / 100) // 0..10
		a := NewTrace("a", Watts(w))
		b := NewTrace("b", Watts(w))
		b.Set(s, Watts(w)) // a no-op power change mid-interval
		return math.Abs(float64(a.EnergyAt(total)-b.EnergyAt(total))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAggregation(t *testing.T) {
	m := NewMeter()
	cpu := m.Register("cpu", 90)
	ssd := m.Register("ssd", 5)
	cpu.Set(3.2, 0) // CPU busy for 3.2s then idle at 0W
	_ = ssd         // SSD stays at 5W

	// This is exactly the paper's Figure 2 uncompressed-scan arithmetic:
	// 90W x 3.2s + 5W x 10s = 338 J.
	if got := m.TotalEnergy(10); math.Abs(float64(got)-338) > 1e-9 {
		t.Fatalf("TotalEnergy = %v, want 338", got)
	}
}

func TestMeterRegisterIdempotent(t *testing.T) {
	m := NewMeter()
	a := m.Register("disk0", 10)
	b := m.Register("disk0", 99)
	if a != b {
		t.Fatal("Register should return the existing trace")
	}
	if m.Trace("disk0") != a {
		t.Fatal("Trace lookup mismatch")
	}
	if m.Trace("nope") != nil {
		t.Fatal("missing trace should be nil")
	}
}

func TestMeterBreakdownSorted(t *testing.T) {
	m := NewMeter()
	m.Register("small", 1)
	m.Register("big", 100)
	bd := m.Breakdown(10)
	if len(bd) != 2 || bd[0].Name != "big" || bd[1].Name != "small" {
		t.Fatalf("breakdown not sorted by energy: %+v", bd)
	}
	rep := m.Report(10)
	if !strings.Contains(rep, "big") || !strings.Contains(rep, "TOTAL") {
		t.Fatalf("report missing rows:\n%s", rep)
	}
}

func TestDynamicRange(t *testing.T) {
	tests := []struct {
		idle, peak Watts
		want       float64
	}{
		{0, 100, 1.0},   // ideal energy-proportional
		{50, 100, 0.5},  // typical server
		{100, 100, 0.0}, // fully inelastic
		{120, 100, 0.0}, // clamped
		{10, 0, 0.0},    // degenerate
	}
	for _, tc := range tests {
		if got := DynamicRange(tc.idle, tc.peak); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("DynamicRange(%v,%v) = %v, want %v", tc.idle, tc.peak, got, tc.want)
		}
	}
}

func TestProportionalityIndex(t *testing.T) {
	ideal := []UtilPoint{{0, 0}, {0.5, 50}, {1, 100}}
	if got := ProportionalityIndex(ideal); math.Abs(got-1) > 1e-9 {
		t.Fatalf("ideal curve index = %v, want 1", got)
	}
	flat := []UtilPoint{{0, 100}, {0.5, 100}, {1, 100}}
	got := ProportionalityIndex(flat)
	if got > 0.6 {
		t.Fatalf("flat curve index = %v, want low", got)
	}
	if ProportionalityIndex(nil) != 0 {
		t.Fatal("empty curve should score 0")
	}
}

func TestEfficiencyCurveConstantForIdeal(t *testing.T) {
	// For an energy-proportional server, EE should be constant at all
	// utilisation levels (Section 2.3).
	pts := []UtilPoint{{0.25, 25}, {0.5, 50}, {1, 100}}
	ee := EfficiencyCurve(pts, 1000)
	for i := 1; i < len(ee); i++ {
		if math.Abs(float64(ee[i]-ee[0])) > 1e-9 {
			t.Fatalf("ideal EE curve not constant: %v", ee)
		}
	}
	// Zero power point is guarded.
	if got := EfficiencyCurve([]UtilPoint{{0, 0}}, 10); got[0] != 0 {
		t.Fatal("zero power should yield zero efficiency")
	}
}

func TestEDP(t *testing.T) {
	if got := EDP(10, 5); got != 50 {
		t.Fatalf("EDP = %v, want 50", got)
	}
}

func TestUnitStrings(t *testing.T) {
	tests := []struct {
		s    string
		want string
	}{
		{Joules(338).String(), "338J"},
		{Joules(2.5e6).String(), "2.5MJ"},
		{Watts(0.005).String(), "5mW"},
		{Seconds(1500).String(), "1.5ks"},
		{Joules(0).String(), "0J"},
	}
	for _, tc := range tests {
		if tc.s != tc.want {
			t.Errorf("String() = %q, want %q", tc.s, tc.want)
		}
	}
}
