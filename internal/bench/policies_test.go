package bench

import "testing"

// TestPoliciesShape is the PR's acceptance scenario: on the mixed
// deadline + background workload, EDF with DVFS-aware planning must meet
// at least FIFO-at-P0's SLO while metering strictly lower whole-server
// joules, and every configuration's per-query attribution must telescope
// to its wall meter.
func TestPoliciesShape(t *testing.T) {
	res, err := RunPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(DefaultPolicyConfigs()) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(DefaultPolicyConfigs()))
	}
	for _, p := range res.Points {
		if p.Background == 0 || p.SLOTotal == 0 {
			t.Fatalf("%s: empty workload: %+v", p.Name, p)
		}
		if p.AttrGapJ > 1e-6 {
			t.Errorf("%s: attribution gap %g J", p.Name, p.AttrGapJ)
		}
		if p.MeterJ <= 0 || p.Seconds <= 0 {
			t.Errorf("%s: degenerate meter %g J / makespan %g s", p.Name, p.MeterJ, p.Seconds)
		}
	}

	fifo, ok := res.Point("fifo@P0")
	if !ok {
		t.Fatal("no fifo@P0 point")
	}
	edf, ok := res.Point("edf@P0")
	if !ok {
		t.Fatal("no edf@P0 point")
	}
	dvfs, ok := res.Point("edf+dvfs")
	if !ok {
		t.Fatal("no edf+dvfs point")
	}

	// The scenario only demonstrates anything if the baseline actually
	// struggles: FIFO queues deadline arrivals behind the backlog.
	if fifo.SLOMet == fifo.SLOTotal {
		t.Errorf("fifo@P0 met every deadline (%d/%d); the backlog is not stressing it",
			fifo.SLOMet, fifo.SLOTotal)
	}
	// EDF fixes the SLO without touching the planner.
	if edf.SLOMet < fifo.SLOMet {
		t.Errorf("edf@P0 SLO %d/%d below fifo's %d/%d",
			edf.SLOMet, edf.SLOTotal, fifo.SLOMet, fifo.SLOTotal)
	}
	// The headline: DVFS-aware planning under EDF holds the SLO line and
	// strictly beats the baseline on the wall meter.
	if dvfs.SLOMet < fifo.SLOMet {
		t.Errorf("edf+dvfs SLO %d/%d below fifo@P0's %d/%d",
			dvfs.SLOMet, dvfs.SLOTotal, fifo.SLOMet, fifo.SLOTotal)
	}
	if dvfs.MeterJ >= fifo.MeterJ {
		t.Errorf("edf+dvfs metered %.4f J, not strictly below fifo@P0's %.4f J",
			dvfs.MeterJ, fifo.MeterJ)
	}
	if testing.Verbose() {
		t.Log("\n" + res.Render())
	}
}
