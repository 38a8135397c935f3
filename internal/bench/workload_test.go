package bench

import (
	"testing"
)

// TestWorkloadBilling: the simulator's billing report closes — the wall
// meter equals Σ per-tenant attributed joules plus the idle floor — and
// the headline metrics are populated and sane.
func TestWorkloadBilling(t *testing.T) {
	res, err := RunWorkload(WorkloadConfig{
		Tenants: 3, Days: 0.25, ArrivalsPerDay: 64, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statements < 10 {
		t.Fatalf("only %d statements over the horizon", res.Statements)
	}
	if gap := res.AttributionError(); gap > 1e-6 {
		t.Fatalf("billing does not close: meter %.6f, Σ bills %.6f, idle %.6f (gap %.2e)",
			res.MeterJ, res.SumAttributedJ, res.UnattributedJ, gap)
	}
	if res.MeterJ <= 0 || res.UnattributedJ <= 0 {
		t.Fatalf("meter %.3f / idle floor %.3f, want both > 0", res.MeterJ, res.UnattributedJ)
	}
	if res.IdleFloorShare <= 0 || res.IdleFloorShare >= 1 {
		t.Fatalf("idle-floor share %.3f outside (0,1)", res.IdleFloorShare)
	}
	if res.DeadlineHitRate < 0 || res.DeadlineHitRate > 1 {
		t.Fatalf("deadline hit rate %.3f", res.DeadlineHitRate)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("latency percentiles p50=%.3f p99=%.3f", res.P50Ms, res.P99Ms)
	}
	if res.JoulesPerQuery <= 0 {
		t.Fatalf("joules/query %.6f, want > 0", res.JoulesPerQuery)
	}
	var billed float64
	for _, b := range res.Bills {
		if b.Statements == 0 {
			t.Fatalf("tenant %s executed nothing over the horizon", b.Tenant)
		}
		billed += b.AttributedJ
	}
	if billed <= 0 {
		t.Fatal("no tenant was billed any energy")
	}
	t.Logf("\n%s", res.Render())
}

// TestArrivalsDeterministic: every generated arrival lands inside the
// horizon, and the schedule is identical across two calls for one seed.
func TestArrivalsDeterministic(t *testing.T) {
	cfg := WorkloadConfig{Tenants: 3, Days: 0.5, ArrivalsPerDay: 200, Seed: 11}
	cfg.defaults()
	arrivals := genArrivals(cfg)
	horizon := cfg.Days * 86400
	for _, a := range arrivals {
		if a.at >= horizon {
			t.Fatalf("arrival at %.1f past horizon %.1f", a.at, horizon)
		}
	}
	if len(arrivals) == 0 {
		t.Fatal("no arrivals generated")
	}

	again := genArrivals(cfg)
	if len(again) != len(arrivals) {
		t.Fatalf("non-deterministic: %d vs %d arrivals", len(again), len(arrivals))
	}
	for i := range again {
		if again[i] != arrivals[i] {
			t.Fatalf("arrival %d differs across runs: %+v vs %+v", i, again[i], arrivals[i])
		}
	}
}
