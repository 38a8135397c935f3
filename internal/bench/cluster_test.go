package bench

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testClusterCfg() clusterConfig {
	return clusterConfig{
		Nodes: 8,
		Spec: nodeSpec{
			Cores:        8,
			IdleWatts:    200, // non-proportional 2008 server
			PerCoreWatts: 12,
			OffWatts:     5,
		},
		EpochSeconds:      3600,
		MigrationJPerByte: 30e-9,
	}
}

// diurnalTenants builds tenants with a low/high daily cycle averaging
// well under cluster capacity.
func diurnalTenants(n, epochs int, seed int64) []clusterTenant {
	rng := rand.New(rand.NewSource(seed))
	out := make([]clusterTenant, n)
	for i := range out {
		load := make([]float64, epochs)
		phase := rng.Float64() * 2 * math.Pi
		for e := range load {
			day := 0.5 + 0.45*math.Sin(2*math.Pi*float64(e)/24+phase)
			load[e] = 0.2 + 1.5*day*rng.Float64()
		}
		out[i] = clusterTenant{
			Name:      string(rune('A' + i)),
			DataBytes: int64(1+rng.Intn(20)) << 30,
			Load:      load,
		}
	}
	return out
}

func TestConsolidationBeatsSpread(t *testing.T) {
	cfg := testClusterCfg()
	tenants := diurnalTenants(12, 48, 1)
	spread, err := evaluateCluster(cfg, tenants, spreadPlacement{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := evaluateCluster(cfg, tenants, consolidatePlacement{Headroom: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if cons.TotalJoules >= spread.TotalJoules {
		t.Fatalf("consolidation should save energy: cons=%v spread=%v", cons.TotalJoules, spread.TotalJoules)
	}
	if cons.MeanNodesOn >= spread.MeanNodesOn {
		t.Fatalf("consolidation should use fewer nodes: %v vs %v", cons.MeanNodesOn, spread.MeanNodesOn)
	}
	if cons.Violations != 0 || spread.Violations != 0 {
		t.Fatalf("violations: cons=%d spread=%d", cons.Violations, spread.Violations)
	}
}

func TestStickyMigratesLess(t *testing.T) {
	cfg := testClusterCfg()
	tenants := diurnalTenants(12, 48, 2)
	cons, err := evaluateCluster(cfg, tenants, consolidatePlacement{Headroom: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := evaluateCluster(cfg, tenants, stickyPlacement{Headroom: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if sticky.Migrations >= cons.Migrations {
		t.Fatalf("sticky should migrate less: %d vs %d", sticky.Migrations, cons.Migrations)
	}
	if sticky.MigrationJoules >= cons.MigrationJoules {
		t.Fatalf("sticky migration energy %v >= consolidate %v", sticky.MigrationJoules, cons.MigrationJoules)
	}
}

func TestMigrationCostCharged(t *testing.T) {
	cfg := testClusterCfg()
	cfg.MigrationJPerByte = 0
	tenants := diurnalTenants(10, 24, 3)
	free, err := evaluateCluster(cfg, tenants, consolidatePlacement{Headroom: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.MigrationJPerByte = 30e-9
	paid, err := evaluateCluster(cfg, tenants, consolidatePlacement{Headroom: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if paid.MigrationJoules <= 0 || paid.TotalJoules <= free.TotalJoules {
		t.Fatalf("migration cost not charged: paid=%+v free=%+v", paid, free)
	}
}

func TestSpreadNeverMigrates(t *testing.T) {
	res, err := evaluateCluster(testClusterCfg(), diurnalTenants(9, 24, 4), spreadPlacement{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Fatalf("spread migrated %d times", res.Migrations)
	}
}

func TestNodePower(t *testing.T) {
	spec := testClusterCfg().Spec
	if got := spec.Power(0, false); got != 5 {
		t.Fatalf("off power = %v", got)
	}
	if got := spec.Power(0, true); got != 200 {
		t.Fatalf("idle power = %v", got)
	}
	if got := spec.Power(4, true); got != 248 {
		t.Fatalf("loaded power = %v", got)
	}
}

func TestEvaluateValidation(t *testing.T) {
	cfg := testClusterCfg()
	if _, err := evaluateCluster(cfg, nil, spreadPlacement{}); err == nil {
		t.Fatal("no tenants should error")
	}
	bad := []clusterTenant{
		{Name: "a", Load: []float64{1, 2}},
		{Name: "b", Load: []float64{1}},
	}
	if _, err := evaluateCluster(cfg, bad, spreadPlacement{}); err == nil {
		t.Fatal("ragged traces should error")
	}
}

// Property: consolidation never uses more powered-on nodes than spread,
// and total joules (ignoring migrations) are never higher, across random
// light-load traces.
func TestConsolidationDominatesUnderLightLoad(t *testing.T) {
	f := func(seed int64) bool {
		cfg := testClusterCfg()
		cfg.MigrationJPerByte = 0
		tenants := diurnalTenants(10, 24, seed)
		spread, err1 := evaluateCluster(cfg, tenants, spreadPlacement{})
		cons, err2 := evaluateCluster(cfg, tenants, consolidatePlacement{Headroom: 0.1})
		if err1 != nil || err2 != nil {
			return false
		}
		return cons.MeanNodesOn <= spread.MeanNodesOn+1e-9 &&
			cons.TotalJoules <= spread.TotalJoules+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
