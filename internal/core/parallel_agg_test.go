package core

import (
	"math"
	"regexp"
	"testing"

	"energydb/internal/hw"
	"energydb/internal/opt"
)

// planAggDop matches an agg plan line that carries a pipeline DOP.
var planAggDop = regexp.MustCompile(`(?m)^\s*agg .*dop=`)

// pipelineRig is parallelRig with an NVMe-class flash array: storage fast
// enough that whole-pipeline CPU — not the scan's I/O — bounds elapsed
// time. This is the regime where parallelism *above* the scan matters: on
// parallelRig the I/O floor hides the serial aggregation entirely, so the
// Amdahl gap PR 4 closes would be invisible.
func pipelineRig() hw.ServerSpec {
	spec := parallelRig()
	ssd := spec.SSD
	ssd.ReadBW *= 4
	spec.SSD = ssd
	return spec
}

// openParDB builds a DB on the CPU-bound pipeline rig, loads tiny TPC-H,
// and caps the cores the planner prices. blockRows trades page-read
// amplification (small blocks share pages and re-read them) against morsel
// count; tests that must fragment a small table use small blocks.
func openParDB(t *testing.T, obj opt.Objective, cores, blockRows int) *DB {
	t.Helper()
	db, err := Open(Config{
		Server:    pipelineRig(),
		Objective: obj,
		BlockRows: blockRows,
	})
	if err != nil {
		t.Fatal(err)
	}
	loadTinyTPCH(t, db, 0.01)
	db.Env.Cores = cores
	return db
}

// TestParallelAggEndToEnd is the tentpole's acceptance test: a many-group
// SELECT k, SUM(v) … GROUP BY k over generated lineitem must plan a
// partitioned parallel aggregation under MinTime, produce results
// identical to the serial plan, and beat the 1-core plan's simulated
// elapsed time — while MinEnergy still picks the cheaper-joule
// (serial-aggregation) plan.
func TestParallelAggEndToEnd(t *testing.T) {
	const query = `SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS q
		FROM lineitem GROUP BY l_partkey ORDER BY l_partkey`

	measure := func(obj opt.Objective, cores int) *Result {
		db := openParDB(t, obj, cores, 4096)
		res, err := db.Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := measure(opt.MinTime, 1)
	par := measure(opt.MinTime, 8)
	lean := measure(opt.MinEnergy, 8)

	if planAggDop.MatchString(serial.Plan.Explain()) {
		t.Fatalf("1-core plan fragmented the aggregation:\n%s", serial.Plan.Explain())
	}
	if !planAggDop.MatchString(par.Plan.Explain()) {
		t.Fatalf("8-core MinTime plan kept the aggregation serial:\n%s", par.Plan.Explain())
	}
	if planAggDop.MatchString(lean.Plan.Explain()) {
		t.Fatalf("MinEnergy plan bought parallel aggregation (joules are flat in DOP):\n%s", lean.Plan.Explain())
	}
	// MinEnergy's chosen plan must not model more joules than MinTime's.
	if lean.Plan.Cost().Joules > par.Plan.Cost().Joules+1e-12 {
		t.Fatalf("MinEnergy plan hotter than MinTime plan: %v vs %v", lean.Plan.Cost(), par.Plan.Cost())
	}

	// Identical results at every parallelism level (ORDER BY fixes the
	// order; COUNT and SUM over integer-valued quantities are exact).
	for _, res := range []*Result{par, lean} {
		if res.Rows.Rows() != serial.Rows.Rows() {
			t.Fatalf("group counts differ: %d vs serial %d", res.Rows.Rows(), serial.Rows.Rows())
		}
		for i := 0; i < serial.Rows.Rows(); i++ {
			for c := 0; c < 3; c++ {
				if serial.Rows.Column(c).Value(i).Compare(res.Rows.Column(c).Value(i)) != 0 {
					t.Fatalf("row %d col %d: %v vs serial %v",
						i, c, res.Rows.Column(c).Value(i), serial.Rows.Column(c).Value(i))
				}
			}
		}
	}

	// The partitioned aggregation must buy a real share of 8 cores on this
	// agg-heavy workload.
	if float64(par.Elapsed) >= float64(serial.Elapsed)*0.5 {
		t.Fatalf("parallel agg not meaningfully faster than the 1-core plan: %.5fs vs %.5fs",
			float64(par.Elapsed), float64(serial.Elapsed))
	}
	t.Logf("serial %.5fs | partitioned agg %.5fs (%.2fx)",
		float64(serial.Elapsed), float64(par.Elapsed), float64(serial.Elapsed)/float64(par.Elapsed))
}

// TestParallelProbeEndToEnd: the join+group-by shape must parallelise the
// hash join under MinTime by fragmenting the probe pipeline (probe_dop),
// match the serial plan's results exactly, and stay serial under
// MinEnergy.
func TestParallelProbeEndToEnd(t *testing.T) {
	const query = `SELECT o_orderpriority, COUNT(*) AS n
		FROM lineitem, orders WHERE l_orderkey = o_orderkey
		GROUP BY o_orderpriority ORDER BY o_orderpriority`

	measure := func(obj opt.Objective, cores int) *Result {
		db := openParDB(t, obj, cores, 1024)
		res, err := db.Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := measure(opt.MinTime, 1)
	par := measure(opt.MinTime, 8)
	lean := measure(opt.MinEnergy, 8)

	joinDop := regexp.MustCompile(`probe_dop=`)
	if ex := serial.Plan.Explain(); joinDop.MatchString(ex) {
		t.Fatalf("1-core plan fragmented the join:\n%s", ex)
	}
	if ex := par.Plan.Explain(); !joinDop.MatchString(ex) {
		t.Fatalf("8-core MinTime plan kept the join serial:\n%s", ex)
	}
	if ex := lean.Plan.Explain(); joinDop.MatchString(ex) {
		t.Fatalf("MinEnergy plan bought a parallel join:\n%s", ex)
	}

	if par.Rows.Rows() != serial.Rows.Rows() || lean.Rows.Rows() != serial.Rows.Rows() {
		t.Fatalf("group counts differ: serial %d, parallel %d, energy %d",
			serial.Rows.Rows(), par.Rows.Rows(), lean.Rows.Rows())
	}
	for i := 0; i < serial.Rows.Rows(); i++ {
		for c := 0; c < 2; c++ {
			if serial.Rows.Column(c).Value(i).Compare(par.Rows.Column(c).Value(i)) != 0 {
				t.Fatalf("row %d col %d: parallel %v vs serial %v",
					i, c, par.Rows.Column(c).Value(i), serial.Rows.Column(c).Value(i))
			}
			if serial.Rows.Column(c).Value(i).Compare(lean.Rows.Column(c).Value(i)) != 0 {
				t.Fatalf("row %d col %d: energy %v vs serial %v",
					i, c, lean.Rows.Column(c).Value(i), serial.Rows.Column(c).Value(i))
			}
		}
	}
	if float64(par.Elapsed) >= float64(serial.Elapsed) {
		t.Fatalf("parallel probe no faster: %.5fs vs %.5fs serial",
			float64(par.Elapsed), float64(serial.Elapsed))
	}
	t.Logf("serial %.5fs | parallel probe %.5fs (%.2fx)",
		float64(serial.Elapsed), float64(par.Elapsed),
		float64(serial.Elapsed)/float64(par.Elapsed))
}

// TestParallelShapesBusyCoresAndLedger covers the acceptance criteria for
// the two fragmented TPC-H shapes — scan→filter→agg (the filter runs
// inside the scan fragments) and scan→probe→residual-filter→agg (the
// probe and the cross-table residual run inside the fragments): under
// 8-core MinTime each must fragment, realise concurrency on the shared
// CPU (PeakBusyCores ≥ 2), beat its 1-core run, match its rows exactly,
// and keep the attribution invariant — attributed plus unattributed
// joules equal the wall meter within 1e-6 — on the parallel paths.
func TestParallelShapesBusyCoresAndLedger(t *testing.T) {
	shapes := []struct{ name, query string }{
		{"filter_agg", `SELECT l_returnflag, COUNT(*) AS n FROM lineitem
			WHERE l_quantity < 45 AND l_discount > 0.01
			GROUP BY l_returnflag ORDER BY l_returnflag`},
		{"probe_agg", `SELECT o_orderpriority, COUNT(*) AS n FROM lineitem, orders
			WHERE l_orderkey = o_orderkey AND l_extendedprice < o_totalprice
			GROUP BY o_orderpriority ORDER BY o_orderpriority`},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			measure := func(cores int) (*Result, *DB) {
				db := openParDB(t, opt.MinTime, cores, 1024)
				res, err := db.Exec(sh.query)
				if err != nil {
					t.Fatal(err)
				}
				return res, db
			}
			serial, _ := measure(1)
			par, db := measure(8)

			if ex := par.Plan.Explain(); !regexp.MustCompile(`dop=`).MatchString(ex) {
				t.Fatalf("8-core MinTime plan did not fragment:\n%s", ex)
			}
			if peak := db.Srv.CPU.PeakBusyCores(); peak < 2 {
				t.Fatalf("peak busy cores = %d, want >= 2:\n%s", peak, par.Plan.Explain())
			}
			if par.Rows.Rows() != serial.Rows.Rows() {
				t.Fatalf("group counts differ: %d vs serial %d", par.Rows.Rows(), serial.Rows.Rows())
			}
			for i := 0; i < serial.Rows.Rows(); i++ {
				for c := 0; c < 2; c++ {
					if serial.Rows.Column(c).Value(i).Compare(par.Rows.Column(c).Value(i)) != 0 {
						t.Fatalf("row %d col %d: parallel %v vs serial %v",
							i, c, par.Rows.Column(c).Value(i), serial.Rows.Column(c).Value(i))
					}
				}
			}
			if float64(par.Elapsed) >= float64(serial.Elapsed) {
				t.Fatalf("parallel no faster: %.5fs vs %.5fs serial",
					float64(par.Elapsed), float64(serial.Elapsed))
			}
			meter, unattr := db.Ledger()
			attributed := float64(par.Attributed)
			if diff := math.Abs(float64(meter) - (attributed + float64(unattr))); diff > 1e-6 {
				t.Fatalf("ledger broken on parallel path: meter %.6f != attributed %.6f + unattributed %.6f (diff %.2e)",
					float64(meter), attributed, float64(unattr), diff)
			}
			t.Logf("%s: serial %.5fs | parallel %.5fs (%.2fx), peak %d cores, ledger diff ok",
				sh.name, float64(serial.Elapsed), float64(par.Elapsed),
				float64(serial.Elapsed)/float64(par.Elapsed), db.Srv.CPU.PeakBusyCores())
		})
	}
}
