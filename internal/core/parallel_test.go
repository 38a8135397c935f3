package core

import (
	"strings"
	"testing"

	"energydb/internal/hw"
	"energydb/internal/opt"
)

// parallelRig is a modern-flavoured machine where scans are CPU-bound: a
// multi-core CPU with a real idle floor in front of a fast, low-latency
// flash array. This is the regime the paper's §3 argument anticipates —
// once storage stops being the bottleneck, the only way to use the power
// you are paying for is to keep more cores busy and finish sooner.
func parallelRig() hw.ServerSpec {
	ssd := hw.FlashSSD2008()
	ssd.ReadBW *= 6        // ~480 MB/s per device
	ssd.ReadLatency /= 100 // deep NVMe-style queueing
	return hw.ServerSpec{
		Name: "par-rig",
		CPU: hw.CPUSpec{
			Name:          "xeon-8c",
			Cores:         8,
			FreqHz:        2.4e9,
			IdleWatts:     40,
			ActivePerCore: 15,
		},
		NumSSDs: 4,
		SSD:     ssd,
	}
}

// TestParallelScanRaceToIdleEndToEnd is the PR's acceptance test: a
// scan-heavy COUNT(*) … WHERE over the TPC-H lineitem generator, planned
// and executed end to end. On the 8-core machine the MinTime optimizer
// picks a parallel morsel-driven scan; against the same machine planned
// serial (Cores=1), simulated elapsed time must shrink while whole-server
// energy — idle floor included — stays flat or falls: finishing sooner
// amortises the watts the hardware draws either way.
func TestParallelScanRaceToIdleEndToEnd(t *testing.T) {
	const query = `SELECT COUNT(*) AS n FROM lineitem
		WHERE l_quantity < 25 AND l_discount > 0.02 AND l_extendedprice < 50000`

	measure := func(cores int) (elapsed, joules float64, n int64, explain string) {
		db, err := Open(Config{
			Server:    parallelRig(),
			Objective: opt.MinTime,
			BlockRows: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		loadTinyTPCH(t, db, 0.01)
		db.Env.Cores = cores // plan for this many cores; hardware unchanged
		res, err := db.Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows.Rows() != 1 {
			t.Fatalf("COUNT(*) returned %d rows", res.Rows.Rows())
		}
		return float64(res.Elapsed), float64(res.Joules),
			res.Rows.Column(0).I[0], res.Plan.Explain()
	}

	t1, e1, n1, ex1 := measure(1)
	t8, e8, n8, ex8 := measure(8)

	if strings.Contains(ex1, "dop=") {
		t.Fatalf("serial plan went parallel:\n%s", ex1)
	}
	if !strings.Contains(ex8, "dop=") {
		t.Fatalf("8-core MinTime plan stayed serial:\n%s", ex8)
	}
	if n1 == 0 || n1 != n8 {
		t.Fatalf("counts differ: serial %d, parallel %d", n1, n8)
	}
	if t8 >= t1*0.75 {
		t.Fatalf("parallel scan not meaningfully faster: %.5fs vs %.5fs serial", t8, t1)
	}
	if e8 > e1*1.001 {
		t.Fatalf("parallel scan used more energy: %.4fJ vs %.4fJ serial", e8, e1)
	}
	t.Logf("rows=%d  serial: %.5fs %.4fJ  parallel: %.5fs %.4fJ (%.2fx faster, %.2fx energy)",
		n1, t1, e1, t8, e8, t1/t8, e8/e1)
}

// TestParallelPlanMatchesSerialResults runs a grouped aggregate above the
// parallel scan: every downstream operator (projection, hash aggregation,
// sort) must work unchanged across the merge boundary, and the result must
// be identical at any DOP because aggregation is order-insensitive.
func TestParallelPlanMatchesSerialResults(t *testing.T) {
	const query = `SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q
		FROM lineitem WHERE l_discount > 0.01
		GROUP BY l_returnflag ORDER BY l_returnflag`

	run := func(cores int) [][2]interface{} {
		db, err := Open(Config{
			Server:    parallelRig(),
			Objective: opt.MinTime,
			BlockRows: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		loadTinyTPCH(t, db, 0.01)
		db.Env.Cores = cores
		res, err := db.Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][2]interface{}, res.Rows.Rows())
		for i := range out {
			out[i] = [2]interface{}{
				res.Rows.Column(0).S[i] + "|" + res.Rows.Column(1).Value(i).String(),
				res.Rows.Column(2).F[i],
			}
		}
		return out
	}

	want := run(1)
	for _, cores := range []int{2, 8} {
		got := run(cores)
		if len(got) != len(want) {
			t.Fatalf("cores=%d: %d groups, want %d", cores, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cores=%d row %d: got %v, want %v", cores, i, got[i], want[i])
			}
		}
	}
}
