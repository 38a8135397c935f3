package fault_test

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"energydb/internal/core"
	"energydb/internal/exec"
	"energydb/internal/fault"
	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/tpch"
)

// The chaos harness: a multi-stream TPC-H workload under a seeded
// schedule of arrivals, deadlines, early closes, and device faults —
// optionally with a whole-engine crash mid-workload. Every run asserts
// the lifecycle invariants the PR is about:
//
//   - every statement ends in either the fault-free answer or a typed
//     *exec.QueryError — never a hang, never a silent wrong result;
//   - the engine drains to zero live processes and every admission grant
//     is returned;
//   - attributed joules over all statements plus the unattributed floor
//     equal the wall meter at the last settlement (within 1e-6);
//   - the whole run is a pure function of the seed: two runs produce
//     bit-identical fingerprints (timings, joules, outcomes).
//
// The seed is a flag so CI can pin it and a developer can reproduce a
// failure exactly: go test -run Chaos -chaos.seed=N ./internal/fault/...
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos schedule")

const (
	chaosStreams = 8
	chaosSF      = 0.002
)

// chaosDB opens the chaos rig and returns it with the joules attributed
// to the warm-up placement queries — the attribution invariant sums over
// every account ever opened, warm-up included. policy selects the
// admission policy ("" = FIFO).
func chaosDB(t *testing.T, policy string) (*core.DB, float64) {
	t.Helper()
	db, err := core.Open(core.Config{
		Server:      hw.SmallServer(4),
		Objective:   opt.MinTime,
		PageBytes:   16 << 10,
		BlockRows:   4096,
		WALBatch:    1,
		RetryMax:    2,
		SchedPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := tpch.Generate(chaosSF, 42)
	names := make([]string, 0, len(gen.Tables))
	for name := range gen.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := db.LoadTable(gen.Tables[name]); err != nil {
			t.Fatal(err)
		}
	}
	// Place every table before chaos begins: placement is the recovery
	// checkpoint (LoadTable bypasses the WAL), so an unplaced table would
	// genuinely lose its rows to a crash. A count-only plan places the
	// table without reading a byte.
	warm := 0.0
	for _, name := range names {
		res, err := db.Exec("SELECT COUNT(*) FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		warm += float64(res.Attributed)
	}
	return db, warm
}

// chaosReference runs the mix fault-free once and reports each query's
// answer (row count) and solo latency, which sizes deadlines and the
// crash instant for the seeded runs.
func chaosReference(t *testing.T) (rows map[string]int64, elapsed map[string]float64) {
	t.Helper()
	db, _ := chaosDB(t, "")
	rows = make(map[string]int64)
	elapsed = make(map[string]float64)
	for _, q := range tpch.ThroughputMix() {
		if _, ok := rows[q]; ok {
			continue
		}
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("reference %s: %v", q, err)
		}
		rows[q] = res.RowCount
		elapsed[q] = float64(res.Elapsed)
	}
	return rows, elapsed
}

type chaosQuery struct {
	stream, idx int
	query       string
	closed      bool // closed by the client while queued
	rows        *core.Rows
}

// runChaos executes one seeded chaos run and returns its fingerprint.
// All randomness flows through the injector, so the run is a pure
// function of (seed, crash, policy) and the fingerprint must be
// bit-identical across repeats.
func runChaos(t *testing.T, seed int64, crash bool, policy string, refRows map[string]int64, refElapsed map[string]float64) string {
	t.Helper()
	db, warm := chaosDB(t, policy)
	inj := fault.NewInjector(seed)
	rng := inj.Rand()

	maxElapsed := 0.0
	for _, e := range refElapsed {
		if e > maxElapsed {
			maxElapsed = e
		}
	}
	// Rough makespan scale: streams*len(mix) statements share the box.
	horizon := maxElapsed * float64(chaosStreams)

	// Device faults: seeded transient windows and limp modes on the data
	// disks. No FailAt here — permanent death is covered by its own test;
	// chaos wants most statements to survive so correctness is checked.
	start := db.Srv.Eng.Now()
	for i, d := range db.Srv.Disks {
		f := inj.Device(fmt.Sprintf("disk%d", i))
		armed := false
		if rng.Float64() < 0.7 {
			f.TransientAt(start+rng.Float64()*horizon, 1+rng.Intn(3))
			armed = true
		}
		if rng.Float64() < 0.5 {
			f.LimpAt(start+rng.Float64()*horizon, 1.5+2*rng.Float64())
			armed = true
		}
		if armed {
			d.SetFault(f)
		}
	}

	// The crash is scheduled before any statement: client-side closes
	// below pump the simulation (Close runs the engine until the closed
	// statement settles), so by the time the last stream is submitted the
	// clock may already be past the crash instant.
	if crash {
		db.CrashAt(start+horizon*0.25, 0.5)
	}

	// Streams: each session issues the whole mix with seeded arrivals;
	// some statements carry deadlines tight enough to expire, some are
	// closed by the client while still queued.
	var queries []chaosQuery
	mix := tpch.ThroughputMix()
	for s := 0; s < chaosStreams; s++ {
		sess := db.Session()
		for qi, q := range mix {
			arrival := start + rng.Float64()*horizon/2
			st, err := sess.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			var rows *core.Rows
			if rng.Float64() < 0.25 {
				// Between 0.3x and 1.3x the solo latency after arrival:
				// some expire queued, some expire running, some finish.
				deadline := arrival + (0.3+rng.Float64())*refElapsed[q]
				rows, err = st.QueryAtDeadline(arrival, deadline)
			} else {
				rows, err = st.QueryAt(arrival)
			}
			if err != nil {
				t.Fatal(err)
			}
			rows.Discard()
			cq := chaosQuery{stream: s, idx: qi, query: q, rows: rows}
			if rng.Float64() < 0.1 {
				cq.closed = true
				if err := rows.Close(); err != nil {
					t.Fatalf("queued close: %v", err)
				}
			}
			queries = append(queries, cq)
		}
	}

	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}

	// Invariant: every statement ended in the reference answer or a typed
	// QueryError.
	var fp strings.Builder
	sum := warm
	for _, cq := range queries {
		label := fmt.Sprintf("s%dq%d", cq.stream, cq.idx)
		err := cq.rows.Err()
		switch {
		case cq.closed:
			if cq.rows.Attributed() != 0 {
				t.Errorf("%s: closed-while-queued statement billed %v J", label, cq.rows.Attributed())
			}
			fmt.Fprintf(&fp, "%s closed\n", label)
		case err != nil:
			var qe *exec.QueryError
			if !errors.As(err, &qe) {
				t.Errorf("%s: untyped error %v", label, err)
			}
			if !errors.Is(err, fault.ErrDeadlineExceeded) &&
				!errors.Is(err, fault.ErrTransientIO) &&
				!errors.Is(err, fault.ErrDeviceFailed) &&
				!errors.Is(err, fault.ErrCrashed) {
				t.Errorf("%s: error outside the fault taxonomy: %v", label, err)
			}
			fmt.Fprintf(&fp, "%s err %v\n", label, err)
		default:
			n, err := cq.rows.RowCount()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if n != refRows[cq.query] {
				t.Errorf("%s: %d rows, reference %d", label, n, refRows[cq.query])
			}
			fmt.Fprintf(&fp, "%s ok %d\n", label, n)
		}
		sum += float64(cq.rows.Attributed())
	}

	// Invariant: the engine drained completely and every grant came back.
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Errorf("%d live process(es) after drain: %v", live, db.Srv.Eng.LiveNames())
	}
	if free := db.Adm.FreeCores(); free != db.Adm.TotalCores {
		t.Errorf("grants leaked: %d free of %d cores", free, db.Adm.TotalCores)
	}
	if crash && db.Crashes() != 1 {
		t.Errorf("crashes = %d, want 1", db.Crashes())
	}

	// After a crash the engine must still answer correctly: re-run the
	// mix's distinct queries once post-recovery.
	if crash {
		for _, q := range []string{tpch.Q1, tpch.Q6} {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatalf("post-recovery %s: %v", q, err)
			}
			if res.RowCount != refRows[q] {
				t.Errorf("post-recovery rows = %d, reference %d", res.RowCount, refRows[q])
			}
			sum += float64(res.Attributed)
		}
	}

	// Invariant: energy attribution telescopes exactly — every statement's
	// share (including dead and deadline-killed ones) plus the
	// unattributed idle floor equals the wall meter.
	if open := db.Attr.Active(); open != 0 {
		t.Errorf("%d account(s) still open after drain", open)
	}
	sum += float64(db.Attr.Unattributed())
	meter := float64(db.Srv.Meter.TotalEnergy(db.Attr.SettledThrough()))
	if math.Abs(sum-meter) > 1e-6 {
		t.Errorf("attribution broke: Σ accounts %v != meter %v (Δ=%g)", sum, meter, sum-meter)
	}

	fmt.Fprintf(&fp, "now %.9f meter %.9f unattributed %.9f\n",
		db.Srv.Eng.Now(), meter, float64(db.Attr.Unattributed()))
	return fp.String()
}

// TestChaosWorkload: the seeded multi-stream run without a crash, run
// twice — outcomes must satisfy every invariant and the two fingerprints
// must be bit-identical.
func TestChaosWorkload(t *testing.T) {
	refRows, refElapsed := chaosReference(t)
	fp1 := runChaos(t, *chaosSeed, false, "", refRows, refElapsed)
	fp2 := runChaos(t, *chaosSeed, false, "", refRows, refElapsed)
	if fp1 != fp2 {
		t.Fatalf("same seed diverged:\n--- run 1\n%s--- run 2\n%s", fp1, fp2)
	}
	if testing.Verbose() {
		t.Logf("seed %d fingerprint:\n%s", *chaosSeed, fp1)
	}
}

// TestChaosCrashRecovery: the same seeded run with a whole-engine crash
// a quarter of the way through the workload window — in-flight
// statements fail typed, future arrivals re-arm and succeed, recovery
// reproduces the reference answers, and the run stays deterministic.
func TestChaosCrashRecovery(t *testing.T) {
	refRows, refElapsed := chaosReference(t)
	fp1 := runChaos(t, *chaosSeed, true, "", refRows, refElapsed)
	fp2 := runChaos(t, *chaosSeed, true, "", refRows, refElapsed)
	if fp1 != fp2 {
		t.Fatalf("same seed diverged:\n--- run 1\n%s--- run 2\n%s", fp1, fp2)
	}
	if testing.Verbose() {
		t.Logf("seed %d crash fingerprint:\n%s", *chaosSeed, fp1)
	}
}

// TestChaosWorkloadEDF: the same seeded chaos mix under the EDF policy —
// queue-jumping dispatch must preserve every lifecycle invariant (typed
// outcomes, zero leaked grants, exact attribution) and stay
// deterministic.
func TestChaosWorkloadEDF(t *testing.T) {
	refRows, refElapsed := chaosReference(t)
	fp1 := runChaos(t, *chaosSeed, false, "edf", refRows, refElapsed)
	fp2 := runChaos(t, *chaosSeed, false, "edf", refRows, refElapsed)
	if fp1 != fp2 {
		t.Fatalf("same seed diverged:\n--- run 1\n%s--- run 2\n%s", fp1, fp2)
	}
	if testing.Verbose() {
		t.Logf("seed %d EDF fingerprint:\n%s", *chaosSeed, fp1)
	}
}
