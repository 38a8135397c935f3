package core

import (
	"errors"
	"math"
	"testing"

	"energydb/internal/fault"
	"energydb/internal/hw"
	"energydb/internal/table"
)

// TestExecInsertIsBilledAndLeavesTheFutureAlone: Exec of an INSERT on a
// WAL database is the commit ExecAt schedules, waited for — it runs the
// clock as far as its own flush and no further, and its joules land in an
// account of its own. Before the statement paths were one, it spawned an
// unowned process and drained the engine: a query scheduled for t = 100 s
// ran, the clock jumped there, and the commit was billed to nobody.
func TestExecInsertIsBilledAndLeavesTheFutureAlone(t *testing.T) {
	db, err := Open(Config{Server: hw.SmallServer(2), WALBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE events (tenant BIGINT, day BIGINT, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	first, err := db.Exec(`INSERT INTO events VALUES (1, 1, 0.5)`)
	if err != nil {
		t.Fatal(err)
	}
	sess := db.Session()
	defer sess.Close()
	future, err := sess.QueryAt(100, `SELECT COUNT(*) AS n FROM events`)
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.Exec(`INSERT INTO events VALUES (2, 1, 2.5), (3, 1, 0.25)`)
	if err != nil {
		t.Fatal(err)
	}
	if future.done {
		t.Fatal("Exec of an INSERT ran a query scheduled for t = 100 s")
	}
	if now := db.Srv.Eng.Now(); now >= 100 || now <= 0 {
		t.Fatalf("clock at %.6f s after the INSERT, want its commit latency", now)
	}
	if res.Attributed <= 0 || res.Marginal <= 0 || res.Elapsed <= 0 {
		t.Fatalf("INSERT billed %.6f J (%.6f marginal) over %.6f s, want all > 0",
			float64(res.Attributed), float64(res.Marginal), float64(res.Elapsed))
	}

	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	fres, err := future.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if n := fres.Rows.Column(0).I[0]; n != 3 {
		t.Fatalf("%d rows visible at t = 100 s, want 3", n)
	}
	// The ledger closes with the INSERTs' accounts in the sum.
	meter, unattr := db.Ledger()
	sum := float64(first.Attributed) + float64(res.Attributed) + float64(fres.Attributed)
	if diff := math.Abs(float64(meter) - float64(unattr) - sum); diff > 1e-9 {
		t.Fatalf("meter %.9f − unattributed %.9f != Σ accounts %.9f (diff %.2e)",
			float64(meter), float64(unattr), sum, diff)
	}
}

// TestLedgerClosesOverSynchronousInserts: meter − unattributed equals the
// sum of every statement's account when the statements are Exec'd INSERTs
// and SELECTs interleaved — no commit's joules fall between accounts.
func TestLedgerClosesOverSynchronousInserts(t *testing.T) {
	db, err := Open(Config{Server: hw.SmallServer(2), WALBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, q := range []string{
		`INSERT INTO kv VALUES (1, 'a'), (2, 'b')`,
		`SELECT COUNT(*) AS n FROM kv`,
		`INSERT INTO kv VALUES (3, 'c')`,
		`SELECT k FROM kv WHERE k > 1`,
	} {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Attributed <= 0 {
			t.Fatalf("%s: billed %.6f J", q, float64(res.Attributed))
		}
		sum += float64(res.Attributed)
	}
	meter, unattr := db.Ledger()
	if diff := math.Abs(float64(meter) - float64(unattr) - sum); diff > 1e-9 {
		t.Fatalf("meter %.9f − unattributed %.9f != Σ accounts %.9f (diff %.2e)",
			float64(meter), float64(unattr), sum, diff)
	}
}

// TestInsertCaughtByCrash: a synchronous Insert whose commit is on the log
// device when the engine crashes reports fault.ErrCrashed, leaves no
// phantom row, closes its account at the crash instant (an open one would
// keep absorbing idle-floor shares), and does not run the future to find
// that out.
func TestInsertCaughtByCrash(t *testing.T) {
	db := walDB(t, 0)
	if _, err := db.Exec("CREATE TABLE kv (k BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	row := func(k int64) [][]table.Value {
		return [][]table.Value{{table.IntVal(k), table.FloatVal(0.5)}}
	}
	if err := db.Insert("kv", row(0)); err != nil { // pays the log disk's first seek
		t.Fatal(err)
	}
	t0 := db.Srv.Eng.Now()
	if err := db.Insert("kv", row(1)); err != nil {
		t.Fatal(err)
	}
	commit := db.Srv.Eng.Now() - t0

	sess := db.Session()
	defer sess.Close()
	future, err := sess.QueryAt(100, "SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	db.CrashAt(db.Srv.Eng.Now()+commit/2, 0.5)
	if err := db.Insert("kv", row(2)); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("insert caught mid-commit: err = %v, want ErrCrashed", err)
	}
	if future.done || db.Srv.Eng.Now() >= 100 {
		t.Fatalf("the crashed insert ran the future (clock %.3f)", db.Srv.Eng.Now())
	}
	if n := db.Attr.Active(); n != 0 {
		t.Fatalf("%d energy account(s) still open after the crash", n)
	}
	if len(db.commits) != 0 {
		t.Fatalf("%d commit(s) still tracked after the crash", len(db.commits))
	}
	if got := countRows(t, db, "kv"); got != 2 {
		t.Fatalf("recovered %d rows, want the 2 committed before the crash", got)
	}
	// An insert the crash caught before its arrival time fails the same way.
	d, err := db.InsertAt(db.Srv.Eng.Now()+50, "kv", row(3))
	if err != nil {
		t.Fatal(err)
	}
	db.Crash(0)
	if !d.Done() || !errors.Is(d.Err(), fault.ErrCrashed) || d.Attributed() != 0 {
		t.Fatalf("scheduled insert after crash: done=%v err=%v billed=%v", d.Done(), d.Err(), d.Attributed())
	}
}

// TestFrontDoorTakesWhatItsCallerTakes: every entry point is the same
// prepare with a different acceptance — sessions and Plan refuse writes,
// ExecAt refuses reads, Exec takes both — and a refusal schedules nothing.
func TestFrontDoorTakesWhatItsCallerTakes(t *testing.T) {
	db, err := Open(Config{Server: hw.SmallServer(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE kv (k BIGINT, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	sess := db.Session()
	const ins, sel = `INSERT INTO kv VALUES (1, 'x')`, `SELECT k FROM kv`
	if _, err := sess.Prepare(ins); err == nil {
		t.Error("Session.Prepare took an INSERT")
	}
	if _, err := sess.PrepareCached(NewPlanCache(), ins); err == nil {
		t.Error("Session.PrepareCached took an INSERT")
	}
	if _, err := sess.Explain(`CREATE TABLE t (a BIGINT)`); err == nil {
		t.Error("Session.Explain took a CREATE")
	}
	if _, err := db.Plan(ins); err == nil {
		t.Error("DB.Plan took an INSERT")
	}
	if _, err := db.ExecAt(0, sel); err == nil {
		t.Error("ExecAt took a SELECT")
	}
	if _, ok := db.Schema("t"); ok {
		t.Error("a refused CREATE registered its table")
	}
	for _, q := range []string{sel, `EXPLAIN ` + sel} {
		p1, err := db.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Exec(`EXPLAIN ` + sel)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sess.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if p1.Explain() != res.Plan.Explain() || rows.Rows() != p1.ExplainRows().Rows() {
			t.Errorf("%q: Plan, Exec(EXPLAIN) and Session.Explain disagree", q)
		}
	}
	sess.Close()
	if _, err := sess.Explain(sel); err == nil {
		t.Error("a closed session explained")
	}
	if live := db.Srv.Eng.Live(); live != 0 || len(db.commits) != 0 {
		t.Fatalf("%d live process(es), %d tracked commit(s) after refusals and EXPLAINs", live, len(db.commits))
	}
}
