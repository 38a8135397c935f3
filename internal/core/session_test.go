package core

import (
	"errors"
	"math"
	"regexp"
	"strconv"
	"testing"

	"energydb/internal/energy"
	"energydb/internal/opt"
	"energydb/internal/sql"
	"energydb/internal/tpch"
)

const sessAggQuery = `SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS q
	FROM lineitem GROUP BY l_partkey ORDER BY l_partkey`

// TestAttributionSumsToMeter is the attribution invariant: across
// concurrent sessions, per-query attributed joules sum to the
// whole-server meter delta, with nothing left unattributed while the
// streams cover the run wall-to-wall.
func TestAttributionSumsToMeter(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.01)

	queries := []string{tpch.Q6, sessAggQuery, tpch.Q1}
	var all []*Rows
	for s := 0; s < 4; s++ {
		sess := db.Session()
		for qi := range queries {
			rows, err := sess.Query(queries[(qi+s)%len(queries)])
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, rows)
		}
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	var sum, marginal float64
	for _, rows := range all {
		res, err := rows.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Attributed <= 0 || res.Marginal <= 0 || res.Shared <= 0 {
			t.Fatalf("incomplete attribution: %+v", res)
		}
		if math.Abs(float64(res.Attributed-res.Marginal-res.Shared)) > 1e-9 {
			t.Fatalf("attribution does not decompose: %v != %v + %v",
				res.Attributed, res.Marginal, res.Shared)
		}
		sum += float64(res.Attributed)
		marginal += float64(res.Marginal)
	}
	meter := float64(db.Srv.Meter.TotalEnergy(energy.Seconds(db.Srv.Eng.Now())))
	if diff := math.Abs(sum - meter); diff > 1e-6*meter {
		t.Fatalf("attributed sum %.9f J vs meter %.9f J (diff %.3g)", sum, meter, diff)
	}
	if un := float64(db.Attr.Unattributed()); math.Abs(un) > 1e-6*meter {
		t.Fatalf("unattributed energy %.9f J with wall-to-wall streams", un)
	}
	// The idle floor is real on 2008 hardware: the shared component must
	// be a substantial part of the bill, not a rounding artifact.
	if marginal >= sum {
		t.Fatalf("marginal %.3f J >= total %.3f J: idle floor lost", marginal, sum)
	}
}

// TestAdmissionQueuesBeyondCores: more same-instant streams than cores —
// the surplus queues, nothing oversubscribes, and every query still
// completes with a serial-grant plan.
func TestAdmissionQueuesBeyondCores(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.005)
	cores := db.Srv.CPU.Cores()
	streams := cores + 4

	var all []*Rows
	for s := 0; s < streams; s++ {
		rows, err := db.Session().Query(tpch.Q6)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	waited := 0
	for _, rows := range all {
		res, err := rows.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Granted != 1 {
			t.Fatalf("saturated stream granted %d cores, want 1", res.Granted)
		}
		if res.Wait > 0 {
			waited++
		}
	}
	if waited != streams-cores {
		t.Fatalf("%d queries queued, want %d", waited, streams-cores)
	}
	st := db.SchedStats()
	if st.PeakActive > cores {
		t.Fatalf("admission oversubscribed: %d active on %d cores", st.PeakActive, cores)
	}
	if st.Waited != int64(streams-cores) || st.Completed != int64(streams) {
		t.Fatalf("admission stats: %+v", st)
	}
}

var sessDopRE = regexp.MustCompile(`dop=(\d+)`)

func maxPlanDop(p *opt.Plan) int {
	max := 1
	for _, m := range sessDopRE.FindAllStringSubmatch(p.Explain(), -1) {
		if d, _ := strconv.Atoi(m[1]); d > max {
			max = d
		}
	}
	return max
}

// TestAdmissionGrantsDOPFromFreeCores is the acceptance mix: the same
// parallel-friendly aggregation plans wide on an idle box, but submitted
// beside concurrent streams it is granted only cores the streams left
// free — its pipeline DOP shrinks to the grant instead of double-booking
// busy cores.
func TestAdmissionGrantsDOPFromFreeCores(t *testing.T) {
	// Control: alone on an idle 8-core box the query takes every core and
	// buys a parallel plan.
	alone := openParDB(t, opt.MinTime, 8, 0, 4096)
	rows, err := alone.Session().Query(sessAggQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted != 8 {
		t.Fatalf("lone query granted %d of 8 free cores", res.Granted)
	}
	if maxPlanDop(res.Plan) < 2 {
		t.Fatalf("lone 8-core grant kept the plan serial:\n%s", res.Plan.Explain())
	}

	// Mixed: three streams occupy the box (fair share: 2+2+2 of 8), then
	// the same query arrives; only 2 cores are free, and both grant and
	// plan DOP must respect that.
	mixed := openParDB(t, opt.MinTime, 8, 0, 4096)
	var streams []*Rows
	for s := 0; s < 3; s++ {
		r, err := mixed.Session().Query(sessAggQuery)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, r)
	}
	late, err := mixed.Session().QueryAt(1e-4, sessAggQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := mixed.Drain(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range streams {
		sres, err := r.Result()
		if err != nil {
			t.Fatal(err)
		}
		if sres.Granted != 2 {
			t.Fatalf("stream granted %d, want fair share 2", sres.Granted)
		}
		sum += float64(sres.Attributed)
	}
	lres, err := late.Result()
	if err != nil {
		t.Fatal(err)
	}
	sum += float64(lres.Attributed)
	if lres.Granted != 2 {
		t.Fatalf("late query granted %d cores with 2 free, want 2", lres.Granted)
	}
	if d := maxPlanDop(lres.Plan); d > lres.Granted {
		t.Fatalf("plan DOP %d exceeds the %d granted cores:\n%s", d, lres.Granted, lres.Plan.Explain())
	}
	// Attribution stays lossless under the mixed load.
	meter := float64(mixed.Srv.Meter.TotalEnergy(energy.Seconds(mixed.Srv.Eng.Now())))
	if diff := math.Abs(sum + float64(mixed.Attr.Unattributed()) - meter); diff > 1e-6*meter {
		t.Fatalf("mixed attribution: sum %.9f + unattributed %.9f vs meter %.9f",
			sum, float64(mixed.Attr.Unattributed()), meter)
	}
}

// TestRowsStreaming: Next/Batch stream the result incrementally and agree
// with Collect.
func TestRowsStreaming(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.005)

	sess := db.Session()
	st, err := sess.Prepare("SELECT l_partkey FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for rows.Next() {
		streamed += rows.Batch().Rows()
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := db.Exec("SELECT l_partkey FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 || streamed != ref.Rows.Rows() {
		t.Fatalf("streamed %d rows, want %d", streamed, ref.Rows.Rows())
	}

	// Re-executing the prepared statement reuses the cached plan.
	again, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	n, err := again.RowCount()
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != streamed {
		t.Fatalf("re-execution produced %d rows, want %d", n, streamed)
	}
}

// TestRowsEarlyClose: closing a Rows mid-stream — with a parallel scan
// fanned out underneath, and under LIMIT — cancels the query and leaves
// zero live processes in the engine.
func TestRowsEarlyClose(t *testing.T) {
	for _, query := range []string{
		"SELECT l_partkey FROM lineitem WHERE l_quantity > 1",
		"SELECT l_partkey FROM lineitem WHERE l_quantity > 1 LIMIT 5",
	} {
		db := openParDB(t, opt.MinTime, 8, 0, 1024)
		rows, err := db.Session().Query(query)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("%s: no first batch", query)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		// The query process has exited; cancelled scan readers unwind at
		// their next boundary, so after the engine drains (with no
		// deadlock error) nothing is left alive.
		if !rows.done {
			t.Fatalf("%s: query still running after Close", query)
		}
		if err := db.Drain(); err != nil {
			t.Fatalf("%s: drain after close: %v", query, err)
		}
		if live := db.Srv.Eng.Live(); live != 0 {
			t.Fatalf("%s: %d live process(es) after early close: %v",
				query, live, db.Srv.Eng.LiveNames())
		}
		if rows.Next() {
			t.Fatalf("%s: Next succeeded after Close", query)
		}
	}
}

// TestEarlyCloseKeepsAttributionExact: a query cancelled mid-scan has
// readers that finish in-flight device operations after its account
// closed; those joules must fall back into the shared residual — not
// vanish — so Σ attributed + unattributed still equals the meter.
func TestEarlyCloseKeepsAttributionExact(t *testing.T) {
	db := openParDB(t, opt.MinTime, 8, 0, 1024)
	rows, err := db.Session().Query("SELECT l_partkey FROM lineitem WHERE l_quantity > 1")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first batch")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	closed := rows.res

	// A second query runs while the first query's cancelled readers are
	// still unwinding.
	after, err := db.Exec(sessAggQuery)
	if err != nil {
		t.Fatal(err)
	}

	sum := float64(closed.Attributed) + float64(after.Attributed) + float64(db.Attr.Unattributed())
	meter := float64(db.Srv.Meter.TotalEnergy(energy.Seconds(db.Srv.Eng.Now())))
	if diff := math.Abs(sum - meter); diff > 1e-6*meter {
		t.Fatalf("after early close: Σ attributed %.9f + unattributed %.9f != meter %.9f",
			float64(closed.Attributed)+float64(after.Attributed),
			float64(db.Attr.Unattributed()), meter)
	}
}

// TestExecMatchesSessionPath: DB.Exec is a thin wrapper over a
// one-statement session — results, timing and energy are bit-identical
// to driving the session API by hand.
func TestExecMatchesSessionPath(t *testing.T) {
	mk := func() *DB {
		db := smallDB(t, opt.MinTime)
		loadTinyTPCH(t, db, 0.005)
		return db
	}
	const q = sessAggQuery

	a := mk()
	execRes, err := a.Exec(q)
	if err != nil {
		t.Fatal(err)
	}

	b := mk()
	rows, err := b.Session().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	sessRes, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}

	if execRes.Elapsed != sessRes.Elapsed || execRes.Joules != sessRes.Joules {
		t.Fatalf("exec %v/%v vs session %v/%v",
			execRes.Elapsed, execRes.Joules, sessRes.Elapsed, sessRes.Joules)
	}
	if execRes.Attributed != sessRes.Attributed || execRes.Granted != sessRes.Granted {
		t.Fatalf("exec attribution %v/%d vs session %v/%d",
			execRes.Attributed, execRes.Granted, sessRes.Attributed, sessRes.Granted)
	}
	if execRes.Rows.Rows() != sessRes.Rows.Rows() {
		t.Fatalf("row counts differ: %d vs %d", execRes.Rows.Rows(), sessRes.Rows.Rows())
	}
	for i := 0; i < execRes.Rows.Rows(); i++ {
		for c := 0; c < 3; c++ {
			if execRes.Rows.Column(c).Value(i).Compare(sessRes.Rows.Column(c).Value(i)) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, c,
					execRes.Rows.Column(c).Value(i), sessRes.Rows.Column(c).Value(i))
			}
		}
	}
	// A lone Exec on an idle box is granted every core and is accounted
	// wall-to-wall: attributed == whole-server delta.
	if diff := math.Abs(float64(execRes.Attributed - execRes.Joules)); diff > 1e-6*float64(execRes.Joules) {
		t.Fatalf("lone query attributed %v != whole-server %v", execRes.Attributed, execRes.Joules)
	}
	// ...and its shared component is exactly the idle floor: every joule
	// of device activity — CPU work AND the scan's disk reads, performed
	// by reader processes that inherit the query's account — was charged
	// as marginal, leaving only base + idle power in the residual.
	idle := float64(a.Srv.IdlePower()) * float64(execRes.Elapsed)
	if diff := math.Abs(float64(execRes.Shared) - idle); diff > 1e-6*idle {
		t.Fatalf("lone query shared %v != idle floor %.9g J (device energy leaked out of Marginal)",
			execRes.Shared, idle)
	}
}

// TestSessionSerializesStatements: statements on one session run in
// submission order, back to back, never concurrently.
func TestSessionSerializesStatements(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.005)
	sess := db.Session()
	var rs []*Rows
	for i := 0; i < 3; i++ {
		r, err := sess.Query(tpch.Q6)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := db.SchedStats().PeakActive; got != 1 {
		t.Fatalf("one session ran %d statements concurrently", got)
	}
	prevEnd := 0.0
	for i, r := range rs {
		res, err := r.Result()
		if err != nil {
			t.Fatal(err)
		}
		if r.submitT < prevEnd {
			t.Fatalf("statement %d submitted at %v before predecessor finished at %v",
				i, r.submitT, prevEnd)
		}
		prevEnd = r.submitT + float64(res.Elapsed)
	}
}

// TestPreparedStmtSeesNewRows: re-executing a prepared statement after an
// INSERT to a referenced table must re-place the table and drop cached
// plans — not read the stale placement it was prepared against.
func TestPreparedStmtSeesNewRows(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v DOUBLE)")
	mustExec(t, db, "INSERT INTO kv VALUES (1, 2.5)")

	st, err := db.Session().Prepare("SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	// A second statement on the same table: the first statement to
	// re-place consumes the dirty flag, so other statements must
	// invalidate by placement epoch.
	st2, err := db.Session().Prepare("SELECT v FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	count := func(s *Stmt) int64 {
		t.Helper()
		rows, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		n, err := rows.RowCount()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(st); n != 1 {
		t.Fatalf("first execution: %d rows", n)
	}
	if n := count(st2); n != 1 {
		t.Fatalf("first execution (stmt 2): %d rows", n)
	}

	mustExec(t, db, "INSERT INTO kv VALUES (2, 3.5), (3, 4.5)")
	if n := count(st); n != 3 {
		t.Fatalf("re-execution after insert: %d rows (stale placement?)", n)
	}
	if n := count(st2); n != 3 {
		t.Fatalf("sibling statement after insert: %d rows (stale plan cache?)", n)
	}
}

// TestSerialPlansReleaseGrant: a lone query is granted the whole box, but
// once its plan turns out serial the unused cores go back to the free
// pool — staggered arrivals run concurrently instead of queueing behind
// an idle grant.
func TestSerialPlansReleaseGrant(t *testing.T) {
	db := openParDB(t, opt.MinEnergy, 8, 0, 4096) // MinEnergy: plans stay serial
	const n = 4
	var all []*Rows
	for s := 0; s < n; s++ {
		// Staggered arrivals: each later query arrives while the earlier
		// ones are still running.
		rows, err := db.Session().QueryAt(float64(s)*1e-5, sessAggQuery)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, rows := range all {
		res, err := rows.Result()
		if err != nil {
			t.Fatal(err)
		}
		if d := maxPlanDop(res.Plan); d != 1 {
			t.Fatalf("MinEnergy plan went parallel (dop=%d)", d)
		}
	}
	if got := db.SchedStats().PeakActive; got != n {
		t.Fatalf("peak active = %d, want %d (serial plans should release their grants)", got, n)
	}
}

func TestSessionClosedRejects(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.005)
	sess := db.Session()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(tpch.Q6); err == nil {
		t.Fatal("query on closed session should fail")
	}
	if _, err := sess.Prepare(tpch.Q6); err == nil {
		t.Fatal("prepare on closed session should fail")
	}
}

// TestTypeErrorFailsAtPrepare: a statement that does not type-check is
// refused by Prepare (and Query, Explain, DB.Exec and DB.Plan, which bind
// the same way) with sql.ErrType, before admission — no ticket, no energy
// account, no process — and the session goes on serving. At 9d264a0 the
// first two texts bound, and panicked the process on their first batch;
// the other two answered "" and 0.
func TestTypeErrorFailsAtPrepare(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	loadTinyTPCH(t, db, 0.002)
	sess := db.Session()
	for _, q := range []string{
		"SELECT c_name + 1 AS x FROM customer",
		"SELECT 'x' + 1 AS z FROM customer",
		"SELECT SUM(c_name) AS s FROM customer",
		"SELECT AVG(c_name) AS s FROM customer",
	} {
		if _, err := sess.Prepare(q); !errors.Is(err, sql.ErrType) {
			t.Errorf("Prepare(%q): error %v, want sql.ErrType", q, err)
		}
		if _, err := sess.Query(q); !errors.Is(err, sql.ErrType) {
			t.Errorf("Query(%q): error %v, want sql.ErrType", q, err)
		}
		if _, err := sess.Explain(q); !errors.Is(err, sql.ErrType) {
			t.Errorf("Explain(%q): error %v, want sql.ErrType", q, err)
		}
		if _, err := db.Exec(q); !errors.Is(err, sql.ErrType) {
			t.Errorf("Exec(%q): error %v, want sql.ErrType", q, err)
		}
		if _, err := db.Plan(q); !errors.Is(err, sql.ErrType) {
			t.Errorf("Plan(%q): error %v, want sql.ErrType", q, err)
		}
	}
	if st := db.SchedStats(); st.Submitted != 0 {
		t.Errorf("%d tickets submitted for statements that never bound", st.Submitted)
	}
	if n := db.Attr.Active(); n != 0 {
		t.Errorf("%d energy accounts open", n)
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Errorf("%d processes live", live)
	}
	rows, err := sess.Query("SELECT MIN(c_name) AS lo, COUNT(*) AS n FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil || res.Rows.Rows() != 1 || res.Rows.Column(1).I[0] == 0 {
		t.Fatalf("the session's next statement: %v, err %v", res, err)
	}
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
}
