package server_test

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"energydb/internal/client"
	"energydb/internal/core"
	"energydb/internal/fault"
	"energydb/internal/hw"
	"energydb/internal/server"
	"energydb/internal/sql"
	"energydb/internal/table"
	"energydb/internal/tpch"
	"energydb/internal/wire"
)

// rig is an 8-core box with enough parallel I/O that TPC-H plans go
// wide — the same shape core's parallel tests use.
func rig() hw.ServerSpec {
	ssd := hw.FlashSSD2008()
	ssd.SeqReadBW *= 6
	ssd.Latency /= 100
	return hw.ServerSpec{
		Name: "srv-rig",
		CPU: hw.CPUSpec{
			Name: "xeon-8c", Cores: 8, FreqHz: 2.4e9,
			IdleWatts: 40, ActivePerCore: 15,
		},
		Disk:     ssd,
		NumDisks: 4,
	}
}

func openTPCH(t *testing.T, sf float64) *core.DB {
	t.Helper()
	db, err := core.Open(core.Config{Server: rig(), BlockRows: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tpch.Generate(sf, 42).Tables {
		if err := db.LoadTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// fingerprint renders a result table row by row, column by column, with
// full float bits — the bit-identity yardstick.
func fingerprint(tab *table.Table) string {
	if tab == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, c := range tab.Schema.Cols {
		fmt.Fprintf(&b, "%s:%d|", c.Name, c.Type)
	}
	b.WriteByte('\n')
	for i := 0; i < tab.Rows(); i++ {
		for c := 0; c < len(tab.Schema.Cols); c++ {
			v := tab.Column(c)
			switch {
			case v.I != nil:
				fmt.Fprintf(&b, "%d|", v.I[i])
			case v.F != nil:
				fmt.Fprintf(&b, "%x|", math.Float64bits(v.F[i]))
			default:
				fmt.Fprintf(&b, "%s|", v.S[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// After the TPC-H mix both doors run the diurnal workload simulator's
// statement kinds: a CREATE, an INSERT dated past the end of the mix, a
// report over the inserted rows and a query with a deadline it meets.
const (
	tailAt       = 3600.0 // simulated seconds
	tailCreate   = `CREATE TABLE events (tenant BIGINT, day BIGINT, v DOUBLE)`
	tailInsert   = `INSERT INTO events VALUES (0, 1, 12.5), (1, 1, 0.25), (0, 2, 99.125)`
	tailReport   = `SELECT day, COUNT(*) AS n, SUM(v) AS sv FROM events GROUP BY day ORDER BY day`
	tailDeadline = `SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s
		FROM lineitem WHERE l_quantity < 24 AND l_discount > 0.01`
)

// runEmbedded executes the TPC-H mix and the tail through the embedded
// Session API and returns per-query fingerprints and the wall meter after
// the drain.
func runEmbedded(t *testing.T, sf float64) ([]string, float64) {
	t.Helper()
	db := openTPCH(t, sf)
	sess := db.Session()
	defer sess.Close()
	var fps []string
	collect := func(q string, at, deadline float64) {
		st, err := sess.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := st.QueryAtDeadline(at, deadline)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fingerprint(res.Rows))
	}
	for _, q := range tpch.ThroughputMix() {
		collect(q, 0, 0)
	}
	if _, err := db.ExecAt(0, tailCreate); err != nil {
		t.Fatal(err)
	}
	if now := db.Srv.Eng.Now(); now >= tailAt {
		t.Fatalf("the mix ran to %.1f s, past the insert dated %.0f s", now, tailAt)
	}
	ins, err := db.ExecAt(tailAt, tailInsert)
	if err != nil {
		t.Fatal(err)
	}
	collect(tailReport, tailAt+1, 0)
	collect(tailDeadline, tailAt+2, tailAt+7)
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := ins.Err(); err != nil {
		t.Fatal(err)
	}
	meterJ, _ := db.Ledger()
	return fps, float64(meterJ)
}

// runRemote executes the same statements through the wire protocol over a
// net.Pipe connection.
func runRemote(t *testing.T, sf float64) ([]string, float64) {
	t.Helper()
	db := openTPCH(t, sf)
	srv := server.New(db)
	defer srv.Close()
	c, err := client.New(srv.Pipe(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var fps []string
	collect := func(q string, at, deadline float64) {
		st, err := sess.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := st.QueryAtDeadline(at, deadline)
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fingerprint(tab))
	}
	for _, q := range tpch.ThroughputMix() {
		collect(q, 0, 0)
	}
	if err := c.ExecAt(0, tailCreate); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecAt(tailAt, tailInsert); err != nil {
		t.Fatal(err)
	}
	collect(tailReport, tailAt+1, 0)
	collect(tailDeadline, tailAt+2, tailAt+7)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	m, err := c.Meter()
	if err != nil {
		t.Fatal(err)
	}
	return fps, m.MeterJ
}

// TestEmbeddedRemoteBitIdentity is the tentpole acceptance test: the
// TPC-H throughput mix, then a CREATE, a future-dated INSERT, a report
// over its rows and a deadline-bearing query, produce bit-identical rows
// embedded and through the server/client driver, and the same wall meter
// to the bit.
func TestEmbeddedRemoteBitIdentity(t *testing.T) {
	emb, embJ := runEmbedded(t, 0.01)
	rem, remJ := runRemote(t, 0.01)
	names := append(tpch.ThroughputMix(), tailReport, tailDeadline)
	if len(emb) != len(names) || len(rem) != len(names) {
		t.Fatalf("%d queries embedded, %d remote, want %d", len(emb), len(rem), len(names))
	}
	for i := range emb {
		if emb[i] != rem[i] {
			t.Fatalf("query %d (%s...) differs embedded vs remote:\nembedded:\n%s\nremote:\n%s",
				i, names[i][:40], emb[i], rem[i])
		}
	}
	if !strings.Contains(emb[len(emb)-2], "\n1|2|") || !strings.Contains(emb[len(emb)-2], "\n2|1|") {
		t.Fatalf("the report does not see the inserted rows:\n%s", emb[len(emb)-2])
	}
	if math.Float64bits(embJ) != math.Float64bits(remJ) {
		t.Fatalf("wall meter differs: embedded %.9f J, remote %.9f J", embJ, remJ)
	}
}

// TestTypedErrorsOverTheWire: a query cancelled at its deadline on the
// server must classify as fault.ErrDeadlineExceeded on the client via
// errors.Is.
func TestTypedErrorsOverTheWire(t *testing.T) {
	db := openTPCH(t, 0.01)
	srv := server.New(db)
	defer srv.Close()
	c, err := client.New(srv.Pipe(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}

	st, err := sess.Prepare(tpch.Q1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.QueryDeadline(1e-7) // hopeless deadline
	if err != nil {
		t.Fatal(err)
	}
	_, qerr := rows.Result()
	if qerr == nil {
		t.Fatal("hopeless deadline succeeded")
	}
	if !errors.Is(qerr, fault.ErrDeadlineExceeded) {
		t.Fatalf("remote error %v does not match fault.ErrDeadlineExceeded", qerr)
	}
	if errors.Is(qerr, fault.ErrCanceled) || errors.Is(qerr, fault.ErrTransientIO) {
		t.Fatalf("remote error %v matches unrelated sentinels", qerr)
	}

	// A statement-level failure (unknown table) comes back typed generic,
	// with the server's message, without killing the connection.
	if _, err := sess.Prepare(`SELECT x FROM missing`); err == nil {
		t.Fatal("prepare of unknown table succeeded")
	}
	if _, err := sess.Query(tpch.Q6); err != nil {
		t.Fatalf("connection dead after statement error: %v", err)
	}
}

// TestTypeErrorOverTheWire: a statement that does not type-check — the
// string arithmetic that panicked the whole server at 9d264a0, SUM and AVG
// of a string that answered garbage — comes back from Prepare as an error
// frame the client classifies with errors.Is(err, sql.ErrType); the
// tenant's connection stays usable, another tenant's statement on another
// connection completes, and the drain is clean.
func TestTypeErrorOverTheWire(t *testing.T) {
	db := openTPCH(t, 0.01)
	srv := server.New(db)
	defer srv.Close()
	open := func(tenant string) (*client.DB, *client.Session) {
		c, err := client.New(srv.Pipe(), tenant)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.Session()
		if err != nil {
			t.Fatal(err)
		}
		return c, sess
	}
	a, sessA := open("acme")
	defer a.Close()
	b, sessB := open("globex")
	defer b.Close()

	for _, q := range []string{
		"SELECT c_name + 1 AS x FROM customer",
		"SELECT 'x' + 1 AS z FROM customer",
		"SELECT SUM(c_name) AS s FROM customer",
		"SELECT AVG(c_name) AS s FROM customer",
	} {
		if _, err := sessA.Prepare(q); !errors.Is(err, sql.ErrType) {
			t.Errorf("Prepare(%q): error %v, want sql.ErrType", q, err)
		}
		if _, err := sessA.Query(q); !errors.Is(err, sql.ErrType) {
			t.Errorf("Query(%q): error %v, want sql.ErrType", q, err)
		}
	}
	for _, sess := range []*client.Session{sessB, sessA} {
		rows, err := sess.Query(tpch.Q6)
		if err != nil {
			t.Fatal(err)
		}
		if tab, _, err := rows.Collect(); err != nil || tab.Rows() != 1 {
			t.Fatalf("statement after the type errors: %v, err %v", tab, err)
		}
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d processes live after the drain", live)
	}
}

// TestCancelMidStream: fetch a couple of batches, CANCEL, and verify the
// server cancels cleanly — the connection keeps working and a drain
// leaves zero live processes.
func TestCancelMidStream(t *testing.T) {
	db := openTPCH(t, 0.02)
	srv := server.New(db)
	defer srv.Close()
	c, err := client.New(srv.Pipe(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}

	// A multi-batch stream: scan with no aggregation.
	rows, err := sess.Query(`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 45`)
	if err != nil {
		t.Fatal(err)
	}
	fetched := 0
	for rows.Next() {
		fetched++
		if fetched == 2 {
			break
		}
	}
	if fetched != 2 {
		t.Fatalf("stream produced %d batches before cancel, want 2", fetched)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("cancel mid-stream: %v", err)
	}
	// The connection is still usable after CANCEL...
	res, err := sess.Query(`SELECT COUNT(*) AS n FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res.RowCount(); err != nil || n != 1 {
		t.Fatalf("post-cancel query: n=%d err=%v", n, err)
	}
	// ...and no process of the cancelled query survives the drain.
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live processes after cancel + drain: %v", live, db.Srv.Eng.LiveNames())
	}
}

// TestDisconnectClosesRows is the bugfix regression: a client vanishing
// mid-stream must not leak the server-side Rows — teardown closes them,
// and after a drain no process is left alive.
func TestDisconnectClosesRows(t *testing.T) {
	db := openTPCH(t, 0.02)
	srv := server.New(db)
	defer srv.Close()
	conn := srv.Pipe()
	c, err := client.New(conn, "acme")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 45`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first batch: %v", rows.Err())
	}
	// Drop the connection mid-stream without CANCEL or CLOSE.
	conn.Close()
	srv.Close() // waits for the conn goroutine's teardown

	// The abandoned query must not hold the engine: draining the
	// simulation leaves zero live processes.
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live processes leaked by disconnect: %v", live, db.Srv.Eng.LiveNames())
	}
}

// TestTornFramesKillConnCleanly: a malformed frame must kill only that
// connection (with teardown), never the server or another connection.
func TestTornFramesKillConnCleanly(t *testing.T) {
	db := openTPCH(t, 0.01)
	srv := server.New(db)
	defer srv.Close()

	// Healthy connection A.
	ca, err := client.New(srv.Pipe(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	sa, err := ca.Session()
	if err != nil {
		t.Fatal(err)
	}

	// Connection B handshakes, then sends garbage.
	raw := wire.NewConn(srv.Pipe())
	hello := func(c *wire.Conn) []byte {
		return wire.AppendStr(wire.AppendU32(c.Begin(wire.MsgHello), wire.Version), "evil")
	}
	if err := raw.Send(hello(raw)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := raw.Read(); err != nil || typ != wire.MsgWelcome {
		t.Fatalf("handshake: typ=%d err=%v", typ, err)
	}
	// An unknown frame type gets MsgError back, then the conn dies.
	if err := raw.Send(append(raw.Begin(0xEE), 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	typ, ebody, err := raw.Read()
	if err != nil || typ != wire.MsgError {
		t.Fatalf("garbage frame reply: typ=%d err=%v", typ, err)
	}
	er := wire.NewReader(ebody)
	if code := er.U32(); code != wire.CodeProtocol {
		t.Fatalf("garbage frame error code %d", code)
	}
	if _, _, err := raw.Read(); err == nil {
		t.Fatal("connection still alive after protocol error")
	}

	// A truncated body (Execute with half a frame) on a fresh conn dies
	// too — server side reads a short body and drops the conn.
	pipe2 := srv.Pipe()
	raw2 := wire.NewConn(pipe2)
	if err := raw2.Send(hello(raw2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := raw2.Read(); err != nil {
		t.Fatal(err)
	}
	if err := raw2.Send(append(raw2.Begin(wire.MsgExecute), 1, 2)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := raw2.Read(); err == nil && typ != wire.MsgError {
		t.Fatalf("short execute body got reply type %d", typ)
	}
	pipe2.Close()

	// Connection A is unaffected.
	res, err := sa.Query(`SELECT COUNT(*) AS n FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res.RowCount(); err != nil || n != 1 {
		t.Fatalf("healthy conn after torn frames: n=%d err=%v", n, err)
	}
}

// TestOneClientManyGoroutines holds client.DB to its doc's promise, "safe
// for one goroutine per call": four goroutines share one connection and
// interleave Prepare, Query, Next, Explain and Close on Q1, Q6 and a point
// lookup, each on its own session, and every result equals the embedded
// Exec's (sameResult). Every reply lands in the one read buffer the connection keeps,
// so a call that decoded its reply after letting go of the lock would read
// another goroutine's frame.
func TestOneClientManyGoroutines(t *testing.T) {
	texts := []string{tpch.Q1, tpch.Q6,
		"SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = 377"}
	emb := openTPCH(t, 0.01)
	want := make([]*table.Table, len(texts))
	for i, q := range texts {
		res, err := emb.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}

	srv := server.New(openTPCH(t, 0.01))
	defer srv.Close()
	c, err := client.New(srv.Pipe(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // before srv.Close, which waits for the connection

	run := func(w int) error {
		sess, err := c.Session()
		if err != nil {
			return err
		}
		defer sess.Close()
		for i := 0; i < 6; i++ {
			k := (w + i) % len(texts)
			st, err := sess.Prepare(texts[k])
			if err != nil {
				return err
			}
			if i%2 == 1 {
				// Abandon one stream after its first batch.
				rows, err := st.Query()
				if err != nil {
					return err
				}
				rows.Next()
				if err := rows.Close(); err != nil {
					return fmt.Errorf("worker %d: close mid-stream: %w", w, err)
				}
			}
			rows, err := st.Query()
			if err != nil {
				return err
			}
			var tab *table.Table
			for rows.Next() {
				if tab == nil {
					tab = table.NewTable(rows.Batch().Schema)
					plan, err := sess.Explain(texts[k])
					if err != nil {
						return err
					}
					if plan.Rows() == 0 {
						return fmt.Errorf("worker %d: empty plan for statement %d", w, k)
					}
				}
				tab.AppendBatch(rows.Batch())
			}
			if err := rows.Err(); err != nil {
				return err
			}
			if err := rows.Close(); err != nil {
				return err
			}
			if err := sameResult(tab, want[k]); err != nil {
				return fmt.Errorf("worker %d, round %d: statement %d differs from the embedded Exec: %w", w, i, k, err)
			}
		}
		return nil
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- run(w)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// sameResult compares two results row by row and cell by cell: integers
// and strings exactly, floats to a relative 1e-9. A statement sharing the
// box with others gets a smaller grant than one running alone, and a
// float SUM split over a different number of fragments adds its terms in
// a different order, so Q1's and Q6's sums differ from the embedded run's
// in the last bits (integer aggregates are exact at any DOP).
func sameResult(got, want *table.Table) error {
	if got == nil || got.Rows() != want.Rows() || len(got.Schema.Cols) != len(want.Schema.Cols) {
		return fmt.Errorf("shape differs:\n%.400s\nwant:\n%.400s", fingerprint(got), fingerprint(want))
	}
	for c := range want.Schema.Cols {
		if got.Schema.Cols[c] != want.Schema.Cols[c] {
			return fmt.Errorf("column %d is %+v, want %+v", c, got.Schema.Cols[c], want.Schema.Cols[c])
		}
		g, w := got.Column(c), want.Column(c)
		for i := 0; i < want.Rows(); i++ {
			switch {
			case w.F != nil:
				if d := math.Abs(g.F[i] - w.F[i]); d > 1e-9*math.Abs(w.F[i]) {
					return fmt.Errorf("row %d column %d: %v, want %v", i, c, g.F[i], w.F[i])
				}
			case g.Value(i) != w.Value(i):
				return fmt.Errorf("row %d column %d: %v, want %v", i, c, g.Value(i), w.Value(i))
			}
		}
	}
	return nil
}

// TestConcurrentTenants runs several tenants on their own goroutines and
// connections (the -race workout) and then checks the ledger: every
// query completed, Σ tenant bills + idle floor == wall meter, and no
// leaked processes.
func TestConcurrentTenants(t *testing.T) {
	db := openTPCH(t, 0.01)
	srv := server.New(db)
	defer srv.Close()

	const tenants = 4
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.New(srv.Pipe(), fmt.Sprintf("tenant%d", id))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sess, err := c.Session()
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			for _, q := range []string{tpch.Q6, tpch.Q1, tpch.Q6} {
				rows, err := sess.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if _, err := rows.Result(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	c, err := client.New(srv.Pipe(), "auditor")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	m, err := c.Meter()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var queries int64
	for _, tb := range m.Tenants {
		sum += tb.AttributedJ
		queries += tb.Queries
	}
	if queries != tenants*3 {
		t.Fatalf("%d queries billed, want %d", queries, tenants*3)
	}
	if diff := math.Abs(m.MeterJ - (sum + m.UnattributedJ)); diff > 1e-6 {
		t.Fatalf("billing broken: meter %.6f != Σ tenants %.6f + idle %.6f (diff %.2e)",
			m.MeterJ, sum, m.UnattributedJ, diff)
	}
	if live := db.Srv.Eng.Live(); live != 0 {
		t.Fatalf("%d live processes after drain", live)
	}
}

// TestRemoteExplainAndExec: EXPLAIN flows through the front door as
// rows; CREATE/INSERT flow through EXEC, with arrival-time inserts
// billed to the tenant.
func TestRemoteExplainAndExec(t *testing.T) {
	db, err := core.Open(core.Config{Server: hw.SmallServer(2), WALBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	defer srv.Close()
	c, err := client.New(srv.Pipe(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Exec(`CREATE TABLE events (tenant BIGINT, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(`INSERT INTO events VALUES (1, 0.5)`); err != nil {
		t.Fatal(err)
	}
	if err := c.ExecAt(2.0, `INSERT INTO events VALUES (2, 1.5), (3, 2.5)`); err != nil {
		t.Fatal(err)
	}
	// Present-time statement errors come back on the reply.
	if err := c.Exec(`INSERT INTO missing VALUES (1)`); err == nil {
		t.Fatal("insert into unknown table succeeded")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	sess, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(`SELECT COUNT(*) AS n FROM events`)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if n := tab.Column(0).I[0]; n != 3 {
		t.Fatalf("%d rows after inserts, want 3", n)
	}

	plan, err := sess.Explain(`SELECT COUNT(*) AS n FROM events WHERE v > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rows() == 0 || len(plan.Schema.Cols) != 6 {
		t.Fatalf("explain shape: %d rows × %d cols", plan.Rows(), len(plan.Schema.Cols))
	}
	var sawScan bool
	for i := 0; i < plan.Rows(); i++ {
		if strings.Contains(plan.Vecs[0].S[i], "scan") {
			sawScan = true
			if !strings.Contains(plan.Vecs[1].S[i], "events") {
				t.Fatalf("scan detail %q", plan.Vecs[1].S[i])
			}
		}
	}
	if !sawScan {
		t.Fatal("no scan row in remote explain")
	}

	// The deferred insert is on the bill.
	m, err := c.Meter()
	if err != nil {
		t.Fatal(err)
	}
	var acme *wire.TenantBill
	for i := range m.Tenants {
		if m.Tenants[i].Tenant == "acme" {
			acme = &m.Tenants[i]
		}
	}
	if acme == nil || acme.Inserts != 2 || acme.Queries != 1 {
		t.Fatalf("acme bill: %+v", acme)
	}
	if acme.AttributedJ <= 0 {
		t.Fatalf("acme attributed %.6fJ, want > 0", acme.AttributedJ)
	}
}

// TestTCPTransport: the same protocol over a real TCP socket.
func TestTCPTransport(t *testing.T) {
	db := openTPCH(t, 0.01)
	srv := server.New(db)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := client.Dial(srv.Addr().String(), "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(tpch.Q6)
	if err != nil {
		t.Fatal(err)
	}
	tab, res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || tab.Rows() != 1 {
		t.Fatalf("q6 over TCP: %v", tab)
	}
	if res.Attributed <= 0 || res.Elapsed <= 0 {
		t.Fatalf("q6 stats over TCP: %+v", res)
	}
	var _ net.Addr = srv.Addr()
}

// TestSharedPlanCacheAcrossConnections: connections of one tenant share
// one prepared-plan cache (the second identical PREPARE is a hit), a
// second tenant gets its own cache (a fresh miss), and an INSERT that
// dirties the table invalidates the shared plans through the placement
// epoch — the cached statement re-executed afterwards sees the new rows.
func TestSharedPlanCacheAcrossConnections(t *testing.T) {
	db, err := core.Open(core.Config{Server: hw.SmallServer(2), WALBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	defer srv.Close()

	dial := func(tenant string) *client.DB {
		t.Helper()
		c, err := client.New(srv.Pipe(), tenant)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Clients must close before srv.Close can drain its conn goroutines.
	c1, c2, c3 := dial("acme"), dial("acme"), dial("globex")
	defer c1.Close()
	defer c2.Close()
	defer c3.Close()

	if err := c1.Exec(`CREATE TABLE events (tenant BIGINT, v DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	if err := c1.Exec(`INSERT INTO events VALUES (1, 0.5), (2, 1.5)`); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT COUNT(*) AS n FROM events`
	count := func(c *client.DB) int64 {
		t.Helper()
		sess, err := c.Session()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		rows, err := sess.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return tab.Column(0).I[0]
	}

	if n := count(c1); n != 2 {
		t.Fatalf("first count %d, want 2", n)
	}
	if h, m := srv.PlanCacheStats(); h != 0 || m != 1 {
		t.Fatalf("after first prepare: %d hits / %d misses, want 0/1", h, m)
	}
	if n := count(c2); n != 2 {
		t.Fatalf("shared-cache count %d, want 2", n)
	}
	if h, m := srv.PlanCacheStats(); h != 1 || m != 1 {
		t.Fatalf("same tenant, second conn: %d hits / %d misses, want 1/1", h, m)
	}
	if n := count(c3); n != 2 {
		t.Fatalf("other-tenant count %d, want 2", n)
	}
	if h, m := srv.PlanCacheStats(); h != 1 || m != 2 {
		t.Fatalf("other tenant must miss its own cache: %d hits / %d misses, want 1/2", h, m)
	}

	// Dirty the table; the shared entry must replan, not replay stale rows.
	if err := c1.Exec(`INSERT INTO events VALUES (3, 2.5)`); err != nil {
		t.Fatal(err)
	}
	if n := count(c2); n != 3 {
		t.Fatalf("post-insert count %d, want 3 (stale shared plan?)", n)
	}
	if h, m := srv.PlanCacheStats(); h != 2 || m != 2 {
		t.Fatalf("post-insert reuse: %d hits / %d misses, want 2/2", h, m)
	}
}

// sortedFingerprint is fingerprint with the rows in sorted order: a scan
// delivers blocks in I/O completion order, which other tenants' traffic
// may change, and a result is the same result in any row order.
func sortedFingerprint(tab *table.Table) string {
	lines := strings.Split(fingerprint(tab), "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}

// TestInterleavedTenantsSeeOnlyTheirOwnRows: scans borrow their
// block-sized decode memory from a recycler that every statement of every
// tenant shares, so the arrays a wide scan of one tenant decodes orders
// into were, a few events earlier, another tenant's customer block. Two
// tenants on two connections interleave 200 statements — one streams wide
// scans of orders batch by batch, the other runs the three wire_short
// statement shapes start to finish between its fetches — and every
// result is, bit for bit, what the same statement returns on a fresh
// embedded database that runs nothing else.
func TestInterleavedTenantsSeeOnlyTheirOwnRows(t *testing.T) {
	srv := server.New(openTPCH(t, 0.01))
	t.Cleanup(func() { srv.Close() }) // after the connections below: Close waits for them
	open := func(tenant string) *client.Session {
		c, err := client.New(srv.Pipe(), tenant)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		sess, err := c.Session()
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	wide, short := open("acme"), open("globex")

	type outcome struct{ text, rows string }
	var got []outcome
	lookup := func() {
		var text string
		switch i := len(got); i % 3 {
		case 0:
			text = fmt.Sprintf("SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = %d", 1+i*37%1500)
		case 1:
			text = fmt.Sprintf("SELECT COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders WHERE o_custkey = %d", 1+i*37%1500)
		default:
			text = fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", i%25)
		}
		rows, err := short.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, outcome{text, sortedFingerprint(tab)})
	}
	for len(got) < 200 {
		text := fmt.Sprintf("SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk "+
			"FROM orders WHERE o_totalprice > %d", 1000+100*len(got))
		rows, err := wide.Query(text)
		if err != nil {
			t.Fatal(err)
		}
		var tab *table.Table
		batches := 0
		for ; rows.Next(); batches++ {
			if tab == nil {
				tab = table.NewTable(rows.Batch().Schema)
			}
			tab.AppendBatch(rows.Batch())
			lookup() // while the wide scan is between two of its blocks
			lookup()
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if batches < 3 {
			t.Fatalf("the wide scan arrived in %d batches; it is meant to be mid-stream while the lookups run", batches)
		}
		got = append(got, outcome{text, sortedFingerprint(tab)})
	}

	fresh := openTPCH(t, 0.01).Session()
	defer fresh.Close()
	want := map[string]string{}
	for i, g := range got {
		if _, ok := want[g.text]; !ok {
			rows, err := fresh.Query(g.text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rows.Collect()
			if err != nil {
				t.Fatal(err)
			}
			want[g.text] = sortedFingerprint(res.Rows)
		}
		if g.rows != want[g.text] {
			t.Fatalf("statement %d (%s) differs from the same statement on a fresh embedded database:\ninterleaved:\n%.400s\nfresh:\n%.400s",
				i, g.text, g.rows, want[g.text])
		}
	}
}

// BenchmarkShortStatements is the host cost of the three short statement
// shapes of the eeperf wire_short workload — a customer point filter, a
// small aggregate over one customer's orders, a nation lookup — prepared
// once and executed over the wire protocol on an in-process pipe, on the
// workload's data (TPC-H SF 0.005, seed 2009) and machine. eeperf takes no
// -cpuprofile and a PR that claims a gain may not edit it; this is where
// that workload's floor is profiled:
//
//	go test ./internal/server -run '^$' -bench ShortStatements -cpu 1 \
//		-cpuprofile cpu.out -memprofile mem.out -memprofilerate 1
//
// Before and after scans recycled their block-sized memory and the sim
// kernel stopped allocating per sleep and wake-up (-cpu 1 -benchtime 3000x,
// b9566b0 → the change):
//
//	point       73 277 B/op  207 allocs/op  →  7 425 B/op  152 allocs/op
//	aggregate  238 519 B/op  223 allocs/op  →  8 012 B/op  168 allocs/op
//	lookup       9 086 B/op  186 allocs/op  →  6 414 B/op  137 allocs/op
//
// Before and after each connection end kept its frame buffers, sent a
// frame in one Write and encoded result columns in place (same flags,
// 57268fb → the change):
//
//	point      6 144 B/op  136 allocs/op  →  5 031 B/op   95 allocs/op
//	aggregate  5 900 B/op  139 allocs/op  →  5 027 B/op  102 allocs/op
//	lookup     5 134 B/op  121 allocs/op  →  4 068 B/op   83 allocs/op
func BenchmarkShortStatements(b *testing.B) {
	db, err := core.Open(core.Config{Server: hw.SmallServer(4)})
	if err != nil {
		b.Fatal(err)
	}
	for _, tab := range tpch.Generate(0.005, 2009).Tables {
		if err := db.LoadTable(tab); err != nil {
			b.Fatal(err)
		}
	}
	srv := server.New(db)
	defer srv.Close()
	c, err := client.New(srv.Pipe(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Session()
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	for _, shape := range []struct{ name, text string }{
		{"point", "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = 377"},
		{"aggregate", "SELECT COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders WHERE o_custkey = 377"},
		{"lookup", "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = 7"},
	} {
		st, err := sess.Prepare(shape.text)
		if err != nil {
			b.Fatal(err)
		}
		run := func() {
			rows, err := st.Query()
			if err != nil {
				b.Fatal(err)
			}
			if tab, _, err := rows.Collect(); err != nil {
				b.Fatal(err)
			} else if tab.Rows() != 1 {
				b.Fatalf("%s: %d rows, want 1", shape.name, tab.Rows())
			}
		}
		run() // places the table; the plan is cached from here on
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
