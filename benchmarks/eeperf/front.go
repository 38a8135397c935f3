package main

import (
	"errors"
	"fmt"
	"net"

	"energydb/internal/client"
	"energydb/internal/core"
	"energydb/internal/fault"
	"energydb/internal/server"
	"energydb/internal/table"
	"energydb/internal/wire"
)

// This file holds the two front doors a workload can be driven through:
// the embedded session API of core, and client -> wire -> server over
// Server.Pipe(). Both take the same generated statements and hand back
// the same settled statistics, so one repetition loop serves all four
// workloads and a wire workload can be replayed embedded to check that
// both doors return the same rows.

// stats is a settled statement as either door reports it.
type stats struct {
	Elapsed, Wait, Marginal, Attributed float64
	Granted, RowCount, Retries          int64
}

// prepared is a statement handle; pending a submitted one.
type prepared interface {
	query(at, deadline float64, discard bool) (pending, error)
}

type pending interface {
	// collect settles the statement and returns its rows (nil when
	// discarded or failed) and statistics. A deadline miss comes back as
	// an error wrapping fault.ErrDeadlineExceeded with statistics still
	// set. Each fetch round-trip is a child span of parent.
	collect(tr *tracer, parent, stmt int) (*table.Table, stats, error)
}

// ledger is the energy ledger at one instant: the simulated clock, the
// wall meter, the idle-floor joules no statement owns, and the joules
// attributed to statements so far.
type ledger struct {
	Now, MeterJ, UnattributedJ, AttributedJ float64
}

type frontend interface {
	layer() string // span-name prefix: the module the harness calls into
	exec(conn int, at float64, text string) error
	prepare(conn, slot int, text string) (prepared, error)
	drain() error
	ledger() (ledger, error)
	planCache() (hits, misses int64)
	close() error
}

// --- embedded ---

type embFront struct {
	db       *core.DB
	sessions [][]*core.Session
	rows     []*core.Rows
	inserts  []*core.Deferred
}

func newEmbFront(db *core.DB, conns, slots int) *embFront {
	f := &embFront{db: db}
	for c := 0; c < conns; c++ {
		var ss []*core.Session
		for s := 0; s < slots; s++ {
			ss = append(ss, db.Session())
		}
		f.sessions = append(f.sessions, ss)
	}
	return f
}

func (f *embFront) layer() string { return "core" }

func (f *embFront) exec(conn int, at float64, text string) error {
	d, err := f.db.ExecAt(at, text)
	if err != nil {
		return err
	}
	f.inserts = append(f.inserts, d)
	return nil
}

func (f *embFront) prepare(conn, slot int, text string) (prepared, error) {
	st, err := f.sessions[conn][slot].Prepare(text)
	if err != nil {
		return nil, err
	}
	return &embStmt{f: f, st: st}, nil
}

func (f *embFront) drain() error { return f.db.Drain() }

func (f *embFront) ledger() (ledger, error) {
	meterJ, unattrJ := f.db.Ledger()
	l := ledger{Now: f.db.Srv.Eng.Now(), MeterJ: float64(meterJ), UnattributedJ: float64(unattrJ)}
	for _, r := range f.rows {
		l.AttributedJ += float64(r.Attributed())
	}
	for _, d := range f.inserts {
		l.AttributedJ += float64(d.Attributed())
	}
	return l, nil
}

func (f *embFront) planCache() (int64, int64) { return 0, 0 }

func (f *embFront) close() error {
	for _, ss := range f.sessions {
		for _, s := range ss {
			_ = s.Close() // always nil
		}
	}
	return nil
}

type embStmt struct {
	f  *embFront
	st *core.Stmt
}

func (s *embStmt) query(at, deadline float64, discard bool) (pending, error) {
	rows, err := s.st.QueryAtDeadline(at, deadline)
	if err != nil {
		return nil, err
	}
	if discard {
		rows.Discard()
	}
	s.f.rows = append(s.f.rows, rows)
	return &embRows{rows: rows, discard: discard}, nil
}

type embRows struct {
	rows    *core.Rows
	discard bool
}

func (r *embRows) collect(tr *tracer, parent, stmt int) (*table.Table, stats, error) {
	var tab *table.Table
	var err error
	if r.discard {
		_, err = r.rows.Result()
	} else {
		var res *core.Result
		if res, err = r.rows.Collect(); err == nil {
			tab = res.Rows
		}
	}
	var st stats
	if res := r.rows.Stats(); res != nil {
		st = stats{
			Elapsed: float64(res.Elapsed), Wait: float64(res.Wait),
			Marginal: float64(res.Marginal), Attributed: float64(res.Attributed),
			Granted: int64(res.Granted), RowCount: res.RowCount, Retries: int64(r.rows.Retries()),
		}
	}
	return tab, st, err
}

// --- wire ---

type wireFront struct {
	srv      *server.Server
	system   *client.DB
	conns    []*client.DB
	sessions [][]*client.Session
}

// newWireFront serves db and connects one system connection plus conns
// tenant connections, each with slots sessions. wrap, when not nil,
// wraps every client end of a pipe (the traced repetition counts bytes
// and frames there).
func newWireFront(db *core.DB, conns, slots int, wrap func(net.Conn) net.Conn) (*wireFront, error) {
	f := &wireFront{srv: server.New(db)}
	dial := func(tenant string) (*client.DB, error) {
		c := f.srv.Pipe()
		if wrap != nil {
			c = wrap(c)
		}
		return client.New(c, tenant)
	}
	var err error
	if f.system, err = dial("system"); err != nil {
		return nil, errors.Join(err, f.close())
	}
	for i := 0; i < conns; i++ {
		c, err := dial(fmt.Sprintf("tenant%02d", i))
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.conns = append(f.conns, c)
		var ss []*client.Session
		for s := 0; s < slots; s++ {
			sess, err := c.Session()
			if err != nil {
				return nil, errors.Join(err, f.close())
			}
			ss = append(ss, sess)
		}
		f.sessions = append(f.sessions, ss)
	}
	return f, nil
}

func (f *wireFront) layer() string { return "client" }

func (f *wireFront) exec(conn int, at float64, text string) error {
	return f.conns[conn].ExecAt(at, text)
}

func (f *wireFront) prepare(conn, slot int, text string) (prepared, error) {
	st, err := f.sessions[conn][slot].Prepare(text)
	if err != nil {
		return nil, err
	}
	return wireStmt{st}, nil
}

func (f *wireFront) drain() error { return f.system.Drain() }

func (f *wireFront) ledger() (ledger, error) {
	m, err := f.system.Meter()
	if err != nil {
		return ledger{}, err
	}
	l := ledger{Now: m.Now, MeterJ: m.MeterJ, UnattributedJ: m.UnattributedJ}
	for _, t := range m.Tenants {
		l.AttributedJ += t.AttributedJ
	}
	return l, nil
}

func (f *wireFront) planCache() (int64, int64) { return f.srv.PlanCacheStats() }

// close disconnects every client and waits for the server's connection
// goroutines to end.
func (f *wireFront) close() error {
	var errs []error
	for _, c := range f.conns {
		errs = append(errs, c.Close())
	}
	if f.system != nil {
		errs = append(errs, f.system.Close())
	}
	errs = append(errs, f.srv.Close())
	return errors.Join(errs...)
}

type wireStmt struct{ st *client.Stmt }

func (s wireStmt) query(at, deadline float64, discard bool) (pending, error) {
	var rows *client.Rows
	var err error
	if discard {
		rows, err = s.st.QueryDiscard(at, deadline)
	} else {
		rows, err = s.st.QueryAtDeadline(at, deadline)
	}
	if err != nil {
		return nil, err
	}
	return wireRows{rows}, nil
}

type wireRows struct{ rows *client.Rows }

func (r wireRows) collect(tr *tracer, parent, stmt int) (*table.Table, stats, error) {
	var tab *table.Table
	for {
		sp := tr.begin("client.fetch", parent, stmt)
		more := r.rows.Next()
		tr.end(sp)
		if !more {
			break
		}
		b := r.rows.Batch()
		if tab == nil {
			tab = table.NewTable(b.Schema)
		}
		tab.AppendBatch(b)
	}
	res, err := r.rows.Result()
	return tab, wireStats(res), err
}

func wireStats(res wire.Result) stats {
	return stats{
		Elapsed: res.Elapsed, Wait: res.Wait, Marginal: res.Marginal, Attributed: res.Attributed,
		Granted: res.Granted, RowCount: res.RowCount, Retries: res.Retries,
	}
}

// isDeadline reports whether err is a deadline miss, on either door.
func isDeadline(err error) bool { return errors.Is(err, fault.ErrDeadlineExceeded) }
