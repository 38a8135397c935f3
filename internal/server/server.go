// Package server is the engine's network front door: a TCP (or, in
// tests, net.Pipe) server speaking the wire protocol over one core.DB.
// Each connection authenticates with a tenant ID, opens sessions mapped
// to core.Session, and streams statements through the existing admission
// controller; result batches flow back one per FETCH in the columnar
// wire encoding, and typed fault errors survive as wire codes.
//
// The engine is a single-threaded discrete-event simulation, so the
// server serializes every request — whatever connection it arrived on —
// under one mutex. Connections are goroutine-per-conn for I/O, but the
// database only ever sees one request at a time; a deterministic driver
// (one goroutine, one connection at a time) therefore gets bit-identical
// runs, while concurrent drivers get correctness without determinism.
//
// Per-tenant billing happens here, not in the client: every statement a
// tenant submits keeps its settled energy account on the server, and the
// METER frame rolls them into a report whose tenant sums plus the
// unattributed idle floor equal the wall meter exactly — the attribution
// invariant extended across the wire.
package server

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"energydb/internal/core"
	"energydb/internal/wire"
)

// Server serves one core.DB to many connections.
type Server struct {
	db *core.DB

	// mu serializes all engine access: the simulation is single-threaded
	// and lazy-pumped, so every request — on any connection — runs under
	// it, as do disconnect teardowns.
	mu sync.Mutex

	bills map[string]*tenantBill

	// caches holds one shared prepared-plan cache per tenant: every
	// connection a tenant opens prepares through its cache, so a fleet of
	// identical clients parses, binds, and plans each statement once.
	// Per-tenant (not global) because plan reuse must not couple tenants:
	// one tenant's epoch invalidations and statistics stay its own.
	caches map[string]*core.PlanCache

	lnMu   sync.Mutex
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// tenantBill accumulates one tenant's statements across all of its
// connections, living past connection teardown so disconnects never lose
// billed energy.
type tenantBill struct {
	queries []*core.Rows
	inserts []*core.Deferred
}

// New returns a server over db. The caller must not drive db directly
// while connections are being served (the embedded path and the served
// path share one single-threaded engine).
func New(db *core.DB) *Server {
	return &Server{db: db,
		bills:  map[string]*tenantBill{},
		caches: map[string]*core.PlanCache{}}
}

// Listen starts accepting TCP connections on addr (e.g. "127.0.0.1:0")
// and serves each on its own goroutine until Close.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.ServeConn(c)
			}()
		}
	}()
	return nil
}

// Addr reports the listening address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Pipe returns an in-process connection to the server: the other end of
// a net.Pipe being served on its own goroutine. Tests and embedded
// drivers use it to run the full wire protocol with no sockets.
func (s *Server) Pipe() net.Conn {
	client, srv := net.Pipe()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.ServeConn(srv)
	}()
	return client
}

// Close stops the listener and waits for in-flight connections to drain.
// Connections opened via Pipe are closed by their clients.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	ln := s.ln
	s.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// meterReportLocked settles the energy ledger and builds the per-tenant
// bill: each tenant's attributed joules summed over every statement it
// ever submitted, the unattributed idle floor, and the wall meter they add
// up to. Tenants are sorted for deterministic output. The caller holds
// s.mu.
func (s *Server) meterReportLocked() wire.MeterReport {
	meterJ, unattrJ := s.db.Ledger()
	m := wire.MeterReport{
		Now:           s.db.Srv.Eng.Now(),
		MeterJ:        float64(meterJ),
		UnattributedJ: float64(unattrJ),
	}
	names := make([]string, 0, len(s.bills))
	for n := range s.bills {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := s.bills[n]
		t := wire.TenantBill{Tenant: n}
		for _, r := range b.queries {
			t.AttributedJ += float64(r.Attributed())
			t.Queries++
		}
		for _, d := range b.inserts {
			t.AttributedJ += float64(d.Attributed())
			t.Inserts++
		}
		m.Tenants = append(m.Tenants, t)
	}
	return m
}

// bill returns (creating on first use) a tenant's bill. Callers hold mu.
func (s *Server) bill(tenant string) *tenantBill {
	b := s.bills[tenant]
	if b == nil {
		b = &tenantBill{}
		s.bills[tenant] = b
	}
	return b
}

// planCache returns (creating on first use) a tenant's shared prepared
// statement cache. Callers hold mu.
func (s *Server) planCache(tenant string) *core.PlanCache {
	c := s.caches[tenant]
	if c == nil {
		c = core.NewPlanCache()
		s.caches[tenant] = c
	}
	return c
}

// PlanCacheStats sums prepare hits and misses across all tenants' caches
// — the reuse counter the consolidation benchmarks report.
func (s *Server) PlanCacheStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.caches {
		h, m := c.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// conn is one connection's protocol state. All fields are touched only
// by the connection's own goroutine; the db behind them only under
// srv.mu.
type conn struct {
	srv    *Server
	wc     *wire.Conn
	r      wire.Reader // decodes the request in wc's read buffer
	tenant string

	sessions map[uint64]*core.Session
	stmts    map[uint64]*stmtState
	queries  map[uint64]*core.Rows
	nextID   uint64
}

type stmtState struct {
	stmt *core.Stmt
	sess uint64
}

// ServeConn speaks the wire protocol on c until EOF or a protocol error,
// then tears the connection down: every live Rows is closed (cancelling
// still-running queries at their next batch boundary, so a drain leaves
// zero live processes) and every session is closed. It blocks; callers
// own the goroutine.
func (s *Server) ServeConn(c net.Conn) {
	cn := &conn{
		srv: s, wc: wire.NewConn(c),
		sessions: map[uint64]*core.Session{},
		stmts:    map[uint64]*stmtState{},
		queries:  map[uint64]*core.Rows{},
	}
	defer cn.teardown()
	defer c.Close()

	if err := cn.handshake(); err != nil {
		return
	}
	for {
		typ, body, err := cn.wc.Read()
		if err != nil {
			return // EOF, torn frame, or closed conn: teardown handles state
		}
		if err := cn.handle(typ, body); err != nil {
			// Protocol-level failure: report it if the pipe still works,
			// then drop the connection.
			_ = cn.protocolError(err.Error())
			return
		}
	}
}

// teardown is the disconnect path: close every statement the connection
// still tracks. Rows.Close cancels running queries at their next batch
// boundary and dequeues queued ones, so no process of this connection's
// survives the next drain; settled accounts stay on the tenant's bill.
func (cn *conn) teardown() {
	cn.srv.mu.Lock()
	defer cn.srv.mu.Unlock()
	for _, r := range cn.queries {
		_ = r.Close()
	}
	for _, sess := range cn.sessions {
		_ = sess.Close()
	}
	cn.queries, cn.sessions, cn.stmts = nil, nil, nil
}

func (cn *conn) handshake() error {
	typ, body, err := cn.wc.Read()
	if err != nil {
		return err
	}
	r := &cn.r
	r.Reset(body)
	if typ != wire.MsgHello {
		return fmt.Errorf("server: first frame %d, want Hello", typ)
	}
	ver := r.U32()
	tenant := r.Str()
	if r.Err() != nil {
		return r.Err()
	}
	if ver != wire.Version {
		_ = cn.protocolError(fmt.Sprintf("server: protocol version %d, want %d", ver, wire.Version))
		return fmt.Errorf("server: version mismatch")
	}
	if tenant == "" {
		tenant = "default"
	}
	cn.tenant = tenant
	return cn.wc.Send(wire.AppendU32(cn.ok(wire.MsgWelcome), wire.Version))
}

// ok begins a reply of type typ with a success code and empty message —
// the standard reply prefix. The caller appends the rest of the body and
// sends the frame with cn.wc.Send.
func (cn *conn) ok(typ byte) []byte {
	return wire.AppendStr(wire.AppendU32(cn.wc.Begin(typ), wire.CodeOK), "")
}

// fail begins a reply of type typ carrying err's code and message.
func (cn *conn) fail(typ byte, err error) []byte {
	return wire.AppendStr(wire.AppendU32(cn.wc.Begin(typ), wire.CodeFor(err)), err.Error())
}

// protocolError sends the MsgError frame that precedes dropping the
// connection.
func (cn *conn) protocolError(msg string) error {
	return cn.wc.Send(wire.AppendStr(wire.AppendU32(cn.wc.Begin(wire.MsgError), wire.CodeProtocol), msg))
}

// handle dispatches one request frame. A returned error is a protocol
// violation (malformed body, unknown statement id) and kills the
// connection; statement-level failures travel back as error codes in the
// reply.
func (cn *conn) handle(typ byte, body []byte) error {
	r := &cn.r
	r.Reset(body)
	switch typ {
	case wire.MsgSessionOpen:
		cn.srv.mu.Lock()
		sess := cn.srv.db.Session()
		cn.srv.mu.Unlock()
		cn.nextID++
		cn.sessions[cn.nextID] = sess
		return cn.wc.Send(wire.AppendU64(cn.ok(wire.MsgSessionOK), cn.nextID))

	case wire.MsgSessionClose:
		sid := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		sess := cn.sessions[sid]
		if sess == nil {
			return fmt.Errorf("server: close of unknown session %d", sid)
		}
		cn.srv.mu.Lock()
		_ = sess.Close()
		cn.srv.mu.Unlock()
		delete(cn.sessions, sid)
		return cn.wc.Send(cn.ok(wire.MsgOK))

	case wire.MsgPrepare:
		sid := r.U64()
		text := r.Str()
		if r.Err() != nil {
			return r.Err()
		}
		sess := cn.sessions[sid]
		if sess == nil {
			return fmt.Errorf("server: prepare on unknown session %d", sid)
		}
		cn.srv.mu.Lock()
		st, err := sess.PrepareCached(cn.srv.planCache(cn.tenant), text)
		cn.srv.mu.Unlock()
		if err != nil {
			return cn.wc.Send(wire.AppendU64(cn.fail(wire.MsgPrepared, err), 0))
		}
		cn.nextID++
		cn.stmts[cn.nextID] = &stmtState{stmt: st, sess: sid}
		return cn.wc.Send(wire.AppendU64(cn.ok(wire.MsgPrepared), cn.nextID))

	case wire.MsgExecute:
		stid := r.U64()
		flags := r.U8()
		at := r.F64()
		deadline := r.F64()
		if r.Err() != nil {
			return r.Err()
		}
		st := cn.stmts[stid]
		if st == nil {
			return fmt.Errorf("server: execute of unknown statement %d", stid)
		}
		cn.srv.mu.Lock()
		rows, err := st.stmt.QueryAtDeadline(at, deadline)
		if err == nil {
			if flags&wire.FlagDiscard != 0 {
				rows.Discard()
			}
			cn.srv.bill(cn.tenant).queries = append(cn.srv.bill(cn.tenant).queries, rows)
		}
		cn.srv.mu.Unlock()
		if err != nil {
			return cn.wc.Send(wire.AppendU64(cn.fail(wire.MsgExecuted, err), 0))
		}
		cn.nextID++
		cn.queries[cn.nextID] = rows
		return cn.wc.Send(wire.AppendU64(cn.ok(wire.MsgExecuted), cn.nextID))

	case wire.MsgDiscard:
		qid := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		rows := cn.queries[qid]
		if rows == nil {
			return fmt.Errorf("server: discard of unknown query %d", qid)
		}
		cn.srv.mu.Lock()
		rows.Discard()
		cn.srv.mu.Unlock()
		return cn.wc.Send(cn.ok(wire.MsgOK))

	case wire.MsgFetch:
		qid := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		rows := cn.queries[qid]
		if rows == nil {
			return fmt.Errorf("server: fetch of unknown query %d", qid)
		}
		cn.srv.mu.Lock()
		var frame []byte
		if rows.Next() {
			frame = wire.AppendBatch(cn.ok(wire.MsgBatch), rows.Batch())
		} else {
			// The stream is over: the done frame carries everything the
			// client can still ask about, so the query is forgotten here.
			// Its settled account stays on the tenant's bill.
			frame = appendDone(cn.wc.Begin(wire.MsgDone), rows)
			_ = rows.Close()
			delete(cn.queries, qid)
		}
		cn.srv.mu.Unlock()
		return cn.wc.Send(frame)

	case wire.MsgCancel:
		qid := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		// Cancel is idempotent and lenient: a finished or already
		// torn-down query just acks.
		if rows := cn.queries[qid]; rows != nil {
			cn.srv.mu.Lock()
			_ = rows.Close()
			cn.srv.mu.Unlock()
			delete(cn.queries, qid)
		}
		return cn.wc.Send(cn.ok(wire.MsgOK))

	case wire.MsgExec:
		at := r.F64()
		text := r.Str()
		if r.Err() != nil {
			return r.Err()
		}
		// A non-SELECT statement: the engine parses it, runs a CREATE on the
		// spot and schedules an INSERT's commit at time at (>= now), which is
		// billed to the tenant from the handle that comes back — one already
		// done took no simulated time and opened no account (a CREATE).
		cn.srv.mu.Lock()
		d, err := cn.srv.db.ExecAt(at, text)
		if err == nil && !d.Done() {
			b := cn.srv.bill(cn.tenant)
			b.inserts = append(b.inserts, d)
			if at <= cn.srv.db.Srv.Eng.Now() {
				// Present-time statement: run it now (pumping only until it
				// finishes, not draining scheduled future work) so the reply
				// carries its real outcome. A future one is acked at once; its
				// error surfaces at DRAIN, its joules on the bill regardless.
				err = d.Err()
			}
		}
		cn.srv.mu.Unlock()
		if err != nil {
			return cn.wc.Send(cn.fail(wire.MsgOK, err))
		}
		return cn.wc.Send(cn.ok(wire.MsgOK))

	case wire.MsgExplain:
		sid := r.U64()
		text := r.Str()
		if r.Err() != nil {
			return r.Err()
		}
		sess := cn.sessions[sid]
		if sess == nil {
			return fmt.Errorf("server: explain on unknown session %d", sid)
		}
		cn.srv.mu.Lock()
		plan, err := sess.Explain(text)
		cn.srv.mu.Unlock()
		if err != nil {
			return cn.wc.Send(cn.fail(wire.MsgOK, err))
		}
		b := plan.Slice(0, plan.Rows())
		return cn.wc.Send(wire.AppendBatch(cn.ok(wire.MsgBatch), b))

	case wire.MsgDrain:
		cn.srv.mu.Lock()
		err := cn.srv.db.Drain()
		cn.srv.mu.Unlock()
		if err != nil {
			return cn.wc.Send(cn.fail(wire.MsgOK, err))
		}
		return cn.wc.Send(cn.ok(wire.MsgOK))

	case wire.MsgMeter:
		cn.srv.mu.Lock()
		m := cn.srv.meterReportLocked()
		cn.srv.mu.Unlock()
		return cn.wc.Send(wire.AppendMeterReport(cn.wc.Begin(wire.MsgMeterReport), m))

	default:
		return fmt.Errorf("server: unknown frame type %d", typ)
	}
}

// appendDone appends the MsgDone body for a finished query: its error
// code (CodeOK on success) and its settled stats. finish() always builds
// the Result, so even a failed query reports elapsed/wait/attributed.
func appendDone(dst []byte, rows *core.Rows) []byte {
	var res wire.Result
	if st := rows.Stats(); st != nil {
		res = wire.Result{
			Elapsed:    float64(st.Elapsed),
			Joules:     float64(st.Joules),
			Attributed: float64(st.Attributed),
			Marginal:   float64(st.Marginal),
			Shared:     float64(st.Shared),
			Wait:       float64(st.Wait),
			Granted:    int64(st.Granted),
			RowCount:   st.RowCount,
			Retries:    int64(rows.Retries()),
		}
	}
	code, msg := wire.CodeOK, ""
	if err := rows.Err(); err != nil {
		code, msg = wire.CodeFor(err), err.Error()
	}
	return wire.AppendResult(dst, res, code, msg)
}
