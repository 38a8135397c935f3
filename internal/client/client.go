// Package client is the driver for the wire protocol: a remote handle
// mirroring the embedded Session API (Open → Session → Prepare → Query
// → Rows), so one workload runs unchanged against a core.DB in-process
// or a server across a connection. Typed fault errors survive the wire —
// errors.Is(rows.Err(), fault.ErrDeadlineExceeded) holds on the client
// exactly when it would have held embedded.
//
// The protocol is strict request/response on one connection; the driver
// serializes its own requests under a mutex, so a *DB is safe for one
// goroutine per call but interleaves statements freely (each FETCH names
// its query).
package client

import (
	"fmt"
	"net"
	"sync"

	"energydb/internal/table"
	"energydb/internal/wire"
)

// DB is a connection to a server, authenticated as one tenant. Every
// request goes out and its reply is decoded under mu: a reply lives in
// the connection's read buffer (wire.Conn) only until the next reply
// arrives, so no call lets go of the lock while it still reads one.
type DB struct {
	mu     sync.Mutex
	conn   net.Conn
	wc     *wire.Conn
	r      wire.Reader // decodes the reply in wc's read buffer
	broken error       // a protocol-level failure poisons the connection
}

// Dial connects to a server's TCP address as the given tenant.
func Dial(addr, tenant string) (*DB, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(c, tenant)
}

// New performs the handshake over an existing connection (a TCP conn, or
// one end of server.Pipe) and returns the driver handle.
func New(conn net.Conn, tenant string) (*DB, error) {
	db := &DB{conn: conn, wc: wire.NewConn(conn)}
	// No other goroutine has db yet, so the handshake needs no lock.
	_, err := db.roundTripLocked(wire.MsgHello, func(b []byte) []byte {
		return wire.AppendStr(wire.AppendU32(b, wire.Version), tenant)
	}, wire.MsgWelcome)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return db, nil
}

// Close closes the connection. The server tears down every session and
// running statement this connection owned.
func (db *DB) Close() error { return db.conn.Close() }

// roundTrip sends one request, whose body build appends to the frame
// (nil for an empty body), and reads its reply, which must be of type
// want (or MsgOK carrying an error code, or MsgError). It returns the id
// that leads the body of a MsgSessionOK, MsgPrepared or MsgExecuted
// reply after its code+msg prefix, and 0 when want is MsgOK.
func (db *DB) roundTrip(reqType byte, build func([]byte) []byte, want byte) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, err := db.roundTripLocked(reqType, build, want)
	if err != nil || want == wire.MsgOK {
		return 0, err
	}
	id := r.U64()
	return id, r.Err()
}

// roundTripLocked is roundTrip for a caller that holds mu and decodes the
// reply itself, through the returned reader, before it unlocks.
func (db *DB) roundTripLocked(reqType byte, build func([]byte) []byte, want byte) (*wire.Reader, error) {
	if db.broken != nil {
		return nil, db.broken
	}
	frame := db.wc.Begin(reqType)
	if build != nil {
		frame = build(frame)
	}
	if err := db.wc.Send(frame); err != nil {
		db.broken = err
		return nil, err
	}
	return db.expect(want)
}

// expect reads one reply frame and peels its code+msg prefix. Every
// server reply except MsgDone and MsgMeterReport starts with one; a
// non-zero code comes back as the typed remote error.
func (db *DB) expect(want byte) (*wire.Reader, error) {
	typ, body, err := db.wc.Read()
	if err != nil {
		db.broken = err
		return nil, err
	}
	r := &db.r
	r.Reset(body)
	switch typ {
	case want, wire.MsgOK:
		code := r.U32()
		msg := r.Str()
		if err := r.Err(); err != nil {
			db.broken = err
			return nil, err
		}
		if code != wire.CodeOK {
			return nil, wire.DecodeError(code, msg)
		}
		if typ != want {
			err := fmt.Errorf("client: reply type %d, want %d: %w", typ, want, wire.ErrProtocol)
			db.broken = err
			return nil, err
		}
		return r, nil
	case wire.MsgError:
		code := r.U32()
		msg := r.Str()
		err := wire.DecodeError(code, msg)
		if err == nil {
			err = fmt.Errorf("client: empty error frame: %w", wire.ErrProtocol)
		}
		db.broken = err
		return nil, err
	default:
		err := fmt.Errorf("client: unexpected frame type %d: %w", typ, wire.ErrProtocol)
		db.broken = err
		return nil, err
	}
}

// Session opens a remote session: one serial statement stream, exactly
// like core.DB.Session.
func (db *DB) Session() (*Session, error) {
	sid, err := db.roundTrip(wire.MsgSessionOpen, nil, wire.MsgSessionOK)
	if err != nil {
		return nil, err
	}
	return &Session{db: db, id: sid}, nil
}

// Exec runs a non-SELECT statement (CREATE/INSERT) at the current
// simulated time, mirroring core.DB.Exec's write path.
func (db *DB) Exec(sql string) error { return db.ExecAt(0, sql) }

// ExecAt schedules a non-SELECT statement at simulated time at: a
// present-time statement's reply carries its real outcome, a future
// one's errors surface at Drain, mirroring core.DB.ExecAt.
func (db *DB) ExecAt(at float64, sql string) error {
	_, err := db.roundTrip(wire.MsgExec, func(b []byte) []byte {
		return wire.AppendStr(wire.AppendF64(b, at), sql)
	}, wire.MsgOK)
	return err
}

// Drain runs the server's simulation until no scheduled work remains,
// mirroring core.DB.Drain.
func (db *DB) Drain() error {
	_, err := db.roundTrip(wire.MsgDrain, nil, wire.MsgOK)
	return err
}

// Meter fetches the server's energy ledger: wall meter, idle floor, and
// the per-tenant attributed bill.
func (db *DB) Meter() (wire.MeterReport, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.broken != nil {
		return wire.MeterReport{}, db.broken
	}
	if err := db.wc.Send(db.wc.Begin(wire.MsgMeter)); err != nil {
		db.broken = err
		return wire.MeterReport{}, err
	}
	typ, body, err := db.wc.Read()
	if err != nil {
		db.broken = err
		return wire.MeterReport{}, err
	}
	if typ != wire.MsgMeterReport {
		return wire.MeterReport{}, fmt.Errorf("client: meter reply type %d: %w", typ, wire.ErrProtocol)
	}
	db.r.Reset(body)
	return wire.DecodeMeterReport(&db.r)
}

// Session is one remote serial statement stream.
type Session struct {
	db     *DB
	id     uint64
	closed bool
}

// Close closes the remote session; running statements are unaffected.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	_, err := s.db.roundTrip(wire.MsgSessionClose, func(b []byte) []byte {
		return wire.AppendU64(b, s.id)
	}, wire.MsgOK)
	return err
}

// Prepare binds a SELECT on the server for repeated execution.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	id, err := s.db.roundTrip(wire.MsgPrepare, func(b []byte) []byte {
		return wire.AppendStr(wire.AppendU64(b, s.id), sql)
	}, wire.MsgPrepared)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, id: id, text: sql}, nil
}

// Query prepares and submits a statement in one call.
func (s *Session) Query(sql string) (*Rows, error) {
	st, err := s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return st.Query()
}

// Explain plans a SELECT without running it and returns the chosen plan
// as a batch of opt.ExplainSchema rows (operator, detail, DOP, P-state,
// predicted ms and joules).
func (s *Session) Explain(sql string) (*table.Batch, error) {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	r, err := s.db.roundTripLocked(wire.MsgExplain, func(b []byte) []byte {
		return wire.AppendStr(wire.AppendU64(b, s.id), sql)
	}, wire.MsgBatch)
	if err != nil {
		return nil, err
	}
	return wire.DecodeBatch(r)
}

// Stmt is a prepared statement on a remote session.
type Stmt struct {
	sess *Session
	id   uint64
	text string
}

// Text returns the statement's SQL.
func (st *Stmt) Text() string { return st.text }

// Query submits the statement, returning a Rows handle immediately;
// execution happens as the stream is fetched (the engine is lazy, same
// as embedded).
func (st *Stmt) Query() (*Rows, error) { return st.query(0, 0, 0) }

// QueryAt submits the statement at simulated time at.
func (st *Stmt) QueryAt(at float64) (*Rows, error) { return st.query(at, 0, 0) }

// QueryDeadline submits the statement with an absolute deadline
// (simulated seconds); a miss surfaces as fault.ErrDeadlineExceeded.
func (st *Stmt) QueryDeadline(deadline float64) (*Rows, error) {
	return st.query(0, deadline, 0)
}

// QueryAtDeadline combines an arrival time with a deadline.
func (st *Stmt) QueryAtDeadline(at, deadline float64) (*Rows, error) {
	return st.query(at, deadline, 0)
}

// QueryDiscard submits the statement with server-side result discarding:
// only the row count survives, for throughput drivers.
func (st *Stmt) QueryDiscard(at, deadline float64) (*Rows, error) {
	return st.query(at, deadline, wire.FlagDiscard)
}

func (st *Stmt) query(at, deadline float64, flags byte) (*Rows, error) {
	qid, err := st.sess.db.roundTrip(wire.MsgExecute, func(b []byte) []byte {
		return wire.AppendF64(wire.AppendF64(append(wire.AppendU64(b, st.id), flags), at), deadline)
	}, wire.MsgExecuted)
	if err != nil {
		return nil, err
	}
	return &Rows{db: st.sess.db, id: qid}, nil
}

// Rows streams a remote statement's result: each Next is one FETCH
// round-trip returning one columnar batch, until the server reports the
// stream done with the query's settled stats and any typed error.
type Rows struct {
	db     *DB
	id     uint64
	cur    *table.Batch
	res    wire.Result
	err    error
	done   bool
	closed bool
}

// Next fetches the next result batch; false at end of stream, on error,
// or after Close.
func (r *Rows) Next() bool {
	if r.done || r.closed {
		return false
	}
	r.db.mu.Lock()
	defer r.db.mu.Unlock()
	if r.db.broken != nil {
		r.err, r.done = r.db.broken, true
		return false
	}
	if err := r.db.wc.Send(wire.AppendU64(r.db.wc.Begin(wire.MsgFetch), r.id)); err != nil {
		r.db.broken, r.err, r.done = err, err, true
		return false
	}
	typ, body, err := r.db.wc.Read()
	if err != nil {
		r.db.broken, r.err, r.done = err, err, true
		return false
	}
	br := &r.db.r
	br.Reset(body)
	switch typ {
	case wire.MsgBatch:
		code := br.U32()
		msg := br.Str()
		if code != wire.CodeOK {
			r.err, r.done = wire.DecodeError(code, msg), true
			return false
		}
		b, err := wire.DecodeBatch(br)
		if err != nil {
			r.db.broken, r.err, r.done = err, err, true
			return false
		}
		r.cur = b
		return true
	case wire.MsgDone:
		res, code, msg, derr := wire.DecodeResult(br)
		if derr != nil {
			r.db.broken, r.err, r.done = derr, derr, true
			return false
		}
		r.res, r.err, r.done = res, wire.DecodeError(code, msg), true
		return false
	default:
		err := fmt.Errorf("client: fetch reply type %d: %w", typ, wire.ErrProtocol)
		r.db.broken, r.err, r.done = err, err, true
		return false
	}
}

// Batch returns the batch fetched by the last successful Next.
func (r *Rows) Batch() *table.Batch { return r.cur }

// Err reports the statement's execution error, if any — a typed remote
// error matching the fault sentinels under errors.Is.
func (r *Rows) Err() error { return r.err }

// Close cancels the statement on the server if it is still pending or
// running and releases it; like the embedded Rows, a client-initiated
// close is not an error.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	_, cerr := r.db.roundTrip(wire.MsgCancel, func(b []byte) []byte {
		return wire.AppendU64(b, r.id)
	}, wire.MsgOK)
	if cerr != nil && r.err == nil {
		r.err = cerr
	}
	r.cur = nil
	return r.err
}

// Result drains the stream (discarding any unfetched batches) and
// returns the query's settled stats; the error is the statement's
// execution error, typed.
func (r *Rows) Result() (wire.Result, error) {
	for r.Next() {
	}
	return r.res, r.err
}

// Collect drains the stream into one table.
func (r *Rows) Collect() (*table.Table, wire.Result, error) {
	var t *table.Table
	for r.Next() {
		b := r.Batch()
		if t == nil {
			t = table.NewTable(b.Schema)
		}
		t.AppendBatch(b)
	}
	return t, r.res, r.err
}

// RowCount drains the stream and reports the rows the query produced
// (it survives server-side discard).
func (r *Rows) RowCount() (int64, error) {
	res, err := r.Result()
	return res.RowCount, err
}

// Attributed drains the stream and reports the query's settled energy
// share; unlike Result's error it is meaningful even for failed
// queries, matching the embedded Rows.Attributed.
func (r *Rows) Attributed() float64 {
	res, _ := r.Result()
	return res.Attributed
}
