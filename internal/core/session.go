package core

import (
	"errors"
	"fmt"

	"energydb/internal/energy"
	"energydb/internal/exec"
	"energydb/internal/fault"
	"energydb/internal/opt"
	"energydb/internal/sched"
	"energydb/internal/sim"
	"energydb/internal/table"
)

// This file is the session-based query API: the workload-level face of
// the engine the paper's §4.2 asks for. A Session is one client's serial
// statement stream; Prepare binds a statement once; Query submits it to
// the engine-resident admission controller, which grants the query its
// degree of parallelism from the cores that are actually free at
// admission time and queues arrivals when the box is saturated. Results
// stream back through Rows, and every completed query carries an
// attributed energy account — its own marginal joules plus its
// wall-clock-overlap share of the idle floor — that sums to the
// whole-server meter across concurrent sessions by construction.
//
// The simulation is advanced lazily: submitting a statement schedules
// work but runs nothing. Rows methods (Next, Collect, RowCount, Close)
// pump the engine just far enough to produce what they return, and
// DB.Drain runs every outstanding statement to completion. Execution is
// not consumer-paced — a running query proceeds at full simulated speed
// whether or not anyone is iterating its Rows — because the consumer
// lives outside simulated time and stalling the query on it would charge
// client think-time to the query's energy account.

// Session is one client's serial statement stream: statements submitted
// on a session execute in submission order, each admitted only after the
// previous one finished — exactly the behaviour of one TPC-H throughput
// stream. Concurrency comes from opening several sessions; the admission
// controller arbitrates cores across them.
type Session struct {
	db     *DB
	id     int64
	tail   *Rows // most recently submitted statement, for chaining
	closed bool
}

// Session opens a new session on the database.
func (db *DB) Session() *Session {
	db.nextSess++
	return &Session{db: db, id: db.nextSess}
}

// Close marks the session closed; further Prepare/Query calls fail.
// Statements already submitted are unaffected.
func (s *Session) Close() error {
	s.closed = true
	return nil
}

// open refuses a closed session.
func (s *Session) open() error {
	if s.closed {
		return fmt.Errorf("core: session %d is closed", s.id)
	}
	return nil
}

// Prepare parses and binds a SELECT for repeated execution. Binding
// places any referenced tables whose contents changed. The physical plan
// is chosen later, per execution, against the cores granted at admission.
func (s *Session) Prepare(query string) (*Stmt, error) {
	if err := s.open(); err != nil {
		return nil, err
	}
	p, err := s.db.prepare(query, true, false)
	if err != nil {
		return nil, err
	}
	return newStmt(s, query, p.query), nil
}

// newStmt wraps a bound query; Prepare and the Exec wrapper share it.
func newStmt(s *Session, text string, q *opt.Query) *Stmt {
	return &Stmt{sess: s, text: text,
		ps: &planSet{query: q, plans: map[int]*opt.Plan{}, epochs: map[string]int64{}}}
}

// Explain is DB.Plan with the chosen plan as rows of opt.ExplainSchema —
// one row per operator with its DOP, the plan's P-state, and predicted
// ms/J — so EXPLAIN output is wire-encodable like any result.
func (s *Session) Explain(query string) (*table.Table, error) {
	if err := s.open(); err != nil {
		return nil, err
	}
	plan, err := s.db.Plan(query)
	if err != nil {
		return nil, err
	}
	return plan.ExplainRows(), nil
}

// Query prepares and submits a statement in one call.
func (s *Session) Query(query string) (*Rows, error) { return s.QueryAt(0, query) }

// QueryAt prepares a statement and submits it at simulated time at (>= the
// current clock), for drivers that model an arrival process.
func (s *Session) QueryAt(at float64, query string) (*Rows, error) {
	st, err := s.Prepare(query)
	if err != nil {
		return nil, err
	}
	return st.QueryAt(at)
}

// Stmt is a prepared SELECT bound to its session. Physical plans are
// compiled on demand per admission grant (the optimizer prices degrees of
// parallelism against the granted cores — see opt.Env.Grant) and cached,
// so a statement re-executed under the same grant plans once. Statements
// produced by PrepareCached share one planSet across sessions, so any of
// them re-executing under an already-seen grant reuses the plan.
type Stmt struct {
	sess *Session
	text string
	ps   *planSet
}

// planSet is the session-independent part of a prepared statement: the
// bound query and its compiled-plan cache, one physical plan per admission
// grant, all built against the same placement epochs. It is the unit
// PrepareCached shares between sessions; the simulation runs one event at
// a time, so no locking is needed.
type planSet struct {
	query  *opt.Query
	plans  map[int]*opt.Plan // by granted cores
	epochs map[string]int64  // placement epochs the cached plans were built on
}

// Text returns the statement's SQL.
func (st *Stmt) Text() string { return st.text }

// Query submits the statement for execution after the session's previous
// statement finishes, returning a Rows handle immediately. Nothing runs
// until the simulation is pumped (Rows methods or DB.Drain).
func (st *Stmt) Query() (*Rows, error) { return st.queryAt(0, 0) }

// QueryAt submits the statement at simulated time at (or when the
// session's previous statement finishes, whichever is later).
func (st *Stmt) QueryAt(at float64) (*Rows, error) { return st.queryAt(at, 0) }

// QueryDeadline submits the statement with an absolute deadline (engine
// seconds). A query whose deadline passes while it is queued never runs —
// it is rejected by admission without opening an energy account — and a
// query caught running at its deadline is cancelled at its next batch
// boundary, returning its core grant. Either way Rows.Err reports a
// *exec.QueryError wrapping fault.ErrDeadlineExceeded.
func (st *Stmt) QueryDeadline(deadline float64) (*Rows, error) {
	return st.queryAt(0, deadline)
}

// QueryAtDeadline combines QueryAt's arrival time with QueryDeadline's
// deadline, for drivers that model per-arrival latency budgets.
func (st *Stmt) QueryAtDeadline(at, deadline float64) (*Rows, error) {
	return st.queryAt(at, deadline)
}

func (st *Stmt) queryAt(at, deadline float64) (*Rows, error) {
	s := st.sess
	if err := s.open(); err != nil {
		return nil, err
	}
	db := s.db
	db.nextQuery++
	r := &Rows{db: db, stmt: st, id: db.nextQuery, at: at, deadline: deadline}
	db.inflight[r.id] = r
	prev := s.tail
	s.tail = r
	if prev == nil || prev.done {
		db.submitRows(r)
	} else {
		prev.onDone = append(prev.onDone, func() { db.submitRows(r) })
	}
	return r, nil
}

// planFor compiles (or recalls) the statement's plan for a grant, after
// re-placing any referenced table whose contents changed since the last
// execution. Cache invalidation is by placement epoch, not the dirty
// flag: the first statement to re-place a table consumes the flag, but
// every other prepared statement on that table must also drop plans
// built against the old placement.
//
// budget, when positive, is the seconds remaining until the query's
// deadline; it constrains plan choice (opt.Env.TimeBudget) and bypasses
// the plan cache — the budget differs per execution, so a budgeted plan
// is never reusable.
func (st *Stmt) planFor(granted int, budget float64) (*opt.Plan, error) {
	db, ps := st.sess.db, st.ps
	if err := db.placeDirty(ps.query); err != nil {
		return nil, err
	}
	stale := false
	for _, a := range ps.query.Tables {
		rel := ps.query.Rels[a]
		if e := db.epochs[rel]; ps.epochs[rel] != e {
			ps.epochs[rel] = e
			stale = true
		}
	}
	if stale {
		ps.plans = map[int]*opt.Plan{}
	}
	if budget <= 0 {
		if p, ok := ps.plans[granted]; ok {
			return p, nil
		}
	}
	env := db.Env.Grant(granted)
	env.TimeBudget = budget
	p, err := opt.Optimize(ps.query, db.Catalog, env, db.Objective)
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		ps.plans[granted] = p
	}
	return p, nil
}

// Rows is a submitted statement's result stream and, once the statement
// completes, its energy-accounted Result. Batches become available as the
// simulation executes the query; Next pumps the engine just far enough to
// return the next one.
type Rows struct {
	db   *DB
	stmt *Stmt
	id   int64
	at   float64 // requested submission time

	deadline  float64 // absolute engine time; 0 = none
	pending   bool    // a submit timer is scheduled for a future arrival
	submitted bool    // handed to the admission controller
	submitT   float64 // actual submission time
	startT    float64 // admission time
	startE    energy.Joules
	granted   int
	ticket    *sched.Ticket
	retries   int

	cancel  bool // producer stops at its next batch boundary
	expired bool // the deadline tripped while the query was running
	done    bool
	closed  bool
	discard bool

	err      error
	plan     *opt.Plan
	schema   *table.Schema
	acct     *energy.Account
	batches  []*table.Batch
	pos      int
	cur      *table.Batch
	rowCount int64
	res      *Result
	onDone   []func()
}

// Discard drops result batches as they are produced, keeping only the
// row count — for throughput drivers that would otherwise buffer every
// stream's output. It must be called before the simulation is pumped.
func (r *Rows) Discard() { r.discard = true }

// Next advances to the next result batch, pumping the simulation as
// needed; it returns false at end of stream, on error, or after Close.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	r.db.pumpUntil(func() bool { return r.pos < len(r.batches) || r.done })
	if r.pos < len(r.batches) {
		r.cur = r.batches[r.pos]
		r.pos++
		return true
	}
	r.cur = nil
	return false
}

// Batch returns the batch produced by the last successful Next. It is
// owned by the Rows and valid until Close.
func (r *Rows) Batch() *table.Batch { return r.cur }

// Err reports the statement's execution error, if any.
func (r *Rows) Err() error { return r.err }

// Close cancels the statement if it is still pending or running — the
// query process (and the exchange workers under it) stops at its next
// batch boundary and its cancelled scan readers unwind at theirs, so
// once the engine drains no process of the query is left alive — and
// releases buffered batches. Closing a statement that is still *queued*
// at admission dequeues it without ever dispatching it: it opens no
// energy account and counts as Canceled, not Completed, in the admission
// stats. Closing a finished Rows just releases its buffers. A close is
// the client's own decision, so it is not an error: Err stays nil unless
// the query had already failed.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.cancel = true
	if !r.done && r.ticket != nil && r.db.Adm.Cancel(r.ticket) {
		// Dequeued before it ever ran: settle immediately. finish() sees
		// no plan and no account, so nothing is billed.
		r.finish(r.db.Srv.Eng.Now())
	}
	r.db.pumpUntil(func() bool { return r.done })
	r.batches = nil
	r.cur = nil
	return r.err
}

// Collect runs the statement to completion and materialises all result
// rows into Result.Rows — the convenience path DB.Exec uses. It fails on
// a closed Rows (Close released the buffered batches) and on a discarded
// one (use Result or RowCount there).
func (r *Rows) Collect() (*Result, error) {
	if r.closed {
		return nil, fmt.Errorf("core: Collect on closed Rows (batches released)")
	}
	if r.discard {
		return nil, fmt.Errorf("core: Collect on discarded Rows (use Result or RowCount)")
	}
	res, err := r.Result()
	if err != nil {
		return nil, err
	}
	if res.Rows == nil && r.schema != nil {
		t := table.NewTable(r.schema)
		for _, b := range r.batches {
			t.AppendBatch(b)
		}
		res.Rows = t
	}
	return res, nil
}

// Result runs the statement to completion and returns its Result without
// materialising rows into a table (Result.Rows stays nil unless Collect
// built it).
func (r *Rows) Result() (*Result, error) {
	r.db.pumpUntil(func() bool { return r.done })
	if !r.done {
		return nil, fmt.Errorf("core: query %d never completed (simulation ran dry)", r.id)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.res, nil
}

// RowCount runs the statement to completion and reports how many rows it
// produced (it survives Discard).
func (r *Rows) RowCount() (int64, error) {
	if _, err := r.Result(); err != nil {
		return 0, err
	}
	return r.rowCount, nil
}

// Granted reports the cores granted at admission (0 until admitted).
func (r *Rows) Granted() int { return r.granted }

// Retries reports how many times the statement was re-executed after a
// transient device fault (see Config.RetryMax).
func (r *Rows) Retries() int { return r.retries }

// Stats returns the query's settled Result, nil until the statement has
// finished. Unlike Result it never pumps the simulation and is readable
// even when the query failed — finish() always builds it — which is what
// the server's DONE frame needs: a deadline-expired query still reports
// its elapsed time, wait, and attributed joules alongside its error.
func (r *Rows) Stats() *Result { return r.res }

// Attributed reports the energy billed to this query's account (zero
// until settled). Unlike Result it is readable even when the query
// failed: a crashed or faulted query's joules are still its joules, and
// harnesses verifying the attribution invariant need them.
func (r *Rows) Attributed() energy.Joules {
	if r.res == nil {
		return 0
	}
	return r.res.Attributed
}

// Drain runs the simulation until no scheduled work remains: every
// submitted statement on every session has finished. Multi-stream
// drivers submit their whole workload and then Drain once.
func (db *DB) Drain() error { return db.Srv.Eng.Run() }

// pumpUntil advances the simulation one event at a time until ready()
// holds or no events remain.
func (db *DB) pumpUntil(ready func() bool) {
	eng := db.Srv.Eng
	for !ready() && eng.Step() {
	}
}

// submitRows hands a statement to the admission controller, at its
// requested time if that is still in the future. It is idempotent: a
// statement can be offered both by its predecessor's onDone hook and by
// crash recovery's re-arm pass, and must be submitted exactly once.
func (db *DB) submitRows(r *Rows) {
	if r.pending || r.submitted || r.done {
		return
	}
	eng := db.Srv.Eng
	if r.at > eng.Now() {
		r.pending = true
		eng.At(r.at, "submit", func() {
			r.pending = false
			db.doSubmit(r)
		})
		return
	}
	db.doSubmit(r)
}

func (db *DB) doSubmit(r *Rows) {
	if r.cancel {
		// Closed before it was ever handed to admission (a chained or
		// future-scheduled statement): settle without submitting.
		r.finish(db.Srv.Eng.Now())
		return
	}
	r.submitted = true
	r.submitT = db.Srv.Eng.Now()
	r.startE = db.Srv.Meter.TotalEnergy(energy.Seconds(r.submitT))
	r.ticket = db.Adm.Submit(sched.Job{
		Name:     fmt.Sprintf("query%d", r.id),
		Want:     db.Env.Cores,
		Deadline: r.deadline,
		Tag:      r.stmt.text, // consolidating policies batch same-statement work
		Run:      func(p *sim.Proc, granted int) { db.runQuery(p, r, granted) },
		Fail:     func(err error) { db.failRows(r, err) },
	})
}

// failRows settles a query that admission rejected before it ever ran
// (its deadline passed while queued). No plan was compiled and no energy
// account was opened, so the query bills nothing.
func (db *DB) failRows(r *Rows, err error) {
	if r.done {
		return
	}
	r.err = &exec.QueryError{Query: r.stmt.text, ID: r.id, Err: err}
	r.finish(db.Srv.Eng.Now())
}

// runQuery is the admitted query's process: plan for the grant, open an
// attribution account, execute — retrying transient device faults with
// exponential sim-time backoff, every attempt billed to the same account
// — and settle the result.
func (db *DB) runQuery(p *sim.Proc, r *Rows, granted int) {
	if r.done {
		// Settled while queued (crash recovery or a late cancel lost the
		// race with dispatch): the grant goes straight back.
		return
	}
	r.granted = granted
	r.startT = p.Now()
	if !r.cancel {
		budget := 0.0
		if r.deadline > 0 {
			budget = r.deadline - p.Now()
		}
		plan, err := r.stmt.planFor(granted, budget)
		if err != nil {
			r.err = err
		} else {
			r.plan = plan
			// The plan is chosen: give cores it cannot occupy back to the
			// free pool, so a serial plan on a wide grant does not
			// serialize later arrivals behind idle cores. Result.Granted
			// keeps the admission grant the plan was priced against.
			db.Adm.Shrink(r.ticket, plan.MaxDOP())
			if db.cfg.DVFS {
				db.votePState(r.id, plan.PState)
			}
			if r.deadline > 0 {
				// The admission-side timer cannot touch a running job;
				// this one can. At the deadline the query's cancel flag
				// trips and it stops at its next batch boundary,
				// returning its grant when the process exits.
				db.Srv.Eng.At(r.deadline, "deadline", func() {
					if !r.done {
						r.expired = true
						r.cancel = true
					}
				})
			}
			acct := db.Attr.Begin(energy.Seconds(p.Now()))
			r.acct = acct
			p.SetOwner(acct)
			backoff := retryBackoff
			for attempt := 0; ; attempt++ {
				r.err = db.executeRows(p, r, plan)
				if r.err == nil || r.cancel ||
					!fault.IsTransient(r.err) || attempt >= db.cfg.RetryMax {
					break
				}
				// Transient device fault: drop the partial result, back
				// off in simulated time, and re-execute from the cached
				// plan. The account stays open across attempts, so one
				// query bills exactly one account however often it runs.
				r.retries++
				r.batches, r.pos, r.cur, r.rowCount = nil, 0, nil, 0
				p.Sleep(backoff)
				backoff *= 2
			}
			p.SetOwner(nil)
			db.Attr.End(acct, energy.Seconds(p.Now()))
			if db.cfg.DVFS {
				db.dropPState(r.id)
			}
		}
	}
	if r.expired && r.err == nil {
		r.err = fmt.Errorf("core: query %d past deadline %.6f: %w",
			r.id, r.deadline, fault.ErrDeadlineExceeded)
	}
	if r.err != nil {
		var qe *exec.QueryError
		if !errors.As(r.err, &qe) {
			r.err = &exec.QueryError{Query: r.stmt.text, ID: r.id, Err: r.err}
		}
	}
	r.finish(p.Now())
}

// executeRows drives the operator tree, buffering (or discarding) each
// produced batch; r.cancel stops it at the next batch boundary. The tree
// is closed on every exit path, a failed Open included, so no reader
// process outlives a failed statement.
func (db *DB) executeRows(p *sim.Proc, r *Rows, plan *opt.Plan) error {
	ctx := db.NewCtx(p)
	defer ctx.Release()
	op, err := plan.Build(ctx)
	if err != nil {
		return err
	}
	r.schema = op.Schema()
	err = op.Open(ctx)
	for err == nil && !r.cancel {
		var b *table.Batch
		if b, err = op.Next(ctx); err != nil || b == nil {
			break
		}
		if b.Rows() == 0 {
			continue
		}
		r.rowCount += int64(b.Rows())
		if !r.discard {
			r.batches = append(r.batches, b.Clone()) // producers reuse buffers
		}
	}
	if cerr := op.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// finish settles the query's Result and releases chained statements.
func (r *Rows) finish(now float64) {
	meter := r.db.Srv.Meter
	endT := energy.Seconds(now)
	res := &Result{
		Plan:     r.plan,
		Elapsed:  endT - energy.Seconds(r.submitT),
		Joules:   meter.TotalEnergy(endT) - r.startE,
		Wait:     energy.Seconds(r.startT - r.submitT),
		Granted:  r.granted,
		RowCount: r.rowCount,
	}
	if r.acct != nil {
		res.bill(r.acct)
	}
	r.res = res
	if r.err == nil && r.plan != nil {
		r.db.queries++
	}
	delete(r.db.inflight, r.id)
	r.done = true
	for _, f := range r.onDone {
		f()
	}
	r.onDone = nil
}
