package core

import (
	"fmt"

	"energydb/internal/energy"
	"energydb/internal/fault"
	"energydb/internal/sim"
	"energydb/internal/sql"
	"energydb/internal/table"
)

// This file is the arrival-time write path: workload drivers model an
// OLTP-ish insert stream by scheduling statements at simulated times,
// the way Session.QueryAt schedules reads. Insert cannot serve: with a
// WAL it drains the whole engine per call, which would run every
// already-scheduled future query. ExecAt instead schedules the commit as
// its own simulated process — WAL append inside the process, rows
// visible after — and bills it to its own energy account, so inserts
// show up in tenant bills like queries do.

// Deferred is a scheduled non-SELECT statement. Like Rows, it settles
// when the simulation is pumped past its completion (Err, or DB.Drain).
type Deferred struct {
	db   *DB
	done bool
	err  error
	acct *energy.Account
}

// Done reports whether the statement has executed (without pumping).
func (d *Deferred) Done() bool { return d.done }

// Err pumps the simulation until the statement completes and reports its
// error. A statement whose process was killed by an engine crash reports
// fault.ErrCrashed.
func (d *Deferred) Err() error {
	d.db.pumpUntil(func() bool { return d.done })
	if !d.done {
		return fmt.Errorf("core: deferred statement never ran: %w", fault.ErrCrashed)
	}
	return d.err
}

// Attributed reports the energy billed to the statement's account (zero
// until it has run, and for statements that open no account).
func (d *Deferred) Attributed() energy.Joules {
	if d.acct == nil {
		return 0
	}
	return d.acct.Attributed()
}

// ExecAt parses a non-SELECT statement and schedules it at simulated
// time at (or now, whichever is later). CREATE executes immediately —
// it is catalog-only and consumes no simulated time. INSERT is
// validated now (bad statements fail synchronously, before they are
// scheduled) and committed at its arrival time inside its own process:
// the WAL append, the row visibility flip and the dirty mark all happen
// at simulated time at, billed to the statement's own energy account.
// SELECTs are rejected; they go through sessions.
func (db *DB) ExecAt(at float64, query string) (*Deferred, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch {
	case st.Create != nil:
		return &Deferred{db: db, done: true},
			db.CreateTable(table.NewSchema(st.Create.Name, st.Create.Cols...))
	case st.Insert != nil:
		coerced, err := db.coerceInsert(st.Insert.Table, st.Insert.Rows)
		if err != nil {
			return nil, err
		}
		return db.insertAt(at, st.Insert.Table, coerced), nil
	default:
		return nil, fmt.Errorf("core: ExecAt takes CREATE or INSERT; SELECT goes through sessions")
	}
}

// InsertAt schedules a validated row batch for commit at simulated time
// at — the programmatic form of ExecAt's INSERT arm.
func (db *DB) InsertAt(at float64, name string, rows [][]table.Value) (*Deferred, error) {
	coerced, err := db.coerceInsert(name, rows)
	if err != nil {
		return nil, err
	}
	return db.insertAt(at, name, coerced), nil
}

func (db *DB) insertAt(at float64, name string, coerced [][]table.Value) *Deferred {
	d := &Deferred{db: db}
	eng := db.Srv.Eng
	t := at
	if now := eng.Now(); t < now {
		t = now
	}
	eng.At(t, "insert", func() {
		eng.Go("insert "+name, func(p *sim.Proc) {
			acct := db.Attr.Begin(energy.Seconds(p.Now()))
			d.acct = acct
			p.SetOwner(acct)
			var err error
			if db.Log != nil {
				err = db.logInsert(p, name, coerced)
			}
			if err == nil {
				db.applyInsert(name, coerced)
			}
			p.SetOwner(nil)
			db.Attr.End(acct, energy.Seconds(p.Now()))
			d.err = err
			d.done = true
		})
	})
	return d
}

// Ledger settles the energy attributor at the current simulated time and
// returns the wall meter's reading and the unattributed idle-floor
// energy. After a drain, meter - unattributed is exactly the sum of
// every settled account's Attributed — the invariant billing reports
// (and the server's METER frame) are built on.
func (db *DB) Ledger() (meterJ, unattributedJ energy.Joules) {
	now := energy.Seconds(db.Srv.Eng.Now())
	db.Attr.Settle(now)
	return db.Srv.Meter.TotalEnergy(now), db.Attr.Unattributed()
}

// EnergyReport formats the whole server's per-component energy breakdown,
// from time 0 to the current simulated time, as a small text table.
func (db *DB) EnergyReport() string {
	return db.Srv.Meter.Report(energy.Seconds(db.Srv.Eng.Now()))
}
