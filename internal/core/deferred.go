package core

import (
	"fmt"

	"energydb/internal/energy"
	"energydb/internal/sim"
	"energydb/internal/table"
)

// This file is the write path. A non-SELECT statement is scheduled at a
// simulated time, the way Session.QueryAt schedules a read, and an INSERT
// commits one way only: as its own simulated process at its arrival time
// — WAL append inside the process, rows visible after — billed to its own
// energy account, so inserts show up in tenant bills like queries do.
// The synchronous forms (DB.Insert, Exec of an INSERT) schedule the same
// commit for now and pump until it is done.

// Deferred is a scheduled non-SELECT statement. Like Rows, it settles
// when the simulation is pumped past its completion (Err, or DB.Drain).
type Deferred struct {
	db   *DB
	id   int64 // key in db.commits while unsettled
	done bool
	err  error
	acct *energy.Account
}

// Done reports whether the statement has executed (without pumping). A
// statement that is done when ExecAt returns took no simulated time and
// opened no account: a CREATE.
func (d *Deferred) Done() bool { return d.done }

// Err pumps the simulation until the statement completes and reports its
// error. A statement an engine crash caught before it was durable reports
// fault.ErrCrashed.
func (d *Deferred) Err() error {
	d.db.pumpUntil(func() bool { return d.done })
	if !d.done {
		return fmt.Errorf("core: deferred statement never completed (simulation ran dry)")
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

// ExecAt schedules a non-SELECT statement at simulated time at (or now,
// whichever is later). CREATE executes immediately — it is catalog-only
// and consumes no simulated time. INSERT is validated now (bad statements
// fail synchronously, before they are scheduled) and committed at its
// arrival time inside its own process: the WAL append, the row visibility
// flip and the dirty mark all happen at simulated time at, billed to the
// statement's own energy account. SELECTs are rejected; they go through
// sessions.
func (db *DB) ExecAt(at float64, query string) (*Deferred, error) {
	p, err := db.prepare(query, false, true)
	if err != nil {
		return nil, err
	}
	if p.create != nil {
		return &Deferred{db: db, done: true}, db.CreateTable(p.create)
	}
	return db.insertAt(at, p.rows), nil
}

// InsertAt schedules a validated row batch for commit at simulated time
// at — the programmatic form of ExecAt's INSERT arm.
func (db *DB) InsertAt(at float64, name string, rows [][]table.Value) (*Deferred, error) {
	b, err := db.coerceInsert(name, rows)
	if err != nil {
		return nil, err
	}
	return db.insertAt(at, b), nil
}

// insertAt is the one INSERT commit. Write-ahead: the record carries the
// rows and the table's row count at commit, so crash recovery can rebuild
// the table from its placement checkpoint plus the log suffix, and the
// rows join the table only once the record is durable — a failed or
// crashed commit leaves no phantom rows behind.
func (db *DB) insertAt(at float64, rows *table.Batch) *Deferred {
	db.nextCommit++
	d := &Deferred{db: db, id: db.nextCommit}
	db.commits[d.id] = d
	eng := db.Srv.Eng
	name := rows.Schema.Name
	eng.At(max(at, eng.Now()), "insert", func() {
		eng.Go("insert "+name, func(p *sim.Proc) {
			d.acct = db.Attr.Begin(energy.Seconds(p.Now()))
			p.SetOwner(d.acct)
			var err error
			if db.Log != nil {
				payload := encodeInsert(int64(db.mem[name].Rows()), rows)
				if _, e := db.Log.Append(p, payload); e != nil {
					err = fmt.Errorf("core: insert into %q not durable: %w", name, e)
				}
			}
			if err == nil {
				db.mem[name].AppendBatch(rows)
				db.dirty[name] = true // re-placed on next use
			}
			p.SetOwner(nil)
			d.settle(err, p.Now())
		})
	})
	return d
}

// settle closes the statement's account, if it got as far as opening one,
// and records its outcome; the commit process and crash recovery share it.
func (d *Deferred) settle(err error, now float64) {
	if d.acct != nil {
		d.db.Attr.End(d.acct, energy.Seconds(now))
	}
	d.err, d.done = err, true
	delete(d.db.commits, d.id)
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
