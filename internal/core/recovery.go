package core

import (
	"fmt"
	"maps"
	"slices"

	"energydb/internal/energy"
	"energydb/internal/exec"
	"energydb/internal/fault"
	"energydb/internal/table"
)

// This file is the crash half of the fault-tolerant query lifecycle: a
// whole-engine failure at a simulated instant, followed by ARIES-style
// recovery from the placement checkpoints and the WAL's durable image.
//
// A crash unwinds every live process (queries, scan readers, exchange
// workers, WAL flushers — their goroutines exit through their cleanup
// defers), drops every pending event, and resets the hardware models to
// a quiescent state so held resources do not leak into the next epoch.
// Volatile state — the buffer pool, partial results, the admission queue
// — is gone; what survives is the data volume (placements) and the log
// device's byte image, of which an in-flight flush contributes only a
// torn prefix. Recovery truncates the log at the first torn or corrupt
// record, rebuilds each table as checkpoint-prefix + replayed-suffix,
// and fails every in-flight statement with a typed QueryError so clients
// observe the crash instead of hanging.

// CrashAt schedules a whole-engine crash at simulated time t. tornFrac
// in [0,1] chooses how much of a WAL flush in flight at the crash
// instant lands on the device (a torn write). Statements submitted after
// recovery run normally.
func (db *DB) CrashAt(t float64, tornFrac float64) {
	db.Srv.Eng.At(t, "crash", func() { db.crash(tornFrac) })
}

// Crash crashes the engine at the current instant. It must not be called
// from process context (use CrashAt to crash mid-workload).
func (db *DB) Crash(tornFrac float64) { db.crash(tornFrac) }

func (db *DB) crash(tornFrac float64) {
	eng := db.Srv.Eng
	now := eng.Now()
	db.crashes++

	// Snapshot what the log device would hold the moment the power died:
	// the durable image plus a torn prefix of any in-flight flush.
	var img []byte
	if db.Log != nil {
		img = db.Log.CrashImage(tornFrac)
	}

	// Power failure: every live process unwinds, every pending event —
	// timers, dispatches, queued submissions — is dropped.
	eng.Crash()

	// Bring the hardware models back to a quiescent state: resources held
	// or waited on by killed processes are forcibly returned, spindles
	// settle at idle, and the (volatile) buffer pool empties.
	for _, d := range db.Srv.Disks {
		d.Reset()
	}
	for _, s := range db.Srv.SSDs {
		s.Reset()
	}
	db.Srv.CPU.Reset()
	db.Vol.Reset()
	db.Pool.Reset()
	db.Adm.Reset()
	// Dead queries can no longer vote for a P-state; back to nominal.
	db.pvotes = map[int64]int{}
	db.applyPState()

	// Rebuild every table from its placement checkpoint plus the log.
	db.recoverTables(img)

	// Settle the statements the crash caught in flight, in submission
	// order so recovery is deterministic. Open energy accounts are closed
	// at the crash instant — the joules a dead query burned are still its
	// joules, and the attribution invariant keeps holding. Statements not
	// yet submitted (future arrivals whose timer events were just
	// dropped) are re-armed instead of failed.
	// Snapshot who was submitted BEFORE settling anyone: failing a
	// statement fires its onDone hooks, which submit its chained successor
	// — that successor must then be recognised as a fresh post-crash
	// submission (and left alone), not failed as crashed in flight. The
	// dropped submit timers also left stale pending flags; clear them so
	// the re-arm pass can schedule replacements.
	crashed := fmt.Errorf("core: engine crashed at %.6f: %w", now, fault.ErrCrashed)
	ids := slices.Sorted(maps.Keys(db.inflight))
	wasSubmitted := make(map[int64]bool, len(ids))
	for _, id := range ids {
		r := db.inflight[id]
		wasSubmitted[id] = r.submitted
		r.pending = false
	}
	for _, id := range ids {
		r := db.inflight[id]
		if r == nil || r.done {
			continue // settled earlier in this pass
		}
		if !wasSubmitted[id] {
			db.submitRows(r) // no-op if a predecessor's onDone already did
			continue
		}
		if r.acct != nil && !r.acct.Closed() {
			db.Attr.End(r.acct, energy.Seconds(now))
		}
		r.err = &exec.QueryError{Query: r.stmt.text, ID: r.id, Err: crashed}
		r.finish(now)
	}
	// An insert the crash caught — scheduled, or mid-commit with its
	// account open — is not durable and not applied: it fails the same way,
	// and its account closes here instead of absorbing idle-floor shares
	// for the rest of the run.
	for _, id := range slices.Sorted(maps.Keys(db.commits)) {
		db.commits[id].settle(crashed, now)
	}
}

// recoverTables rebuilds the in-memory tables after a crash: each keeps
// only the prefix covered by its last placement (the checkpoint — those
// rows live on the data volume), then WAL records whose start row lines
// up with the table's recovered tail are reapplied in log order. Every
// table is marked dirty so its next use re-places it, invalidating plans
// cached against the pre-crash placement.
func (db *DB) recoverTables(img []byte) {
	for name, t := range db.mem {
		keep := db.durableRows[name]
		if keep > int64(t.Rows()) {
			keep = int64(t.Rows())
		}
		nt := table.NewTable(t.Schema)
		if keep > 0 {
			nt.AppendBatch(t.Slice(0, int(keep)))
		}
		db.mem[name] = nt
		db.dirty[name] = true
	}
	if db.Log == nil {
		return
	}
	for _, rec := range db.Log.Recover(img) {
		startRow, rows, err := decodeInsert(rec.Payload, db.schemas)
		if err != nil {
			continue // not an insert record (or schema drift): nothing to apply
		}
		if t := db.mem[rows.Schema.Name]; startRow == int64(t.Rows()) {
			t.AppendBatch(rows) // else already inside the checkpoint prefix
		}
	}
}
