package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"time"

	"energydb/internal/core"
	"energydb/internal/hw"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// This file is one repetition of one workload: build a fresh database
// (timed as set-up), then submit the generated statement list, drain and
// collect every result (timed as the measured phase), then settle the
// model clock, the outcomes and the invariants.

// modelClock is the simulated side of a repetition. Every field is a
// pure function of (workload, seed): a repetition that disagrees with
// another by one bit is a determinism bug, and the run fails.
type modelClock struct {
	StmtMsP50     float64 `json:"sim_stmt_ms_p50"`
	StmtMsP95     float64 `json:"sim_stmt_ms_p95"`
	MakespanS     float64 `json:"sim_makespan_s"`
	JoulesPerStmt float64 `json:"joules_per_stmt"`
	MarginalJ     float64 `json:"marginal_joules_per_stmt"`
	DeadlineHit   float64 `json:"deadline_hit_rate"`
	Samples       int     `json:"select_samples"`         // SELECTs that completed and were timed
	MaxLateS      float64 `json:"max_late_s"`             // open loop: worst session-chain delay of a submission
	IdleShare     float64 `json:"idle_floor_share"`       // unattributed / meter over the measured phase
	GapJ          float64 `json:"attribution_gap_joules"` // |meter - sum attributed - idle floor|
}

// rep is one repetition's outcome.
type rep struct {
	SetupS, MeasureS    float64
	Mallocs, AllocBytes uint64
	LiveHeap            uint64
	Model               modelClock
	FP                  []string // per-statement outcome fingerprint
	Stats               []stats
	Errs                []string // statements that ended in an unexpected error
	LiveProcs           int

	// Set on the traced repetition only, for the layer probes.
	Tabs     []*table.Table // collected rows
	Counters map[string]float64
	db       *core.DB
	fe       frontend
	lineitem *table.Table
}

// repOpts selects the variations of a repetition.
type repOpts struct {
	wire   bool    // drive through client -> wire -> server
	tr     *tracer // nil = untraced
	keepDB bool    // leave the DB and front end open for the layer probes
}

const dataSeed = 2009

func tableNames(g *tpch.DB) []string {
	names := make([]string, 0, len(g.Tables))
	for n := range g.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func openDB(w *workload) (*core.DB, error) {
	return core.Open(core.Config{
		Server:    hw.SmallServer(w.Disks),
		Objective: w.Objective,
		WALBatch:  w.WALBatch,
		DVFS:      w.DVFS,
	})
}

// runRep runs one repetition. The caller owns closing r.fe when
// o.keepDB is set.
func runRep(w *workload, pl *plan, seed int64, o repOpts) (r *rep, err error) {
	tr := o.tr
	r = &rep{}
	runtime.GC() // the previous repetition's database is garbage; do not let set-up pay for it

	// ---- set-up: generate, open, load, connect, place, prepare ----
	root := tr.begin("rep", 0, -1)
	spSetup := tr.begin("setup", root, -1)
	t := time.Now()

	sp := tr.begin("tpch.generate", spSetup, -1)
	data := tpch.Generate(w.SF, dataSeed)
	tr.end(sp)

	sp = tr.begin("core.open_load", spSetup, -1)
	db, err := openDB(w)
	if err != nil {
		return nil, err
	}
	names := tableNames(data)
	for _, n := range names {
		if err := db.LoadTable(data.Tables[n]); err != nil {
			return nil, err
		}
	}
	tr.end(sp)

	sp = tr.begin("connect", spSetup, -1)
	var fe frontend
	var cc *connCounter
	if o.wire {
		var wrap func(net.Conn) net.Conn
		if tr != nil {
			cc = &connCounter{}
			wrap = cc.wrap
		}
		if fe, err = newWireFront(db, w.Conns, w.Slots, wrap); err != nil {
			return nil, err
		}
	} else {
		fe = newEmbFront(db, w.Conns, w.Slots)
	}
	tr.end(sp)
	defer func() {
		if err != nil || !o.keepDB {
			if cerr := fe.close(); err == nil {
				err = cerr
			}
		}
	}()

	// Forced placement: LoadTable is lazy, so without this the first
	// measured statement on each table would pay for placing it.
	sp = tr.begin("core.place", spSetup, -1)
	for _, d := range pl.DDL {
		if err := fe.exec(0, 0, d.SQL); err != nil {
			return nil, fmt.Errorf("set-up %q: %w", d.SQL, err)
		}
		names = append(names, d.Table)
	}
	for _, n := range names {
		if _, err := countRows(fe, n); err != nil {
			return nil, fmt.Errorf("placing %s: %w", n, err)
		}
	}
	tr.end(sp)

	sp = tr.begin(fe.layer()+".prepare_hot", spSetup, -1)
	hot := make([]map[string]prepared, w.Conns)
	for c := 0; c < w.Conns; c++ {
		hot[c] = map[string]prepared{}
		for _, text := range pl.Hot {
			st, err := fe.prepare(c, 0, text)
			if err != nil {
				return nil, fmt.Errorf("preparing hot statement: %w", err)
			}
			hot[c][text] = st
		}
	}
	tr.end(sp)
	r.SetupS = time.Since(t).Seconds()
	tr.end(spSetup)

	led0, err := fe.ledger()
	if err != nil {
		return nil, err
	}
	t0 := led0.Now
	var before map[string]float64
	if tr != nil {
		before = snapCounters(db, fe, cc)
	}

	// ---- measured phase: submit, drain, collect ----
	n := len(pl.Stmts)
	pend := make([]pending, n)
	r.Tabs = make([]*table.Table, n)
	r.Stats = make([]stats, n)
	errs := make([]error, n)
	prepName, submitName := fe.layer()+".prepare", fe.layer()+".submit"
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	spMeasure := tr.begin("measure", root, -1)
	t = time.Now()
	for i := range pl.Stmts {
		s := &pl.Stmts[i]
		at, deadline := 0.0, 0.0
		if w.OpenLoop {
			at = t0 + s.At
		}
		if s.Budget > 0 {
			deadline = t0 + s.At + s.Budget
		}
		if s.Insert {
			sp := tr.begin(submitName, spMeasure, i)
			errs[i] = fe.exec(s.Conn, at, s.Text)
			tr.end(sp)
			continue
		}
		st := hot[s.Conn][s.Text]
		if st == nil || w.PrepareEach {
			sp := tr.begin(prepName, spMeasure, i)
			st, errs[i] = fe.prepare(s.Conn, s.Slot, s.Text)
			tr.end(sp)
			if errs[i] != nil {
				continue
			}
		}
		sp := tr.begin(submitName, spMeasure, i)
		pend[i], errs[i] = st.query(at, deadline, s.Discard)
		tr.end(sp)
	}
	sp = tr.begin(fe.layer()+".drain", spMeasure, -1)
	derr := fe.drain()
	tr.end(sp)
	collectName := fe.layer() + ".collect"
	for i, p := range pend {
		if p == nil {
			continue
		}
		sp := tr.begin(collectName, spMeasure, i)
		r.Tabs[i], r.Stats[i], errs[i] = p.collect(tr, sp, i)
		tr.end(sp)
	}
	r.MeasureS = time.Since(t).Seconds()
	tr.end(spMeasure)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	tr.end(root)
	r.Mallocs, r.AllocBytes, r.LiveHeap = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m2.HeapAlloc
	if derr != nil {
		return nil, fmt.Errorf("drain: %w", derr)
	}

	// ---- settle ----
	led1, err := fe.ledger()
	if err != nil {
		return nil, err
	}
	r.LiveProcs = db.Srv.Eng.Live()
	if tr != nil {
		r.Counters = diffCounters(before, snapCounters(db, fe, cc))
	}
	r.FP = make([]string, n)
	for i := range pl.Stmts {
		r.FP[i] = outcome(&pl.Stmts[i], r.Tabs[i], r.Stats[i], errs[i])
		if errs[i] != nil && !isDeadline(errs[i]) {
			r.Errs = append(r.Errs, fmt.Sprintf("statement %d (%s): %v", i, pl.Stmts[i].Class, errs[i]))
		}
	}
	if err := checkInserts(fe, pl); err != nil {
		r.Errs = append(r.Errs, err.Error())
	}
	r.Model = settle(w, pl, r, t0, led0, led1, float64(db.Srv.IdlePower()))
	if o.keepDB {
		r.db, r.fe, r.lineitem = db, fe, data.Tables["lineitem"]
	} else {
		r.Tabs = nil
	}
	return r, nil
}

// countRows runs SELECT COUNT(*) over a table through the front door
// and drains it. Binding the statement places the table if it is dirty,
// which is what set-up uses it for.
func countRows(fe frontend, tab string) (int64, error) {
	st, err := fe.prepare(0, 0, "SELECT COUNT(*) AS n FROM "+tab)
	if err != nil {
		return 0, err
	}
	p, err := st.query(0, 0, false)
	if err != nil {
		return 0, err
	}
	if err := fe.drain(); err != nil {
		return 0, err
	}
	rows, _, err := p.collect(nil, 0, -1)
	if err != nil {
		return 0, err
	}
	return rows.Column(0).I[0], nil
}

// checkInserts verifies, through the front door, that every generated
// INSERT took effect: the events table holds exactly the generated rows.
func checkInserts(fe frontend, pl *plan) error {
	want := int64(0)
	for i := range pl.Stmts {
		want += int64(pl.Stmts[i].InsertsN)
	}
	if want == 0 {
		return nil
	}
	got, err := countRows(fe, eventsTable)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s holds %d rows after the run, the generator inserted %d", eventsTable, got, want)
	}
	return nil
}

// outcome fingerprints one statement's result: what the golden file
// stores and what repetitions are compared on.
func outcome(s *stmt, tab *table.Table, st stats, err error) string {
	switch {
	case isDeadline(err):
		return "deadline"
	case err != nil:
		return "error"
	case s.Insert:
		return "insert"
	case s.Discard:
		return "rows=" + strconv.FormatInt(st.RowCount, 10)
	}
	return fingerprint(tab)
}

// fingerprint digests a result's rows with full float bits (%x of the
// IEEE bits, the yardstick bench.FingerprintTable uses). A result with
// no rows digests the same whether the door returned an empty table or
// no table at all.
func fingerprint(tab *table.Table) string {
	var b []byte
	if tab != nil {
		for i := 0; i < tab.Rows(); i++ {
			for c := range tab.Schema.Cols {
				v := tab.Column(c)
				switch {
				case v.I != nil:
					b = strconv.AppendInt(b, v.I[i], 10)
				case v.F != nil:
					b = strconv.AppendUint(b, math.Float64bits(v.F[i]), 16)
				default:
					b = append(b, v.S[i]...)
				}
				b = append(b, '|')
			}
			b = append(b, '\n')
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// settle computes the model-clock side of a repetition.
func settle(w *workload, pl *plan, r *rep, t0 float64, led0, led1 ledger, idleWatts float64) modelClock {
	var m modelClock
	n := float64(len(pl.Stmts))
	type slotKey struct{ conn, slot int }
	chainEnd := map[slotKey]float64{} // completion time of the slot's previous statement
	var lat []float64
	var bound, hit int
	for i := range pl.Stmts {
		s := &pl.Stmts[i]
		if s.Insert {
			continue
		}
		st := r.Stats[i]
		ms := st.Elapsed * 1000
		if w.OpenLoop {
			// Time the statement from when it was due: a session runs its
			// statements serially, so a statement whose predecessor on the
			// slot was still running was submitted late, and that wait is
			// the statement's too.
			due := t0 + s.At
			k := slotKey{s.Conn, s.Slot}
			submit := math.Max(due, chainEnd[k])
			done := submit + st.Elapsed
			chainEnd[k] = done
			m.MaxLateS = math.Max(m.MaxLateS, submit-due)
			ms = (done - due) * 1000
		}
		ok := r.FP[i] != "deadline" && r.FP[i] != "error"
		if ok {
			lat = append(lat, ms)
		}
		if s.Budget > 0 {
			bound++
			if ok && ms <= s.Budget*1000 {
				hit++
			}
		}
	}
	m.Samples = len(lat)
	m.StmtMsP50 = nearestRank(lat, 0.50)
	m.StmtMsP95 = nearestRank(lat, 0.95)
	m.MakespanS = led1.Now - t0
	meterJ := led1.MeterJ - led0.MeterJ
	m.JoulesPerStmt = meterJ / n
	m.MarginalJ = (meterJ - idleWatts*m.MakespanS) / n
	m.DeadlineHit = 1
	if bound > 0 {
		m.DeadlineHit = float64(hit) / float64(bound)
	}
	if meterJ > 0 {
		m.IdleShare = (led1.UnattributedJ - led0.UnattributedJ) / meterJ
	}
	m.GapJ = math.Abs(led1.MeterJ - led1.AttributedJ - led1.UnattributedJ)
	return m
}
