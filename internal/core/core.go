// Package core assembles the paper's system: an energy-aware database
// engine running on simulated, power-metered hardware. It wires the
// device models, storage volumes, WAL, admission control, SQL front end
// and the dual-objective optimizer into a single DB handle whose every
// query returns an energy report alongside its rows.
package core

import (
	"fmt"
	"sort"

	"energydb/internal/compress"
	"energydb/internal/energy"
	"energydb/internal/exec"
	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/sched"
	"energydb/internal/sim"
	"energydb/internal/sql"
	"energydb/internal/storage"
	"energydb/internal/table"
	"energydb/internal/tpch"
	"energydb/internal/wal"
)

// Simulated-time constants no configuration varies.
const (
	// walTimeout bounds commit latency when a group-commit batch
	// (WALBatch > 1) fills slowly.
	walTimeout = 0.005
	// retryBackoff is the delay before a statement's first retry after a
	// transient device fault; it doubles per attempt.
	retryBackoff = 0.002
)

// Config selects the simulated hardware and engine policies.
type Config struct {
	// Server is the machine to simulate; see hw.DL785, hw.ScanRig,
	// hw.SmallServer.
	Server hw.ServerSpec

	// PageBytes is the volume page size (default 64 KiB).
	PageBytes int64
	// VolumeLayout is RAID-0 or RAID-5 across the server's data devices
	// (default striped; the paper's Figure 1 system used RAID-5).
	VolumeLayout storage.Layout
	// BlockRows is the placement block size in rows (default 8192).
	BlockRows int

	// Objective is what the optimizer minimises (default MinTime — the
	// classical DBMS; switch to MinEnergy for the paper's proposal).
	Objective opt.Objective

	// EnergyMode selects how the energy objectives price joules:
	// opt.MarginalEnergy (default, busy-minus-idle only) or
	// opt.IdleFloorAware (plus IdleWatts × Seconds, so MinEnergy agrees
	// with the wall meter).
	EnergyMode opt.EnergyMode

	// SchedPolicy selects the admission policy: "fifo" (default,
	// arrival order with fair-share grants), "edf" (earliest deadline
	// first), or "energy" (EDF for deadline work, consolidated wide
	// grants for background work).
	SchedPolicy string

	// HoldCores is the energy policy's DVFS headroom: cores held back
	// from background grants so arriving deadline work finds a free core.
	// Only meaningful with SchedPolicy "energy".
	HoldCores int

	// DVFS exposes the CPU's P-states to the planner (the optimizer
	// prices wide-and-slow at a low P-state against narrow-and-fast at
	// P0) and actuates the chosen operating point while the query runs:
	// a per-query vote governor keeps the CPU at the fastest P-state any
	// running query planned for.
	DVFS bool

	// WALBatch enables a group-commit log on the last device with the
	// given batching factor (0 disables the WAL).
	WALBatch int

	// RetryMax is how many times a query is re-executed after a
	// transient device fault (fault.ErrTransientIO) before the error is
	// surfaced; 0 disables retry. Retries back off in simulated time,
	// retryBackoff doubled per attempt.
	RetryMax int

	// Variants restricts which physical placements are built and offered
	// to the optimizer (subset of "col/default", "col/raw", "row/raw");
	// empty means all three. Experiments use it to pin the physical
	// design, e.g. to mimic the lightly-compressed commercial system of
	// the paper's Figure 1.
	Variants []string

	// HostIOBandwidth caps the aggregate device-to-host transfer rate
	// (bytes/s), modelling the shared SAS/PCIe path; 0 disables the cap.
	HostIOBandwidth float64

	// IORunPages caps pages per coalesced device request (0 = adaptive).
	IORunPages int
}

// DB is an open energy-aware database over one simulated server.
type DB struct {
	Srv *hw.Server
	Vol *storage.Volume
	Log *wal.Log

	// Pool stands in for a page cache the engine does not have: every
	// scan streams from the volume, so its counters are always 0. It
	// stays only because the eeperf harness still reports them as
	// buffer.*; it goes when those metrics do.
	Pool Pool

	Catalog   *opt.Catalog
	Env       *opt.Env
	Objective opt.Objective

	// Adm is the engine-resident admission controller: queries submitted
	// through sessions are granted their degree of parallelism from the
	// cores free at admission time, and queue when the box is saturated.
	Adm *sched.Admission
	// Attr splits the whole-server meter among concurrent queries.
	Attr *energy.Attributor

	cfg         Config
	schemas     map[string]*table.Schema
	mem         map[string]*table.Table // in-memory (unplaced or dirty) tables
	dirty       map[string]bool
	epochs      map[string]int64    // placement epoch per table, bumped by place()
	durableRows map[string]int64    // rows covered by the last placement (the checkpoint)
	inflight    map[int64]*Rows     // submitted-or-pending statements not yet finished
	commits     map[int64]*Deferred // scheduled inserts not yet settled
	pvotes      map[int64]int       // per-query P-state votes (DVFS governor)
	fileSeq     int32
	queries     int64
	crashes     int64
	batches     exec.Memory // the batch memory the engine's statements share
	nextSess    int64
	nextQuery   int64
	nextCommit  int64
}

// PoolStats are the page-cache counters DB.Pool reports.
type PoolStats struct{ Hits, Misses, Evictions int64 }

// Pool is the type of DB.Pool, whose Stats are always zero.
type Pool struct{}

// Stats returns zero counters: no page is ever cached.
func (Pool) Stats() PoolStats { return PoolStats{} }

// Open builds the simulated machine and an empty database on it.
func Open(cfg Config) (*DB, error) {
	if cfg.PageBytes == 0 {
		cfg.PageBytes = 64 << 10
	}
	if cfg.BlockRows == 0 {
		cfg.BlockRows = 8192
	}
	srv := hw.NewServer(cfg.Server)

	if len(srv.Disks) == 0 {
		return nil, fmt.Errorf("core: server %q has no storage devices", cfg.Server.Name)
	}
	devs := make([]storage.BlockDevice, len(srv.Disks))
	for i, d := range srv.Disks {
		devs[i] = d
	}
	var logDev storage.BlockDevice
	if cfg.WALBatch > 0 {
		logDev = devs[len(devs)-1]
		if len(devs) > 1 {
			devs = devs[:len(devs)-1] // dedicate the last device to the log
		}
	}
	vol := storage.NewVolume("data", cfg.VolumeLayout, cfg.PageBytes, devs)
	if cfg.HostIOBandwidth > 0 {
		vol.SetHostLink(srv.Eng, cfg.HostIOBandwidth)
	}
	vol.MaxRunPages = cfg.IORunPages

	var schedPol sched.Policy
	switch cfg.SchedPolicy {
	case "", "fifo":
		schedPol = sched.FIFO{}
	case "edf":
		schedPol = sched.EDF{}
	case "energy":
		schedPol = sched.EnergyAware{HoldFree: cfg.HoldCores}
	default:
		return nil, fmt.Errorf("core: unknown sched policy %q", cfg.SchedPolicy)
	}
	adm := sched.NewAdmission(srv.Eng, srv.CPU.Cores(), schedPol)

	db := &DB{
		Srv: srv, Vol: vol,
		Catalog:     opt.NewCatalog(),
		Objective:   cfg.Objective,
		Adm:         adm,
		Attr:        energy.NewAttributor(srv.Meter),
		cfg:         cfg,
		schemas:     map[string]*table.Schema{},
		mem:         map[string]*table.Table{},
		dirty:       map[string]bool{},
		epochs:      map[string]int64{},
		durableRows: map[string]int64{},
		inflight:    map[int64]*Rows{},
		commits:     map[int64]*Deferred{},
		pvotes:      map[int64]int{},
	}
	if cfg.WALBatch > 0 {
		timeout := 0.0
		if cfg.WALBatch > 1 {
			timeout = walTimeout
		}
		db.Log = wal.NewLog(srv.Eng, logDev, cfg.WALBatch, timeout)
	}
	db.Env = db.buildEnv()
	return db, nil
}

// buildEnv derives the optimizer's cost-model environment from the
// simulated hardware — the "simple models" of §4.1.
func (db *DB) buildEnv() *opt.Env {
	spec := db.cfg.Server
	env := &opt.Env{
		CPUFreqHz:      spec.CPU.FreqHz,
		Cores:          spec.CPU.Cores,
		PageBytes:      db.cfg.PageBytes,
		CPUWattPerCore: float64(spec.CPU.ActivePerCore),
		Costs:          exec.DefaultCosts(),
	}
	d, n := spec.Disk, float64(db.Vol.Devices())
	stripe := 1.0 // flash loses nothing between stripe units
	if d.AvgSeek+d.RotLatency > 0 {
		stripe = 0.85 // a disk repositions between them
	}
	env.ScanBW = d.SeqReadBW * n * stripe
	env.PageLatency = d.Latency + (d.AvgSeek+d.RotLatency)/16 // positioning amortised across a run
	env.StorageWatt = float64(d.ActiveWatts-d.IdleWatts) * n
	if env.StorageWatt <= 0 { // flash whose busy and idle draw are one figure
		env.StorageWatt = float64(d.ActiveWatts) * n
	}
	if spec.DRAM.Ranks > 0 {
		env.DRAMWattPerByte = spec.DRAM.HoldingPower()
	} else {
		env.DRAMWattPerByte = 1.3e-9
	}
	env.EnergyMode = db.cfg.EnergyMode
	env.IdleWatts = float64(db.Srv.IdlePower())
	if db.cfg.DVFS {
		for _, ps := range db.Srv.CPU.Spec().PStates {
			env.PStates = append(env.PStates, opt.PStatePoint{
				Name: ps.Name, FreqScale: ps.FreqScale, PowerScale: ps.PowerScale})
		}
	}
	return env
}

// SchedStats returns a copy of the admission controller's counters
// (mean wait, expirations, peak queue depth, ...), so benches
// and harnesses need not reach into scheduler internals.
func (db *DB) SchedStats() sched.Stats { return db.Adm.Stats() }

// votePState records a running query's planned CPU operating point and
// applies the governor: the CPU runs at the *fastest* (lowest-index)
// P-state any running query planned for, so a deadline query at P0 is
// never slowed by a background query's wide-and-slow plan — the
// background query just finishes a little earlier than priced.
func (db *DB) votePState(qid int64, ps int) {
	db.pvotes[qid] = ps
	db.applyPState()
}

// dropPState removes a finished query's vote; with no votes the CPU
// returns to P0.
func (db *DB) dropPState(qid int64) {
	delete(db.pvotes, qid)
	db.applyPState()
}

func (db *DB) applyPState() {
	best := 0
	first := true
	for _, ps := range db.pvotes {
		if first || ps < best {
			best, first = ps, false
		}
	}
	db.Srv.CPU.SetPState(best)
}

// CreateTable registers an empty in-memory table.
func (db *DB) CreateTable(s *table.Schema) error {
	if _, dup := db.schemas[s.Name]; dup {
		return fmt.Errorf("core: table %q already exists", s.Name)
	}
	db.schemas[s.Name] = s
	db.mem[s.Name] = table.NewTable(s)
	db.dirty[s.Name] = true
	return nil
}

// LoadTable registers a populated in-memory table (e.g. from the TPC-H
// generator) for placement on first use.
func (db *DB) LoadTable(t *table.Table) error {
	if _, dup := db.schemas[t.Schema.Name]; dup {
		return fmt.Errorf("core: table %q already exists", t.Schema.Name)
	}
	db.schemas[t.Schema.Name] = t.Schema
	db.mem[t.Schema.Name] = t
	db.dirty[t.Schema.Name] = true
	return nil
}

// place (re)places a table's variants on the data volume.
func (db *DB) place(name string) error {
	t := db.mem[name]
	if t == nil {
		return fmt.Errorf("core: unknown table %q", name)
	}
	db.fileSeq += 3
	variants := make([]opt.Variant, 0, 3)
	want := func(name string) bool {
		if len(db.cfg.Variants) == 0 {
			return true
		}
		for _, v := range db.cfg.Variants {
			if v == name {
				return true
			}
		}
		return false
	}
	if t.Rows() > 0 {
		if want("col/default") {
			colDef, err := exec.PlaceColumnMajor(t, db.Vol, db.fileSeq, db.cfg.BlockRows, tpch.DefaultCodecs(t.Schema))
			if err != nil {
				return err
			}
			variants = append(variants, opt.Variant{Name: "col/default", ST: colDef})
		}
		if want("col/raw") {
			colRaw, err := exec.PlaceColumnMajor(t, db.Vol, db.fileSeq+1, db.cfg.BlockRows, tpch.RawCodecs(t.Schema))
			if err != nil {
				return err
			}
			variants = append(variants, opt.Variant{Name: "col/raw", ST: colRaw})
		}
		if want("row/raw") {
			rowRaw, err := exec.PlaceRowMajor(t, db.Vol, db.fileSeq+2, db.cfg.BlockRows, compress.Raw)
			if err != nil {
				return err
			}
			variants = append(variants, opt.Variant{Name: "row/raw", ST: rowRaw})
		}
		if len(variants) == 0 {
			return fmt.Errorf("core: config.Variants selects no placements")
		}
	} else {
		// Empty tables still need a (degenerate) placement for scans.
		empty, err := exec.PlaceColumnMajor(t, db.Vol, db.fileSeq, db.cfg.BlockRows, tpch.RawCodecs(t.Schema))
		if err != nil {
			return err
		}
		variants = append(variants, opt.Variant{Name: "col/raw", ST: empty})
	}
	db.Catalog.Add(name, &opt.Placement{Variants: variants, Stats: opt.Analyze(t)})
	db.dirty[name] = false
	db.epochs[name]++ // invalidates plans cached against the old placement
	// Placement doubles as the table's checkpoint: every placed row is on
	// the (crash-surviving) data volume, so recovery keeps this prefix
	// and replays only WAL records past it.
	db.durableRows[name] = int64(t.Rows())
	return nil
}

// Result is a completed query with its energy account.
type Result struct {
	Rows    *table.Table
	Plan    *opt.Plan
	Elapsed energy.Seconds // submission to completion (includes Wait)
	Joules  energy.Joules  // whole-server energy during the query's window

	// Attributed is this query's share of the server's energy: the
	// marginal joules its own processes were charged plus an idle-floor
	// share proportional to its wall-clock overlap. Across concurrent
	// sessions the attributed joules sum to the whole-server meter —
	// which the whole-window Joules above cannot do once queries overlap.
	Attributed energy.Joules
	Marginal   energy.Joules // energy charged directly by this query's processes
	Shared     energy.Joules // idle-floor (residual) share

	Wait     energy.Seconds // admission queueing delay
	Granted  int            // cores granted at admission (caps pipeline DOP)
	RowCount int64          // rows produced (survives Rows.Discard)
}

// bill copies a settled energy account into the result.
func (r *Result) bill(acct *energy.Account) {
	r.Attributed = acct.Attributed()
	r.Marginal = acct.Direct()
	r.Shared = acct.Shared()
}

// Efficiency reports rows per joule — the paper's work/energy metric.
func (r *Result) Efficiency() energy.Efficiency {
	if r.Rows == nil {
		return 0
	}
	return energy.EfficiencyOf(float64(r.Rows.Rows()), r.Joules)
}

// prepared is a statement that has come through the front door; exactly
// one of query, create and rows is set.
type prepared struct {
	query   *opt.Query    // SELECT: bound, every table it reads placed
	explain bool          // the SELECT carried an EXPLAIN prefix
	create  *table.Schema // CREATE
	rows    *table.Batch  // INSERT: bound to the schema of the table it names
}

// prepare is the one way SQL text enters the engine: parse, refuse what
// the caller does not take (sessions take reads, ExecAt takes writes, Exec
// takes both), then bind a SELECT and place the tables it reads, or bind
// an INSERT against its table. A statement the entry point does
// not take is refused as sql.ErrSyntax: its grammar is the entry point's.
// Nothing is scheduled and no simulated time passes.
func (db *DB) prepare(text string, reads, writes bool) (p prepared, err error) {
	st, err := sql.Parse(text)
	if err != nil {
		return p, err
	}
	switch {
	case st.Select != nil && !reads:
		return p, fmt.Errorf("core: %w: this entry point takes CREATE or INSERT; a SELECT goes through a session (PREPARE/EXECUTE)", sql.ErrSyntax)
	case st.Select == nil && !writes:
		return p, fmt.Errorf("core: %w: only SELECT can be prepared or explained", sql.ErrSyntax)
	case st.Create != nil:
		p.create = table.NewSchema(st.Create.Name, st.Create.Cols...)
	case st.Insert != nil:
		p.rows, err = sql.BindInsert(st.Insert, db.Schema)
	default:
		p.explain = st.Explain
		if p.query, err = sql.Bind(st.Select, db.Schema); err == nil {
			err = db.placeDirty(p.query)
		}
	}
	return p, err
}

// placeDirty places (or re-places) every table q reads whose contents
// changed since its last placement.
func (db *DB) placeDirty(q *opt.Query) error {
	for _, a := range q.Tables {
		if rel := q.Rels[a]; db.dirty[rel] {
			if err := db.place(rel); err != nil {
				return err
			}
		}
	}
	return nil
}

// Exec runs one SQL statement to completion on the simulated machine,
// advancing its clock and meter. It is the one-statement convenience over
// the paths drivers use directly: a SELECT runs as a one-statement session
// — submitted to the admission controller (which, on an otherwise idle
// box, grants it every core) and pumped until its rows are collected; an
// INSERT is the commit ExecAt schedules, pumped until it is durable and
// applied. Either way work scheduled for later stays in the future, and
// the statement comes back with its own energy account in the Result;
// CREATE is catalog-only and EXPLAIN only plans. Multi-stream drivers use
// DB.Session and ExecAt; the network front door (internal/server) exposes
// both over the wire.
func (db *DB) Exec(query string) (*Result, error) {
	p, err := db.prepare(query, true, true)
	if err != nil {
		return nil, err
	}
	switch {
	case p.create != nil:
		return &Result{}, db.CreateTable(p.create)
	case p.rows != nil:
		d := db.insertAt(0, p.rows)
		if err := d.Err(); err != nil {
			return nil, err
		}
		begun, ended := d.acct.Window()
		res := &Result{Elapsed: ended - begun}
		res.bill(d.acct)
		return res, nil
	case p.explain:
		plan, err := db.explain(p.query)
		if err != nil {
			return nil, err
		}
		return &Result{Plan: plan}, nil
	}
	sess := db.Session()
	defer sess.Close()
	rows, err := newStmt(sess, query, p.query).Query()
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Plan compiles a SELECT (with or without a leading EXPLAIN) without
// executing it.
func (db *DB) Plan(query string) (*opt.Plan, error) {
	p, err := db.prepare(query, true, false)
	if err != nil {
		return nil, err
	}
	return db.explain(p.query)
}

// explain is EXPLAIN: the plan the optimizer picks for a bound SELECT
// with the whole machine to itself (planFor prices against the admission
// grant; this is the unloaded choice).
func (db *DB) explain(q *opt.Query) (*opt.Plan, error) {
	return opt.Optimize(q, db.Catalog, db.Env, db.Objective)
}

// NewCtx builds an execution context wired to this DB's hardware; the
// benchmark drivers use it to run plans inside their own processes.
func (db *DB) NewCtx(p *sim.Proc) *exec.Ctx {
	ctx := exec.NewCtx(p, db.Srv.CPU)
	ctx.Temp = db.Vol
	ctx.Mem = &db.batches
	return ctx
}

// Queries reports how many SELECTs have completed (via Exec or sessions).
func (db *DB) Queries() int64 { return db.queries }

// Crashes reports how many times the engine has crashed and recovered.
func (db *DB) Crashes() int64 { return db.crashes }

// Schema returns a registered table's schema.
func (db *DB) Schema(name string) (*table.Schema, bool) {
	s, ok := db.schemas[name]
	return s, ok
}

// Tables lists registered table names, sorted, so EXPLAIN output,
// examples and golden tests are deterministic.
func (db *DB) Tables() []string {
	out := make([]string, 0, len(db.schemas))
	for n := range db.schemas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
