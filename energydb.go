// Package energydb is an energy-aware relational database engine running
// on simulated, power-metered hardware — a from-scratch reproduction of
// the system envisioned by Harizopoulos, Meza, Shah and Ranganathan in
// "Energy Efficiency: The New Holy Grail of Data Management Systems
// Research" (CIDR 2009).
//
// The engine is real (SQL front end, cost-based optimizer, vectorised
// executor, compression, admission control, WAL); the hardware is a
// deterministic discrete-event simulation with calibrated 2008-era device
// models, so every query returns joules alongside rows. Queries run
// through sessions: a Session is one client's serial statement stream,
// Prepare binds a statement once, and Query submits it to the engine's
// admission controller, which grants the query its degree of parallelism
// from the cores that are free at admission time and queues arrivals when
// the box is saturated. Results stream back through Rows:
//
//	db, _ := energydb.Open(energydb.Config{Server: energydb.SmallServer(4)})
//	db.Exec("CREATE TABLE t (a BIGINT, b DOUBLE)")
//	db.Exec("INSERT INTO t VALUES (1, 2.5), (2, 0.5)")
//
//	sess := db.Session()
//	stmt, _ := sess.Prepare("SELECT a FROM t WHERE b > 1")
//	rows, _ := stmt.Query()
//	for rows.Next() {
//		_ = rows.Batch() // vectorised batches, as the query produces them
//	}
//	rows.Close()
//
//	res, _ := stmt.Query() // prepared statements re-execute cheaply
//	r, _ := res.Collect()  // or materialise everything at once
//	fmt.Println(r.Elapsed, r.Joules, r.Attributed, r.Granted)
//
// Because queries from concurrent sessions overlap on one metered server,
// each Result carries two energy numbers: Joules is the whole-server
// meter delta over the query's window (meaningful when it runs alone),
// and Attributed is the query's own share — the marginal energy its
// processes charged on the devices plus an idle-floor share proportional
// to its wall-clock overlap — which sums to the wall meter across all
// concurrent queries by construction.
//
// Every statement enters through one path — parsed once, bound, the
// tables it reads placed — and every statement that takes simulated time
// is billed to an account of its own. DB.Exec is that path for one
// statement, run to completion: a SELECT as a one-statement session with
// the engine drained, an INSERT as the commit DB.ExecAt schedules (a
// process of its own, the WAL append inside it) pumped only until it is
// durable, so work scheduled for later stays in the future; its Result
// carries the commit's Attributed joules. DB.Drain runs every submitted
// statement to completion for multi-stream drivers.
//
// The optimizer prices every plan in both seconds and joules; switch
// Config.Objective to MinEnergy to make it optimise the paper's way.
// README.md walks through the surfaces, internal/exec/CONTRACT.md holds
// the executor's and the statement lifecycle's rules, and the shapes of
// the paper's figures are asserted in internal/bench's tests.
package energydb

import (
	"energydb/internal/core"
	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/storage"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// Config selects the simulated hardware and engine policies.
type Config = core.Config

// DB is an open energy-aware database over one simulated server.
type DB = core.DB

// Result is a completed query with its energy account.
type Result = core.Result

// Session is one client's serial statement stream; concurrency comes
// from opening several sessions on one DB.
type Session = core.Session

// Stmt is a prepared SELECT, planned per admission grant.
type Stmt = core.Stmt

// Rows is a submitted statement's streaming result and, on completion,
// its attributed energy account.
type Rows = core.Rows

// Open builds the simulated machine and an empty database on it.
func Open(cfg Config) (*DB, error) { return core.Open(cfg) }

// Optimizer objectives.
const (
	// MinTime optimises for speed, the classical objective.
	MinTime = opt.MinTime
	// MinEnergy optimises for joules, the paper's proposal.
	MinEnergy = opt.MinEnergy
	// MinEDP optimises the energy-delay product.
	MinEDP = opt.MinEDP
)

// Volume layouts.
const (
	// Striped is RAID-0.
	Striped = storage.Striped
	// RAID5 uses rotating parity with the classic write penalty.
	RAID5 = storage.RAID5
)

// Server specs from the device catalog.
var (
	// DL785 is the paper's Figure 1 machine (8x quad-core Opteron, 64 GB,
	// N 15K-RPM SCSI disks).
	DL785 = hw.DL785
	// ScanRig is the paper's Figure 2 machine (one 90 W CPU, three flash
	// SSDs totalling 5 W).
	ScanRig = hw.ScanRig
	// SmallServer is a modest 8-core box for examples and tests.
	SmallServer = hw.SmallServer
)

// Schema and column constructors for LoadTable users.
type (
	// Schema describes a relation.
	Schema = table.Schema
	// Table is an in-memory relation.
	Table = table.Table
	// Value is one typed datum.
	Value = table.Value
)

// NewSchema builds a schema from columns.
var NewSchema = table.NewSchema

// NewTable builds an empty in-memory table.
var NewTable = table.NewTable

// Column constructors.
var (
	Col  = table.Col
	ColW = table.ColW
)

// Value constructors.
var (
	IntVal     = table.IntVal
	FloatVal   = table.FloatVal
	StrVal     = table.StrVal
	DateVal    = table.DateVal
	DecimalVal = table.DecimalVal
)

// Column types.
const (
	Int64   = table.Int64
	Float64 = table.Float64
	String  = table.String
	Date    = table.Date
	Decimal = table.Decimal
)

// GenerateTPCH builds the deterministic TPC-H-like dataset at a scale
// factor; load its tables with DB.LoadTable.
func GenerateTPCH(sf float64, seed int64) map[string]*Table {
	return tpch.Generate(sf, seed).Tables
}

// TPCHQueries returns the named simplified TPC-H queries ("q1", "q3",
// "q5", "q6", "scan") in the engine's SQL dialect.
func TPCHQueries() map[string]string { return tpch.Queries() }
