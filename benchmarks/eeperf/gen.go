package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"energydb/internal/opt"
	"energydb/internal/tpch"
)

// This file owns the workload generators. A generator turns a seed into
// a statement list — text, simulated arrival offset, latency budget,
// connection and session slot — and nothing else; the engine under test
// only ever sees that list. The same seed yields a byte-identical list
// (TestGeneratorsDeterministic), a different seed a different one.

// stmt is one generated statement.
type stmt struct {
	Conn     int     // connection (wire) or session group (embedded)
	Slot     int     // session slot within the connection
	Class    string  // statement class, for per-class reporting
	Text     string  // SQL
	At       float64 // arrival offset from the start of the measured phase, simulated seconds
	Budget   float64 // latency budget in simulated seconds; 0 = no deadline
	Insert   bool    // INSERT (scheduled through ExecAt), else SELECT
	Discard  bool    // drop result rows server-side, keep the count
	InsertsN int     // rows this INSERT adds
}

// workload is one benchmark workload: how the DB is configured, which
// front door the statements go through, and how the list is generated.
type workload struct {
	Name string
	Why  string // one line, mirrored in BENCHMARK.json

	SF        float64
	Disks     int
	WALBatch  int
	DVFS      bool
	Objective opt.Objective
	Wire      bool // client -> wire -> server over Server.Pipe(); else embedded sessions
	Conns     int  // connections (each its own tenant over the wire)
	Slots     int  // sessions per connection
	OpenLoop  bool // arrivals are time stamps; else every session submits serially

	// PrepareEach prepares every statement in the measured phase (the
	// server's shared plan cache absorbs repeats); otherwise statements
	// whose text is in hot reuse the handle prepared during set-up.
	PrepareEach bool

	gen func(seed int64) *plan
}

// plan is a generated statement list with its set-up statements.
type plan struct {
	DDL   []ddl    // run once after load, before placement
	Hot   []string // texts prepared during set-up on every connection
	Stmts []stmt
}

// ddl is one set-up statement and the table it creates.
type ddl struct{ Table, SQL string }

// dump renders the plan for byte-level comparison and digests.
func (p *plan) dump() string {
	var b strings.Builder
	for _, d := range p.DDL {
		fmt.Fprintf(&b, "ddl %s\n", d.SQL)
	}
	for _, s := range p.Hot {
		fmt.Fprintf(&b, "hot %s\n", s)
	}
	for i, s := range p.Stmts {
		fmt.Fprintf(&b, "%d c%d s%d %s at=%x budget=%x ins=%v/%d discard=%v %s\n",
			i, s.Conn, s.Slot, s.Class, math.Float64bits(s.At), math.Float64bits(s.Budget),
			s.Insert, s.InsertsN, s.Discard, s.Text)
	}
	return b.String()
}

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them.
var workloads = []*workload{
	{
		Name: "paper_streams",
		Why:  "8 closed-loop TPC-H streams share 8 cores: one-core grants, serial exec kernels, row decode, storage and the sim hand-off do the work; sql/opt/wire do none",
		SF:   0.01, Disks: 4, Objective: opt.MinTime,
		Conns: paperStreams, Slots: 1,
		gen: genPaperStreams,
	},
	{
		Name: "analytic_lone",
		Why:  "one ad-hoc analytic statement in flight owns the box: optimizer DOP x P-state sweep, exchanges, SharedBuild and probe fragments per statement",
		SF:   0.01, Disks: 4, DVFS: true, Objective: opt.MinTime,
		Conns: 1, Slots: 1,
		gen: genAnalyticLone,
	},
	{
		Name: "wire_short",
		Why:  "open-loop short SELECTs over the wire, 80% hot / 20% never-seen texts: per-statement overhead (parse, bind, plan cache, admission, process start, frames), not scan work",
		SF:   0.005, Disks: 4,
		Wire: true, Conns: 2, Slots: openSlots, OpenLoop: true, PrepareEach: true,
		gen: genWireShort,
	},
	{
		Name: "tenant_mix",
		Why:  "4-tenant sinusoid over the wire, one data disk, WAL inserts, 200 ms deadlines at risk: device queueing, wal, dirty re-placement, energy attribution",
		SF:   0.005, Disks: 2, WALBatch: 1,
		Wire: true, Conns: mixTenants, Slots: openSlots, OpenLoop: true, PrepareEach: true,
		gen: genTenantMix,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// stmtRNG derives the statement generator's stream from the run seed;
// the data generator takes the seed itself.
func stmtRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

// --- paper_streams ---

const (
	paperStreams = 8
	paperRounds  = 5
	openSlots    = 8 // sessions per open-loop connection, so arrivals never chain
)

// genPaperStreams is the paper's Figure-1 traffic: every stream submits
// rounds of the TPC-H throughput mix serially, each stream starting one
// query further into the mix so the streams never run it in lockstep.
// The seed picks the data and the order of the mix.
func genPaperStreams(seed int64) *plan {
	mix := tpch.ThroughputMix()
	rng := stmtRNG(seed, 0)
	p := &plan{Hot: distinct(mix)}
	for s := 0; s < paperStreams; s++ {
		for r := 0; r < paperRounds; r++ {
			for _, qi := range rng.Perm(len(mix)) {
				p.Stmts = append(p.Stmts, stmt{Conn: s, Class: "tpch", Discard: true, Text: mix[qi]})
			}
		}
	}
	return p
}

func distinct(texts []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range texts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// --- analytic_lone ---

const analyticStmts = 204

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// genAnalyticLone is an analyst's session: one statement at a time, each
// a TPC-H shape with its own constants, so every text is new to the
// engine and is parsed, bound and planned inside the measured phase.
func genAnalyticLone(seed int64) *plan {
	rng := stmtRNG(seed, 0)
	shapes := []string{"q1", "q3", "q5", "q6", "q3", "q1"}
	p := &plan{}
	for i := 0; i < analyticStmts; i++ {
		shape := shapes[i%len(shapes)]
		p.Stmts = append(p.Stmts, stmt{Class: shape, Text: analyticText(shape, rng)})
	}
	return p
}

// analyticText instantiates one TPC-H shape with drawn constants.
func analyticText(shape string, rng *rand.Rand) string {
	switch shape {
	case "q1":
		return fmt.Sprintf(`SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       AVG(l_quantity) AS avg_qty,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-%02d-%02d'
GROUP BY l_returnflag, l_linestatus
ORDER BY 1, 2`, 6+rng.Intn(3), 1+rng.Intn(28))
	case "q3":
		return fmt.Sprintf(`SELECT o.o_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue, o.o_orderdate
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE c.c_mktsegment = '%s' AND o.o_orderdate < DATE '1995-03-%02d'
GROUP BY o.o_orderkey, o.o_orderdate
ORDER BY revenue DESC
LIMIT 10`, segments[rng.Intn(len(segments))], 1+rng.Intn(28))
	case "q5":
		y, m, d := 1993+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28)
		return fmt.Sprintf(`SELECT n.n_name, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM supplier s
JOIN lineitem l ON s.s_suppkey = l.l_suppkey
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
WHERE o.o_orderdate >= DATE '%d-%02d-%02d' AND o.o_orderdate < DATE '%d-%02d-%02d'
GROUP BY n.n_name
ORDER BY revenue DESC`, y, m, d, y+1, m, d)
	default: // q6
		y, m, day := 1993+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28)
		d := 2 + rng.Intn(7)
		return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '%d-%02d-%02d' AND l_shipdate < DATE '%d-%02d-%02d'
  AND l_discount BETWEEN 0.%02d AND 0.%02d
  AND l_quantity < %d`, y, m, day, y+1, m, day, d-1, d+1, 24+rng.Intn(2))
	}
}

// --- the open-loop workloads ---

// profileSeed generates the arrival profile of an open-loop workload:
// when statements are due, on which connection, of which class. The
// profile is part of the workload's definition, like its rate; the run
// seed then moves every due time by up to arrivalJitter either way and
// draws every constant. Re-drawing the whole profile per seed was tried
// first: on tenant_mix it moved sim_stmt_ms_p95 by 10-19% (inter-quartile
// range over median, 30 seeds) because one data disk serving interleaved
// scans amplifies any reordering, which no bound could separate from a
// regression. A jitter of 10 ms moved it by 2.9%, 1 ms by 1.5%.
const (
	profileSeed   = 2009
	arrivalJitter = 0.005 // simulated seconds
)

// window draws n arrival offsets, sorted, uniformly inside the simulated
// second starting at lo: Poisson arrivals conditioned on their count.
func window(rng *rand.Rand, lo float64, n int) []float64 {
	at := make([]float64, n)
	for i := range at {
		at[i] = lo + rng.Float64()
	}
	sort.Float64s(at)
	return at
}

func jitter(rng *rand.Rand, at float64) float64 {
	return math.Max(0, at+(2*rng.Float64()-1)*arrivalJitter)
}

// finish orders the statements by due time and deals every SELECT a
// session slot round-robin per connection, so that a session's serial
// order never holds an arrival back.
func finish(p *plan, conns int) *plan {
	sort.SliceStable(p.Stmts, func(i, j int) bool { return p.Stmts[i].At < p.Stmts[j].At })
	slot := make([]int, conns)
	for i := range p.Stmts {
		if s := &p.Stmts[i]; !s.Insert {
			s.Slot = slot[s.Conn] % openSlots
			slot[s.Conn]++
		}
	}
	return p
}

// --- wire_short ---

const (
	wireWindows = 50  // simulated seconds
	wireRate    = 100 // statements per simulated second, exactly, in every window
	wireHot     = 40  // hot texts; each arrives twice per window
)

// shortText is one short statement over customer / orders / nation.
// uniq >= 0 adds an always-true predicate with a constant no other
// statement carries, which is what makes a cold text cold.
func shortText(kind int, key int, uniq int) string {
	switch kind {
	case 0: // point filter
		q := fmt.Sprintf("SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = %d", key)
		if uniq >= 0 {
			q += fmt.Sprintf(" AND c_acctbal < 100000.%05d", uniq)
		}
		return q
	case 1: // small aggregate
		q := fmt.Sprintf("SELECT COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders WHERE o_custkey = %d", key)
		if uniq >= 0 {
			q += fmt.Sprintf(" AND o_totalprice > 0.%05d", uniq)
		}
		return q
	default: // lookup
		q := fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", key%25)
		if uniq >= 0 {
			q += fmt.Sprintf(" AND n_regionkey < %d", 5+uniq)
		}
		return q
	}
}

// genWireShort is an open-loop stream of short statements from two
// tenants, 100 in every simulated second at uniformly drawn instants:
// four in five are drawn from a fixed hot set the server's plan cache
// has seen, one in five has never been seen before. The mix of every
// second is exact. The seed draws the hot keys, the cold keys and
// constants, and the jitter.
func genWireShort(seed int64) *plan {
	profile, rng := stmtRNG(profileSeed, 0), stmtRNG(seed, 0)
	nCust := int(150000 * 0.005)
	p := &plan{}
	for i := 0; i < wireHot; i++ {
		kind := i % 5 % 3 // 16 point, 16 aggregate, 8 lookup
		p.Hot = append(p.Hot, shortText(kind, 1+(i*nCust/wireHot+rng.Intn(nCust/wireHot)), -1))
	}
	for w := 0; w < wireWindows; w++ {
		deck := profile.Perm(wireRate) // card < 2*wireHot: hot text card/2; else cold
		for i, at := range window(profile, float64(w), wireRate) {
			card := deck[i]
			s := stmt{Conn: card % 2, At: jitter(rng, at)}
			if card < 2*wireHot {
				s.Class, s.Text = "hot", p.Hot[card/2]
			} else {
				s.Class, s.Text = "cold", shortText(card%3, 1+rng.Intn(nCust), len(p.Stmts))
			}
			p.Stmts = append(p.Stmts, s)
		}
	}
	return finish(p, 2)
}

// --- tenant_mix ---

const (
	mixTenants   = 4
	mixPeriod    = 40.0 // simulated seconds per sinusoid period
	mixAmplitude = 0.9
	mixRate      = 14.0 // aggregate mean arrivals per simulated second
	mixHorizon   = 65   // simulated seconds
	mixDeadline  = 0.200
	eventsTable  = "events"
	mixReport    = "SELECT day, COUNT(*) AS n, SUM(v) AS sv FROM " + eventsTable + " GROUP BY day ORDER BY day"
)

// mixDeck is the class mix, dealt without replacement and reshuffled
// when it runs out: 50% interactive, 30% insert, 18% analytic, 2% report.
var mixDeck = func() []string {
	var d []string
	for _, c := range []struct {
		class string
		n     int
	}{{"interactive", 25}, {"insert", 15}, {"analytic", 9}, {"report", 1}} {
		for i := 0; i < c.n; i++ {
			d = append(d, c.class)
		}
	}
	return d
}()

func mixInteractive(q int) string {
	return fmt.Sprintf(`SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s
FROM lineitem WHERE l_quantity < %d AND l_discount > 0.01`, q)
}

// genTenantMix is eesim's saturated profile compressed into about a
// simulated minute: each tenant's arrival rate follows a sinusoid with
// its own phase. Every simulated second receives the number of arrivals
// the tenant's rate curve integrates to (the fractional remainder
// carries over) at uniformly drawn instants, and classes are dealt from
// a fixed deck. The seed draws the scan thresholds, the inserted values
// and the jitter.
func genTenantMix(seed int64) *plan {
	p := &plan{DDL: []ddl{{eventsTable, "CREATE TABLE " + eventsTable + " (tenant BIGINT, day BIGINT, v DOUBLE)"}}}
	for q := 20; q < 45; q++ {
		p.Hot = append(p.Hot, mixInteractive(q))
	}
	p.Hot = append(p.Hot, tpch.Q3, mixReport)

	for t := 0; t < mixTenants; t++ {
		profile, rng := stmtRNG(profileSeed, t), stmtRNG(seed, t)
		phase := float64(t) / mixTenants
		base := mixRate / mixTenants
		// cum is the integral of the tenant's rate from 0 to x.
		cum := func(x float64) float64 {
			k := 2 * math.Pi / mixPeriod
			return base * (x - mixAmplitude/k*(math.Cos(k*x-2*math.Pi*phase)-math.Cos(2*math.Pi*phase)))
		}
		var deck []string
		carry := 0.0
		for w := 0; w < mixHorizon; w++ {
			carry += cum(float64(w+1)) - cum(float64(w))
			n := int(carry)
			carry -= float64(n)
			for _, at := range window(profile, float64(w), n) {
				if len(deck) == 0 {
					deck = append(deck, mixDeck...)
					profile.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				}
				s := stmt{Conn: t, At: jitter(rng, at), Class: deck[0]}
				deck = deck[1:]
				switch s.Class {
				case "interactive":
					s.Budget, s.Text = mixDeadline, mixInteractive(20+rng.Intn(25))
				case "insert":
					s.Insert, s.InsertsN = true, 1+profile.Intn(4)
					vals := make([]string, s.InsertsN)
					for i := range vals {
						vals[i] = fmt.Sprintf("(%d, %d, %.6f)", t, int(at/mixPeriod), rng.Float64()*100)
					}
					s.Text = "INSERT INTO " + eventsTable + " VALUES " + strings.Join(vals, ", ")
				case "analytic":
					s.Text = tpch.Q3
				default:
					s.Text = mixReport
				}
				p.Stmts = append(p.Stmts, s)
			}
		}
		// The per-period report, at the tenant's own period boundary.
		for at := (0.5 + phase) * mixPeriod; at < mixHorizon; at += mixPeriod {
			p.Stmts = append(p.Stmts, stmt{Conn: t, At: at, Class: "report", Text: mixReport})
		}
	}
	return finish(p, mixTenants)
}
