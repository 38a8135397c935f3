package bench

import (
	"fmt"
	"math"
	"sort"

	"energydb/internal/core"
	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/tpch"
)

// RunPolicies is the workload-energy-manager experiment: the same mixed
// workload — a stream of deadline-carrying point queries interleaved
// with a backlog of background analytics — run under each admission
// policy / planner configuration, scored two ways at once: SLO
// compliance (deadline queries that finished in time) and whole-server
// energy from the wall meter, with the per-query attribution invariant
// checked on every run. The headline comparison is FIFO-at-P0 (the
// energy-oblivious baseline) against EDF with DVFS-aware planning:
// deadline work jumps the queue and runs fast at P0, background work
// runs slow at the deep P-state, and the meter reads strictly lower at
// no SLO cost.

// PolicyConfig is one point in the comparison: an admission policy plus
// the planner knobs it is paired with.
type PolicyConfig struct {
	Name       string
	Policy     string // core.Config.SchedPolicy: "", "edf", "energy"
	Objective  opt.Objective
	EnergyMode opt.EnergyMode
	DVFS       bool
	HoldCores  int
}

// DefaultPolicyConfigs is the ladder the benchmark walks: the
// energy-oblivious baseline, EDF alone (SLO fix, same energy bill), EDF
// with DVFS-aware energy planning (the headline), and the consolidating
// energy policy with held-back headroom.
func DefaultPolicyConfigs() []PolicyConfig {
	return []PolicyConfig{
		{Name: "fifo@P0", Policy: "", Objective: opt.MinTime},
		{Name: "edf@P0", Policy: "edf", Objective: opt.MinTime},
		{Name: "edf+dvfs", Policy: "edf", Objective: opt.MinEnergy,
			EnergyMode: opt.IdleFloorAware, DVFS: true},
		{Name: "energy+dvfs", Policy: "energy", Objective: opt.MinEnergy,
			EnergyMode: opt.IdleFloorAware, DVFS: true, HoldCores: 2},
	}
}

// PolicyPoint is one configuration's scorecard.
type PolicyPoint struct {
	Name        string
	SLOMet      int     // deadline queries that finished in time
	SLOTotal    int     // deadline queries submitted
	Background  int     // background statements completed
	Seconds     float64 // simulated makespan
	MeterJ      float64 // wall meter at the last settlement
	AttributedJ float64 // Σ per-query attributed + unattributed floor
	AttrGapJ    float64 // |AttributedJ − MeterJ|, absolute
	MeanWaitS   float64 // mean admission queueing delay
}

// SLO reports the point's deadline compliance in [0, 1].
func (p PolicyPoint) SLO() float64 {
	if p.SLOTotal == 0 {
		return 1
	}
	return float64(p.SLOMet) / float64(p.SLOTotal)
}

// PoliciesResult is the whole comparison.
type PoliciesResult struct {
	Points []PolicyPoint
	SF     float64
}

// Point returns the named configuration's scorecard.
func (r *PoliciesResult) Point(name string) (PolicyPoint, bool) {
	for _, p := range r.Points {
		if p.Name == name {
			return p, true
		}
	}
	return PolicyPoint{}, false
}

// policyRig is the machine the comparison runs on: the CPU-bound flash
// rig with a low idle floor and a deep P-state — the regime where DVFS
// pays, because even a single core's 25 W marginal power dominates the
// floor, so slowing down trades cheap floor-seconds for expensive active
// joules (and the idle-floor-honest objective can see that it does).
func policyRig() hw.ServerSpec {
	ssd := hw.FlashSSD2008()
	ssd.ReadBW *= 24 // NVMe-class striped array: scans go CPU-bound
	ssd.ReadLatency /= 100
	return hw.ServerSpec{
		Name: "policy-rig",
		CPU: hw.CPUSpec{
			Name:          "xeon-8c",
			Cores:         8,
			FreqHz:        2.4e9,
			IdleWatts:     10,
			ActivePerCore: 25,
			PStates: []hw.PState{
				{Name: "P0", FreqScale: 1, PowerScale: 1},
				{Name: "P1", FreqScale: 0.7, PowerScale: 0.4},
			},
		},
		NumSSDs: 4,
		SSD:     ssd,
	}
}

const (
	// policyDeadlineQuery is the latency-sensitive side of the mix: a
	// cheap point aggregate a client would wrap in an SLO.
	policyDeadlineQuery = `SELECT COUNT(*) AS n FROM orders WHERE o_totalprice < 100000`
	// policyBackgroundQuery is the analytic side: the CPU-heavy lineitem
	// aggregation whose only deadline is "eventually".
	policyBackgroundQuery = `SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q
		FROM lineitem
		WHERE l_quantity < 48 AND l_discount > 0.01 AND l_extendedprice < 80000
		GROUP BY l_returnflag ORDER BY l_returnflag`
	// policyBackgroundLight is a lighter analytic interleaved with the
	// heavy one so background service times decorrelate — completions
	// spread out instead of arriving in synchronized waves.
	policyBackgroundLight = `SELECT o_orderpriority, COUNT(*) AS n FROM orders
		GROUP BY o_orderpriority ORDER BY o_orderpriority`
)

// openPolicyDB opens the rig under one configuration and places every
// table (count-only probes, as the chaos harness does), returning the
// warm-up joules so attribution sums over every account ever opened.
func openPolicyDB(cfg PolicyConfig, sf float64) (*core.DB, float64, error) {
	db, err := core.Open(core.Config{
		Server:      policyRig(),
		Objective:   cfg.Objective,
		EnergyMode:  cfg.EnergyMode,
		SchedPolicy: cfg.Policy,
		HoldCores:   cfg.HoldCores,
		DVFS:        cfg.DVFS,
		BlockRows:   4096,
	})
	if err != nil {
		return nil, 0, err
	}
	gen := tpch.Generate(sf, 42)
	names := make([]string, 0, len(gen.Tables))
	for name := range gen.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	warm := 0.0
	for _, name := range names {
		if err := db.LoadTable(gen.Tables[name]); err != nil {
			return nil, 0, err
		}
		res, err := db.Exec("SELECT COUNT(*) FROM " + name)
		if err != nil {
			return nil, 0, err
		}
		warm += float64(res.Attributed)
	}
	return db, warm, nil
}

// RunPolicies runs the comparison over DefaultPolicyConfigs at SF 0.02:
// 8 deadline-carrying point queries, each due 20 × its solo latency after
// arrival, among 32 background analytic statements.
func RunPolicies() (*PoliciesResult, error) {
	const (
		sf        = 0.02
		dlQueries = 8
		bgStmts   = 32
		slackX    = 20 // deadline = arrival + slackX × solo latency
	)
	configs := DefaultPolicyConfigs()

	// Calibrate on the baseline configuration: solo latencies size the
	// deadlines and the arrival schedule, identically for every policy so
	// the SLO comparison is apples to apples.
	cal, _, err := openPolicyDB(configs[0], sf)
	if err != nil {
		return nil, err
	}
	dlRes, err := cal.Exec(policyDeadlineQuery)
	if err != nil {
		return nil, err
	}
	bgRes, err := cal.Exec(policyBackgroundQuery)
	if err != nil {
		return nil, err
	}
	soloDL := float64(dlRes.Elapsed)
	soloBG := float64(bgRes.Elapsed)
	// svc is one heavy background statement's core-seconds (solo elapsed
	// times the solo plan's width). Sixteen sessions — twice the core
	// count — each run their statements serially, so once the ramp-in
	// completes the box holds eight one-core background queries running
	// and roughly eight more waiting: a standing queue, the regime where
	// the dispatch policy and not spare capacity decides who runs next.
	svc := soloBG * float64(bgRes.Plan.MaxDOP())
	// Two thirds of the background statements are heavy (svc core-seconds
	// each), one third light (~a tenth of that); the makespan estimate is
	// the demanded core-seconds over the core count, plus the ramp-in.
	makespan := svc * 0.7 * float64(bgStmts) / 8
	slack := slackX * soloDL

	res := &PoliciesResult{SF: sf}
	for _, pc := range configs {
		db, warm, err := openPolicyDB(pc, sf)
		if err != nil {
			return nil, err
		}
		start := db.Srv.Eng.Now()

		// Background load: statements round-robin over the sessions, each
		// session's arrivals staggered by a fraction of svc so completions
		// spread out instead of releasing in synchronized waves. A session
		// runs its statements serially, so the sessions — not the
		// statement count — bound concurrent claimants.
		const bgSessions = 16
		type bgSess struct {
			heavy, light *core.Stmt
		}
		sessions := make([]bgSess, bgSessions)
		for j := range sessions {
			sess := db.Session()
			heavy, err := sess.Prepare(policyBackgroundQuery)
			if err != nil {
				return nil, err
			}
			light, err := sess.Prepare(policyBackgroundLight)
			if err != nil {
				return nil, err
			}
			sessions[j] = bgSess{heavy: heavy, light: light}
		}
		var background []*core.Rows
		for i := 0; i < bgStmts; i++ {
			j := i % bgSessions
			// Each session opens at its own phase (an irrational-ratio
			// stagger, so completions never re-synchronize into waves);
			// its later statements run back to back behind the first.
			at := start + svc*0.046*float64(j)
			st := sessions[j].heavy
			if i%3 == 2 {
				st = sessions[j].light
			}
			rows, err := st.QueryAt(at)
			if err != nil {
				return nil, err
			}
			rows.Discard()
			background = append(background, rows)
		}

		// Deadline stream: arrivals spread across the first half of the
		// backlog's busy period, each with the same absolute slack.
		dlSess := db.Session()
		dlStmt, err := dlSess.Prepare(policyDeadlineQuery)
		if err != nil {
			return nil, err
		}
		var deadline []*core.Rows
		for i := 0; i < dlQueries; i++ {
			at := start + makespan*(0.3+0.5*float64(i)/float64(dlQueries))
			rows, err := dlStmt.QueryAtDeadline(at, at+slack)
			if err != nil {
				return nil, err
			}
			rows.Discard()
			deadline = append(deadline, rows)
		}

		if err := db.Drain(); err != nil {
			return nil, err
		}

		pt := PolicyPoint{Name: pc.Name, SLOTotal: dlQueries}
		sum := warm
		for _, rows := range background {
			if err := rows.Err(); err != nil {
				return nil, fmt.Errorf("bench: %s background: %w", pc.Name, err)
			}
			pt.Background++
			sum += float64(rows.Attributed())
		}
		for _, rows := range deadline {
			if rows.Err() == nil {
				pt.SLOMet++
			}
			sum += float64(rows.Attributed())
		}
		sum += float64(db.Attr.Unattributed())

		st := db.SchedStats()
		pt.Seconds = db.Srv.Eng.Now() - start
		pt.MeterJ = float64(db.Srv.Meter.TotalEnergy(db.Attr.SettledThrough()))
		pt.AttributedJ = sum
		pt.AttrGapJ = math.Abs(sum - pt.MeterJ)
		pt.MeanWaitS = st.MeanWait()
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render prints the scorecard table.
func (r *PoliciesResult) Render() string {
	t := NewTable(fmt.Sprintf("Admission policies × DVFS — mixed deadline + background workload (sf %g)", r.SF),
		"config", "SLO", "background", "makespan(s)", "meter(J)", "Σ attributed(J)", "gap(J)", "mean wait(s)")
	for _, p := range r.Points {
		t.Addf(p.Name, fmt.Sprintf("%d/%d", p.SLOMet, p.SLOTotal), p.Background,
			p.Seconds, p.MeterJ, p.AttributedJ, p.AttrGapJ, p.MeanWaitS)
	}
	if base, ok := r.Point("fifo@P0"); ok {
		if dvfs, ok := r.Point("edf+dvfs"); ok && base.MeterJ > 0 {
			t.Add("")
			t.Add(fmt.Sprintf("edf+dvfs vs fifo@P0: %.2fx energy at SLO %d/%d vs %d/%d",
				dvfs.MeterJ/base.MeterJ, dvfs.SLOMet, dvfs.SLOTotal, base.SLOMet, base.SLOTotal))
		}
	}
	return t.String()
}
