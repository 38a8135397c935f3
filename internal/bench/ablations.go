package bench

import (
	"fmt"
	"math"
	"math/rand"

	"energydb/internal/energy"
	"energydb/internal/exec"
	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/sched"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/tpch"
	"energydb/internal/wal"
)

// ---------------------------------------------------------------------------
// E3 — §4.1: the join-algorithm flip under memory power pricing.

// JoinFlipPoint is one DRAM-power price point.
type JoinFlipPoint struct {
	DRAMWattPerByte float64
	TimeAlgo        string
	EnergyAlgo      string
	HashJoules      float64 // energy model's joules for the hash plan
	NLJoules        float64 // and for the NL plan
}

// JoinFlipResult sweeps the memory power price until the energy objective
// abandons hash join.
type JoinFlipResult struct {
	Points               []JoinFlipPoint
	FlipPrice            float64 // first price at which the energy objective picks NL (0 = never)
	DatasheetWattPerByte float64
}

// RunJoinFlip prices DRAM holding power upward and records the optimizer's
// join-algorithm choice under both objectives.
func RunJoinFlip() (*JoinFlipResult, error) {
	gen := tpch.Generate(0.02, 7)
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	devs := make([]storage.BlockDevice, 3)
	for i := range devs {
		devs[i] = hw.NewDisk(eng, meter, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	vol := storage.NewVolume("data", storage.Striped, 16<<10, devs)

	cat := opt.NewCatalog()
	for _, name := range []string{"orders", "nation"} {
		t := gen.Tables[name]
		st, err := exec.PlaceColumnMajor(t, vol, 1, 8192, tpch.RawCodecs(t.Schema))
		if err != nil {
			return nil, err
		}
		cat.Add(name, &opt.Placement{
			Variants: []opt.Variant{{Name: "col/raw", ST: st}},
			Stats:    opt.Analyze(t),
		})
	}
	mkQuery := func() *opt.Query {
		l := opt.ColRef{Table: "o", Col: "o_custkey"}
		r := opt.ColRef{Table: "n", Col: "n_nationkey"}
		out := opt.ColRef{Table: "o", Col: "o_orderkey"}
		return &opt.Query{
			Tables:  []string{"o", "n"},
			Rels:    map[string]string{"o": "orders", "n": "nation"},
			Preds:   []opt.PredIR{{Left: l, Op: exec.Eq, Right: r, IsJoin: true}},
			Outputs: []opt.OutputIR{{Expr: &opt.ExprIR{Col: &out}, As: "k"}},
			Limit:   -1,
		}
	}
	ssd := hw.FlashSSD2008()
	baseEnv := opt.Env{
		CPUFreqHz: 2.4e9, Cores: 1,
		ScanBW: 3 * ssd.SeqReadBW, PageLatency: ssd.Latency, PageBytes: 16 << 10,
		CPUWattPerCore: 90, StorageWatt: 5,
		Costs: exec.DefaultCosts(),
	}

	res := &JoinFlipResult{DatasheetWattPerByte: 1.3e-9}
	for _, price := range []float64{1.3e-9, 1e-6, 1e-3, 1e-1, 1, 10} {
		env := baseEnv
		env.DRAMWattPerByte = price
		tPlan, err := opt.Optimize(mkQuery(), cat, &env, opt.MinTime)
		if err != nil {
			return nil, err
		}
		ePlan, err := opt.Optimize(mkQuery(), cat, &env, opt.MinEnergy)
		if err != nil {
			return nil, err
		}
		pt := JoinFlipPoint{
			DRAMWattPerByte: price,
			TimeAlgo:        joinAlgoOf(tPlan.Root),
			EnergyAlgo:      joinAlgoOf(ePlan.Root),
		}
		pt.HashJoules, pt.NLJoules = joinCostsUnder(mkQuery(), cat, &env)
		res.Points = append(res.Points, pt)
		if res.FlipPrice == 0 && pt.EnergyAlgo == "nl" {
			res.FlipPrice = price
		}
	}
	return res, nil
}

// joinAlgoOf reports the algorithm of the first join under n, in
// pre-order, or "" when the plan has none.
func joinAlgoOf(n opt.PhysNode) string {
	if j, ok := n.(*opt.PJoin); ok {
		return j.Algo
	}
	for _, c := range n.Children() {
		if algo := joinAlgoOf(c); algo != "" {
			return algo
		}
	}
	return ""
}

// joinCostsUnder reports the model joules of the best hash and best NL
// plan by optimizing under each objective and reading plan costs.
func joinCostsUnder(q *opt.Query, cat *opt.Catalog, env *opt.Env) (hashJ, nlJ float64) {
	tPlan, err := opt.Optimize(q, cat, env, opt.MinTime)
	if err == nil && joinAlgoOf(tPlan.Root) == "hash" {
		hashJ = tPlan.Cost().Joules
	}
	ePlan, err := opt.Optimize(q, cat, env, opt.MinEnergy)
	if err == nil {
		if joinAlgoOf(ePlan.Root) == "nl" {
			nlJ = ePlan.Cost().Joules
		} else if hashJ == 0 {
			hashJ = ePlan.Cost().Joules
		}
	}
	return hashJ, nlJ
}

// Render prints the E3 sweep.
func (r *JoinFlipResult) Render() string {
	t := NewTable("E3 — §4.1 join flip: optimizer choice vs DRAM holding-power price",
		"W/byte", "time objective", "energy objective", "hash model J", "nl model J")
	for _, p := range r.Points {
		t.Addf(fmt.Sprintf("%.1e", p.DRAMWattPerByte), p.TimeAlgo, p.EnergyAlgo, p.HashJoules, p.NLJoules)
	}
	t.Add("")
	if r.FlipPrice > 0 {
		t.Add(fmt.Sprintf("energy objective flips to nested-loop at %.1e W/byte (datasheet: %.1e, %.0fx above)",
			r.FlipPrice, r.DatasheetWattPerByte, r.FlipPrice/r.DatasheetWattPerByte))
	} else {
		t.Add("energy objective never flipped in the swept range")
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E4 — §4.2: admission batching consolidates disk activity in time.

// ConsolidationPoint is one batching-window setting.
type ConsolidationPoint struct {
	WindowSec   float64
	DiskJoules  float64
	SpinDowns   int64
	MeanLatency float64
}

// ConsolidationResult sweeps the batching window.
type ConsolidationResult struct{ Points []ConsolidationPoint }

// RunConsolidation submits sparse scan jobs against a spin-down-capable
// disk under several batching windows. The experiment owns its window:
// the first arrival it holds arms a timer that, window seconds later,
// submits every held job at once to a plain two-slot admission
// controller, consolidating activity so the gaps between bursts grow
// long enough for the disk to spin down — at the cost of latency, which
// each job measures from its own arrival.
func RunConsolidation() (*ConsolidationResult, error) {
	const jobs = 60
	res := &ConsolidationResult{}
	for _, window := range []float64{0, 30, 90, 180} {
		eng := sim.NewEngine()
		meter := energy.NewMeter()
		d := hw.NewDisk(eng, meter, "d0", hw.Cheetah15K())
		d.SpinDownAfter = 15
		adm := sched.NewAdmission(eng, 2, nil)
		var held []sched.Job
		var latency float64
		rng := rand.New(rand.NewSource(11))
		at := 0.0
		for i := 0; i < jobs; i++ {
			at += 4 + rng.Float64()*8
			off := int64(i%40) * 50 * 1e6
			eng.At(at, "arrival", func() {
				arrived := eng.Now()
				job := sched.Job{Name: "scan", Want: 1, Run: func(p *sim.Proc, granted int) {
					d.Read(p, off, 4*1e6)
					latency += p.Now() - arrived
				}}
				held = append(held, job)
				if len(held) == 1 {
					eng.After(window, "window", func() {
						for _, j := range held {
							adm.Submit(j)
						}
						held = held[:0]
					})
				}
			})
		}
		if err := eng.Run(); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ConsolidationPoint{
			WindowSec:   window,
			DiskJoules:  float64(meter.ComponentEnergy("d0", energy.Seconds(eng.Now()))),
			SpinDowns:   d.Stats().SpinDowns,
			MeanLatency: latency / jobs,
		})
	}
	return res, nil
}

// Render prints the E4 sweep.
func (r *ConsolidationResult) Render() string {
	t := NewTable("E4 — §4.2 batching window vs disk energy (sparse arrivals, 15s spin-down)",
		"window(s)", "disk energy(J)", "spin-downs", "mean latency(s)")
	for _, p := range r.Points {
		t.Addf(p.WindowSec, p.DiskJoules, p.SpinDowns, p.MeanLatency)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E5 — §4.3: buffer replacement policies under heterogeneous re-fetch energy.

// BufferPolicyPoint is one policy's outcome.
type BufferPolicyPoint struct {
	Policy     string
	Misses     int64
	DiskJoules float64
	SSDJoules  float64
}

// BufferPolicyResult compares replacement policies on a mixed-device
// working set.
type BufferPolicyResult struct{ Points []BufferPolicyPoint }

// RunBufferPolicy replays a Zipf-ish trace touching a hot set on a 15K
// disk and a scan set on flash under each policy; the energy-aware policy
// should protect the expensive disk pages.
func RunBufferPolicy() (*BufferPolicyResult, error) {
	mk := map[string]func() replacementPolicy{
		"lru":    newLRU,
		"clock":  newClock,
		"2q":     newTwoQ,
		"energy": newEnergyAware,
	}
	res := &BufferPolicyResult{}
	for _, name := range []string{"lru", "clock", "2q", "energy"} {
		eng := sim.NewEngine()
		meter := energy.NewMeter()
		disk := hw.NewDisk(eng, meter, "disk", hw.Cheetah15K())
		ssd := hw.NewDisk(eng, meter, "ssd", hw.FlashSSD2008())
		diskVol := storage.NewVolume("dv", storage.Striped, 64<<10, []storage.BlockDevice{disk})
		ssdVol := storage.NewVolume("sv", storage.Striped, 64<<10, []storage.BlockDevice{ssd})
		pool := newBufferPool(64, mk[name]())

		spec := hw.Cheetah15K()
		diskJ := (spec.AvgSeek + spec.RotLatency + 64e3/spec.SeqReadBW) * float64(spec.ActiveWatts)
		ssdSpec := hw.FlashSSD2008()
		ssdJ := (ssdSpec.Latency + 64e3/ssdSpec.SeqReadBW) * float64(ssdSpec.ActiveWatts)

		rng := rand.New(rand.NewSource(3))
		eng.Go("trace", func(p *sim.Proc) {
			get := func(file int32, page int64, vol *storage.Volume, joules float64) {
				k := pageKey{File: file, Page: page}
				pool.Get(p, k, func(pp *sim.Proc) error {
					vol.ReadPage(pp, page)
					pool.SetRefetchCost(k, joules)
					return nil
				})
				pool.Unpin(k)
			}
			for i := 0; i < 4000; i++ {
				if rng.Float64() < 0.5 {
					// Hot disk-resident set of 40 pages, Zipf-ish skew.
					pg := int64(math.Floor(40 * math.Pow(rng.Float64(), 2)))
					get(1, pg, diskVol, diskJ)
				} else {
					// Flash-resident set of 200 pages, uniform.
					get(2, rng.Int63n(200), ssdVol, ssdJ)
				}
			}
		})
		if err := eng.Run(); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, BufferPolicyPoint{
			Policy:     name,
			Misses:     pool.Stats().Misses,
			DiskJoules: float64(meter.ComponentEnergy("disk", energy.Seconds(eng.Now()))),
			SSDJoules:  float64(meter.ComponentEnergy("ssd", energy.Seconds(eng.Now()))),
		})
	}
	return res, nil
}

// Render prints the E5 comparison.
func (r *BufferPolicyResult) Render() string {
	t := NewTable("E5 — §4.3 buffer replacement under heterogeneous re-fetch energy (64-frame pool)",
		"policy", "misses", "disk energy(J)", "ssd energy(J)")
	for _, p := range r.Points {
		t.Addf(p.Policy, p.Misses, p.DiskJoules, p.SSDJoules)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E6 — §5.2: group-commit batching factor.

// GroupCommitPoint is one batching factor's outcome.
type GroupCommitPoint struct {
	Batch           int
	JoulesPerCommit float64
	MeanLatency     float64
	Flushes         int64
}

// GroupCommitResult sweeps the WAL batching factor.
type GroupCommitResult struct{ Points []GroupCommitPoint }

// RunGroupCommit drives a Poisson-ish commit stream at several batching
// factors on a dedicated log disk.
func RunGroupCommit() (*GroupCommitResult, error) {
	res := &GroupCommitResult{}
	for _, batch := range []int{1, 4, 16, 64} {
		eng := sim.NewEngine()
		meter := energy.NewMeter()
		d := hw.NewDisk(eng, meter, "log", hw.Cheetah15K())
		l := wal.NewLog(eng, d, batch, 0.05)
		rng := rand.New(rand.NewSource(13))
		const n = 400
		at := 0.0
		for i := 0; i < n; i++ {
			at += rng.Float64() * 0.002
			start := at
			eng.Go(fmt.Sprintf("txn%d", i), func(p *sim.Proc) {
				p.Sleep(start)
				l.Commit(p, 300)
			})
		}
		if err := eng.Run(); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, GroupCommitPoint{
			Batch:           batch,
			JoulesPerCommit: float64(meter.ComponentEnergy("log", energy.Seconds(eng.Now()))) / n,
			MeanLatency:     l.Stats().MeanLatency(),
			Flushes:         l.Stats().Flushes,
		})
	}
	return res, nil
}

// Render prints the E6 sweep.
func (r *GroupCommitResult) Render() string {
	t := NewTable("E6 — §5.2 group-commit batching factor (400 commits, dedicated 15K log disk)",
		"batch", "J/commit", "mean latency(s)", "flushes")
	for _, p := range r.Points {
		t.Addf(p.Batch, p.JoulesPerCommit, p.MeanLatency, p.Flushes)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E7 — §2.4: cluster consolidation.

// ClusterResult compares placement policies on a diurnal tenant trace.
type ClusterResult struct{ Results []ClusterPoint }

// RunCluster evaluates spread / consolidate / sticky on the same trace.
func RunCluster() (*ClusterResult, error) {
	cfg := clusterConfig{
		Nodes: 10,
		Spec: nodeSpec{
			Cores: 8, IdleWatts: 200, PerCoreWatts: 12, OffWatts: 5,
		},
		EpochSeconds:      3600,
		MigrationJPerByte: 30e-9,
	}
	rng := rand.New(rand.NewSource(21))
	tenants := make([]clusterTenant, 16)
	const epochs = 72
	for i := range tenants {
		load := make([]float64, epochs)
		phase := rng.Float64() * 2 * math.Pi
		for e := range load {
			day := 0.5 + 0.45*math.Sin(2*math.Pi*float64(e)/24+phase)
			load[e] = 0.2 + 1.8*day*rng.Float64()
		}
		tenants[i] = clusterTenant{
			Name:      fmt.Sprintf("tenant%02d", i),
			DataBytes: int64(2+rng.Intn(30)) << 30,
			Load:      load,
		}
	}
	out := &ClusterResult{}
	for _, pol := range []placementPolicy{
		spreadPlacement{},
		consolidatePlacement{Headroom: 0.1},
		stickyPlacement{Headroom: 0.1},
	} {
		r, err := evaluateCluster(cfg, tenants, pol)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, r)
	}
	return out, nil
}

// Render prints the E7 comparison.
func (r *ClusterResult) Render() string {
	t := NewTable("E7 — §2.4 cluster consolidation over a 72h diurnal trace (10 nodes, 16 tenants)",
		"policy", "total energy(MJ)", "migration(MJ)", "migrations", "mean nodes on", "violations")
	for _, p := range r.Results {
		t.Addf(p.Policy, p.TotalJoules/1e6, p.MigrationJoules/1e6, p.Migrations, p.MeanNodesOn, p.Violations)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E8 — §2.3: energy proportionality of the modelled server.

// ProportionalityPoint is one utilisation sample.
type ProportionalityPoint struct {
	Utilization float64
	PowerW      float64
	Efficiency  float64 // work per joule at this load
}

// ProportionalityResult measures the DL785 model's power curve.
type ProportionalityResult struct {
	Points       []ProportionalityPoint
	Index        float64 // 1.0 = perfectly proportional
	DynamicRange float64
}

// RunProportionality loads the DL785 CPU complex at several utilisation
// levels and integrates power.
func RunProportionality() (*ProportionalityResult, error) {
	res := &ProportionalityResult{}
	var pts []energy.UtilPoint
	for _, util := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0} {
		srv := hw.NewServer(hw.DL785(66))
		const window = 10.0
		busyCores := int(math.Round(util * float64(srv.CPU.Cores())))
		for c := 0; c < busyCores; c++ {
			srv.Eng.Go(fmt.Sprintf("load%d", c), func(p *sim.Proc) {
				srv.CPU.Use(p, window*srv.CPU.Spec().FreqHz)
			})
		}
		if err := srv.Eng.Run(); err != nil {
			return nil, err
		}
		if err := srv.Eng.RunUntil(window); err != nil {
			return nil, err
		}
		joules := float64(srv.Meter.TotalEnergy(energy.Seconds(window)))
		power := joules / window
		work := float64(busyCores) * window
		res.Points = append(res.Points, ProportionalityPoint{
			Utilization: util,
			PowerW:      power,
			Efficiency:  work / joules,
		})
		pts = append(pts, energy.UtilPoint{Utilization: util, Power: energy.Watts(power)})
	}
	res.Index = energy.ProportionalityIndex(pts)
	srv := hw.NewServer(hw.DL785(66))
	res.DynamicRange = srv.DynamicRange()
	return res, nil
}

// Render prints the E8 curve.
func (r *ProportionalityResult) Render() string {
	t := NewTable("E8 — §2.3 energy proportionality of the DL785 model (66 disks)",
		"utilization", "power(W)", "EE(core-s/J)")
	for _, p := range r.Points {
		t.Addf(p.Utilization, p.PowerW, p.Efficiency)
	}
	t.Add("")
	t.Add(fmt.Sprintf("proportionality index = %.2f (ideal 1.0)   dynamic range = %.2f",
		r.Index, r.DynamicRange))
	return t.String()
}
