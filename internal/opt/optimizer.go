package opt

import (
	"errors"
	"fmt"
	"math"

	"energydb/internal/exec"
)

// ErrUnsupported is the sentinel Optimize wraps for a bound query no plan
// family covers: a join graph with no equality predicate between two of
// its parts (no cross products), or more tables than the join search
// enumerates. Match with errors.Is, not the message.
var ErrUnsupported = errors.New("unsupported query")

// Optimize compiles a bound query into the cheapest physical plan under
// the objective: access-path (placement variant) selection per table,
// predicate pushdown, join order and algorithm by dynamic programming over
// table subsets, then aggregation, sort and limit.
//
// When the environment exposes more than one CPU P-state and the
// objective is an energy one, the whole plan search repeats at each
// operating point and the best plan under the environment's score wins —
// wide-and-slow at a low P-state competes directly with narrow-and-fast
// at P0. A positive Env.TimeBudget restricts the field to plans that fit
// the budget (with a fastest-at-P0 fallback candidate, and the overall
// fastest plan if nothing fits), so deadline queries are planned
// cheap-if-possible, fast-if-necessary.
func Optimize(q *Query, cat *Catalog, env *Env, obj Objective) (*Plan, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("opt: query has no tables")
	}
	if len(q.Tables) > 12 {
		return nil, fmt.Errorf("opt: %w: %d tables exceeds the 12-table DP limit", ErrUnsupported, len(q.Tables))
	}
	pstates := env.PStates
	if len(pstates) == 0 {
		pstates = []PStatePoint{{Name: "P0", FreqScale: 1, PowerScale: 1}}
	}
	if obj == MinTime {
		// Lower P-states only trade time for energy; MinTime never wants
		// that, so skip the sweep.
		pstates = pstates[:1]
	}
	var plans []*Plan
	for i, ps := range pstates {
		o := &optimizer{q: q, cat: cat, env: env.AtPState(ps), obj: obj}
		p, err := o.run()
		if err != nil {
			return nil, err
		}
		p.PState = i
		p.PStateName = ps.Name
		plans = append(plans, p)
	}
	if env.TimeBudget > 0 && obj != MinTime {
		// A deadline query must also consider the plan a pure-latency
		// optimizer would pick, at full frequency.
		o := &optimizer{q: q, cat: cat, env: env.AtPState(pstates[0]), obj: MinTime}
		p, err := o.run()
		if err != nil {
			return nil, err
		}
		p.PState = 0
		p.PStateName = pstates[0].Name
		plans = append(plans, p)
	}
	var best *Plan
	bestScore := math.Inf(1)
	for _, p := range plans {
		if env.TimeBudget > 0 && p.Root.Cost().Seconds > env.TimeBudget {
			continue
		}
		if s := env.Score(p.Root.Cost(), obj); s < bestScore {
			best, bestScore = p, s
		}
	}
	if best == nil {
		// Nothing fits the budget: take the fastest candidate and let the
		// deadline machinery decide its fate at run time.
		for _, p := range plans {
			if best == nil || p.Root.Cost().Seconds < best.Root.Cost().Seconds {
				best = p
			}
		}
	}
	best.Objective = obj
	return best, nil
}

type optimizer struct {
	q   *Query
	cat *Catalog
	env *Env
	obj Objective

	aliases []string
	place   map[string]*Placement
	local   map[string][]PredIR // single-table predicates by alias
	joins   []PredIR            // cross-table equality predicates
	resid   []PredIR            // cross-table non-equality predicates
}

func (o *optimizer) run() (*Plan, error) {
	if err := o.bindTables(); err != nil {
		return nil, err
	}
	o.classifyPreds()

	// Best scan per alias.
	scans := make(map[string]PhysNode, len(o.aliases))
	for _, a := range o.aliases {
		scans[a] = o.bestScan(a)
	}

	// Join order DP over alias subsets.
	root, err := o.joinDP(scans)
	if err != nil {
		return nil, err
	}

	// Equality predicates the join tree did not consume (cycles in the
	// join graph) must still be applied, as residual filters.
	applied := map[string]bool{}
	collectJoinPreds(root, applied)
	for _, jp := range o.joins {
		if !applied[jp.String()] {
			o.resid = append(o.resid, jp)
		}
	}

	// Residual cross-table filters.
	if len(o.resid) > 0 {
		sel := 1.0
		for _, p := range o.resid {
			sel *= predSelectivity(p, nil)
		}
		cost := root.Cost().Add(o.cpu(root.Card() * float64(len(o.resid)) * o.env.Costs.FilterCyclesPerRow))
		f := &PFilter{props: over(root), in: [1]PhysNode{root}, Preds: o.resid}
		f.card, f.cost = root.Card()*sel, cost
		root = f
	}

	// Aggregation (GROUP BY alone groups too), then the SELECT list.
	if o.q.HasAggs() || len(o.q.GroupBy) > 0 {
		root = o.buildAgg(root)
	}
	if len(o.q.Outputs) > 0 {
		root = o.buildSelect(root)
	}

	// Order by, limit.
	if len(o.q.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(o.q.OrderBy))
		for i, ob := range o.q.OrderBy {
			keys[i] = exec.SortKey{Col: ob.Output, Desc: ob.Desc}
		}
		n := math.Max(root.Card(), 2)
		mem := int64(n * root.RowBytes())
		c := o.cpu(n * math.Log2(n) * o.env.Costs.SortCyclesPerRowLog * float64(len(keys)))
		c.Joules += float64(mem) * o.env.DRAMWattPerByte * c.Seconds
		c.MemBytes = mem
		s := &PSort{props: over(root), in: [1]PhysNode{root}, Keys: keys}
		s.cost = root.Cost().Add(c)
		root = s
	}
	if o.q.Limit >= 0 {
		l := &PLimit{props: over(root), in: [1]PhysNode{root}, N: o.q.Limit}
		l.card = math.Min(float64(l.N), root.Card())
		root = l
	}
	return &Plan{Root: root, Objective: o.obj}, nil
}

func (o *optimizer) bindTables() error {
	o.place = make(map[string]*Placement)
	seen := map[string]bool{}
	for _, a := range o.aliasesInOrder() {
		if seen[a] {
			return fmt.Errorf("opt: duplicate table alias %q", a)
		}
		seen[a] = true
		rel, ok := o.q.Rels[a]
		if !ok {
			return fmt.Errorf("opt: alias %q has no relation", a)
		}
		p, err := o.cat.Get(rel)
		if err != nil {
			return err
		}
		if len(p.Variants) == 0 {
			return fmt.Errorf("opt: relation %q has no placements", rel)
		}
		o.place[a] = p
	}
	o.aliases = o.aliasesInOrder()
	return nil
}

func (o *optimizer) aliasesInOrder() []string { return o.q.Tables }

func (o *optimizer) classifyPreds() {
	o.local = make(map[string][]PredIR)
	for _, p := range o.q.Preds {
		if !p.IsJoin {
			o.local[p.Left.Table] = append(o.local[p.Left.Table], p)
			continue
		}
		if p.Left.Table == p.Right.Table {
			o.local[p.Left.Table] = append(o.local[p.Left.Table], p)
			continue
		}
		if p.Op == exec.Eq {
			o.joins = append(o.joins, p)
		} else {
			o.resid = append(o.resid, p)
		}
	}
}

// requiredCols computes the columns of alias needed anywhere in the query.
func (o *optimizer) requiredCols(alias string) []string {
	need := map[string]bool{}
	add := func(c ColRef) {
		if c.Table == alias {
			need[c.Col] = true
		}
	}
	for _, p := range o.q.Preds {
		add(p.Left)
		if p.IsJoin {
			add(p.Right)
		}
	}
	for _, out := range o.q.Outputs {
		if out.Expr != nil {
			for _, c := range out.Expr.columns(nil) {
				add(c)
			}
		}
		if out.Agg != nil && out.Agg.Arg != nil {
			for _, c := range out.Agg.Arg.columns(nil) {
				add(c)
			}
		}
	}
	for _, g := range o.q.GroupBy {
		add(g)
	}
	schema := o.place[alias].Variants[0].ST.Tab.Schema
	var cols []string
	for _, c := range schema.Cols { // schema order keeps plans deterministic
		if need[c.Name] {
			cols = append(cols, c.Name)
		}
	}
	// A count-only query may need no columns at all: batches carry an
	// explicit row count, so the scan reads nothing and emits cardinality.
	return cols
}

// parallelStartupCycles is the modelled per-extra-worker overhead of a
// fragmented stage (spawning the fragment process, morsel-queue traffic,
// the merge hop). It is deliberately small but non-zero: under MinTime a
// CPU-bound stage still wins big from parallelism, while under MinEnergy —
// where the marginal-joule account is otherwise flat in DOP (the same
// core-seconds at the same watts) — the overhead makes the serial plan the
// strictly cheapest, matching the paper's observation that parallelism
// buys time, not marginal energy.
const parallelStartupCycles = 200e3

// cpu prices cycles of serial CPU work: one core busy for their duration.
func (o *optimizer) cpu(cycles float64) Cost {
	secs := cycles / o.env.CPUFreqHz
	return Cost{Seconds: secs, Joules: secs * o.env.CPUWattPerCore}
}

// fragmented prices a stage that runs pw's pipeline dop-wide: the leaf
// scan plus cpu seconds of per-row work fragmenting along with it, then
// tail seconds once the stream ends, in waves process waves of dop-1 extra
// workers that each pay parallelStartupCycles. Parallelism divides CPU
// time across dop cores but not I/O time — the fragments share the
// volume's bandwidth — so stream, the stage's elapsed seconds, approaches
// max(io, cpu/dop); busy, its core-seconds, grows only by the start-up.
func (o *optimizer) fragmented(pw pipeWork, cpu, tail float64, waves, dop int) (stream, busy float64) {
	startup := float64(waves*(dop-1)) * parallelStartupCycles / o.env.CPUFreqHz
	return pw.scan.elapsed(cpu, dop) + tail + startup, pw.scan.cpuSecs + cpu + startup
}

// widths lists the degrees of parallelism above one worth pricing for a
// stage whose leaf scan is src: powers of two up to the core count (plus
// the core count itself), capped by the morsel count — morsels are the
// unit of work distribution, so a worker beyond ceil(blocks/morsel) can
// never claim anything and is pure startup overhead the cpu/dop model
// would wrongly credit. A count-only column scan reads nothing and stays
// serial.
func (o *optimizer) widths(src *PScan) []int {
	st := src.Variant.ST
	maxDop := min(o.env.Cores, (st.NumBlocks()+exec.DefaultMorselBlocks-1)/exec.DefaultMorselBlocks)
	if maxDop <= 1 || (st.Layout == exec.ColumnMajor && len(src.Read) == 0) {
		return nil
	}
	var dops []int
	for d := 2; d < maxDop; d *= 2 {
		dops = append(dops, d)
	}
	return append(dops, maxDop)
}

// bestScan picks the cheapest placement variant and degree of parallelism
// for alias under the objective, with local predicates pushed down.
func (o *optimizer) bestScan(alias string) PhysNode {
	pl := o.place[alias]
	needed := o.requiredCols(alias)
	preds := o.local[alias]
	sel := 1.0
	for _, p := range preds {
		sel *= predSelectivity(p, o.colStats(alias, p.Left.Col))
	}
	cols := make([]ColRef, len(needed))
	for i, n := range needed {
		cols[i] = ColRef{Table: alias, Col: n}
	}

	var best *PScan
	var bestScore float64
	for _, v := range pl.Variants {
		schema := v.ST.Tab.Schema
		// Read set: needed columns (they include predicate columns).
		read := make([]int, 0, len(needed))
		for _, n := range needed {
			read = append(read, schema.MustColIndex(n))
		}
		emit := make([]int, len(read))
		for i := range emit {
			emit[i] = i
		}
		var width float64
		for _, e := range emit {
			width += float64(schema.Cols[read[e]].Width)
		}
		base := PScan{props: props{cols: cols, card: float64(pl.Stats.Rows) * sel, rowBytes: width},
			Alias: alias, Variant: v, Read: read, Emit: emit, Preds: preds}
		pw := pipeWork{scan: o.scanWork(v.ST, read, float64(pl.Stats.Rows), len(preds))}
		for _, dop := range append([]int{1}, o.widths(&base)...) {
			stream, busy := o.fragmented(pw, 0, 0, 1, dop)
			cand := base
			cand.dop = dop
			cand.cost = Cost{Seconds: stream, Joules: busy*o.env.CPUWattPerCore + pw.scan.ioJoules}
			if s := o.env.Score(cand.cost, o.obj); best == nil || s < bestScore {
				best, bestScore = &cand, s
			}
		}
	}
	return best
}

// scanWork is the decomposed cost of one table scan: I/O elapsed seconds,
// single-core CPU seconds, and the storage energy — the pieces
// pipeline-level parallelism recombines. CPU divides by DOP; I/O time and
// every joule do not (the fragments share the volume's bandwidth and the
// work is the same regardless of how many cores execute it).
type scanWork struct {
	ioSecs    float64
	cpuSecs   float64
	ioJoules  float64
	pipelined bool // column scans overlap I/O with CPU; row scans read-then-parse
}

// scanWork decomposes the cost of scanning the given columns of st. A
// column scan that reads no columns (count-only plan) touches neither the
// volume nor the data: it emits block cardinality from placement metadata
// for free.
func (o *optimizer) scanWork(st *exec.StoredTable, readCols []int, rows float64, predTerms int) scanWork {
	env := o.env
	if st.Layout == exec.ColumnMajor && len(readCols) == 0 {
		return scanWork{pipelined: true}
	}
	var encBytes, rawBytes, decodeCycles float64
	if st.Layout == exec.ColumnMajor {
		for _, ci := range readCols {
			enc := float64(st.ColEncodedBytes(ci))
			encBytes += enc
			raw := float64(st.ColRawBytes(ci))
			rawBytes += raw
			decodeCycles += raw * st.Codecs[ci].Cost().DecodeCyclesPerByte
		}
	} else {
		encBytes = float64(st.EncodedBytes())
		rawBytes = float64(st.RawBytes())
		decodeCycles = rawBytes * (st.RowCodec.Cost().DecodeCyclesPerByte + env.Costs.RowParseCyclesPerByte)
	}
	pages := encBytes/float64(env.PageBytes) + float64(st.NumBlocks()*max(1, len(readCols)))
	ioTime := encBytes/env.ScanBW + pages*env.PageLatency
	cpuCycles := decodeCycles + rawBytes*env.Costs.ScanCyclesPerByte +
		rows*float64(predTerms)*env.Costs.FilterCyclesPerRow
	return scanWork{
		ioSecs:    ioTime,
		cpuSecs:   cpuCycles / env.CPUFreqHz,
		ioJoules:  ioTime * env.StorageWatt,
		pipelined: st.Layout == exec.ColumnMajor,
	}
}

// elapsed is the scan's wall time when its CPU work — plus extraCPUSecs of
// downstream pipeline work fragmented along with it — runs dop-wide.
func (w scanWork) elapsed(extraCPUSecs float64, dop int) float64 {
	cpu := (w.cpuSecs + extraCPUSecs) / float64(dop)
	if w.pipelined {
		return math.Max(w.ioSecs, cpu)
	}
	return w.ioSecs + cpu
}

// pipeWork is the decomposed cost of a fragmentable pipeline: the leaf
// scan's io/cpu/joule split, the per-row CPU of the filter and probe
// operators that fragment along with the scan, the serial prefix that must
// complete before the pipeline streams (hash-join build phases), and the
// hash-table working set held live while it does.
type pipeWork struct {
	scan     scanWork
	extraCPU float64 // seconds of fragmented per-row work above the scan
	prefix   Cost    // serial build phases preceding the streaming pipeline
	memBytes float64 // build tables held live while the pipeline streams
	src      *PScan  // the leaf scan; the DOP sweep bounds come from its table
}

// fragPriced is implemented by the nodes whose whole pipeline can fragment
// end to end: a PScan leaf under any stack of PFilter and hash-PJoin probe
// sides, each pricing its own per-row CPU inside the fragmented pipeline
// (divided by DOP alongside the scan) instead of as a serial tax above the
// exchange. ok=false means fragments would not divide it either.
type fragPriced interface {
	pipelineWork(o *optimizer) (pw pipeWork, ok bool)
}

// pipelineWork decomposes n's cost for the DOP sweep when its whole
// pipeline can fragment end to end.
func (o *optimizer) pipelineWork(n PhysNode) (pipeWork, bool) {
	if fp, ok := n.(fragPriced); ok {
		return fp.pipelineWork(o)
	}
	return pipeWork{}, false
}

func (s *PScan) pipelineWork(o *optimizer) (pipeWork, bool) {
	w := o.scanWork(s.Variant.ST, s.Read, float64(s.Variant.ST.Tab.Rows()), len(s.Preds))
	return pipeWork{scan: w, src: s}, true
}

func (f *PFilter) pipelineWork(o *optimizer) (pipeWork, bool) {
	pw, ok := o.pipelineWork(f.in[0])
	pw.extraCPU += o.cpu(f.in[0].Card() * float64(len(f.Preds)) * o.env.Costs.FilterCyclesPerRow).Seconds
	return pw, ok
}

func (j *PJoin) pipelineWork(o *optimizer) (pipeWork, bool) {
	env := o.env
	if j.Algo != "hash" {
		return pipeWork{}, false
	}
	build, probe := j.in[0], j.in[1]
	pw, ok := o.pipelineWork(probe)
	if !ok {
		return pw, false
	}
	pw.extraCPU += o.cpu(probe.Card()*env.Costs.HashProbeCyclesPerRow +
		j.Card()*env.Costs.JoinOutputCyclesPerRow).Seconds
	// The build side runs to completion before the probe streams: a
	// serial prefix priced at the build input's own cost plus table
	// insertion, with its table resident for the rest of the pipeline.
	pw.prefix = pw.prefix.Add(build.Cost()).Add(o.cpu(build.Card() * env.Costs.HashBuildCyclesPerRow))
	pw.memBytes += build.Card() * build.RowBytes()
	return pw, true
}

// colStats returns statistics for alias.col, or nil.
func (o *optimizer) colStats(alias, col string) *ColStats {
	pl := o.place[alias]
	i := pl.Variants[0].ST.Tab.Schema.ColIndex(col)
	if i < 0 {
		return nil
	}
	return &pl.Stats.Cols[i]
}

// predSelectivity estimates the fraction of rows passing p.
func predSelectivity(p PredIR, cs *ColStats) float64 {
	switch p.Op {
	case exec.Eq:
		if p.IsJoin {
			return 0.1
		}
		if cs != nil && cs.NDV > 0 {
			return 1 / float64(cs.NDV)
		}
		return 0.01
	case exec.Ne:
		return 0.9
	default:
		return 1.0 / 3
	}
}

// joinDP finds the cheapest join tree over all aliases.
func (o *optimizer) joinDP(scans map[string]PhysNode) (PhysNode, error) {
	n := len(o.aliases)
	if n == 1 {
		return scans[o.aliases[0]], nil
	}
	idx := map[string]int{}
	for i, a := range o.aliases {
		idx[a] = i
	}
	best := make(map[uint32]PhysNode)
	for i, a := range o.aliases {
		best[1<<uint(i)] = scans[a]
	}
	full := uint32(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for mask := uint32(1); mask <= full; mask++ {
			if popcount(mask) != size {
				continue
			}
			var bestPlan PhysNode
			var bestScore float64
			// Enumerate proper subset splits.
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				other := mask ^ sub
				if sub > other {
					continue // each unordered split once
				}
				l, lok := best[sub]
				r, rok := best[other]
				if !lok || !rok {
					continue
				}
				// Find a connecting equality predicate.
				for _, jp := range o.joins {
					li, ri := idx[jp.Left.Table], idx[jp.Right.Table]
					var a, b PhysNode
					var ac, bc ColRef
					switch {
					case sub&(1<<uint(li)) != 0 && other&(1<<uint(ri)) != 0:
						a, b, ac, bc = l, r, jp.Left, jp.Right
					case sub&(1<<uint(ri)) != 0 && other&(1<<uint(li)) != 0:
						a, b, ac, bc = l, r, jp.Right, jp.Left
					default:
						continue
					}
					for _, cand := range o.joinCandidates(a, b, ac, bc, jp) {
						if bestPlan == nil || o.env.Score(cand.Cost(), o.obj) < bestScore {
							bestPlan = cand
							bestScore = o.env.Score(cand.Cost(), o.obj)
						}
					}
				}
			}
			if bestPlan != nil {
				best[mask] = bestPlan
			}
		}
	}
	plan, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("opt: %w: join graph is disconnected (missing equality predicates)", ErrUnsupported)
	}
	return plan, nil
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// joinCandidates prices hash join (both build orientations) and block
// nested-loop join for a (left cols, right cols) equality pair.
func (o *optimizer) joinCandidates(l, r PhysNode, lc, rc ColRef, jp PredIR) []PhysNode {
	env := o.env
	li := colIndex(l.Columns(), lc)
	ri := colIndex(r.Columns(), rc)
	if li < 0 || ri < 0 {
		return nil
	}
	outCard := joinCard(l, r, o.ndvOf(lc, l), o.ndvOf(rc, r))
	cols := append(append([]ColRef{}, l.Columns()...), r.Columns()...)
	colsRev := append(append([]ColRef{}, r.Columns()...), l.Columns()...)

	var out []PhysNode
	mkHash := func(build, probe PhysNode, bi, pi int, cs []ColRef) {
		buildMem := build.Card() * build.RowBytes()
		c := o.cpu(build.Card()*env.Costs.HashBuildCyclesPerRow +
			probe.Card()*env.Costs.HashProbeCyclesPerRow +
			outCard*env.Costs.JoinOutputCyclesPerRow)
		elapsed := build.Cost().Seconds + probe.Cost().Seconds + c.Seconds
		c.Joules += buildMem * env.DRAMWattPerByte * elapsed
		c.MemBytes = int64(buildMem)
		joined := props{cols: cs, card: outCard, rowBytes: build.RowBytes() + probe.RowBytes()}
		serial := &PJoin{props: joined, Algo: "hash", in: [2]PhysNode{build, probe}, LeftCol: bi, RightCol: pi, Pred: jp}
		serial.cost = build.Cost().Add(probe.Cost()).Add(c)
		out = append(out, serial)

		// Fragmented probe: when the probe side fragments end to end, the
		// probe pipeline plus probe and output CPU divides across dop cores
		// against the finished shared build, while the build phase and every
		// joule stay — probe-side parallelism also buys time, not marginal
		// energy.
		pw, pok := o.pipelineWork(probe)
		if !pok {
			return
		}
		bc := o.cpu(build.Card() * env.Costs.HashBuildCyclesPerRow)
		streamCPU := pw.extraCPU + o.cpu(probe.Card()*env.Costs.HashProbeCyclesPerRow+
			outCard*env.Costs.JoinOutputCyclesPerRow).Seconds
		for _, dop := range o.widths(pw.src) {
			stream, busy := o.fragmented(pw, streamCPU, 0, 1, dop)
			pelapsed := build.Cost().Seconds + bc.Seconds + pw.prefix.Seconds + stream
			pj := build.Cost().Add(Cost{
				Seconds: bc.Seconds + pw.prefix.Seconds + stream,
				Joules: bc.Joules + pw.prefix.Joules + busy*env.CPUWattPerCore + pw.scan.ioJoules +
					(buildMem+pw.memBytes)*env.DRAMWattPerByte*pelapsed,
				MemBytes: int64(buildMem + pw.memBytes),
			})
			par := *serial
			par.cost, par.dop = pj, dop
			out = append(out, &par)
		}
	}
	mkHash(l, r, li, ri, cols)
	mkHash(r, l, ri, li, colsRev)

	// Block NL: outer = smaller side; the inner is re-executed once per
	// outer batch, paying its full cost each time but holding no memory.
	outer, inner := l, r
	oc, ic := li, ri
	ocols := cols
	if r.Card() < l.Card() {
		outer, inner = r, l
		oc, ic = ri, li
		ocols = colsRev
	}
	batches := math.Max(1, math.Ceil(outer.Card()/4096))
	pairs := outer.Card() * inner.Card()
	nc := o.cpu(pairs*env.Costs.FilterCyclesPerRow + outCard*env.Costs.JoinOutputCyclesPerRow)
	innerCost := inner.Cost()
	c := outer.Cost().Add(Cost{
		Seconds: innerCost.Seconds*batches + nc.Seconds,
		Joules:  innerCost.Joules*batches + nc.Joules,
	})
	out = append(out, &PJoin{props: props{cols: ocols, card: outCard, rowBytes: outer.RowBytes() + inner.RowBytes(), cost: c},
		Algo: "nl", in: [2]PhysNode{outer, inner}, LeftCol: oc, RightCol: ic, Pred: jp})
	return out
}

// collectJoinPreds gathers the equality predicates a join tree applies.
func collectJoinPreds(n PhysNode, out map[string]bool) {
	if j, ok := n.(*PJoin); ok {
		out[j.Pred.String()] = true
	}
	for _, c := range n.Children() {
		collectJoinPreds(c, out)
	}
}

func joinCard(l, r PhysNode, lNDV, rNDV float64) float64 {
	d := math.Max(lNDV, rNDV)
	if d < 1 {
		d = 1
	}
	return l.Card() * r.Card() / d
}

// ndvOf estimates the distinct count of a column at a node, capped by the
// node's cardinality.
func (o *optimizer) ndvOf(c ColRef, node PhysNode) float64 {
	cs := o.colStats(c.Table, c.Col)
	ndv := 1000.0
	if cs != nil {
		ndv = float64(cs.NDV)
	}
	return math.Min(ndv, math.Max(1, node.Card()))
}

// buildAgg lowers GROUP BY + aggregates: a projection computes group keys
// and aggregate arguments as columns, then a PAgg consumes them.
func (o *optimizer) buildAgg(in PhysNode) PhysNode {
	var exprs []*ExprIR
	var names []string
	var cols []ColRef
	for i, g := range o.q.GroupBy {
		g := g
		exprs = append(exprs, &ExprIR{Col: &g})
		names = append(names, fmt.Sprintf("g%d", i))
		cols = append(cols, g)
	}
	groupPos := make([]int, len(o.q.GroupBy))
	for i := range groupPos {
		groupPos[i] = i
	}
	var aggs []exec.AggSpec
	var aggRefs []ColRef
	for _, out := range o.q.Outputs {
		if out.Agg == nil {
			continue
		}
		spec := exec.AggSpec{Func: out.Agg.Func, As: out.Agg.As}
		if out.Agg.Arg != nil {
			spec.Col = len(exprs)
			exprs = append(exprs, out.Agg.Arg)
			names = append(names, spec.As+"_arg")
			cols = append(cols, ColRef{Col: spec.As + "_arg"})
		}
		aggs = append(aggs, spec)
		aggRefs = append(aggRefs, ColRef{Col: spec.As})
	}
	projCycles := in.Card() * float64(len(exprs)) * o.env.Costs.ProjectCyclesPerRow
	projCost := in.Cost().Add(o.cpu(projCycles))
	proj := &PProject{props: props{cols: cols, card: in.Card(), rowBytes: float64(8 * len(exprs)), cost: projCost},
		in: [1]PhysNode{in}, Exprs: exprs, Names: names}

	groups := math.Max(1, in.Card()/10) // crude group-count estimate
	aggCycles := in.Card() * float64(max(1, len(aggs))) * o.env.Costs.AggCyclesPerRow
	mem := int64(groups * proj.RowBytes())
	ac := o.cpu(aggCycles)
	ac.MemBytes = mem
	outCols := append(append([]ColRef{}, o.q.GroupBy...), aggRefs...)
	best := &PAgg{props: props{cols: outCols, card: groups, rowBytes: float64(8 * (len(groupPos) + len(aggs))), cost: projCost.Add(ac)},
		in: [1]PhysNode{proj}, Group: groupPos, Aggs: aggs}
	bestScore := o.env.Score(best.cost, o.obj)

	// Extend the DOP sweep to the whole pipeline: when the aggregation's
	// input fragments end to end (a scan under any stack of filters and
	// hash-join probe sides — see fragPriced), price fragmenting
	// input+project+partial-agg dop-ways followed by a partition-wise
	// parallel merge. Elapsed time approaches the serial prefix (join
	// builds) plus max(io, pipelineCPU/dop) plus a merge term; joules stay
	// flat in dop except for the dop× partial groups the merge folds and the
	// per-worker startup overhead (two process waves: fragments, then merge
	// workers), so MinTime buys parallel aggregation while MinEnergy keeps
	// the serial plan — per operator, not just per scan. Filter and probe
	// CPU is priced inside the fragments here, not as the serial tax the
	// non-fragmented candidates carry.
	if pw, ok := o.pipelineWork(in); ok {
		env := o.env
		foldCycles := groups * float64(max(1, len(aggs))) * env.Costs.AggCyclesPerRow
		pipeCPU := pw.extraCPU + (projCycles+aggCycles)/env.CPUFreqHz
		mergeSecs := foldCycles / env.CPUFreqHz // dop merge workers fold dop partials in parallel
		for _, dop := range o.widths(pw.src) {
			stream, busy := o.fragmented(pw, pipeCPU, mergeSecs, 2, dop)
			c := Cost{Seconds: pw.prefix.Seconds + stream,
				Joules: pw.prefix.Joules + busy*env.CPUWattPerCore + pw.scan.ioJoules +
					float64(dop)*foldCycles/env.CPUFreqHz*env.CPUWattPerCore + pw.memBytes*env.DRAMWattPerByte*stream,
				MemBytes: int64(dop)*mem + int64(pw.memBytes)}
			if s := o.env.Score(c, o.obj); s < bestScore {
				par := *best
				par.cost, par.dop = c, dop
				best, bestScore = &par, s
			}
		}
	}
	return best
}

// buildSelect lowers the SELECT list over in. An aggregate output reads
// the column the aggregate node named for it, so above a PAgg this also
// reorders its output (group columns, then aggregates) into the order the
// user asked for.
func (o *optimizer) buildSelect(in PhysNode) PhysNode {
	var exprs []*ExprIR
	var names []string
	var cols []ColRef
	for i, out := range o.q.Outputs {
		name := out.As
		if name == "" {
			name = fmt.Sprintf("col%d", i)
		}
		if out.Agg != nil {
			ref := ColRef{Col: out.Agg.As}
			exprs = append(exprs, &ExprIR{Col: &ref})
		} else {
			exprs = append(exprs, out.Expr)
		}
		names = append(names, name)
		cols = append(cols, ColRef{Col: name})
	}
	cost := in.Cost().Add(o.cpu(in.Card() * float64(len(exprs)) * o.env.Costs.ProjectCyclesPerRow))
	return &PProject{props: props{cols: cols, card: in.Card(), rowBytes: float64(8 * len(exprs)), cost: cost},
		in: [1]PhysNode{in}, Exprs: exprs, Names: names}
}
