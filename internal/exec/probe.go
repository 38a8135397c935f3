package exec

import (
	"fmt"
	"slices"

	"energydb/internal/fault"
	"energydb/internal/sim"
	"energydb/internal/table"
)

// This file is the hash join: a SharedBuild materialises the build side
// once into an immutable buildState, and any number of Probers — one for a
// serial plan, DOP of them sharing a morsel dispenser for a fragmented
// probe — stream against it concurrently.

// buildState is the materialised, immutable result of a hash-join build:
// the concatenated build-side batch and, over it, one keyTable per
// partition plus one chain. A table's id is the first build row holding a
// key; next[r] is the following row with the same key, 0 for none (a chain
// ascends, so row 0 is never anyone's successor), which lists a key's rows
// in ascending order — the order the rows were materialised in. The keys
// themselves are not copied anywhere: equality reads buildB's key column.
// After runJoinBuild returns the state is read-only, so probe pipelines
// share it across simulated processes without copying.
type buildState struct {
	nparts uint32
	tabs   []keyTable    // per partition; ids are global buildB rows
	next   []int32       // per buildB row
	key    *table.Vector // buildB's key column
	buildB *table.Batch
	bytes  int64
}

// AddWorker implements Sink: build worker w hash-partitions its rows by
// key into row stores of its own.
func (sb *SharedBuild) AddWorker(w int) {
	sb.locals = append(sb.locals, newBuildPartitioner(sb.Build.Schema(), sb.Key, sb.nparts()))
}

// Absorb implements Sink.
func (sb *SharedBuild) Absorb(w int, wctx *Ctx, b *table.Batch) bool {
	sb.locals[w].absorb(wctx, b)
	return true
}

// nparts is the number of hash partitions, a power of two.
func (sb *SharedBuild) nparts() uint32 {
	if sb.Partitions > 1 {
		return uint32(ceilPow2(sb.Partitions))
	}
	return 1
}

// runJoinBuild drains the build fragments under the barrier exchange into
// per-worker partitioned row stores, then builds the per-partition typed
// hash tables, one process per partition.
func (sb *SharedBuild) runJoinBuild(ctx *Ctx) (*buildState, error) {
	nparts := int(sb.nparts())
	bs := &buildState{nparts: uint32(nparts)}

	// Phase 1: drain build pipelines into per-worker partitioned row stores.
	sb.locals = sb.local0[:0]
	defer func() { sb.locals, sb.local0[0] = nil, nil }()
	if err := RunFragments(ctx, "hashjoin:build", sb.Build, sb); err != nil {
		return nil, err
	}
	locals := sb.locals

	// Phase 2: concatenate the workers' shares of each partition (worker
	// order within a partition, partitions in order) into one build batch,
	// recording every partition's global row span. One worker with one
	// partition adopts the materialised rows as-is — absorb already copied
	// them once.
	spans := make([][2]int, nparts)
	if len(locals) == 1 && nparts == 1 {
		bs.buildB = locals[0].parts[0]
		locals[0].parts[0] = nil
		spans[0] = [2]int{0, bs.buildB.Rows()}
	} else {
		bs.buildB = table.NewBatch(sb.Build.Schema(), 0)
		for p := 0; p < nparts; p++ {
			lo := bs.buildB.Rows()
			for _, l := range locals {
				bs.buildB.AppendBatch(l.parts[p])
				l.parts[p] = nil
			}
			spans[p] = [2]int{lo, bs.buildB.Rows()}
		}
	}
	for _, l := range locals {
		bs.bytes += l.bytes
	}
	if ctx.MemBudgetBytes > 0 && bs.bytes > ctx.MemBudgetBytes {
		return nil, fmt.Errorf("exec: hash join build side (%d bytes) exceeds memory budget (%d): %w",
			bs.bytes, ctx.MemBudgetBytes, fault.ErrMemBudget)
	}

	// Phase 3: index each partition's row span, one process per partition
	// (a single partition builds inline). Ids are global buildB row
	// indexes, so the probe and output paths are partition-agnostic.
	bs.key = bs.buildB.Vecs[sb.Key]
	bs.tabs = make([]keyTable, nparts)
	bs.next = make([]int32, bs.buildB.Rows())
	err := ParDo(ctx, "hashjoin:tables", nparts, func(p int, _ *Ctx) error {
		lo, hi := spans[p][0], spans[p][1]
		bs.tabs[p] = newKeyTable(hi - lo)
		hashJoinKeys(bs.next[lo:hi], bs.key, lo, nil)
		switch bs.key.Type.Physical() {
		case table.PhysInt:
			chainRows(&bs.tabs[p], bs.next, bs.key.I, lo, hi)
		case table.PhysFloat:
			chainRows(&bs.tabs[p], bs.next, bs.key.F, lo, hi)
		default:
			chainRows(&bs.tabs[p], bs.next, bs.key.S, lo, hi)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bs, nil
}

// probeInto probes one probe batch's key column against the tables,
// honouring a selection riding on the batch, and appends matching
// (build, probe) physical index pairs to bsel/psel. hs is scratch for the
// batch's key hashes, one per logical row.
func (bs *buildState) probeInto(pb *table.Batch, probeKey int, hs, bsel, psel []int32) ([]int32, []int32) {
	kv := pb.Vecs[probeKey]
	hashJoinKeys(hs, kv, 0, pb.Sel)
	switch kv.Type.Physical() {
	case table.PhysInt:
		return probeRows(bs, bs.key.I, kv.I, hs, pb.Sel, bsel, psel)
	case table.PhysFloat:
		return probeRows(bs, bs.key.F, kv.F, hs, pb.Sel, bsel, psel)
	default:
		return probeRows(bs, bs.key.S, kv.S, hs, pb.Sel, bsel, psel)
	}
}

// SharedBuild runs a hash-join build side exactly once per pipeline run on
// behalf of any number of probe fragments (Prober). The first prober to
// open runs the build in its own process — siblings opening concurrently
// park on a condition until the tables exist — and the last prober to
// close drops the state, so a re-opened pipeline (a nested-loop rescan)
// rebuilds. A build compiled into several fragments runs them under the
// barrier exchange, composing build- and probe-side parallelism.
type SharedBuild struct {
	Build      Fragments // the build-side pipeline
	Key        int       // build-key column in the build schema
	Partitions int       // hash partitions, rounded up to a power of two; <= 1 builds one table

	locals   []*buildPartitioner  // per-worker row stores while the build runs
	local0   [1]*buildPartitioner // backing for the first, so a serial build allocates no slice
	bs       *buildState
	building bool
	cond     *sim.Cond // made when a second prober first has to wait
	opens    int
	err      error // sticky: a failed build fails every prober of the run
}

// NewSharedBuild wraps a build side for its probers.
func NewSharedBuild(build Fragments, key, partitions int) *SharedBuild {
	return &SharedBuild{Build: build, Key: key, Partitions: partitions}
}

// Schema is the build side's schema.
func (sb *SharedBuild) Schema() *table.Schema { return sb.Build.Schema() }

// acquire returns the shared build state, running the build if this is
// the first prober in. Callers that get an error must not release.
func (sb *SharedBuild) acquire(ctx *Ctx) (*buildState, error) {
	for sb.building {
		if sb.cond == nil {
			sb.cond = sim.NewCond(ctx.P.Engine(), "hashjoin:sharedbuild")
		}
		sb.cond.Wait(ctx.P)
	}
	if sb.err != nil {
		return nil, sb.err
	}
	if sb.bs == nil {
		sb.building = true
		bs, err := sb.runJoinBuild(ctx)
		sb.building = false
		if sb.cond != nil {
			sb.cond.Broadcast()
		}
		if err != nil {
			sb.err = err
			return nil, err
		}
		sb.bs = bs
	}
	sb.opens++
	return sb.bs, nil
}

// release drops one prober's reference; the last one out frees the build
// state so a rescan rebuilds (and an aborted run does not pin it).
func (sb *SharedBuild) release() {
	if sb.opens--; sb.opens <= 0 {
		sb.opens = 0
		sb.bs = nil
		sb.err = nil
	}
}

// Prober is the probe side of a hash join: it streams its probe pipeline
// against the join's shared build state. A serial join is one Prober; a
// fragmented probe is DOP of them under a Parallel merge (the fragments
// divide the probe table via a shared morsel dispenser upstream),
// producing the same multiset of rows with probe and output CPU spread
// across cores.
type Prober struct {
	SB       *SharedBuild
	In       Operator // probe pipeline
	ProbeKey int      // column index in In's schema

	schema *table.Schema
	bs     *buildState

	// What a Prober refills per batch is borrowed, like a scan's decode
	// memory, from its first probe batch to its Close: the probe keys'
	// hashes, the matched (build, probe) row pairs, and — from the first
	// batch that matches — the arrays the output batch is gathered into.
	mem              *batchMem
	hash, bsel, psel []int32
	out              *table.Batch
}

// NewProber builds one probe pipeline over a shared build.
func NewProber(sb *SharedBuild, in Operator, probeKey int) *Prober {
	return &Prober{SB: sb, In: in, ProbeKey: probeKey,
		schema: joinSchema("hashjoin", sb.Schema(), in.Schema())}
}

// Schema implements Operator.
func (p *Prober) Schema() *table.Schema { return p.schema }

// Open implements Operator. A failed build has freed its partial state
// before surfacing, so an aborted query does not pin the materialised
// build side for the Rows' lifetime.
func (p *Prober) Open(ctx *Ctx) error {
	bs, err := p.SB.acquire(ctx)
	if err != nil {
		return err
	}
	p.bs = bs
	if err := p.In.Open(ctx); err != nil {
		p.SB.release()
		p.bs = nil
		return err
	}
	return nil
}

// Next implements Operator: it pulls probe batches until one matches (or
// EOF), materialising the matched pairs with one batch-level gather per
// side. The returned batch is valid until the following Next, per the
// operator contract.
func (p *Prober) Next(ctx *Ctx) (*table.Batch, error) {
	p.retire() // the previous batch is dead from here on
	for {
		pb, err := p.In.Next(ctx)
		if err != nil || pb == nil {
			return nil, err
		}
		ctx.ChargeRows(pb.Rows(), ctx.Costs.HashProbeCyclesPerRow)
		if p.mem == nil {
			p.mem = batchMems.Get().(*batchMem)
			p.hash = take(&p.mem.sels, pb.Rows())
			p.bsel = take(&p.mem.sels, pb.Rows())
			p.psel = take(&p.mem.sels, pb.Rows())
		}
		p.hash = slices.Grow(p.hash[:0], pb.Rows())[:pb.Rows()]
		bsel, psel := p.bs.probeInto(pb, p.ProbeKey, p.hash, p.bsel[:0], p.psel[:0])
		p.bsel, p.psel = bsel, psel
		if len(psel) == 0 {
			continue
		}
		ctx.ChargeRows(len(psel), ctx.Costs.JoinOutputCyclesPerRow)
		if p.out == nil {
			p.out = p.mem.batch(p.schema, len(psel))
		}
		p.out.Reset()
		nb := len(p.bs.buildB.Vecs)
		for c, v := range p.bs.buildB.Vecs {
			p.out.Vecs[c].AppendGather(v, bsel)
		}
		for c, v := range pb.Vecs {
			p.out.Vecs[nb+c].AppendGather(v, psel)
		}
		p.out.SetRows(len(psel))
		return p.out, nil
	}
}

// Close implements Operator. The Prober's claim on its borrowed memory
// ends here: the arrays go back to the recycler, and a second Close finds
// nothing to hand back. The checking build's retire has poisoned and
// abandoned them by then; it never recycles.
func (p *Prober) Close(ctx *Ctx) error {
	err := p.In.Close(ctx)
	if p.bs != nil {
		p.SB.release()
		p.bs = nil
	}
	p.retire()
	if m := p.mem; m != nil {
		if p.out != nil {
			m.reclaim(p.out)
		}
		give(&m.sels, p.hash)
		give(&m.sels, p.bsel)
		give(&m.sels, p.psel)
		batchMems.Put(m)
	}
	p.mem, p.out, p.hash, p.bsel, p.psel = nil, nil, nil, nil, nil
	return err
}
