package exec

import (
	"fmt"

	"energydb/internal/fault"
	"energydb/internal/sim"
	"energydb/internal/table"
)

// This file is the hash join: a SharedBuild materialises the build side
// once into an immutable buildState, and any number of Probers — one for a
// serial plan, DOP of them sharing a morsel dispenser for a fragmented
// probe — stream against it concurrently.

// buildState is the materialised, immutable result of a hash-join build:
// the concatenated build-side batch plus the per-partition typed hash
// tables over it. After runJoinBuild returns it is read-only, so probe
// pipelines share it across simulated processes without copying.
type buildState struct {
	nparts uint32
	htI    []map[int64][]int32 // per partition; values are global buildB rows
	htF    []map[float64][]int32
	htS    []map[string][]int32
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

	// Phase 3: build each partition's typed hash table over its row span,
	// one process per partition (a single partition builds inline). Values
	// are global buildB row indexes, so the probe and output paths are
	// partition-agnostic.
	kv := bs.buildB.Vecs[sb.Key]
	phys := kv.Type.Physical()
	switch phys {
	case table.PhysInt:
		bs.htI = make([]map[int64][]int32, nparts)
	case table.PhysFloat:
		bs.htF = make([]map[float64][]int32, nparts)
	default:
		bs.htS = make([]map[string][]int32, nparts)
	}
	err := ParDo(ctx, "hashjoin:tables", nparts, func(p int, _ *Ctx) error {
		lo, hi := spans[p][0], spans[p][1]
		switch phys {
		case table.PhysInt:
			ht := make(map[int64][]int32, hi-lo)
			for i := lo; i < hi; i++ {
				ht[kv.I[i]] = append(ht[kv.I[i]], int32(i))
			}
			bs.htI[p] = ht
		case table.PhysFloat:
			ht := make(map[float64][]int32, hi-lo)
			for i := lo; i < hi; i++ {
				ht[kv.F[i]] = append(ht[kv.F[i]], int32(i))
			}
			bs.htF[p] = ht
		default:
			ht := make(map[string][]int32, hi-lo)
			for i := lo; i < hi; i++ {
				ht[kv.S[i]] = append(ht[kv.S[i]], int32(i))
			}
			bs.htS[p] = ht
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
// (build, probe) physical index pairs to bsel/psel.
func (bs *buildState) probeInto(pb *table.Batch, probeKey int, bsel, psel []int32) ([]int32, []int32) {
	kv := pb.Vecs[probeKey]
	mask := bs.nparts - 1
	switch kv.Type.Physical() {
	case table.PhysInt:
		if bs.nparts == 1 {
			return probeHT(bs.htI[0], kv.I, pb.Sel, bsel, psel)
		}
		return probePartHT(bs.htI, hashInt64, mask, kv.I, pb.Sel, bsel, psel)
	case table.PhysFloat:
		if bs.nparts == 1 {
			return probeHT(bs.htF[0], kv.F, pb.Sel, bsel, psel)
		}
		return probePartHT(bs.htF, hashFloat64, mask, kv.F, pb.Sel, bsel, psel)
	default:
		if bs.nparts == 1 {
			return probeHT(bs.htS[0], kv.S, pb.Sel, bsel, psel)
		}
		return probePartHT(bs.htS, hashString, mask, kv.S, pb.Sel, bsel, psel)
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

	schema     *table.Schema
	bs         *buildState
	bsel, psel []int32      // reusable match scratch
	out        *table.Batch // reusable output batch
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
	for {
		pb, err := p.In.Next(ctx)
		if err != nil || pb == nil {
			return nil, err
		}
		ctx.ChargeRows(pb.Rows(), ctx.Costs.HashProbeCyclesPerRow)
		bsel, psel := p.bs.probeInto(pb, p.ProbeKey, p.bsel[:0], p.psel[:0])
		p.bsel, p.psel = bsel, psel
		if len(psel) == 0 {
			continue
		}
		ctx.ChargeRows(len(psel), ctx.Costs.JoinOutputCyclesPerRow)
		if p.out == nil {
			p.out = table.NewBatch(p.schema, len(psel))
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

// Close implements Operator.
func (p *Prober) Close(ctx *Ctx) error {
	err := p.In.Close(ctx)
	if p.bs != nil {
		p.SB.release()
		p.bs = nil
	}
	p.out = nil
	return err
}
