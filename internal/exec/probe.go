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
// the build-side rows in one batch and, over them, one keyTable plus one
// chain. The table's id is the first build row holding a key; next[r] is
// the following row with the same key, 0 for none (a chain ascends, so row
// 0 is never anyone's successor), which lists a key's rows in ascending
// order — the order the rows were materialised in. The keys themselves are
// not copied anywhere: equality reads buildB's key column. After
// runJoinBuild returns the state is read-only, so probe pipelines share it
// across simulated processes without copying. The row store's arrays, the
// chain and the table's slots are borrowed (mem) and handed back when the
// last prober releases the state (SharedBuild.release) or the build fails.
type buildState struct {
	tab    keyTable
	next   []int32       // per buildB row
	key    *table.Vector // buildB's key column
	buildB *table.Batch
	bytes  int64
	mem    *batchMem
}

// AddWorker implements Sink: the build is one fragment, whose rows go to
// the one row store.
func (bs *buildState) AddWorker(int) {}

// Absorb implements Sink: it appends one build batch to the row store,
// charging the build work to the build's process.
func (bs *buildState) Absorb(_ int, wctx *Ctx, b *table.Batch) bool {
	wctx.ChargeRows(b.Rows(), wctx.Costs.HashBuildCyclesPerRow)
	bs.bytes += b.ByteSize()
	bs.mem.store(bs.buildB, b)
	return true
}

// release hands the state's memory back to the recycler: the row store's
// arrays, the chain and the table's slots. Under ee_invariants they are
// poisoned and abandoned instead.
func (bs *buildState) release() {
	m := bs.mem
	m.reclaim(bs.buildB)
	give(&m.sels, bs.next)
	bs.tab.release()
	*bs = buildState{}
}

// runJoinBuild drains the build side under the barrier exchange into one
// row store, then indexes it into the one typed hash table. A failed build
// hands its memory back before it returns.
func (sb *SharedBuild) runJoinBuild(ctx *Ctx) (*buildState, error) {
	m := ctx.borrow()
	bs := &buildState{mem: m, buildB: m.batch(sb.Build.Schema(), 0)}
	err := RunFragments(ctx, "hashjoin:build", OneFragment(sb.Build), bs)
	if err == nil && ctx.MemBudgetBytes > 0 && bs.bytes > ctx.MemBudgetBytes {
		err = fmt.Errorf("exec: hash join build side (%d bytes) exceeds memory budget (%d): %w",
			bs.bytes, ctx.MemBudgetBytes, fault.ErrMemBudget)
	}
	if err != nil {
		bs.release()
		return nil, err
	}
	n := bs.buildB.Rows()
	bs.key = bs.buildB.Vecs[sb.Key]
	bs.tab = newKeyTable(n, m)
	bs.next = takeLen(&m.sels, n)
	hashJoinKeys(bs.next, bs.key, nil)
	switch bs.key.Type.Physical() {
	case table.PhysInt:
		chainRows(&bs.tab, bs.next, bs.key.I)
	case table.PhysFloat:
		chainRows(&bs.tab, bs.next, bs.key.F)
	default:
		chainRows(&bs.tab, bs.next, bs.key.S)
	}
	return bs, nil
}

// probeInto probes one probe batch's key column against the table,
// honouring a selection riding on the batch, and appends matching
// (build, probe) physical index pairs to bsel/psel, growing them through
// free. hs is scratch for the batch's key hashes, one per logical row.
func (bs *buildState) probeInto(pb *table.Batch, probeKey int, hs, bsel, psel []int32, free *[][]int32) ([]int32, []int32) {
	kv := pb.Vecs[probeKey]
	hashJoinKeys(hs, kv, pb.Sel)
	switch kv.Type.Physical() {
	case table.PhysInt:
		return probeRows(bs, bs.key.I, kv.I, hs, pb.Sel, bsel, psel, free)
	case table.PhysFloat:
		return probeRows(bs, bs.key.F, kv.F, hs, pb.Sel, bsel, psel, free)
	default:
		return probeRows(bs, bs.key.S, kv.S, hs, pb.Sel, bsel, psel, free)
	}
}

// SharedBuild runs a hash-join build side exactly once per pipeline run on
// behalf of any number of probe fragments (Prober). The hash join is fast
// but holds the whole build relation in memory — the power-hungry choice
// §4.1 calls out: hash join "relies on using a large chunk of memory ...
// From a power perspective, these are expensive operations and may tip the
// balance in favor of nested-loop join". That chunk is borrowed from the
// recycler, not bought per statement (buildState). The first prober to
// open runs the build in its own process — siblings opening concurrently
// park on a condition until the table exists — and the last prober to
// close drops the state, so a re-opened pipeline (a nested-loop rescan)
// rebuilds. The build side is one fragment — a parallel build-side scan is
// the Parallel merge of its fragments — feeding the one table.
type SharedBuild struct {
	Build Operator // the build-side pipeline
	Key   int      // build-key column in the build schema

	bs       *buildState
	building bool
	cond     *sim.Cond // made when a second prober first has to wait
	opens    int
	err      error // sticky: a failed build fails every prober of the run
}

// NewSharedBuild wraps a build side for its probers.
func NewSharedBuild(build Operator, key int) *SharedBuild {
	return &SharedBuild{Build: build, Key: key}
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

// release drops one prober's reference. The build's claim on its memory
// ends with the last one out: the state's arrays go back to the recycler
// (buildState.release) and the state is dropped, so a rescan rebuilds and
// an aborted run does not pin it. No prober reads the state after its own
// release: what it handed out was gathered out of the row store.
func (sb *SharedBuild) release() {
	if sb.opens--; sb.opens <= 0 {
		if sb.bs != nil {
			sb.bs.release()
		}
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
			p.mem = ctx.borrow()
			p.bsel = take(&p.mem.sels, pb.Rows())
			p.psel = take(&p.mem.sels, pb.Rows())
		}
		p.hash = room(&p.mem.sels, p.hash, pb.Rows())[:pb.Rows()]
		bsel, psel := p.bs.probeInto(pb, p.ProbeKey, p.hash, p.bsel[:0], p.psel[:0], &p.mem.sels)
		p.bsel, p.psel = bsel, psel
		if len(psel) == 0 {
			continue
		}
		ctx.ChargeRows(len(psel), ctx.Costs.JoinOutputCyclesPerRow)
		p.out = p.mem.refill(p.out, p.schema, len(psel))
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
	}
	p.mem, p.out, p.hash, p.bsel, p.psel = nil, nil, nil, nil, nil
	return err
}
