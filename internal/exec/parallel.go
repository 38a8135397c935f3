package exec

import (
	"energydb/internal/sim"
	"energydb/internal/table"
)

// DefaultMorselBlocks is the morsel size in placement blocks. With the
// default 8192-row blocks a morsel is ~32k rows — large enough that claim
// overhead vanishes, small enough that workers finishing early can steal
// work from a skewed tail.
const DefaultMorselBlocks = 4

// Morsels is a shared work dispenser for morsel-driven parallel scans: the
// block range [0, total) is handed out in fixed-size chunks ("morsels") to
// whichever scan fragment asks next. Fragments that hit cheap morsels
// (sparse predicates, well-compressed blocks) simply come back sooner and
// claim more — dynamic load balancing without a scheduler.
//
// All claims happen from simulated processes, which the sim engine runs
// one at a time with channel handoffs between them, so no locking is
// needed and the claim order is deterministic.
type Morsels struct {
	total int // blocks to hand out
	size  int // blocks per morsel
	next  int
}

// NewMorsels returns a dispenser over [0, totalBlocks) handing out
// morselBlocks blocks per claim (<= 0 selects DefaultMorselBlocks).
func NewMorsels(totalBlocks, morselBlocks int) *Morsels {
	if morselBlocks <= 0 {
		morselBlocks = DefaultMorselBlocks
	}
	return &Morsels{total: totalBlocks, size: morselBlocks}
}

// Claim hands out the next unclaimed block range [lo, hi); ok reports
// whether any work remained.
//
// Near the tail the chunk shrinks: once fewer than two full morsels
// remain, each claim takes half the remaining blocks (rounded up) instead
// of a full morsel, so the final claims taper off and the last worker to
// ask never walks away with one big straggler chunk while its siblings sit
// idle. A dispenser whose morsel covers the whole range (the serial scan's
// private dispenser) is exempt — there are no siblings to balance against.
func (m *Morsels) Claim() (lo, hi int, ok bool) {
	rem := m.total - m.next
	if rem <= 0 {
		return 0, 0, false
	}
	size := m.size
	if size < m.total && rem <= 2*size {
		if half := (rem + 1) / 2; half < size {
			size = half
		}
	}
	lo = m.next
	hi = lo + size
	if hi > m.total {
		hi = m.total
	}
	m.next = hi
	return lo, hi, true
}

// Reset makes all blocks claimable again (for operator re-open).
func (m *Morsels) Reset() { m.next = 0 }

// Remaining reports how many blocks are still unclaimed — the widening
// hook uses it to decline extra workers when the scan is nearly done.
func (m *Morsels) Remaining() int {
	if rem := m.total - m.next; rem > 0 {
		return rem
	}
	return 0
}

// Parallel is the streaming sink of the exchange layer (see exchange.go):
// the fragment runner's workers hand their batches to one consumer, which
// merges them into a single stream in completion order.
//
// Contract. Every fragment is a pipeline over the same stored table whose
// scan points at the set's shared dispenser, so together the fragments
// cover each block exactly once; which fragment produces which block is
// decided dynamically but deterministically (the engine interleaves
// processes in a fixed order). Each fragment charges CPU work through its
// own process, so up to DOP cores of the shared hw.CPU are busy at once —
// elapsed time shrinks toward cpu/DOP while power rises by DOP × active
// watts, which is exactly the race-to-idle trade the energy tests measure.
//
// Batch validity and selection vectors are preserved across the merge
// without a gather: a worker that has produced a batch parks until the
// consumer's *next* Next (or Close) acknowledges it, so the fragment may
// not reuse its buffers while the batch is live, and a deferred selection
// (Batch.Sel) rides through untouched. At most DOP batches are therefore
// in flight, bounding memory. Rows arrive in completion order, not table
// order — exactly the guarantee scans already give (blocks complete in
// I/O order), so every downstream operator works unchanged.
type Parallel struct {
	frags   Fragments
	run     fragRunner
	acks    []*sim.Mailbox[bool] // per worker: true = consumed, false = cancel
	last    int                  // worker owed an ack at the next Next, or -1
	started bool
}

// NewParallel builds the merge over a fragment set.
func NewParallel(frags Fragments) *Parallel { return &Parallel{frags: frags} }

// Schema implements Operator.
func (s *Parallel) Schema() *table.Schema { return s.frags.Schema() }

// Open implements Operator. Workers start lazily on first Next so that an
// Open/Close pair without iteration (and re-opens by nested-loop joins)
// spawns no processes.
func (s *Parallel) Open(ctx *Ctx) error {
	if s.frags.Queue != nil {
		s.frags.Queue.Reset()
	}
	s.started = false
	s.last = -1
	return nil
}

// AddWorker implements Sink: worker w gets its acknowledgement channel.
func (s *Parallel) AddWorker(w int) {
	s.acks = append(s.acks, sim.NewMailbox[bool](s.run.ctx.P.Engine(), "parallel:ack"))
}

// Absorb implements Sink: hand the batch to the consumer and park until it
// is acknowledged; a false acknowledgement means the consumer closed.
func (s *Parallel) Absorb(w int, wctx *Ctx, b *table.Batch) bool {
	s.run.out.Put(fragMsg{batch: b, w: w})
	return s.acks[w].Get(wctx.P)
}

// Next implements Operator. It releases the previously returned batch back
// to its producing worker, then blocks for the next batch from any worker.
// A fragment error fails fast: the sibling workers are cancelled and
// drained before the error surfaces, so a doomed query does not scan the
// rest of the table first.
func (s *Parallel) Next(ctx *Ctx) (*table.Batch, error) {
	if !s.started {
		s.started = true
		s.acks = s.acks[:0]
		s.run.start(ctx, "parallel", s.frags, s)
	}
	if s.last >= 0 {
		s.acks[s.last].Put(true)
		s.last = -1
	}
	for s.run.live > 0 {
		m := s.run.recv(ctx.P)
		if !m.done {
			s.last = m.w
			return m.batch, nil
		}
		if s.run.failed != nil {
			s.cancelWorkers(ctx)
			break
		}
	}
	return nil, s.run.failed
}

// cancelWorkers tells every outstanding worker to stop and drains them to
// exit, leaving no process blocked in the engine. Cancellation travels on
// the acknowledgements alone: a worker the consumer has already released
// still runs to its next hand-off before it sees the refusal.
func (s *Parallel) cancelWorkers(ctx *Ctx) {
	if s.last >= 0 {
		s.acks[s.last].Put(false)
		s.last = -1
	}
	for s.run.live > 0 {
		if m := s.run.recv(ctx.P); !m.done {
			s.acks[m.w].Put(false)
		}
	}
}

// Close implements Operator: it cancels outstanding workers and drains
// them, so an early close (LIMIT, error upstream) leaves no process
// blocked in the engine.
func (s *Parallel) Close(ctx *Ctx) error {
	if !s.started {
		return nil
	}
	s.run.release()
	s.cancelWorkers(ctx)
	s.started = false
	return s.run.failed
}
