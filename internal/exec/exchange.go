package exec

import (
	"math"

	"energydb/internal/sim"
	"energydb/internal/table"
)

// This file is the exchange layer: it runs a pipeline compiled n ways —
// a Fragments set — across simulated processes. One fragment runner owns
// everything about the workers (start, stop, error fan-in); what differs
// between exchanges is only the Sink their batches go to:
//
//   - a barrier sink (RunFragments) absorbs every batch inside the worker
//     that produced it, and control returns when all fragments have
//     exited — the accumulation phase of aggregation, join builds and
//     sorts;
//   - the streaming sink (Parallel, parallel.go) hands each batch to one
//     consumer and parks the worker until the consumer is done with it.
//
// Serial execution is the set of one fragment: it runs inline on the
// caller's process and spawns nothing, exactly as ParDo does for n == 1,
// so a serial plan and a DOP-1 plan are the same code, events and joules.
// ParDo is plain task parallelism for the phase after a barrier (the
// aggregation's partition-wise merge).
//
// Ownership across an exchange boundary follows one rule (see CONTRACT.md):
// a batch never crosses a process boundary while its producer may still
// mutate it — sinks run inside the producing worker, and anything that
// outlives the worker is copied into state the next phase owns.

// Fragments is one pipeline compiled into one or more fragment operator
// trees, each exclusively owned by the worker that runs it. Fragments of a
// set of several divide their input through the shared Queue dispenser; a
// set of one is a serial pipeline and usually owns its whole input (Queue
// nil). The zero value is not a valid set.
type Fragments struct {
	// first and rest, not one slice: every pipeline breaker of every
	// serial plan holds a set of one, which this way allocates nothing.
	first Operator
	rest  []Operator

	// Queue is the morsel dispenser the fragments share; the exchange
	// running the set resets it at the start of every run.
	Queue *Morsels
}

// OneFragment is the serial set: op alone, owning its whole input.
func OneFragment(op Operator) Fragments { return Fragments{first: op} }

// NewFragments is the set of ops sharing queue. The fragments must
// produce identical schemas and share no mutable state (predicate
// scratch, fused kernels).
func NewFragments(ops []Operator, queue *Morsels) Fragments {
	if len(ops) == 0 {
		panic("exec: a fragment set needs at least one fragment")
	}
	return Fragments{first: ops[0], rest: ops[1:], Queue: queue}
}

// Len is the number of fragments compiled into the set.
func (f Fragments) Len() int { return 1 + len(f.rest) }

// Schema is the schema every fragment produces.
func (f Fragments) Schema() *table.Schema { return f.first.Schema() }

// Map puts wrap(fragment) in place of every fragment.
func (f Fragments) Map(wrap func(in Operator) (Operator, error)) (Fragments, error) {
	var err error
	if f.first, err = wrap(f.first); err != nil {
		return f, err
	}
	for i, in := range f.rest {
		if f.rest[i], err = wrap(in); err != nil {
			return f, err
		}
	}
	return f, nil
}

// Stream returns the set as one operator: the Parallel merge over its
// fragments, or — a serial pipeline being its own stream — the single
// fragment itself. (A lone fragment that claims from a dispenser still
// gets the merge, which resets the dispenser on re-open.)
func (f Fragments) Stream() Operator {
	if len(f.rest) == 0 && f.Queue == nil {
		return f.first
	}
	return NewParallel(f)
}

// Sink is where a running fragment set's batches go.
type Sink interface {
	// AddWorker prepares the sink's state for worker w before w starts.
	// Workers are numbered from 0 in start order.
	AddWorker(w int)
	// Absorb consumes one non-empty batch inside worker w's process, so
	// CPU it charges lands on that worker's core. The batch is owned by the
	// fragment and valid only for the duration of the call: a sink that
	// keeps rows copies them into state of its own (per-worker state needs
	// no locking — the engine runs one process at a time). Returning false
	// stops worker w.
	Absorb(w int, wctx *Ctx, b *table.Batch) bool
}

// runFragment drives one fragment on wctx's process: it feeds the sink
// until the stream ends, the sink declines or *stop trips, and closes the
// fragment on every exit path — a pipeline that fails part-way never
// leaves a scan reader parked on its credits.
func runFragment(wctx *Ctx, frag Operator, w int, sink Sink, stop *bool) error {
	err := frag.Open(wctx)
	for err == nil && !*stop {
		var b *table.Batch
		if b, err = frag.Next(wctx); err != nil || b == nil {
			break
		}
		if b.Rows() > 0 && !sink.Absorb(w, wctx, b) {
			break
		}
	}
	if cerr := frag.Close(wctx); err == nil {
		err = cerr
	}
	return err
}

// fragMsg is one message from a fragment worker: a batch handed to the
// streaming consumer, or the worker's exit (done) with its error.
type fragMsg struct {
	batch *table.Batch
	w     int
	err   error
	done  bool
}

// fragRunner owns the workers of one running fragment set: each fragment
// in its own simulated process against a private copy of the
// coordinator's context, so its CPU charges land on its own core (workers
// inherit the coordinator's attribution owner at spawn — sim.Engine.Go).
// Every worker reports its exit on out. The first failure trips stop,
// which the others see at their next batch boundary.
type fragRunner struct {
	ctx    *Ctx
	name   string
	sink   Sink
	out    *sim.Mailbox[fragMsg]
	live   int // workers that have not reported their exit
	stop   bool
	failed error // first error in completion order
}

// start launches one worker per fragment, numbered in set order.
func (r *fragRunner) start(ctx *Ctx, name string, frags Fragments, sink Sink) {
	*r = fragRunner{ctx: ctx, name: name, sink: sink,
		out: sim.NewMailbox[fragMsg](ctx.P.Engine(), name)}
	r.startWorker(0, frags.first)
	for i, frag := range frags.rest {
		r.startWorker(i+1, frag)
	}
}

func (r *fragRunner) startWorker(w int, frag Operator) {
	r.live++
	r.sink.AddWorker(w)
	// Names are diagnostics: every worker of a set goes by the set's.
	r.ctx.P.Engine().Go(r.name, func(wp *sim.Proc) {
		wctx := *r.ctx
		wctx.P = wp
		err := runFragment(&wctx, frag, w, r.sink, &r.stop)
		if err != nil {
			r.stop = true
		}
		r.out.Put(fragMsg{w: w, err: err, done: true})
	})
}

// recv blocks for the next worker message, settling exits as they arrive.
func (r *fragRunner) recv(p *sim.Proc) fragMsg {
	m := r.out.Get(p)
	if m.done {
		r.live--
		if m.err != nil && r.failed == nil {
			r.failed = m.err
		}
	}
	return m
}

// RunFragments is the barrier exchange: it runs every fragment of the set
// to completion, feeding its batches to sink, and returns the first error
// in completion order once all fragments have exited and been closed. A
// failure stops the others at their next batch boundary.
func RunFragments(ctx *Ctx, name string, frags Fragments, sink Sink) error {
	if frags.Queue != nil {
		frags.Queue.Reset()
	}
	if frags.Len() == 1 {
		sink.AddWorker(0)
		stop := false
		return runFragment(ctx, frags.first, 0, sink, &stop)
	}
	var r fragRunner
	r.start(ctx, name, frags, sink)
	for r.live > 0 {
		r.recv(ctx.P)
	}
	return r.failed
}

// ParDo runs n tasks, each in its own simulated process, and blocks until
// all have finished; it returns the first error in completion order.
// Tasks charge CPU through their own process, so up to n cores execute
// concurrently (excess tasks queue on the CPU resource). n == 1 runs the
// task inline on the caller's process, spawning nothing.
func ParDo(ctx *Ctx, name string, n int, task func(i int, wctx *Ctx) error) error {
	if n == 1 {
		return task(0, ctx)
	}
	eng := ctx.P.Engine()
	done := sim.NewMailbox[fragMsg](eng, name)
	for i := 0; i < n; i++ {
		i := i
		eng.Go(name, func(wp *sim.Proc) {
			wctx := *ctx
			wctx.P = wp
			done.Put(fragMsg{w: i, err: task(i, &wctx)})
		})
	}
	var first error
	for k := 0; k < n; k++ {
		if d := done.Get(ctx.P); d.err != nil && first == nil {
			first = d.err
		}
	}
	return first
}

// The hashes below file join keys in the build's table, and the probe side
// recomputes them to find the key there, so they must be pure functions of
// the key value.

// hashInt64 scrambles an int64 key (Fibonacci multiplicative hashing), so
// dense sequential keys spread across the table instead of striping.
func hashInt64(x int64) uint32 {
	return uint32((uint64(x) * 0x9E3779B97F4A7C15) >> 32)
}

// hashFloat64 hashes a float64 key by its bit pattern, canonicalising
// negative zero first: Go map equality treats +0.0 and -0.0 as the same
// key, so they must hash alike or a probe carrying one would seek the
// other's slot in vain. (NaN keys never match under map equality.)
func hashFloat64(f float64) uint32 {
	if f == 0 {
		f = 0 // collapse -0.0 onto +0.0, matching map key equality
	}
	return hashInt64(int64(math.Float64bits(f)))
}

// hashString is FNV-1a over the key bytes. The aggregation's merge
// partitions by the same function over a group key's binary encoding
// (aggTable.partHashes).
func hashString(s string) uint32 {
	h := uint32(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

// The 32-bit FNV-1a parameters.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// ceilPow2 rounds n up to the next power of two (minimum 1), so partition
// routing can mask instead of divide.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
