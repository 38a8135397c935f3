// Package sim is a deterministic discrete-event simulation kernel.
//
// It provides a virtual clock (float64 seconds), an event heap, and a
// cooperative process model: each simulated activity (a query stream, a
// background policy) runs in its own goroutine, but the engine guarantees
// that exactly one process executes at a time and that execution order is a
// deterministic function of (event time, schedule order). The same program
// with the same seeds therefore produces bit-identical timings, which the
// energy accounting layer depends on.
//
// The kernel knows nothing about hardware or databases; devices in
// internal/hw are built from Resource and timers.
//
// Parking and waking a process allocates nothing. A parked process has at
// most one wake-up pending — the end of its Sleep, or the Signal, Broadcast
// or grant that took it off a wait queue — so the wake-up rides on an event
// embedded in its Proc, and scheduling a second one while the first is
// pending is a kernel bug that panics with the process's name. Names (of
// events, processes, conditions, mailboxes, resources) are diagnostics: the
// kernel stores the strings it is given and formats a label only where a
// panic or a deadlock report prints one. Times must be numbers: a NaN
// compares false with everything and would break the heap order, and with
// it the determinism guarantee, silently, and an infinite one ends the
// clock, so At, After and Sleep refuse NaN and ±Inf as they refuse the
// past — with a panic naming the event or the process.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrDeadlock is the sentinel Run wraps when processes remain blocked with
// no event left to wake them; match with errors.Is, not the message.
var ErrDeadlock = errors.New("sim: deadlock")

// event is a scheduled callback (fn, under a diagnostic name) or a
// process's wake-up (p: the event is the one embedded in that Proc).
// Events with equal time fire in schedule order (seq), which keeps the
// simulation deterministic.
type event struct {
	t      float64
	seq    int64
	name   string
	fn     func()
	p      *Proc
	queued bool // a wake-up that is in the heap
}

// label names the event in a panic message.
func (ev *event) label() string {
	if ev.p != nil {
		return fmt.Sprintf("wake-up of %s", ev.p.name)
	}
	return ev.name
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine owns the virtual clock and the event queue.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     float64
	queue   eventHeap
	seq     int64
	procSeq int64
	yield   chan struct{} // a running process signals here when it parks or ends
	procs   map[*Proc]struct{}
	live    int
	current *Proc // the process executing right now, nil in event context
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now reports the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// finite reports whether x is a number a clock can hold: not NaN, not ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// At schedules fn to run at absolute time t (>= Now, and finite). The name
// is used in diagnostics only.
func (e *Engine) At(t float64, name string, fn func()) {
	if !finite(t) {
		panic(fmt.Sprintf("sim: scheduling %q at non-finite time %v", name, t))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q in the past: %v < %v", name, t, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &event{t: t, seq: e.seq, name: name, fn: fn})
}

// After schedules fn to run d seconds from now. A negative or non-finite d
// panics.
func (e *Engine) After(d float64, name string, fn func()) {
	if !finite(d) || d < 0 {
		panic(fmt.Sprintf("sim: negative or non-finite delay %v for %q", d, name))
	}
	e.At(e.now+d, name, fn)
}

// wakeAfter schedules p to resume d seconds from now. It is the one place a
// process wake-up is scheduled — the end of a Sleep, a new process's start,
// a Signal, a Broadcast, a Resource grant — and it takes its seq at exactly
// the point an After would, so a wake-up orders among the other events as
// a callback that resumed p always did. The event is the one embedded in
// p, so nothing is allocated.
func (e *Engine) wakeAfter(d float64, p *Proc) {
	if !finite(d) || d < 0 || !finite(e.now+d) {
		panic(fmt.Sprintf("sim: negative or non-finite sleep %v in %q", d, p.name))
	}
	ev := &p.wakeup
	if ev.queued {
		if p.killed {
			return // unwinding under Crash, which drops the whole queue when it is done
		}
		panic(fmt.Sprintf("sim: second wake-up scheduled for %q while one is pending", p.name))
	}
	e.seq++
	ev.t, ev.seq, ev.queued = e.now+d, e.seq, true
	heap.Push(&e.queue, ev)
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

// Live reports the number of processes that have started but not finished.
func (e *Engine) Live() int { return e.live }

// LiveNames reports the names of live processes, sorted (diagnostics).
func (e *Engine) LiveNames() []string { return e.blockedNames() }

// Step processes the single earliest pending event, reporting whether one
// existed. Callers outside the simulation (a client iterating a streaming
// result) use it to advance the virtual clock just far enough to produce
// the data they are waiting for, instead of draining the whole event queue
// with Run.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.step()
	return true
}

// Run processes events until none remain. If processes are still alive but
// no event can ever wake them, Run returns a deadlock error naming them.
func (e *Engine) Run() error {
	for len(e.queue) > 0 {
		e.step()
	}
	if e.live > 0 {
		return fmt.Errorf("%w: %d process(es) blocked forever: %v", ErrDeadlock, e.live, e.blockedNames())
	}
	return nil
}

// RunUntil processes all events with time <= t, then advances the clock to
// exactly t. Processes may still be alive (blocked or sleeping past t).
func (e *Engine) RunUntil(t float64) error {
	if t < e.now {
		return fmt.Errorf("sim: RunUntil(%v) is in the past (now=%v)", t, e.now)
	}
	for len(e.queue) > 0 && e.queue[0].t <= t {
		e.step()
	}
	e.now = t
	return nil
}

func (e *Engine) step() {
	ev := heap.Pop(&e.queue).(*event)
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: time went backwards popping %q: %v < %v", ev.label(), ev.t, e.now))
	}
	e.now = ev.t
	if ev.p != nil {
		ev.queued = false
		e.wake(ev.p)
		return
	}
	ev.fn()
}

func (e *Engine) blockedNames() []string {
	var names []string
	for p := range e.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// Proc is a simulated process: a goroutine whose execution is interleaved
// deterministically by the engine. All blocking methods must be called from
// the process's own goroutine.
type Proc struct {
	eng      *Engine
	id       int64
	name     string
	resume   chan struct{}
	wakeup   event // the one wake-up a parked process can have pending
	panicked any
	dead     bool
	killed   bool
	owner    any
}

// killSentinel is the panic value used to unwind a killed process. The
// spawn wrapper swallows it; any other panic still propagates.
type killSentinel struct{}

// Go starts fn as a new simulated process at the current time.
// fn begins executing when the engine next reaches the current instant in
// the event order.
//
// A process spawned from inside another process inherits the spawner's
// owner tag (see SetOwner): helper processes a query fans out — exchange
// workers, scan readers, per-device volume readers — charge the query's
// account without every spawn site having to thread it through.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{eng: e, id: e.procSeq, name: name, resume: make(chan struct{})}
	p.wakeup.p = p
	if e.current != nil {
		p.owner = e.current.owner
	}
	e.live++
	e.procs[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if _, k := r.(killSentinel); !k {
					p.panicked = r
				}
			}
			p.dead = true
			e.live--
			delete(e.procs, p)
			e.yield <- struct{}{}
		}()
		if p.killed {
			return // killed before first scheduling: never run fn
		}
		fn(p)
	}()
	e.wakeAfter(0, p)
	return p
}

// Crash models a whole-engine failure at the current instant: every live
// process is unwound (its goroutine exits without running further user
// code) and every pending event is dropped. The clock is preserved.
// Processes are killed in spawn order so the unwind — and anything it
// observes — is deterministic. Must not be called from process context;
// call it from an event callback or between Run/Step calls.
func (e *Engine) Crash() {
	if e.current != nil {
		panic("sim: Crash called from process context")
	}
	victims := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, p := range victims {
		p.killed = true
		e.wake(p) // park (or the spawn wrapper) sees killed and unwinds
	}
	for _, ev := range e.queue {
		ev.queued = false
	}
	e.queue = nil
}

// wake transfers control to p and blocks the engine until p parks again or
// finishes. It must only be called from engine context (an event callback).
func (e *Engine) wake(p *Proc) {
	if p.dead {
		return
	}
	prev := e.current
	e.current = p
	p.resume <- struct{}{}
	<-e.yield
	e.current = prev
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// park suspends the calling process until the engine wakes it. A killed
// process never parks again: it unwinds via the kill sentinel, which the
// spawn wrapper swallows (so cleanup defers run, then the goroutine
// exits) while handing control back to the engine.
func (p *Proc) park() {
	if p.killed {
		panic(killSentinel{})
	}
	p.eng.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killSentinel{})
	}
}

// Killed reports whether the process has been unwound by Engine.Crash.
// Long-running cleanup defers can consult it to skip work that would
// block.
func (p *Proc) Killed() bool { return p.killed }

// Name reports the process name given to Go.
func (p *Proc) Name() string { return p.name }

// SetOwner attaches an opaque accounting tag to the process. The kernel
// never interprets it; hardware models read it back through Owner to
// attribute the work a process drives (see energy.Charger). Processes
// spawned from this process while the tag is set inherit it (see Go), so
// a query's whole process tree charges one account.
func (p *Proc) SetOwner(o any) { p.owner = o }

// Owner reports the tag set by SetOwner, or nil.
func (p *Proc) Owner() any { return p.owner }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() float64 { return p.eng.now }

// Sleep suspends the process for d seconds of simulated time. A negative
// or non-finite d panics.
func (p *Proc) Sleep(d float64) {
	p.eng.wakeAfter(d, p)
	p.park()
}

// Yield lets all other events scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
