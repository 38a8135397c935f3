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
//
// Starting a process allocates only its goroutine's start record. Each
// process runs on a goroutine of its own, which exits with it. A process
// whose function returned normally hands its Proc back to the engine, and
// a later Go reuses that Proc and its resume channel. So the *Proc that
// Go returns is valid until the function returns, and not after. A process
// that Crash killed, or that panicked, is never reused: a wait queue or a
// mailbox may still name it.
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
	now        float64
	queue      eventHeap
	seq        int64
	procSeq    int64
	yield      chan struct{} // a running process signals here when it parks or ends
	head, tail *Proc         // the live processes, in spawn order
	free       *Proc         // finished processes Go may reuse, linked through next
	live       int
	current    *Proc // the process executing right now, nil in event context
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
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
	for p := e.head; p != nil; p = p.next {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// Proc is a simulated process: a goroutine whose execution is interleaved
// deterministically by the engine. All blocking methods must be called from
// the process's own goroutine.
type Proc struct {
	eng        *Engine
	id         int64
	name       string
	fn         func(p *Proc)
	resume     chan struct{}
	wakeup     event // the one wake-up a parked process can have pending
	prev, next *Proc // the engine's live list; next also links its free list
	panicked   any
	dead       bool
	killed     bool
	owner      any
}

// killSentinel is the panic value used to unwind a killed process. The
// process's exit swallows it; any other panic still propagates.
type killSentinel struct{}

// Go starts fn as a new simulated process at the current time.
// fn begins executing when the engine next reaches the current instant in
// the event order.
//
// The returned *Proc is valid until fn returns: after a normal return the
// engine may hand the same Proc to a later Go (see the package doc).
//
// A process spawned from inside another process inherits the spawner's
// owner tag (see SetOwner): helper processes a query fans out — exchange
// workers, scan readers, per-device volume readers — charge the query's
// account without every spawn site having to thread it through.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := e.free
	if p != nil {
		e.free = p.next
		*p = Proc{resume: p.resume}
	} else {
		// One slot, so the engine can hand a process its first turn before
		// the goroutine reaches its receive and then wait on yield at once.
		// Unbuffered, a body that never parks would end while the engine
		// was still on its way to yield, and its goroutine, parked on that
		// send, would queue behind every later one instead of exiting.
		p = &Proc{resume: make(chan struct{}, 1)}
	}
	p.eng, p.id, p.name, p.fn = e, e.procSeq, name, fn
	p.wakeup.p = p
	if e.current != nil {
		p.owner = e.current.owner
	}
	e.live++
	p.prev = e.tail
	if e.tail != nil {
		e.tail.next = p
	} else {
		e.head = p
	}
	e.tail = p
	go p.main()
	e.wakeAfter(0, p)
	return p
}

// main is the process's goroutine: it waits for its first turn and runs
// fn, unless a Crash killed the process before it started.
func (p *Proc) main() {
	<-p.resume
	defer p.exit()
	if !p.killed {
		p.fn(p)
	}
}

// exit ends the process and hands control back to the engine. It swallows
// the kill sentinel and keeps any other panic for wake to re-raise. A
// process that returned normally goes on the free list for Go to reuse;
// nothing can name it any more.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, k := r.(killSentinel); !k {
			p.panicked = r
		}
	}
	e := p.eng
	p.dead = true
	e.live--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.tail = p.prev
	}
	p.prev, p.next = nil, nil
	if !p.killed && p.panicked == nil {
		p.fn, p.owner = nil, nil
		p.next, e.free = e.free, p
	}
	e.yield <- struct{}{}
}

// Crash models a whole-engine failure at the current instant: every live
// process is unwound (its goroutine exits without running further user
// code) and every pending event is dropped. The clock is preserved.
// Processes are killed in spawn order so the unwind — and anything it
// observes — is deterministic. A process a victim's cleanup starts is not
// a victim. Must not be called from process context; call it from an
// event callback or between Run/Step calls.
func (e *Engine) Crash() {
	if e.current != nil {
		panic("sim: Crash called from process context")
	}
	for p, last := e.head, e.tail; p != nil; {
		next := p.next // p leaves the list as it unwinds
		p.killed = true
		e.wake(p) // park (or main) sees killed and unwinds
		if p == last {
			break
		}
		p = next
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
