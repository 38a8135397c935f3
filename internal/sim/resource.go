package sim

import "fmt"

// fifo is the queue behind every wait list and mailbox: a slice consumed
// from the front. It zeroes each slot it dequeues (a dequeued item is not
// pinned by the queue) and rewinds to the start of its backing array when
// it runs empty — or, full with a consumed prefix, slides the live items
// down — so a queue that is drained as fast as it is filled, like a scan's
// credits/ready ping-pong, never grows.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// front returns the oldest item without dequeuing it; the queue must not
// be empty.
func (q *fifo[T]) front() T { return q.items[q.head] }

// pop dequeues the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// reset drops every item.
func (q *fifo[T]) reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}

// Resource is a counted resource (CPU cores, a disk's single actuator, a
// memory budget) with FIFO queueing. Acquire blocks the calling process
// until the requested units are available; waiters are served strictly in
// arrival order, which keeps simulations deterministic and starvation-free.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  fifo[resWaiter]

	// onBusyChange, if set, is invoked whenever the number of busy units
	// changes. Hardware models use it to adjust device power draw.
	onBusyChange func(inUse int)
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given unit capacity.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive, got %d", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Name reports the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity reports the total units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse reports the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// OnBusyChange registers a callback fired whenever InUse changes.
func (r *Resource) OnBusyChange(fn func(inUse int)) { r.onBusyChange = fn }

// Acquire blocks p until n units are available and then takes them.
// n must be in [1, capacity] or the process could never be satisfied.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d of resource %q (capacity %d)", n, r.name, r.capacity))
	}
	// FIFO: even if units are free, queue behind existing waiters so a
	// large request cannot be starved by a stream of small ones.
	if r.waiters.len() == 0 && r.inUse+n <= r.capacity {
		r.grant(n)
		return
	}
	r.waiters.push(resWaiter{p: p, n: n})
	p.park()
}

// TryAcquire takes n units if immediately available, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: try-acquire %d of resource %q (capacity %d)", n, r.name, r.capacity))
	}
	if r.waiters.len() == 0 && r.inUse+n <= r.capacity {
		r.grant(n)
		return true
	}
	return false
}

// Release returns n units and wakes as many queued waiters as now fit.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: release %d of resource %q with %d in use", n, r.name, r.inUse))
	}
	r.inUse -= n
	r.notify()
	r.dispatch()
}

// Reset forcibly returns all units and drops all waiters. It is only
// meaningful after Engine.Crash has unwound every process that could
// hold or wait on the resource; recovery uses it to bring devices back
// to a quiescent state.
func (r *Resource) Reset() {
	r.inUse = 0
	r.waiters.reset()
	r.notify()
}

// Use acquires n units, holds them for d seconds, and releases them.
func (r *Resource) Use(p *Proc, n int, d float64) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

func (r *Resource) grant(n int) {
	r.inUse += n
	r.notify()
}

func (r *Resource) notify() {
	if r.onBusyChange != nil {
		r.onBusyChange(r.inUse)
	}
}

// dispatch wakes waiters (in FIFO order) whose requests now fit. Wakeups
// are scheduled as zero-delay events so they interleave deterministically
// with the releasing process.
func (r *Resource) dispatch() {
	for r.waiters.len() > 0 {
		w := r.waiters.front()
		if r.inUse+w.n > r.capacity {
			return
		}
		r.waiters.pop()
		r.grant(w.n)
		r.eng.wakeAfter(0, w.p)
	}
}

// Cond is a condition variable for simulated processes.
type Cond struct {
	eng     *Engine
	name    string
	waiters fifo[*Proc]
}

// NewCond returns a condition variable.
func NewCond(e *Engine, name string) *Cond {
	return &Cond{eng: e, name: name}
}

// Wait suspends p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.park()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.eng.wakeAfter(0, c.waiters.pop())
	}
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.eng.wakeAfter(0, c.waiters.pop())
	}
}

// Waiting reports the number of blocked processes.
func (c *Cond) Waiting() int { return c.waiters.len() }

// Mailbox is an unbounded FIFO queue connecting simulated processes;
// Get blocks while the mailbox is empty.
type Mailbox[T any] struct {
	items fifo[T]
	cond  Cond // named as the mailbox is
}

// NewMailbox returns an empty mailbox.
func NewMailbox[T any](e *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{cond: Cond{eng: e, name: name}}
}

// Put enqueues v and wakes one waiting consumer.
func (m *Mailbox[T]) Put(v T) {
	m.items.push(v)
	m.cond.Signal()
}

// Get dequeues the oldest item, blocking while the mailbox is empty.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.items.len() == 0 {
		m.cond.Wait(p)
	}
	return m.items.pop()
}

// TryGet dequeues without blocking, reporting whether an item was present.
func (m *Mailbox[T]) TryGet() (T, bool) {
	if m.items.len() == 0 {
		var zero T
		return zero, false
	}
	return m.items.pop(), true
}

// Len reports the queued item count.
func (m *Mailbox[T]) Len() int { return m.items.len() }
