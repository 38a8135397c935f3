package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3, "c", func() { got = append(got, 3) })
	e.At(1, "a", func() { got = append(got, 1) })
	e.At(2, "b", func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var got []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		e.At(5, name, func() { got = append(got, name) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "") != "xyz" {
		t.Fatalf("same-time events not FIFO: %v", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, "later", func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(5, "past", func() {})
}

// TestNonFiniteTimesRefused: NaN compares false with everything, so it
// passed the "in the past" and "negative" guards and landed in the heap,
// where it breaks the order every other guarantee rests on; +Inf passed
// them too and, once popped, left the clock at +Inf for good. At, After
// and Sleep refuse both (and -Inf) with a panic that names the event or
// the process, and leave the queue as it was.
func TestNonFiniteTimesRefused(t *testing.T) {
	refused := func(what, name string, e *Engine, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Errorf("%s: accepted", what)
			} else if !strings.Contains(fmt.Sprint(r), name) {
				t.Errorf("%s: panic %q does not name %q", what, r, name)
			}
			if e.Pending() != 0 || e.Now() != 0 {
				t.Errorf("%s: left %d events pending at now = %v", what, e.Pending(), e.Now())
			}
		}()
		f()
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := NewEngine()
		refused(fmt.Sprintf("At(%v)", x), "the-event", e, func() { e.At(x, "the-event", func() {}) })
		refused(fmt.Sprintf("After(%v)", x), "the-event", e, func() { e.After(x, "the-event", func() {}) })
		e.Go("the-sleeper", func(p *Proc) { p.Sleep(x) })
		refused(fmt.Sprintf("Sleep(%v)", x), "the-sleeper", e, func() { _ = e.Run() })
	}
	e := NewEngine()
	e.Go("the-sleeper", func(p *Proc) { p.Sleep(-1) })
	refused("Sleep(-1)", "the-sleeper", e, func() { _ = e.Run() })
}

// TestSecondWakeupPanics: a parked process has one wake-up pending at
// most; a kernel path that schedules another is a bug and says whose.
func TestSecondWakeupPanics(t *testing.T) {
	e := NewEngine()
	p := e.Go("twice", func(p *Proc) {}) // its start is pending
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "twice") {
			t.Fatalf("second wake-up: recovered %v, want a panic naming the process", r)
		}
	}()
	e.wakeAfter(1, p)
}

// TestCrashVictimCleanupMaySleep: a victim's deferred cleanup that tries to
// block is unwound again at its first park, as it always was — also now
// that the Sleep it calls finds the victim's own wake-up still pending.
func TestCrashVictimCleanupMaySleep(t *testing.T) {
	e := NewEngine()
	cleaned := 0
	e.Go("victim", func(p *Proc) {
		defer func() { cleaned++ }()
		defer p.Sleep(1)
		defer p.Sleep(1)
		p.Sleep(100)
	})
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if cleaned != 1 || e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("cleaned %d, live %d, pending %d after the crash", cleaned, e.Live(), e.Pending())
	}
	woke := -1.0
	e.Go("after", func(p *Proc) { p.Sleep(2); woke = p.Now() })
	if err := e.Run(); err != nil || woke != 3 {
		t.Fatalf("post-crash process woke at %v (err %v), want 3", woke, err)
	}
}

// TestMailboxDoesNotPinOrGrow: a dequeued item is zeroed in the backing
// array, and a mailbox drained as fast as it fills stays in the array it
// first grew.
func TestMailboxDoesNotPinOrGrow(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[*int](e, "box")
	for round := 0; round < 100; round++ {
		mb.Put(new(int))
		mb.Put(new(int))
		for mb.Len() > 0 {
			if _, ok := mb.TryGet(); !ok {
				t.Fatal("TryGet failed on a non-empty mailbox")
			}
		}
	}
	if c := cap(mb.items.items); c > 2 {
		t.Errorf("backing array grew to %d slots for a queue never longer than 2", c)
	}
	for i, v := range mb.items.items[:cap(mb.items.items)] {
		if v != nil {
			t.Errorf("slot %d still holds a dequeued item", i)
		}
	}
	// A queue that never runs empty slides down instead of creeping up.
	q := NewMailbox[int](e, "backlog")
	q.Put(-1)
	for i := 0; i < 1000; i++ {
		q.Put(i)
		if v, _ := q.TryGet(); v != i-1 {
			t.Fatalf("got %d, want %d", v, i-1)
		}
	}
	if c := cap(q.items.items); c > 4 {
		t.Errorf("backing array grew to %d slots for a queue never longer than 2", c)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake float64
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 2.5 {
		t.Fatalf("woke at %v, want 2.5", wake)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d, want 0", e.Live())
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 5; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(float64(i % 3))
				log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				p.Sleep(1)
				log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic interleaving:\n%v\n%v", a, b)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var ends []float64
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("q%d", i), func(p *Proc) {
			r.Use(p, 1, 10)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ends) != "[10 20 30]" {
		t.Fatalf("unit resource did not serialize: %v", ends)
	}
}

func TestResourceParallelism(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 2) // two cores
	var ends []float64
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("q%d", i), func(p *Proc) {
			r.Use(p, 1, 10)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ends) != "[10 10 20 20]" {
		t.Fatalf("2-wide resource wrong completion times: %v", ends)
	}
}

func TestResourceFIFONoStarvation(t *testing.T) {
	// A big request queued behind small ones must not be bypassed.
	e := NewEngine()
	r := NewResource(e, "mem", 2)
	var order []string
	e.Go("small1", func(p *Proc) { r.Use(p, 1, 10); order = append(order, "small1") })
	e.Go("big", func(p *Proc) {
		p.Sleep(1) // arrive second
		r.Use(p, 2, 10)
		order = append(order, "big")
	})
	e.Go("small2", func(p *Proc) {
		p.Sleep(2) // arrive third; one unit is free but must queue behind big
		r.Use(p, 1, 10)
		order = append(order, "small2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[small1 big small2]" {
		t.Fatalf("FIFO violated: %v", order)
	}
}

func TestResourceBusyCallback(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var transitions []int
	r.OnBusyChange(func(n int) { transitions = append(transitions, n) })
	e.Go("q", func(p *Proc) { r.Use(p, 1, 5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(transitions) != "[1 0]" {
		t.Fatalf("busy transitions = %v, want [1 0]", transitions)
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	if !r.TryAcquire(1) {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire(1) {
		t.Fatal("TryAcquire on busy resource succeeded")
	}
	r.Release(1)
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", r.InUse())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		// never releases, then blocks forever on a second acquire
		r.Acquire(p, 1)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	_ = e.Run()
	t.Fatal("Run should have panicked")
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.At(1, "a", func() { fired = append(fired, 1) })
	e.At(5, "b", func() { fired = append(fired, 5) })
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[1]" || e.Now() != 3 {
		t.Fatalf("RunUntil: fired=%v now=%v", fired, e.Now())
	}
	if err := e.RunUntil(2); err == nil {
		t.Fatal("RunUntil into the past should error")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fired) != "[1 5]" {
		t.Fatalf("remaining events not run: %v", fired)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "c")
	var woke []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		e.Go(n, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, n)
		})
	}
	e.At(1, "signal", func() { c.Signal() })
	e.At(2, "broadcast", func() { c.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(woke) != "[a b c]" {
		t.Fatalf("cond wake order = %v", woke)
	}
}

func TestMailbox(t *testing.T) {
	e := NewEngine()
	mb := NewMailbox[int](e, "jobs")
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(1)
			mb.Put(i * 10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[10 20 30]" {
		t.Fatalf("mailbox order = %v", got)
	}
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox should fail")
	}
}

// Property: for any workload of jobs on a k-wide resource, the makespan is
// at least the critical bound max(total/k, longest job) and the resource is
// never over-committed.
func TestResourceInvariant(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		k := int(width%4) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e, "r", k)
		over := false
		r.OnBusyChange(func(n int) {
			if n > k || n < 0 {
				over = true
			}
		})
		var total, longest float64
		njobs := rng.Intn(12) + 1
		for i := 0; i < njobs; i++ {
			d := float64(rng.Intn(100)+1) / 10
			total += d
			if d > longest {
				longest = d
			}
			e.Go(fmt.Sprintf("j%d", i), func(p *Proc) { r.Use(p, 1, d) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		lower := total / float64(k)
		if longest > lower {
			lower = longest
		}
		return !over && e.Now() >= lower-1e-9 && e.Now() <= total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
