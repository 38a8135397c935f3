package sim

import "testing"

// TestKernelSteadyStateAllocs pins what parking and waking a process costs
// the host allocator once every queue has reached its size: nothing. The
// readings at b9566b0, where every wake-up built a "kind:"+name string, a
// closure and a heap event, and a queue that was popped from the front
// crept through its backing array, are given per case.
func TestKernelSteadyStateAllocs(t *testing.T) {
	steps := func(e *Engine, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				if !e.Step() {
					t.Fatal("the program ran dry")
				}
			}
		}
	}
	pin := func(name string, e *Engine, f func(), want float64) {
		t.Helper()
		for i := 0; i < 64; i++ {
			f() // warm up: queues grow to their steady size
		}
		if got := testing.AllocsPerRun(200, f); got > want {
			t.Errorf("%s: %v allocs per round in steady state, want at most %v", name, got, want)
		}
		e.Crash() // unwind the looping processes
	}

	// One Sleep per round. b9566b0: 3.
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	pin("Proc.Sleep", e, steps(e, 1), 0)

	// One round trip of a two-process mailbox ping-pong: two puts, two
	// gets, two wake-ups. b9566b0: 10.
	e = NewEngine()
	ping, pong := NewMailbox[int](e, "ping"), NewMailbox[int](e, "pong")
	e.Go("a", func(p *Proc) {
		for {
			ping.Put(1)
			pong.Get(p)
		}
	})
	e.Go("b", func(p *Proc) {
		for {
			ping.Get(p)
			pong.Put(1)
		}
	})
	pin("Mailbox ping-pong", e, steps(e, 2), 0)

	// One Signal and the Wait it ends. b9566b0: 4.
	e = NewEngine()
	c := NewCond(e, "c")
	e.Go("waiter", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	e.Step() // the waiter starts and parks
	pin("Cond.Signal+Wait", e, func() { c.Signal(); e.Step() }, 0)

	// Two processes taking turns on a one-unit resource: each round is a
	// queued Acquire, its grant, the hold and the Release. b9566b0: 8.
	e = NewEngine()
	r := NewResource(e, "r", 1)
	for _, name := range []string{"x", "y"} {
		e.Go(name, func(p *Proc) {
			for {
				r.Use(p, 1, 1)
			}
		})
	}
	pin("contended Resource.Use", e, steps(e, 2), 0)

	// A process from Go to exit. b9566b0: 8; 51639a0: 5 (the Proc, its
	// channel, the goroutine's closure, the deferred closure and the procs
	// map slot). What is left is the record `go p.main()` starts its
	// goroutine from: the Proc and its channel are a finished process's.
	e = NewEngine()
	pin("Engine.Go to exit", e, func() {
		e.Go("p", func(*Proc) {})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}, 2)
}
