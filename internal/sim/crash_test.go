package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestCrashUnwindsEverything: a crash kills every live process — parked
// in a sleep, a resource queue, anywhere — running their deferred
// cleanups in spawn order, drops every pending event, preserves the
// clock, and leaves the engine usable for recovery.
func TestCrashUnwindsEverything(t *testing.T) {
	e := NewEngine()
	res := NewResource(e, "res", 1)
	var cleanups []string
	e.Go("holder", func(p *Proc) {
		defer func() { cleanups = append(cleanups, "holder") }()
		res.Acquire(p, 1)
		p.Sleep(100)
		res.Release(1)
	})
	e.Go("waiter", func(p *Proc) {
		defer func() { cleanups = append(cleanups, "waiter") }()
		res.Acquire(p, 1)
		res.Release(1)
	})
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 2 {
		t.Fatalf("live = %d before crash", e.Live())
	}

	e.Crash()

	if e.Live() != 0 {
		t.Fatalf("live = %d after crash: %v", e.Live(), e.LiveNames())
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events survived the crash", e.Pending())
	}
	if e.Now() != 1 {
		t.Fatalf("clock moved across the crash: %v", e.Now())
	}
	if !reflect.DeepEqual(cleanups, []string{"holder", "waiter"}) {
		t.Fatalf("cleanup order = %v, want spawn order", cleanups)
	}

	// Recovery: reset the resource the killed holder still held, then the
	// engine must run new work normally.
	res.Reset()
	ran := false
	e.Go("post-crash", func(p *Proc) {
		res.Use(p, 1, 0.5)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("post-crash process never ran")
	}
}

// TestCrashKillsUnstartedProc: a process spawned but not yet scheduled
// never runs its body.
func TestCrashKillsUnstartedProc(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go("never", func(p *Proc) { ran = true })
	e.Crash()
	if ran {
		t.Fatal("killed-before-start process ran")
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d", e.Live())
	}
}

// TestCrashFromProcessContextPanics: Crash models a power failure
// observed from outside the simulation; calling it from inside a process
// is a driver bug and must panic rather than deadlock.
func TestCrashFromProcessContextPanics(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Crash from process context did not panic")
			}
		}()
		e.Crash()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGoNeverReusesVictims: Go never hands out the Proc of a process Crash
// killed or that panicked — a wait queue or mailbox may still name those,
// and a stale entry must not wake a stranger. No goroutine outlives its
// process.
func TestGoNeverReusesVictims(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	// A victim parked on a condition, one parked in a sleep and one not
	// started yet.
	c := NewCond(e, "c")
	victims := []*Proc{
		e.Go("waiter", func(p *Proc) { c.Wait(p) }),
		e.Go("sleeper", func(p *Proc) { p.Sleep(10) }),
	}
	if err := e.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	victims = append(victims, e.Go("unstarted", func(*Proc) {}))
	e.Crash()

	boom := e.Go("boom", func(*Proc) { panic("boom") })
	func() {
		defer func() { _ = recover() }()
		_ = e.Run()
	}()
	victims = append(victims, boom)

	c.Signal() // a stale entry: the dead waiter stays dead
	for i := 0; i < 2*len(victims); i++ {
		p := e.Go("later", func(*Proc) {})
		for k, v := range victims {
			if p == v {
				t.Fatalf("Go handed out victim %d's Proc", k)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d: %v", e.Live(), e.LiveNames())
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines waits for the goroutine count to come back to baseline:
// a process's goroutine sends its last word to the engine just before it
// returns, so it may still be on its way out when Run does.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines, %d before the engine started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
