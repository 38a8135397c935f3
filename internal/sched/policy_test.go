package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"energydb/internal/sim"
)

// TestEDFNeverInvertsDeadlines is the EDF ordering property: on a
// saturated one-core box, jobs submitted together must start in deadline
// order — for any two queued jobs, the one with the earlier deadline is
// never dispatched after the other. Deadlines are far enough out that
// nothing expires; the property is pure ordering.
func TestEDFNeverInvertsDeadlines(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		jobs := int(n%12) + 2
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		a := NewAdmissionPolicy(eng, 1, 0, EDF{})
		var order []int // job index in dispatch order
		deadlines := make([]float64, jobs)
		eng.At(0, "submit", func() {
			for i := 0; i < jobs; i++ {
				i := i
				deadlines[i] = 1000 + rng.Float64()*1000
				a.SubmitJob(Job{Name: "job", Want: 1, Deadline: deadlines[i],
					Run: func(p *sim.Proc, granted int) {
						order = append(order, i)
						p.Sleep(1)
					}})
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(order) != jobs {
			return false
		}
		for k := 1; k < len(order); k++ {
			if deadlines[order[k-1]] > deadlines[order[k]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEDFTiesBreakFIFO: equal deadlines (and no deadlines) dispatch in
// arrival order.
func TestEDFTiesBreakFIFO(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAdmissionPolicy(eng, 1, 0, EDF{})
	var order []int
	eng.At(0, "submit", func() {
		for i := 0; i < 4; i++ {
			i := i
			d := 0.0 // two undeadlined...
			if i >= 2 {
				d = 500 // ...and two with the same deadline
			}
			a.SubmitJob(Job{Name: "job", Want: 1, Deadline: d,
				Run: func(p *sim.Proc, granted int) {
					order = append(order, i)
					p.Sleep(1)
				}})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Deadline jobs (2, 3) jump the undeadlined backlog (0, 1); ties and
	// the backlog itself stay FIFO.
	want := []int{2, 3, 0, 1}
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
}

// TestEnergyAwareHoldsBackgroundUnderDeadlineWork: the consolidating
// policy keeps background jobs queued while deadline work runs, then
// releases them batched by tag with a wide grant minus the held-back
// headroom.
func TestEnergyAwareHoldsBackgroundUnderDeadlineWork(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAdmissionPolicy(eng, 8, 0, EnergyAware{HoldFree: 2})
	type start struct {
		name    string
		at      float64
		granted int
	}
	var starts []start
	run := func(name string, dur float64) func(p *sim.Proc, granted int) {
		return func(p *sim.Proc, granted int) {
			starts = append(starts, start{name, p.Now(), granted})
			p.Sleep(dur)
		}
	}
	eng.At(0, "submit", func() {
		a.SubmitJob(Job{Name: "dl", Want: 8, Deadline: 100, Run: run("dl", 5)})
		a.SubmitJob(Job{Name: "bgA", Want: 8, Tag: "A", Run: run("bgA", 3)})
		a.SubmitJob(Job{Name: "bgB", Want: 8, Tag: "B", Run: run("bgB", 3)})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 3 || starts[0].name != "dl" {
		t.Fatalf("starts = %+v, want deadline job first", starts)
	}
	for _, s := range starts[1:] {
		if s.at < 5 {
			t.Fatalf("background %q started at %v, while deadline work ran", s.name, s.at)
		}
	}
	// First background released onto the drained box: 8 free minus 2 held.
	if starts[1].granted != 6 {
		t.Fatalf("background grant = %d, want 6 (8 free - 2 held)", starts[1].granted)
	}
}

// TestEnergyAwarePrefersCompatibleTag: with background work of two tags
// queued and one tag already running, the matching tag dispatches first.
func TestEnergyAwarePrefersCompatibleTag(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAdmissionPolicy(eng, 4, 0, EnergyAware{})
	var order []string
	run := func(name string, dur float64) func(p *sim.Proc, granted int) {
		return func(p *sim.Proc, granted int) {
			order = append(order, name)
			p.Sleep(dur)
		}
	}
	eng.At(0, "submit", func() {
		a.SubmitJob(Job{Name: "a1", Want: 3, Tag: "A", Run: run("a1", 4)})
	})
	eng.At(1, "submit", func() {
		// One core is free while a1 runs. B arrives first but A matches
		// the running tag.
		a.SubmitJob(Job{Name: "b1", Want: 1, Tag: "B", Run: run("b1", 1)})
		a.SubmitJob(Job{Name: "a2", Want: 1, Tag: "A", Run: run("a2", 1)})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "a2", "b1"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

// TestPolicyDeadlineExpiryStillEnforced: queue-jumping policies still
// reject tickets whose deadline passed while queued.
func TestPolicyDeadlineExpiryStillEnforced(t *testing.T) {
	for _, pol := range []Policy{FIFO{}, EDF{}, EnergyAware{}} {
		eng := sim.NewEngine()
		a := NewAdmissionPolicy(eng, 1, 0, pol)
		var failed error
		ran := false
		eng.At(0, "submit", func() {
			a.Submit("hog", 1, func(p *sim.Proc, granted int) { p.Sleep(10) })
		})
		eng.At(1, "submit", func() {
			// The hog holds the only core until t=10; even queue-jumping
			// policies cannot run this before its t=5 deadline.
			a.SubmitJob(Job{Name: "late", Want: 1, Deadline: 5,
				Run:  func(p *sim.Proc, granted int) { ran = true },
				Fail: func(err error) { failed = err }})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if ran || failed == nil {
			t.Fatalf("%s: expired job ran=%v failed=%v", pol.Name(), ran, failed)
		}
		if a.Stats().Expired != 1 {
			t.Fatalf("%s: expired = %d, want 1", pol.Name(), a.Stats().Expired)
		}
	}
}

// TestAllPoliciesCompleteEverything is the liveness property: whatever
// the policy and the arrival pattern, every submitted job eventually
// runs (no policy may strand work on a drained box).
func TestAllPoliciesCompleteEverything(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		jobs := int(n%20) + 1
		for _, pol := range []Policy{FIFO{}, EDF{}, EnergyAware{HoldFree: 1}} {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine()
			a := NewAdmissionPolicy(eng, 4, 0, pol)
			done := 0
			arrivals := make([]float64, jobs)
			for i := range arrivals {
				arrivals[i] = rng.Float64() * 5
			}
			sort.Float64s(arrivals)
			for i := 0; i < jobs; i++ {
				at := arrivals[i]
				d := 0.0
				if rng.Intn(2) == 0 {
					d = at + 1000 // generous: ordering pressure, no expiry
				}
				tag := string(rune('A' + rng.Intn(2)))
				eng.At(at, "submit", func() {
					a.SubmitJob(Job{Name: "job", Want: 1 + rng.Intn(4), Deadline: d, Tag: tag,
						Run: func(p *sim.Proc, granted int) {
							p.Sleep(0.5)
							done++
						}})
				})
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if done != jobs || a.Active() != 0 || a.FreeCores() != 4 {
				t.Errorf("%s: done=%d/%d active=%d free=%d",
					pol.Name(), done, jobs, a.Active(), a.FreeCores())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
