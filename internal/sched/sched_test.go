package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"energydb/internal/sim"
)

func TestImmediateAdmission(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAdmission(eng, 2, nil)
	done := 0
	eng.At(0, "submit", func() {
		for i := 0; i < 4; i++ {
			a.Submit(Job{Name: "job", Want: 1, Run: func(p *sim.Proc, granted int) {
				p.Sleep(1)
				done++
			}})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 || a.Stats().Completed != 4 {
		t.Fatalf("done=%d stats=%+v", done, a.Stats())
	}
	// 4 one-second jobs on 2 cores: two waves.
	if eng.Now() != 2 {
		t.Fatalf("makespan = %v, want 2", eng.Now())
	}
	if a.Active() != 0 || a.FreeCores() != 2 {
		t.Fatalf("controller not drained: active=%d free=%d", a.Active(), a.FreeCores())
	}
}

func TestSlotParallelism(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAdmission(eng, 3, nil)
	eng.At(0, "submit", func() {
		for i := 0; i < 6; i++ {
			a.Submit(Job{Name: "job", Want: 1, Run: func(p *sim.Proc, granted int) { p.Sleep(5) }})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 6 jobs of 5s on 3 cores = 2 waves of 5s.
	if eng.Now() != 10 {
		t.Fatalf("makespan = %v, want 10", eng.Now())
	}
	if a.Stats().PeakActive != 3 {
		t.Fatalf("peak active = %d, want 3", a.Stats().PeakActive)
	}
}

// TestFairShareGrants is the concurrency-aware heart of the controller: a
// lone job is granted the whole box; same-instant arrivals split it; a
// late arrival is granted only from what is free.
func TestFairShareGrants(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAdmission(eng, 8, nil)
	var lone, late *Ticket
	var crowd []*Ticket
	eng.At(0, "lone", func() {
		lone = a.Submit(Job{Name: "lone", Want: 8, Run: func(p *sim.Proc, granted int) { p.Sleep(1) }})
	})
	eng.At(2, "crowd", func() {
		for i := 0; i < 4; i++ {
			d := 5 + float64(i) // staggered completions at t=7..10
			crowd = append(crowd, a.Submit(Job{Name: "crowd", Want: 8, Run: func(p *sim.Proc, granted int) { p.Sleep(d) }}))
		}
	})
	eng.At(3, "late", func() {
		late = a.Submit(Job{Name: "late", Want: 8, Run: func(p *sim.Proc, granted int) { p.Sleep(1) }})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if lone.Granted != 8 {
		t.Fatalf("lone job granted %d of 8 free cores", lone.Granted)
	}
	// Four same-instant arrivals on an idle 8-core box: 2 cores each.
	for _, c := range crowd {
		if c.Granted != 2 {
			t.Fatalf("crowd granted %d, want 2", c.Granted)
		}
	}
	// The late job arrives with 4 jobs holding all 8 cores: it must queue
	// until the first completion (t=7) and then take only the 2 freed
	// cores, even though it asked for 8.
	if w := late.Wait(); w != 4 {
		t.Fatalf("late job waited %v, want 4", w)
	}
	if late.Granted != 2 {
		t.Fatalf("late job granted %d, want the 2 freed cores", late.Granted)
	}
	if a.Stats().Waited != 1 {
		t.Fatalf("waited = %d, want 1", a.Stats().Waited)
	}
}

// TestSaturationQueuesFIFO: more same-instant arrivals than cores — every
// core granted once, the surplus queues and runs in submission order.
func TestSaturationQueuesFIFO(t *testing.T) {
	eng := sim.NewEngine()
	a := NewAdmission(eng, 2, nil)
	var order []int
	tickets := make([]*Ticket, 5)
	eng.At(0, "submit", func() {
		for i := 0; i < 5; i++ {
			i := i
			tickets[i] = a.Submit(Job{Name: fmt.Sprintf("j%d", i), Want: 2, Run: func(p *sim.Proc, granted int) {
				order = append(order, i)
				p.Sleep(1)
			}})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order = %v, want FIFO", order)
		}
	}
	// While demand exceeds the box every grant is one core; the last job
	// runs alone and may take both.
	for _, tk := range tickets[:4] {
		if tk.Granted != 1 {
			t.Fatalf("saturated grant = %d, want 1", tk.Granted)
		}
	}
	if a.Stats().PeakQueue < 3 {
		t.Fatalf("peak queue = %d, want >= 3", a.Stats().PeakQueue)
	}
	if a.Stats().Waited != 3 {
		t.Fatalf("waited = %d, want 3", a.Stats().Waited)
	}
}

func TestBadCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdmission(sim.NewEngine(), 0, nil)
}

// Property: every submitted job completes exactly once with a grant in
// [1, cores], regardless of core count and arrival pattern, and the
// controller ends drained.
func TestAllJobsComplete(t *testing.T) {
	f := func(seed int64, cores uint8) bool {
		eng := sim.NewEngine()
		nc := int(cores%4) + 1
		a := NewAdmission(eng, nc, nil)
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		runs := make([]int, n)
		grants := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			at := rng.Float64() * 20
			want := rng.Intn(6) + 1
			eng.At(at, fmt.Sprintf("a%d", i), func() {
				a.Submit(Job{Name: fmt.Sprintf("j%d", i), Want: want, Run: func(p *sim.Proc, granted int) {
					p.Sleep(rng.Float64() * 0.5)
					runs[i]++
					grants[i] = granted
				}})
			})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		for i, r := range runs {
			if r != 1 || grants[i] < 1 || grants[i] > nc {
				return false
			}
		}
		return a.Stats().Completed == int64(n) && a.Active() == 0 && a.FreeCores() == nc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
