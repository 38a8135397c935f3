package bench

import (
	"math/rand"
	"testing"
	"testing/quick"

	"energydb/internal/sim"
)

func key(page int64) pageKey { return pageKey{File: 1, Page: page} }

// contains reports whether k is resident.
func (pl *bufferPool) contains(k pageKey) bool {
	_, ok := pl.pages[k]
	return ok
}

// len reports the resident page count.
func (pl *bufferPool) len() int { return len(pl.pages) }

// drive runs accesses through a pool inside a trivial simulation and
// returns the miss count.
func drive(t *testing.T, pl *bufferPool, accesses []int64) int64 {
	t.Helper()
	e := sim.NewEngine()
	e.Go("driver", func(p *sim.Proc) {
		for _, pg := range accesses {
			k := key(pg)
			pl.Get(p, k, nil)
			pl.Unpin(k)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return pl.Stats().Misses
}

func TestHitMissAccounting(t *testing.T) {
	pl := newBufferPool(2, newLRU())
	misses := drive(t, pl, []int64{1, 2, 1, 2, 1})
	if misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
	st := pl.Stats()
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	pl := newBufferPool(2, newLRU())
	drive(t, pl, []int64{1, 2, 3}) // evicts 1
	if pl.contains(key(1)) || !pl.contains(key(2)) || !pl.contains(key(3)) {
		t.Fatalf("LRU evicted wrong page")
	}
	drive(t, pl, []int64{2, 4}) // touch 2, insert 4: evicts 3
	if pl.contains(key(3)) || !pl.contains(key(2)) {
		t.Fatal("LRU recency not respected")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	pl := newBufferPool(2, newLRU())
	e := sim.NewEngine()
	e.Go("driver", func(p *sim.Proc) {
		pl.Get(p, key(1), nil) // pinned
		pl.Get(p, key(2), nil)
		pl.Unpin(key(2))
		pl.Get(p, key(3), nil) // must evict 2, not pinned 1
		pl.Unpin(key(3))
		if !pl.contains(key(1)) || pl.contains(key(2)) {
			t.Error("pinned page was evicted")
		}
		pl.Unpin(key(1))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPinnedOverflow(t *testing.T) {
	pl := newBufferPool(1, newLRU())
	e := sim.NewEngine()
	e.Go("driver", func(p *sim.Proc) {
		pl.Get(p, key(1), nil)
		pl.Get(p, key(2), nil) // pool full of pins: transient frame
		if pl.len() != 2 {
			t.Errorf("len = %d, want 2 (transient overflow)", pl.len())
		}
		pl.Unpin(key(2))
		if pl.contains(key(2)) {
			t.Error("transient frame should leave on unpin")
		}
		pl.Unpin(key(1))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newBufferPool(1, newLRU()).Unpin(key(9))
}

func TestLoadChargedOnlyOnMiss(t *testing.T) {
	pl := newBufferPool(4, newLRU())
	e := sim.NewEngine()
	loads := 0
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			pl.Get(p, key(7), func(*sim.Proc) error { loads++; return nil })
			pl.Unpin(key(7))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}
}

func TestClockSecondChance(t *testing.T) {
	// After {1,2,3,4} on a 3-frame pool all reference bits are cleared by
	// the eviction sweep. Touching 2 re-sets its bit, so the next victim
	// must not be 2.
	pl := newBufferPool(3, newClock())
	drive(t, pl, []int64{1, 2, 3, 4, 2, 5})
	if !pl.contains(key(2)) {
		t.Fatal("clock evicted a page whose reference bit was set")
	}
	if !pl.contains(key(5)) {
		t.Fatal("newly inserted page missing")
	}
}

func TestTwoQScanResistance(t *testing.T) {
	// Hot pages are re-referenced (promoted to main); then a long one-shot
	// scan passes through. 2Q must keep the hot set; LRU must lose it.
	hot := []int64{1, 2, 3}
	build := func(p replacementPolicy) *bufferPool {
		pl := newBufferPool(6, p)
		var trace []int64
		trace = append(trace, hot...)
		trace = append(trace, hot...) // re-reference: promote
		for pg := int64(100); pg < 140; pg++ {
			trace = append(trace, pg) // the scan
		}
		drive(t, pl, trace)
		return pl
	}
	twoq := build(newTwoQ())
	for _, h := range hot {
		if !twoq.contains(key(h)) {
			t.Fatalf("2Q lost hot page %d to a scan", h)
		}
	}
	lru := build(newLRU())
	lost := 0
	for _, h := range hot {
		if !lru.contains(key(h)) {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("LRU unexpectedly survived the scan (test is vacuous)")
	}
}

func TestEnergyAwareKeepsExpensivePages(t *testing.T) {
	pol := newEnergyAware()
	pl := newBufferPool(2, pol)
	e := sim.NewEngine()
	e.Go("driver", func(p *sim.Proc) {
		pl.Get(p, key(1), nil) // disk page: expensive re-fetch
		pl.SetRefetchCost(key(1), 0.50)
		pl.Unpin(key(1))
		pl.Get(p, key(2), nil) // flash page: cheap re-fetch
		pl.SetRefetchCost(key(2), 0.001)
		pl.Unpin(key(2))
		// Touch the flash page so pure LRU would evict the disk page.
		pl.Get(p, key(2), nil)
		pl.Unpin(key(2))
		pl.Get(p, key(3), nil)
		pl.SetRefetchCost(key(3), 0.001)
		pl.Unpin(key(3))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !pl.contains(key(1)) {
		t.Fatal("energy-aware policy evicted the expensive disk page")
	}
	if pl.contains(key(2)) {
		t.Fatal("energy-aware policy kept the cheap flash page instead")
	}
}

func TestEnergyAwareTieBreaksLRU(t *testing.T) {
	pl := newBufferPool(2, newEnergyAware())
	drive(t, pl, []int64{1, 2, 1, 3}) // equal (zero) costs: evict LRU = 2
	if pl.contains(key(2)) || !pl.contains(key(1)) {
		t.Fatal("energy policy with equal costs should degrade to LRU")
	}
}

// Property: under any access pattern and any policy, residency never
// exceeds capacity (after unpinning), hits+misses equals accesses, and a
// resident page always hits.
func TestPoolInvariants(t *testing.T) {
	policies := map[string]func() replacementPolicy{
		"lru":    newLRU,
		"clock":  newClock,
		"2q":     newTwoQ,
		"energy": newEnergyAware,
	}
	for name, mk := range policies {
		mk := mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, capLog uint8) bool {
				capacity := 1 << (capLog % 5) // 1..16
				rng := rand.New(rand.NewSource(seed))
				pl := newBufferPool(capacity, mk())
				n := rng.Intn(300) + 50
				e := sim.NewEngine()
				ok := true
				e.Go("driver", func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						pg := int64(rng.Intn(40))
						k := key(pg)
						resident := pl.contains(k)
						before := pl.Stats()
						pl.Get(p, k, nil)
						after := pl.Stats()
						if resident && after.Hits != before.Hits+1 {
							ok = false
						}
						pl.Unpin(k)
						if pl.len() > capacity {
							ok = false
						}
					}
				})
				if err := e.Run(); err != nil {
					return false
				}
				st := pl.Stats()
				return ok && st.Hits+st.Misses == int64(n)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
