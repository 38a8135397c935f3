package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// orderHash runs a seeded random program over every way the kernel parks
// and wakes a process — Sleep with durations from a small set (so ties are
// the rule), Yield, Mailbox put/get, Cond signal/broadcast, a contended
// Resource, nested Go, timers in event context, a RunUntil boundary, a
// Crash mid-run and a second phase on the crashed engine — and folds every
// observation (Float64bits(now), process id, step) into an FNV-1a hash, in
// the order the kernel made them. Processes draw from one shared source
// while they run, so a single reordered wake-up changes every draw after
// it. About 200 processes start in the first phase and 40 in the second.
func orderHash(t *testing.T, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	h := fnv.New64a()
	fold := func(a, b, c uint64) {
		var buf [24]byte
		binary.LittleEndian.PutUint64(buf[0:], a)
		binary.LittleEndian.PutUint64(buf[8:], b)
		binary.LittleEndian.PutUint64(buf[16:], c)
		h.Write(buf[:])
	}
	note := func(p *Proc, step int) { fold(math.Float64bits(e.Now()), uint64(p.id), uint64(step)) }
	mark := func(tag uint64) { fold(math.Float64bits(e.Now()), uint64(e.Pending()), tag<<32|uint64(e.Live())) }
	durs := []float64{0, 0.001, 0.001, 0.002, 0.005, 0.01}
	dur := func() float64 { return durs[rng.Intn(len(durs))] }

	// phase starts one mix of processes; rounds bounds how long each runs.
	// Every group is balanced (as many gets as puts, a signaller that runs
	// until its waiters are through), so a phase left alone runs dry.
	phase := func(tag string, groups, rounds int) {
		cpu := NewResource(e, tag+":cpu", 3)
		disk := NewResource(e, tag+":disk", 1)
		for g := 0; g < groups; g++ {
			g := g
			// Sleepers, some of which fan out children of their own.
			for i := 0; i < 4; i++ {
				e.Go(fmt.Sprintf("%s:sleep%d.%d", tag, g, i), func(p *Proc) {
					defer note(p, -1)
					for s := 0; s < rounds; s++ {
						if rng.Intn(4) == 0 {
							p.Yield()
						} else {
							p.Sleep(dur())
						}
						note(p, s)
						if rng.Intn(rounds) == 0 {
							e.Go(p.Name()+":child", func(c *Proc) {
								defer note(c, -2)
								c.Sleep(dur())
								note(c, 0)
								e.Go(c.Name()+":grandchild", func(gc *Proc) {
									gc.Yield()
									note(gc, 0)
								})
								c.Sleep(dur())
								note(c, 1)
							})
						}
					}
				})
			}
			// Two producers and two consumers over one mailbox, plus a
			// timer that puts from event context; the credits mailbox
			// bounces back the way a scan's does.
			box := NewMailbox[int](e, tag+":box")
			credits := NewMailbox[int](e, tag+":credits")
			credits.Put(1)
			credits.Put(1)
			for i := 0; i < 2; i++ {
				i := i
				e.Go(fmt.Sprintf("%s:prod%d.%d", tag, g, i), func(p *Proc) {
					defer note(p, -1)
					for s := 0; s < rounds; s++ {
						credits.Get(p)
						p.Sleep(dur())
						box.Put(i*1000 + s)
						note(p, s)
					}
				})
				e.Go(fmt.Sprintf("%s:cons%d.%d", tag, g, i), func(p *Proc) {
					defer note(p, -1)
					for s := 0; s < rounds+1; s++ {
						v := box.Get(p)
						credits.Put(1)
						note(p, v)
						if rng.Intn(3) == 0 {
							p.Sleep(dur())
						}
					}
				})
			}
			e.After(dur(), "timer-put", func() { box.Put(7000); box.Put(7001) })
			// Waiters on one condition and a signaller that alternates
			// Signal and Broadcast until they are all through.
			cond := NewCond(e, tag+":cond")
			through := 0
			for i := 0; i < 3; i++ {
				e.Go(fmt.Sprintf("%s:wait%d.%d", tag, g, i), func(p *Proc) {
					defer note(p, -1)
					for s := 0; s < rounds/2+1; s++ {
						cond.Wait(p)
						note(p, s)
						if rng.Intn(2) == 0 {
							p.Sleep(dur())
						}
					}
					through++
				})
			}
			e.Go(fmt.Sprintf("%s:signal%d", tag, g), func(p *Proc) {
				defer note(p, -1)
				for s := 0; through < 3; s++ {
					p.Sleep(dur())
					if rng.Intn(3) == 0 {
						cond.Broadcast()
					} else {
						cond.Signal()
					}
					note(p, cond.Waiting())
				}
			})
			// Contended resources: three cores shared one or two at a
			// time, and a disk behind them.
			for i := 0; i < 4; i++ {
				e.Go(fmt.Sprintf("%s:work%d.%d", tag, g, i), func(p *Proc) {
					defer note(p, -1)
					for s := 0; s < rounds; s++ {
						cpu.Use(p, 1+rng.Intn(2), dur())
						note(p, s)
						if rng.Intn(3) == 0 {
							disk.Use(p, 1, dur())
							note(p, 1000+s)
						}
					}
				})
			}
		}
	}

	phase("a", 12, 8) // 16 processes a group, and the children they start
	mark(1)
	if err := e.RunUntil(0.012); err != nil {
		t.Fatal(err)
	}
	mark(2)
	for i := 0; i < 500 && e.Step(); i++ {
	}
	mark(3)
	// A timer crashes the engine from event context, mid-run: the victims'
	// deferred notes run in spawn order.
	e.After(0.003, "crash", func() { e.Crash() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mark(4)
	if e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("after the crash: %d live, %d pending", e.Live(), e.Pending())
	}
	phase("b", 2, 5)
	steps := 0
	for e.Step() {
		steps++
	}
	mark(uint64(steps))
	if e.Live() != 0 {
		t.Fatalf("second phase left %d processes blocked: %v", e.Live(), e.LiveNames())
	}
	return h.Sum64()
}

// TestEventOrderPinned holds the kernel's event order to hashes recorded at
// b9566b0 — before wake-ups rode on an event embedded in the Proc — by
// running this same test body there. A change to the kernel that moves
// one (t, seq) moves the hash; nothing short of a deliberate, golden-
// regenerating change to the model clock may re-record them.
func TestEventOrderPinned(t *testing.T) {
	for seed, want := range map[int64]uint64{
		1:      0x2b24594b8a912423,
		2009:   0xd7dea832d068ab02,
		424242: 0x772fa6616d9e8c95,
	} {
		if got := orderHash(t, seed); got != want {
			t.Errorf("seed %d: event-order hash %#x, recorded %#x at b9566b0", seed, got, want)
		}
	}
}
