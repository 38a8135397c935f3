package bench

import (
	"container/list"
	"fmt"

	"energydb/internal/sim"
)

// This file is E5's model: a buffer pool and its replacement policies.
//
// The paper (§4.3, §5.2) argues the buffer manager must be redesigned for
// energy: classic policies minimise miss *latency*, but with energy as the
// objective a page's value is the energy a re-fetch would cost (which
// differs by an order of magnitude between disk and flash) weighed against
// the DRAM power spent holding it. The policies here are the classical
// trio (LRU, CLOCK, 2Q) and an energy-aware policy that ranks victims by
// estimated re-fetch energy. No engine scan reads through a pool; E5
// replays a synthetic trace through one.

// pageKey identifies a cached page: a file (stored object) and a page
// number within it.
type pageKey struct {
	File int32
	Page int64
}

// poolStats counts pool accesses.
type poolStats struct {
	Hits   int64
	Misses int64
}

type frame struct {
	pins int
}

// bufferPool is a fixed-capacity buffer pool over simulated storage. It
// caches page *presence*: a hit skips the backing I/O charge entirely; a
// miss runs the caller's load function (which charges device time) and
// may evict a victim chosen by the policy.
type bufferPool struct {
	capacity int
	policy   replacementPolicy
	pages    map[pageKey]*frame
	stats    poolStats
}

// newBufferPool returns a pool holding up to capacity pages under the
// policy.
func newBufferPool(capacity int, policy replacementPolicy) *bufferPool {
	if capacity <= 0 {
		panic(fmt.Sprintf("bench: pool capacity %d", capacity))
	}
	return &bufferPool{
		capacity: capacity,
		policy:   policy,
		pages:    make(map[pageKey]*frame),
	}
}

// Stats returns a copy of the counters.
func (pl *bufferPool) Stats() poolStats { return pl.stats }

// Get pins page k, calling load to charge the backing I/O if the page is
// not resident. Callers must Unpin when done. If the pool is full of
// pinned pages, the new page is loaded and passed through unpinned-on-
// arrival (it still counts as a miss and is not cached), so Get never
// deadlocks. A load error propagates to the caller: the page is neither
// pinned nor cached, and no Unpin is owed.
func (pl *bufferPool) Get(p *sim.Proc, k pageKey, load func(p *sim.Proc) error) error {
	if f, ok := pl.pages[k]; ok {
		pl.stats.Hits++
		f.pins++
		pl.policy.Touched(k)
		return nil
	}
	pl.stats.Misses++
	if load != nil {
		if err := load(p); err != nil {
			return err
		}
	}
	// When everything is pinned, makeRoom frees nothing and the page is
	// served from a transient pinned frame the Unpin will drop.
	pl.makeRoom()
	pl.pages[k] = &frame{pins: 1}
	pl.policy.Inserted(k)
	return nil
}

// makeRoom evicts until a free frame exists or every page is pinned.
func (pl *bufferPool) makeRoom() {
	for len(pl.pages) >= pl.capacity {
		victim, ok := pl.policy.Victim(func(k pageKey) bool {
			f, present := pl.pages[k]
			return present && f.pins > 0
		})
		if !ok {
			return
		}
		delete(pl.pages, victim)
		pl.policy.Removed(victim)
	}
}

// Unpin releases one pin on k. Unpinning a non-resident or unpinned page
// panics: it always indicates a caller bug.
func (pl *bufferPool) Unpin(k pageKey) {
	f, ok := pl.pages[k]
	if !ok || f.pins <= 0 {
		panic(fmt.Sprintf("bench: unpin of %v with no pins", k))
	}
	f.pins--
	// Transient overflow frames (beyond capacity) leave immediately.
	if f.pins == 0 && len(pl.pages) > pl.capacity {
		delete(pl.pages, k)
		pl.policy.Removed(k)
	}
}

// SetRefetchCost forwards a page's re-fetch energy estimate to a policy
// that uses one (newEnergyAware); it is a no-op otherwise.
func (pl *bufferPool) SetRefetchCost(k pageKey, joules float64) {
	if ea, ok := pl.policy.(*energyAware); ok {
		ea.refetch[k] = joules
	}
}

// replacementPolicy is a replacement strategy. The pool calls Inserted/
// Touched/Removed to maintain policy state and Victim to choose an
// eviction candidate; Victim must not return pinned pages (the pool
// passes a pinned-test callback).
type replacementPolicy interface {
	Inserted(k pageKey)
	Touched(k pageKey)
	Removed(k pageKey)
	Victim(pinned func(pageKey) bool) (pageKey, bool)
}

// lru is least-recently-used via an intrusive list.
type lru struct {
	order *list.List // front = most recent
	elems map[pageKey]*list.Element
}

// newLRU returns the classic least-recently-used policy.
func newLRU() replacementPolicy {
	return &lru{order: list.New(), elems: make(map[pageKey]*list.Element)}
}

func (p *lru) Inserted(k pageKey) {
	p.elems[k] = p.order.PushFront(k)
}

func (p *lru) Touched(k pageKey) {
	if e, ok := p.elems[k]; ok {
		p.order.MoveToFront(e)
	}
}

func (p *lru) Removed(k pageKey) {
	if e, ok := p.elems[k]; ok {
		p.order.Remove(e)
		delete(p.elems, k)
	}
}

func (p *lru) Victim(pinned func(pageKey) bool) (pageKey, bool) {
	for e := p.order.Back(); e != nil; e = e.Prev() {
		k := e.Value.(pageKey)
		if !pinned(k) {
			return k, true
		}
	}
	return pageKey{}, false
}

// clock is the second-chance approximation of LRU.
type clock struct {
	ring []pageKey
	ref  map[pageKey]bool
	pos  map[pageKey]int
	hand int
}

// newClock returns the CLOCK (second chance) policy.
func newClock() replacementPolicy {
	return &clock{ref: make(map[pageKey]bool), pos: make(map[pageKey]int)}
}

func (p *clock) Inserted(k pageKey) {
	p.pos[k] = len(p.ring)
	p.ring = append(p.ring, k)
	p.ref[k] = true
}

func (p *clock) Touched(k pageKey) {
	if _, ok := p.pos[k]; ok {
		p.ref[k] = true
	}
}

func (p *clock) Removed(k pageKey) {
	i, ok := p.pos[k]
	if !ok {
		return
	}
	last := len(p.ring) - 1
	p.ring[i] = p.ring[last]
	p.pos[p.ring[i]] = i
	p.ring = p.ring[:last]
	delete(p.pos, k)
	delete(p.ref, k)
	if p.hand > last {
		p.hand = 0
	}
}

func (p *clock) Victim(pinned func(pageKey) bool) (pageKey, bool) {
	if len(p.ring) == 0 {
		return pageKey{}, false
	}
	// Two sweeps clearing reference bits, then one accepting anything
	// unpinned regardless of the bit.
	for sweep := 0; sweep < 3; sweep++ {
		for range p.ring {
			if p.hand >= len(p.ring) {
				p.hand = 0
			}
			k := p.ring[p.hand]
			p.hand++
			if pinned(k) {
				continue
			}
			if sweep < 2 && p.ref[k] {
				p.ref[k] = false
				continue
			}
			return k, true
		}
	}
	return pageKey{}, false
}

// twoQ is the 2Q scan-resistant policy: new pages enter a FIFO probation
// queue (a1); only pages re-referenced while resident are promoted to the
// main LRU (am). One sequential scan therefore cannot flush the hot set.
type twoQ struct {
	a1     *list.List
	am     *list.List
	where  map[pageKey]*list.Element
	inMain map[pageKey]bool
}

// newTwoQ returns the 2Q scan-resistant policy.
func newTwoQ() replacementPolicy {
	return &twoQ{
		a1:     list.New(),
		am:     list.New(),
		where:  make(map[pageKey]*list.Element),
		inMain: make(map[pageKey]bool),
	}
}

func (p *twoQ) Inserted(k pageKey) {
	p.where[k] = p.a1.PushFront(k)
	p.inMain[k] = false
}

func (p *twoQ) Touched(k pageKey) {
	e, ok := p.where[k]
	if !ok {
		return
	}
	if p.inMain[k] {
		p.am.MoveToFront(e)
		return
	}
	// Promote from probation to main on re-reference.
	p.a1.Remove(e)
	p.where[k] = p.am.PushFront(k)
	p.inMain[k] = true
}

func (p *twoQ) Removed(k pageKey) {
	e, ok := p.where[k]
	if !ok {
		return
	}
	if p.inMain[k] {
		p.am.Remove(e)
	} else {
		p.a1.Remove(e)
	}
	delete(p.where, k)
	delete(p.inMain, k)
}

func (p *twoQ) Victim(pinned func(pageKey) bool) (pageKey, bool) {
	// Prefer evicting probation (a1) back-to-front, then main LRU.
	for _, q := range []*list.List{p.a1, p.am} {
		for e := q.Back(); e != nil; e = e.Prev() {
			k := e.Value.(pageKey)
			if !pinned(k) {
				return k, true
			}
		}
	}
	return pageKey{}, false
}

// energyAware ranks eviction victims by the energy a re-fetch would cost:
// when memory pressure forces a choice, it evicts the page whose re-read
// is cheapest in joules (e.g. a sequential flash page) and keeps pages
// whose re-read is expensive (a random 15K-RPM disk page, or worse, one on
// a spun-down disk that would force a spin-up).
//
// This is the §4.3 redesign: "With energy savings in mind, the access
// costs of memory hierarchy levels are going to be different." Recency
// still breaks ties so the policy degrades to LRU when all pages cost the
// same.
type energyAware struct {
	order   *list.List // front = most recent, used for tie-breaks
	elems   map[pageKey]*list.Element
	refetch map[pageKey]float64 // joules to re-fetch
}

// newEnergyAware returns the energy-aware replacement policy. Callers
// register per-page re-fetch costs with the pool's SetRefetchCost;
// unregistered pages default to cost 0 (cheapest, evicted first).
func newEnergyAware() replacementPolicy {
	return &energyAware{
		order:   list.New(),
		elems:   make(map[pageKey]*list.Element),
		refetch: make(map[pageKey]float64),
	}
}

func (p *energyAware) Inserted(k pageKey) { p.elems[k] = p.order.PushFront(k) }

func (p *energyAware) Touched(k pageKey) {
	if e, ok := p.elems[k]; ok {
		p.order.MoveToFront(e)
	}
}

func (p *energyAware) Removed(k pageKey) {
	if e, ok := p.elems[k]; ok {
		p.order.Remove(e)
		delete(p.elems, k)
	}
	delete(p.refetch, k)
}

func (p *energyAware) Victim(pinned func(pageKey) bool) (pageKey, bool) {
	var best pageKey
	bestCost := 0.0
	found := false
	// Walk from least to most recent; strict improvement keeps the
	// least-recent page among equal costs.
	for e := p.order.Back(); e != nil; e = e.Prev() {
		k := e.Value.(pageKey)
		if pinned(k) {
			continue
		}
		c := p.refetch[k]
		if !found || c < bestCost {
			best, bestCost, found = k, c, true
		}
	}
	return best, found
}
