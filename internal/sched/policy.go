package sched

// This file holds the pluggable admission policies. The controller owns
// the mechanics (queueing, grants); a Policy
// owns the decisions the paper's §4.2 says matter — *which* queued job
// runs next and *how many* cores it gets:
//
//   - FIFO is the classical arrival-order policy with fair-share grants,
//     the controller's historical behaviour, bit-for-bit.
//   - EDF (earliest deadline first) dispatches the queued job whose
//     deadline is nearest, so latency-budgeted work jumps the analytic
//     backlog instead of expiring behind it (Niemann et al.'s observation
//     that the latency-vs-energy trade only exists per-query under load).
//   - EnergyAware is EDF for deadline work plus consolidation for the
//     rest: background (deadline-free) jobs are held while deadline work
//     runs, then released preferring the compatibility tag (statement
//     text) already running, granted wide so DVFS-aware planning can go
//     wide-and-slow, and the grant can hold cores back as headroom so an
//     arriving deadline query finds a free core instead of a saturated box.

// Policy decides dispatch order and grant size. Implementations must be
// deterministic pure functions of their arguments: the controller calls
// them under the simulation's single-threaded discipline, and the chaos
// harness asserts bit-identical replay per seed.
type Policy interface {
	Name() string

	// Select returns the index in queue of the job to dispatch next, or
	// -1 to hold the queue as it is (wait for a completion or for more
	// compatible work). queue and running must not be mutated. The
	// controller guards against starvation: a hold is overridden when
	// nothing is running.
	Select(now float64, queue, running []*Ticket, free, total int) int

	// Grant sizes the core grant for the selected job. queued counts the
	// job itself. The controller clamps the result to [1, free]; returning
	// less than free deliberately holds cores back.
	Grant(t *Ticket, now float64, free, total, active, queued int) int
}

// fairShare is the shared grant rule: every job running or waiting gets an
// equal slice of the machine, clamped by what the job wants and what is
// actually free — a lone query gets the whole box, a saturating stream
// load degrades to one core per query.
func fairShare(t *Ticket, free, total, active, queued int) int {
	share := total / (active + queued)
	if share < 1 {
		share = 1
	}
	g := t.Want
	if share < g {
		g = share
	}
	if g > free {
		g = free
	}
	return g
}

// FIFO dispatches in arrival order with fair-share grants — the
// controller's historical behaviour.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Select implements Policy: always the head of the queue.
func (FIFO) Select(now float64, queue, running []*Ticket, free, total int) int { return 0 }

// Grant implements Policy.
func (FIFO) Grant(t *Ticket, now float64, free, total, active, queued int) int {
	return fairShare(t, free, total, active, queued)
}

// EDF dispatches the queued job with the earliest deadline; jobs without
// a deadline sort after every deadline, in arrival order. Grants are the
// same fair share as FIFO, so the two policies differ only in order.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "edf" }

// Select implements Policy.
func (EDF) Select(now float64, queue, running []*Ticket, free, total int) int {
	return earliestDeadline(queue, false)
}

// Grant implements Policy.
func (EDF) Grant(t *Ticket, now float64, free, total, active, queued int) int {
	return fairShare(t, free, total, active, queued)
}

// earliestDeadline returns the index of the queued job with the earliest
// positive deadline (ties break FIFO). Jobs without a deadline sort last;
// if deadlineOnly is set and no queued job has one, it returns -1,
// otherwise the first deadline-free job (index 0) wins.
func earliestDeadline(queue []*Ticket, deadlineOnly bool) int {
	best := -1
	for i, t := range queue {
		if t.Deadline <= 0 {
			continue
		}
		if best < 0 || t.Deadline < queue[best].Deadline {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	if deadlineOnly {
		return -1
	}
	return 0
}

// EnergyAware is the consolidating policy: deadline work runs EDF with
// fair-share grants; background work is held while any deadline job is
// queued or running, then released preferring a job whose compatibility
// tag matches one already running, and granted every free core beyond
// HoldFree so DVFS-aware planning can choose wide-and-slow at a low
// P-state.
type EnergyAware struct {
	// HoldFree cores are kept back from background grants: headroom so an
	// arriving deadline query finds a free core (and the box can stay at
	// its low P-state) instead of queueing behind a full-width grant.
	HoldFree int
}

// Name implements Policy.
func (EnergyAware) Name() string { return "energy" }

// Select implements Policy.
func (p EnergyAware) Select(now float64, queue, running []*Ticket, free, total int) int {
	if i := earliestDeadline(queue, true); i >= 0 {
		return i
	}
	// Only background work is queued. Hold it while deadline work runs —
	// consolidating the background burst to after the latency-critical
	// period — but never under other background work (that would
	// serialize the whole background tier).
	for _, r := range running {
		if r.Deadline > 0 {
			return -1
		}
	}
	// Prefer a queued job whose tag (its statement text) matches a running
	// one's. Scans share no pages, so the preference buys no joules; it
	// only reorders the queue, which moves waits. Deleting it moves the
	// policies experiment's model clock, so that waits for its own change.
	for _, r := range running {
		if r.Tag == "" {
			continue
		}
		for i, q := range queue {
			if q.Tag == r.Tag {
				return i
			}
		}
	}
	return 0
}

// Grant implements Policy.
func (p EnergyAware) Grant(t *Ticket, now float64, free, total, active, queued int) int {
	if t.Deadline > 0 {
		return fairShare(t, free, total, active, queued)
	}
	g := free - p.HoldFree
	if g < 1 {
		g = 1
	}
	if t.Want < g {
		g = t.Want
	}
	return g
}
