// Package sched is the workload manager: concurrency-aware admission
// control.
//
// §4.2 of the paper argues the big energy levers are workload-level —
// deciding *when* work runs and *how much hardware* it may occupy, across
// concurrent queries. The Admission controller owns both decisions:
//
//   - Concurrency. It tracks the server's simulated cores. A job asks for
//     up to `want` cores and is granted its share of the currently free
//     ones at admission time — a lone query gets the whole box and plans
//     wide, while under a saturating multi-stream load every query is
//     granted one core and plans serial, so inter- and intra-query
//     parallelism coexist without oversubscribing the cost model's
//     assumptions. When no core is free, arrivals queue FIFO.
//
// Which queued job dispatches next, and how many cores it is granted, is
// delegated to a pluggable Policy (policy.go): FIFO with fair-share
// grants (the default), earliest-deadline-first, or the consolidating
// energy-aware policy. A job's cores are set once, at dispatch; the only
// later change is Shrink giving back what its chosen plan cannot occupy.
// Holding arrivals back to batch them in time is the caller's business:
// E4 (bench.RunConsolidation) keeps its own window in front of a plain
// controller.
package sched

import (
	"fmt"

	"energydb/internal/fault"
	"energydb/internal/sim"
)

// Ticket is one submitted job's admission record.
type Ticket struct {
	ID       int64
	Name     string
	Want     int     // cores requested (clamped to [1, TotalCores])
	Granted  int     // cores granted at admission; 0 while queued
	Deadline float64 // absolute engine time; 0 = none
	Tag      string  // compatibility tag for consolidating policies; "" = untagged

	run       func(p *sim.Proc, granted int)
	fail      func(err error)
	submitted float64
	admitted  float64
	canceled  bool
	running   bool
}

// Wait reports the delay between submission and admission.
func (t *Ticket) Wait() float64 { return t.admitted - t.submitted }

// Stats summarises the controller's history.
type Stats struct {
	Submitted  int64
	Completed  int64   // jobs that ran to completion (never canceled/expired ones)
	Canceled   int64   // jobs dequeued by Cancel before ever running
	Expired    int64   // jobs rejected because their deadline passed while queued
	Waited     int64   // jobs admitted strictly later than submitted
	TotalWait  float64 // time between submission and admission
	PeakActive int     // most jobs running at once
	PeakQueue  int     // deepest admission queue

	// Regrants is always 0: jobs never gain cores after dispatch. It
	// stays only because the eeperf harness still reports it as
	// sched.regrants; it goes when that metric does.
	Regrants int64
}

// MeanWait reports the average queueing delay added by admission.
func (s Stats) MeanWait() float64 {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalWait / float64(s.Completed)
}

// Admission is the engine-resident admission controller. It is not safe
// for use outside the owning engine's single-threaded discipline; Submit
// may be called from event context, from a process, or from ordinary code
// before the engine is pumped.
type Admission struct {
	eng *sim.Engine

	// TotalCores is the capacity grants are drawn from (the server's
	// simulated cores).
	TotalCores int

	policy  Policy
	nextID  int64
	free    int
	active  int
	queue   []*Ticket // waiting for a free core
	running []*Ticket // dispatched, not yet complete (admission order)
	armed   bool      // a dispatch event is pending
	stats   Stats
}

// NewAdmission returns a controller over cores simulated cores
// dispatching under pol; nil means the FIFO fair-share policy.
func NewAdmission(eng *sim.Engine, cores int, pol Policy) *Admission {
	if cores < 1 {
		panic(fmt.Sprintf("sched: %d cores", cores))
	}
	if pol == nil {
		pol = FIFO{}
	}
	return &Admission{eng: eng, TotalCores: cores, policy: pol, free: cores}
}

// Stats returns a copy of the counters.
func (a *Admission) Stats() Stats { return a.stats }

// Active reports how many admitted jobs are currently running.
func (a *Admission) Active() int { return a.active }

// FreeCores reports the cores not granted to any running job.
func (a *Admission) FreeCores() int { return a.free }

// Job describes a submission: the cores it wants, an optional absolute
// deadline and an optional failure callback invoked (in event context) if
// the job is rejected before it ever runs — because its deadline passed
// while it was queued.
type Job struct {
	Name     string
	Want     int     // cores requested (clamped to [1, TotalCores])
	Deadline float64 // absolute engine time; 0 = none
	Tag      string  // compatibility tag (e.g. statement text); "" = untagged
	Run      func(p *sim.Proc, granted int)
	Fail     func(err error)
}

// Submit offers a job. It starts when a core is free; Run receives its
// own simulated process and the number of cores granted. Submit returns
// the ticket, whose Granted field is filled at admission. A job whose
// deadline passes while it is still queued never runs: it leaves the
// queue, counts as Expired (not Completed), and its Fail callback fires
// with fault.ErrDeadlineExceeded. Deadline enforcement for *running* jobs
// belongs to the session layer, which owns the query's cancel flag.
func (a *Admission) Submit(j Job) *Ticket {
	a.nextID++
	want := j.Want
	if want < 1 {
		want = 1
	}
	if want > a.TotalCores {
		want = a.TotalCores
	}
	t := &Ticket{ID: a.nextID, Name: j.Name, Want: want, Deadline: j.Deadline,
		Tag: j.Tag, run: j.Run, fail: j.Fail, submitted: a.eng.Now()}
	a.stats.Submitted++
	if t.Deadline > 0 {
		at := t.Deadline
		if at < a.eng.Now() {
			at = a.eng.Now()
		}
		a.eng.At(at, "sched-deadline", func() { a.expire(t) })
	}
	a.queue = append(a.queue, t)
	if len(a.queue) > a.stats.PeakQueue {
		a.stats.PeakQueue = len(a.queue)
	}
	a.armDispatch()
	return t
}

// Cancel removes a ticket that has not started running from the queue,
// reporting whether it was dequeued. A canceled
// ticket never dispatches and is not counted as completed. Canceling a
// running or finished ticket reports false and does nothing — running
// work is stopped through the job's own cancellation path.
func (a *Admission) Cancel(t *Ticket) bool {
	if t.running || t.canceled {
		return false
	}
	if !a.remove(t) {
		return false
	}
	t.canceled = true
	a.stats.Canceled++
	return true
}

// expire rejects a ticket whose deadline passed while it was waiting.
func (a *Admission) expire(t *Ticket) {
	if t.running || t.canceled {
		return
	}
	if !a.remove(t) {
		return
	}
	t.canceled = true
	a.stats.Expired++
	if t.fail != nil {
		t.fail(fmt.Errorf("sched: %s queued past its deadline (%.6f): %w",
			t.Name, t.Deadline, fault.ErrDeadlineExceeded))
	}
}

// remove deletes t from the queue, reporting success.
func (a *Admission) remove(t *Ticket) bool {
	for i, q := range a.queue {
		if q == t {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Reset forcibly returns the controller to an empty, all-cores-free
// state after Engine.Crash has unwound every running job. Queued
// tickets are dropped without callbacks — the crash path fails their
// owners directly.
func (a *Admission) Reset() {
	a.free = a.TotalCores
	a.active = 0
	a.queue = nil
	a.running = nil
	a.armed = false
}

// armDispatch schedules one dispatch at the current instant, so all
// same-instant submissions are granted together under one fair share.
func (a *Admission) armDispatch() {
	if a.armed {
		return
	}
	a.armed = true
	a.eng.After(0, "sched-dispatch", func() {
		a.armed = false
		a.dispatch()
	})
}

// dispatch admits queued jobs while cores are free. The policy picks
// which queued job goes next (or holds the queue); the grant is the
// policy's, clamped to [1, free]. Under the default FIFO policy this is
// the historical behaviour: arrival order with fair-share grants —
// min(want, totalCores/(active+queued), free), never less than one — so
// grants come only from free cores, a lone query gets them all, and a
// saturating stream load degrades to one core per query.
func (a *Admission) dispatch() {
	for len(a.queue) > 0 && a.free > 0 {
		i := a.policy.Select(a.eng.Now(), a.queue, a.running, a.free, a.TotalCores)
		if i < 0 || i >= len(a.queue) {
			if a.active > 0 {
				break // policy holds the queue; a completion re-arms dispatch
			}
			i = 0 // starvation guard: never hold work on an idle box
		}
		t := a.queue[i]
		if t.Deadline > 0 && t.Deadline <= a.eng.Now() {
			// Already past its deadline at dispatch time: reject rather
			// than start work that can only be thrown away.
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			t.canceled = true
			a.stats.Expired++
			if t.fail != nil {
				t.fail(fmt.Errorf("sched: %s queued past its deadline (%.6f): %w",
					t.Name, t.Deadline, fault.ErrDeadlineExceeded))
			}
			continue
		}
		g := a.policy.Grant(t, a.eng.Now(), a.free, a.TotalCores, a.active, len(a.queue))
		if g < 1 {
			g = 1
		}
		if a.free < g {
			g = a.free
		}
		a.queue = append(a.queue[:i], a.queue[i+1:]...)
		a.free -= g
		a.active++
		if a.active > a.stats.PeakActive {
			a.stats.PeakActive = a.active
		}
		t.Granted = g
		t.running = true
		t.admitted = a.eng.Now()
		if t.admitted > t.submitted {
			a.stats.Waited++
		}
		a.stats.TotalWait += t.admitted - t.submitted
		a.running = append(a.running, t)
		a.eng.Go(t.Name, func(p *sim.Proc) {
			t.run(p, t.Granted)
			a.complete(t)
		})
	}
}

// Shrink returns part of a running job's grant to the free pool — a
// query whose chosen plan uses fewer cores than it was granted gives the
// remainder back as soon as the plan is known, so staggered arrivals are
// not serialized behind grants nobody uses. The ticket keeps holding `to`
// cores (floor one) until completion.
func (a *Admission) Shrink(t *Ticket, to int) {
	if to < 1 {
		to = 1
	}
	if to >= t.Granted {
		return
	}
	a.free += t.Granted - to
	t.Granted = to
	if len(a.queue) > 0 {
		a.armDispatch()
	}
}

// complete returns a finished job's cores and admits waiting work.
func (a *Admission) complete(t *Ticket) {
	t.running = false
	a.free += t.Granted
	a.active--
	a.stats.Completed++
	for i, r := range a.running {
		if r == t {
			a.running = append(a.running[:i], a.running[i+1:]...)
			break
		}
	}
	if len(a.queue) > 0 {
		a.armDispatch()
	}
}
