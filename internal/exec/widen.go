package exec

// Widener is the mid-pipeline re-grant hook. The fragment runner of an
// exchange that can absorb extra workers while running (a set compiled
// more than one way, with a Spawn hook) registers an apply callback when
// it starts and deregisters when it finishes; the session offers freed
// cores through Offer. Accepting an offer adds fragments to the live
// morsel dispenser — no restart, no result change (fragment count never
// affects results; see CONTRACT.md).
//
// All calls happen under the engine's one-event-at-a-time discipline
// (Offer from scheduler event context, Register/Deregister from the
// consumer's process), so no locking is needed.
type Widener struct {
	apply func(extra int) int
}

// Register installs the live exchange's apply callback and reports
// whether it took the slot. The callback is offered free cores and
// returns how many it accepted (0..extra), having already spawned that
// many extra fragment workers. The widener holds at most one callback —
// the outermost live exchange wins — so a nested exchange (a join build
// running inside an aggregation fragment) is declined and runs at its
// granted width.
func (w *Widener) Register(fn func(extra int) int) bool {
	if w == nil || w.apply != nil {
		return false
	}
	w.apply = fn
	return true
}

// Deregister removes the callback; subsequent offers are declined.
func (w *Widener) Deregister() { w.apply = nil }

// Offer hands extra free cores to the registered exchange, returning
// how many were accepted. Safe on a nil Widener.
func (w *Widener) Offer(extra int) int {
	if w == nil || w.apply == nil || extra <= 0 {
		return 0
	}
	n := w.apply(extra)
	if n < 0 {
		n = 0
	}
	if n > extra {
		n = extra
	}
	return n
}
