package energy

// This file splits whole-server energy among concurrently executing
// queries. The paper's experiments meter the wall socket, which is honest
// for one query at a time but meaningless once queries overlap: the
// whole-server delta during query A includes query B's disk seeks and
// everyone's share of the idle floor. Attribution decomposes the meter
// exactly:
//
//	total = Σ_q direct(q) + Σ_intervals residual/|active|
//
// direct(q) is the marginal energy the devices charged to q's own
// processes (busy-minus-idle watts for the duration each device served
// them — see Charger); the residual of an interval is everything else,
// dominated by the idle floor (base watts, CPU package idle, DRAM
// refresh, disks spinning), and is shared equally among the queries
// active in that interval — i.e. proportional to each query's wall-clock
// overlap with it. The split telescopes, so the per-query attributions
// sum to the meter's reading by construction, whatever the device models
// were doing.

// Charger absorbs directly attributed marginal joules. Device models
// check whether the driving process's owner (sim.Proc.Owner) implements
// it and, if so, credit the marginal energy of each operation — the
// busy-minus-idle power integrated over the service time — as they charge
// the meter. *Account implements Charger.
type Charger interface {
	ChargeJoules(j Joules)
}

// Attributor watches a Meter and splits its reading among Accounts. All
// methods must be called with the simulation's current time (time must
// not go backwards); the engine's single-threaded discipline makes that
// natural — Begin/End are called from admission events, ChargeJoules from
// device models in between.
type Attributor struct {
	meter *Meter

	active       []*Account // accounts begun and not yet ended, in begin order
	direct       Joules     // raw direct charges across all accounts, ever
	lastT        Seconds
	lastTotal    Joules
	lastDirect   Joules
	unattributed Joules // residual of intervals with no active account
}

// NewAttributor returns an attributor over the meter, starting at time 0.
func NewAttributor(m *Meter) *Attributor {
	return &Attributor{meter: m}
}

// Begin settles the elapsed interval and opens an account for a query
// admitted at time t.
func (a *Attributor) Begin(t Seconds) *Account {
	a.settle(t)
	acct := &Account{at: a, begun: t}
	a.active = append(a.active, acct)
	return acct
}

// End settles the elapsed interval and closes the account at time t; its
// Attributed value is final afterwards.
func (a *Attributor) End(acct *Account, t Seconds) {
	a.settle(t)
	for i, x := range a.active {
		if x == acct {
			a.active = append(a.active[:i], a.active[i+1:]...)
			break
		}
	}
	acct.ended = t
	acct.closed = true
}

// Active reports the number of open accounts.
func (a *Attributor) Active() int { return len(a.active) }

// Unattributed reports the energy of intervals during which no account
// was open (the idle floor between workloads); it belongs to no query.
func (a *Attributor) Unattributed() Joules { return a.unattributed }

// SettledThrough reports the time of the last settlement: the invariant
// Σ accounts.Attributed() + Unattributed() == meter.TotalEnergy(t) holds
// exactly at t = SettledThrough().
func (a *Attributor) SettledThrough() Seconds { return a.lastT }

// Settle distributes energy up to time t (>= SettledThrough), extending
// the attribution invariant to t even when no account begins or ends
// there — how a drained workload's ledger closes over its idle tail.
func (a *Attributor) Settle(t Seconds) { a.settle(t) }

// settle distributes the interval [lastT, t): each account keeps what its
// processes were charged directly, and the residual — meter delta minus
// direct charges — splits equally among the accounts active over the
// interval. Direct charges land when a device operation completes, so an
// operation straddling a settlement is smeared one interval late; the
// telescoped sum is unaffected.
func (a *Attributor) settle(t Seconds) {
	total := a.meter.TotalEnergy(t)
	dDirect := a.direct - a.lastDirect
	residual := total - a.lastTotal - dDirect
	if len(a.active) == 0 {
		a.unattributed += residual
	} else {
		share := Joules(float64(residual) / float64(len(a.active)))
		for _, acct := range a.active {
			acct.shared += share
		}
	}
	a.lastT = t
	a.lastTotal = total
	a.lastDirect = a.direct
}

// Account accumulates one query's energy: the marginal joules its own
// processes were charged plus its share of every overlapped interval's
// residual (the idle floor).
type Account struct {
	at     *Attributor
	direct Joules
	shared Joules
	begun  Seconds
	ended  Seconds
	closed bool
}

// ChargeJoules implements Charger: device models credit marginal energy
// here as they charge the meter. Charges arriving after End — a
// cancelled query's readers finishing in-flight device operations — are
// declined: the account's Attributed was already snapshotted, so the
// energy stays in the residual and is shared like any other unowned
// activity, keeping the decomposition exact.
func (acct *Account) ChargeJoules(j Joules) {
	if acct.closed {
		return
	}
	acct.direct += j
	acct.at.direct += j
}

// Direct reports the marginal energy charged by this query's own
// processes.
func (acct *Account) Direct() Joules { return acct.direct }

// Shared reports this query's accumulated residual (idle-floor) share.
func (acct *Account) Shared() Joules { return acct.shared }

// Closed reports whether End has been called on the account. Crash
// recovery uses it to close only the accounts still open at the crash.
func (acct *Account) Closed() bool { return acct.closed }

// Attributed reports the query's total energy share. Across concurrent
// queries these sum, with Unattributed, to the whole-server meter.
func (acct *Account) Attributed() Joules { return acct.Direct() + acct.shared }

// Window reports the account's [begin, end] times (end is meaningful only
// after End).
func (acct *Account) Window() (begun, ended Seconds) { return acct.begun, acct.ended }
