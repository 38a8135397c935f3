// Package fault is the deterministic fault-injection layer: typed error
// sentinels shared by every engine layer, per-device fault scripts keyed
// off the simulated clock, and a seeded injector for chaos schedules.
//
// The package sits below hw and storage (it imports only the standard
// library) so that devices, operators, the scheduler, and the session
// layer can all classify failures against one taxonomy without import
// cycles. Fault scripts are pure functions of simulated time plus a
// consumption count, so a given (seed, schedule) always produces
// bit-identical outcomes — the same property the sim kernel guarantees
// for timings and joules.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sentinel errors forming the engine-wide failure taxonomy. Layers wrap
// them (fmt.Errorf with %w, exec.QueryError); callers classify with
// errors.Is.
var (
	// ErrDeviceFailed marks a permanent device death: the device will
	// never serve another request. Not retryable.
	ErrDeviceFailed = errors.New("device failed")

	// ErrTransientIO marks a transient I/O error (a dropped request, a
	// recoverable media error). Retryable: a later attempt may succeed.
	ErrTransientIO = errors.New("transient i/o error")

	// ErrDeadlineExceeded marks a statement cancelled because its
	// deadline passed, whether queued or running.
	ErrDeadlineExceeded = errors.New("deadline exceeded")

	// ErrCanceled marks a statement cancelled by the client (Rows.Close
	// before completion).
	ErrCanceled = errors.New("query canceled")

	// ErrMemBudget marks an operator exceeding Ctx.MemBudgetBytes.
	ErrMemBudget = errors.New("memory budget exceeded")

	// ErrCrashed marks work lost to a whole-engine crash: every
	// in-flight statement at crash time fails with it.
	ErrCrashed = errors.New("engine crashed")

	// ErrType marks a statement that does not type-check — arithmetic or
	// SUM/AVG over a string, a comparison across physical classes. It is
	// refused at bind, before admission: nothing runs and nothing is
	// billed. Not retryable.
	ErrType = errors.New("type error")
)

// IsTransient reports whether err is worth retrying: only transient I/O
// qualifies. Deadline, cancel, budget, crash, and dead devices are final.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientIO) }

// DeviceFault is a scripted fault schedule for one device. Devices
// consult it on every request via Check (errors) and Stretch (limp-mode
// latency). The zero value injects nothing.
type DeviceFault struct {
	name string

	failAt float64 // permanent death time; +Inf = never

	transients []transientWindow

	limpAt     float64 // latency degradation onset; +Inf = never
	limpFactor float64 // service-time multiplier once limping
}

type transientWindow struct {
	at   float64
	left int // errors remaining to hand out
}

// NewDeviceFault returns an empty fault script for the named device.
func NewDeviceFault(name string) *DeviceFault {
	return &DeviceFault{name: name, failAt: math.Inf(1), limpAt: math.Inf(1)}
}

// Name reports the device name the script targets.
func (f *DeviceFault) Name() string { return f.name }

// FailAt schedules permanent device death: every request at time >= t
// fails with ErrDeviceFailed.
func (f *DeviceFault) FailAt(t float64) *DeviceFault {
	f.failAt = t
	return f
}

// TransientAt arms n transient errors: the first n requests at time >= t
// fail with ErrTransientIO, then the device recovers.
func (f *DeviceFault) TransientAt(t float64, n int) *DeviceFault {
	if n <= 0 {
		panic(fmt.Sprintf("fault: %d transient errors", n))
	}
	f.transients = append(f.transients, transientWindow{at: t, left: n})
	sort.SliceStable(f.transients, func(i, j int) bool {
		return f.transients[i].at < f.transients[j].at
	})
	return f
}

// LimpAt schedules latency degradation ("limp mode"): from time t every
// request's service time is multiplied by factor (> 1).
func (f *DeviceFault) LimpAt(t, factor float64) *DeviceFault {
	if factor < 1 {
		panic(fmt.Sprintf("fault: limp factor %v < 1", factor))
	}
	f.limpAt, f.limpFactor = t, factor
	return f
}

// Check is consulted by the device at the start of each request. It
// returns ErrDeviceFailed after the scripted death time, consumes and
// returns one armed ErrTransientIO if a transient window is open, and
// returns nil otherwise.
func (f *DeviceFault) Check(now float64) error {
	if f == nil {
		return nil
	}
	if now >= f.failAt {
		return fmt.Errorf("fault: %s at t=%.6f: %w", f.name, now, ErrDeviceFailed)
	}
	for i := range f.transients {
		w := &f.transients[i]
		if now >= w.at && w.left > 0 {
			w.left--
			return fmt.Errorf("fault: %s at t=%.6f: %w", f.name, now, ErrTransientIO)
		}
	}
	return nil
}

// Stretch applies limp-mode degradation to a request's service time.
func (f *DeviceFault) Stretch(now, service float64) float64 {
	if f == nil || now < f.limpAt {
		return service
	}
	return service * f.limpFactor
}

// Failed reports whether the device is permanently dead at time now.
func (f *DeviceFault) Failed(now float64) bool {
	return f != nil && now >= f.failAt
}

// Injector owns a set of device fault scripts plus a seeded random
// source for building randomized-but-reproducible chaos schedules. All
// randomness in a chaos run must come from Rand() so the run is a pure
// function of the seed.
type Injector struct {
	seed int64
	rng  *rand.Rand
	devs map[string]*DeviceFault
}

// NewInjector returns an injector whose schedule decisions derive only
// from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
		devs: make(map[string]*DeviceFault),
	}
}

// Seed reports the injector's seed.
func (i *Injector) Seed() int64 { return i.seed }

// Rand exposes the injector's deterministic random source.
func (i *Injector) Rand() *rand.Rand { return i.rng }

// Device returns (creating on first use) the fault script for a device.
func (i *Injector) Device(name string) *DeviceFault {
	f, ok := i.devs[name]
	if !ok {
		f = NewDeviceFault(name)
		i.devs[name] = f
	}
	return f
}
