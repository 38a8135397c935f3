// Package hw models the hardware components the paper's experiments run on:
// CPUs with P-states (DVFS) and idle states, storage devices (15K-RPM SCSI
// disks with spin states, and flash SSDs as disks with no seek and no
// rotation), DRAM background power, and whole servers.
//
// Every device charges real simulated time for the work it is asked to do
// and reports its piecewise-constant power draw to an energy.Meter, so the
// energy of any workload is the exact integral of the modelled power. The
// constants in catalog.go are datasheet-class numbers for the 2008-era
// hardware the paper used; experiments emerge from these models rather than
// from fitted curves.
package hw

import (
	"fmt"
	"math"

	"energydb/internal/energy"
	"energydb/internal/sim"
)

// PState is one DVFS operating point of a CPU. Scaling voltage and
// frequency together makes dynamic power fall roughly with the cube of the
// frequency scale; the catalog provides explicit points instead of assuming
// a law.
type PState struct {
	Name       string
	FreqScale  float64 // multiplier on CPUSpec.FreqHz, in (0, 1]
	PowerScale float64 // multiplier on CPUSpec.ActivePerCore
}

// CPUSpec describes a CPU complex (all sockets of a server together).
type CPUSpec struct {
	Name          string
	Cores         int
	FreqHz        float64      // per-core frequency at the top P-state
	IdleWatts     energy.Watts // package idle power (C-state floor)
	ActivePerCore energy.Watts // additional power per busy core at top P-state
	PStates       []PState     // sorted fastest first; index 0 must be {1,1}
}

// CPU is a simulated CPU complex: a sim.Resource with one unit per core,
// plus DVFS state and power accounting.
type CPU struct {
	eng    *sim.Engine
	spec   CPUSpec
	res    *sim.Resource
	trace  *energy.Trace
	pstate int

	busyTime   float64 // core-seconds of work executed
	lastChange float64
	busyCores  int
	peakBusy   int     // most cores simultaneously busy since construction
	totalWork  float64 // cycles executed
}

// NewCPU registers a CPU on the meter and returns it.
func NewCPU(e *sim.Engine, m *energy.Meter, name string, spec CPUSpec) *CPU {
	if spec.Cores <= 0 || !(spec.FreqHz > 0) || math.IsInf(spec.FreqHz, 0) {
		panic(fmt.Sprintf("hw: invalid CPU spec %+v", spec))
	}
	if len(spec.PStates) == 0 {
		spec.PStates = []PState{{Name: "P0", FreqScale: 1, PowerScale: 1}}
	}
	for _, ps := range spec.PStates {
		// A zero or NaN frequency makes every Use at that point last
		// forever, or for a time that is not a number.
		if !(ps.FreqScale > 0) || math.IsInf(ps.FreqScale, 0) || !(ps.PowerScale >= 0) || math.IsInf(ps.PowerScale, 0) {
			panic(fmt.Sprintf("hw: invalid P-state %+v in CPU spec %q: scales must be finite, frequency positive, power non-negative", ps, spec.Name))
		}
	}
	c := &CPU{
		eng:   e,
		spec:  spec,
		res:   sim.NewResource(e, name, spec.Cores),
		trace: m.Register(name, spec.IdleWatts),
	}
	c.res.OnBusyChange(func(n int) { c.onBusy(n) })
	return c
}

func (c *CPU) onBusy(n int) {
	now := c.eng.Now()
	c.busyTime += float64(c.busyCores) * (now - c.lastChange)
	c.lastChange = now
	c.busyCores = n
	if n > c.peakBusy {
		c.peakBusy = n
	}
	c.trace.Set(energy.Seconds(now), c.powerAt(n))
}

func (c *CPU) powerAt(busy int) energy.Watts {
	ps := c.spec.PStates[c.pstate]
	return c.spec.IdleWatts + energy.Watts(float64(c.spec.ActivePerCore)*ps.PowerScale*float64(busy))
}

// Spec returns the CPU's specification.
func (c *CPU) Spec() CPUSpec { return c.spec }

// Cores reports the core count.
func (c *CPU) Cores() int { return c.spec.Cores }

// FreqHz reports the effective per-core frequency at the current P-state.
func (c *CPU) FreqHz() float64 {
	return c.spec.FreqHz * c.spec.PStates[c.pstate].FreqScale
}

// SetPState selects DVFS operating point i (0 is fastest), clamping an
// out-of-range index to the nearest valid point, and returns the index
// actually applied — so a governor asking for a deeper state than the
// part supports lands on the deepest one instead of panicking mid-run.
// Work in flight keeps its original duration; new work sees the new
// frequency. This mirrors real governors, which take effect at
// scheduling boundaries.
func (c *CPU) SetPState(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= len(c.spec.PStates) {
		i = len(c.spec.PStates) - 1
	}
	if i != c.pstate {
		c.pstate = i
		c.trace.Set(energy.Seconds(c.eng.Now()), c.powerAt(c.busyCores))
	}
	return i
}

// PState reports the current P-state index.
func (c *CPU) PState() int { return c.pstate }

// Use executes the given number of cycles on one core, blocking the calling
// process for cycles/frequency seconds of simulated time.
func (c *CPU) Use(p *sim.Proc, cycles float64) {
	if !(cycles >= 0) { // negative, or NaN, which no comparison catches
		panic(fmt.Sprintf("hw: negative or NaN CPU cycles: %v", cycles))
	}
	if cycles == 0 {
		return
	}
	c.totalWork += cycles
	d := cycles / c.FreqHz()
	marginal := float64(c.spec.ActivePerCore) * c.spec.PStates[c.pstate].PowerScale * d
	c.res.Use(p, 1, d)
	chargeOwner(p, marginal)
}

// chargeOwner credits directly attributed marginal joules — what the
// device drew above idle to serve this operation — to the account riding
// on the process, if any (per-query energy attribution).
func chargeOwner(p *sim.Proc, j float64) {
	if j <= 0 {
		return
	}
	if c, ok := p.Owner().(energy.Charger); ok {
		c.ChargeJoules(energy.Joules(j))
	}
}

// PeakBusyCores reports the most cores observed simultaneously busy since
// construction — the *realised* (as opposed to planned) degree of
// parallelism, which the exchange-layer tests assert actually rose when a
// plan fanned out worker processes.
func (c *CPU) PeakBusyCores() int { return c.peakBusy }

// BusyCoreSeconds reports accumulated core-seconds of executed work.
func (c *CPU) BusyCoreSeconds() float64 {
	return c.busyTime + float64(c.busyCores)*(c.eng.Now()-c.lastChange)
}

// TotalCycles reports the cycles executed so far.
func (c *CPU) TotalCycles() float64 { return c.totalWork }

// Utilization reports mean core utilisation in [0,1] since time 0.
func (c *CPU) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return c.BusyCoreSeconds() / (now * float64(c.spec.Cores))
}

// Reset returns every core to the free pool after Engine.Crash has
// unwound the processes that held them; the power trace drops to idle at
// the crash instant.
func (c *CPU) Reset() { c.res.Reset() }
