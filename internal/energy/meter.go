package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Trace records the piecewise-constant power draw of a single component and
// integrates it into energy. The owning component calls Set whenever its
// power level changes; the trace accumulates energy for the interval since
// the previous change.
//
// Trace is not safe for concurrent use: the simulation engine guarantees
// only one process runs at a time.
type Trace struct {
	name  string
	lastT Seconds
	lastW Watts
	total Joules
}

// NewTrace returns a trace starting at time 0 with power w0.
func NewTrace(name string, w0 Watts) *Trace {
	return &Trace{name: name, lastW: w0}
}

// Name reports the component name used in reports.
func (tr *Trace) Name() string { return tr.name }

// Set records that the component's power changed to w at time t. Time must
// be monotonically non-decreasing; Set panics on time travel because that
// always indicates a simulator bug that would silently corrupt energy.
func (tr *Trace) Set(t Seconds, w Watts) {
	if t < tr.lastT {
		panic(fmt.Sprintf("energy: trace %q time went backwards: %v -> %v", tr.name, tr.lastT, t))
	}
	tr.total += Energy(tr.lastW, t-tr.lastT)
	tr.lastT = t
	tr.lastW = w
}

// Power reports the current power level.
func (tr *Trace) Power() Watts { return tr.lastW }

// EnergyAt returns total energy consumed through time t (t >= last change).
func (tr *Trace) EnergyAt(t Seconds) Joules {
	if t < tr.lastT {
		panic(fmt.Sprintf("energy: trace %q queried in the past: %v < %v", tr.name, t, tr.lastT))
	}
	return tr.total + Energy(tr.lastW, t-tr.lastT)
}

// Meter aggregates the traces of all components of a system and answers
// whole-system energy questions. It is the simulated analogue of the wall
// power meter used in the paper's experiments.
type Meter struct {
	traces []*Trace
	byName map[string]*Trace
	// Overhead multiplies component energy in TotalEnergy to model power
	// delivery and cooling: the paper cites 0.5–1 W of cooling per server
	// watt [PBS+03]. 1.0 means no overhead.
	Overhead float64
}

// NewMeter returns an empty meter with no cooling/PSU overhead.
func NewMeter() *Meter {
	return &Meter{byName: make(map[string]*Trace), Overhead: 1.0}
}

// Register creates (or returns the existing) trace for a named component
// with initial power w0.
func (m *Meter) Register(name string, w0 Watts) *Trace {
	if tr, ok := m.byName[name]; ok {
		return tr
	}
	tr := NewTrace(name, w0)
	m.traces = append(m.traces, tr)
	m.byName[name] = tr
	return tr
}

// Trace returns the trace registered under name, or nil.
func (m *Meter) Trace(name string) *Trace { return m.byName[name] }

// ComponentEnergy returns energy through t for one component (0 if absent).
func (m *Meter) ComponentEnergy(name string, t Seconds) Joules {
	tr, ok := m.byName[name]
	if !ok {
		return 0
	}
	return tr.EnergyAt(t)
}

// RawEnergy is the sum of all component energies through t, with no
// overhead factor applied.
func (m *Meter) RawEnergy(t Seconds) Joules {
	var sum Joules
	for _, tr := range m.traces {
		sum += tr.EnergyAt(t)
	}
	return sum
}

// TotalEnergy is RawEnergy scaled by the cooling/PSU overhead factor.
func (m *Meter) TotalEnergy(t Seconds) Joules {
	return Joules(float64(m.RawEnergy(t)) * m.Overhead)
}

// TotalPower is the instantaneous whole-system power (with overhead).
func (m *Meter) TotalPower() Watts {
	var sum Watts
	for _, tr := range m.traces {
		sum += tr.Power()
	}
	return Watts(float64(sum) * m.Overhead)
}

// Breakdown returns per-component energy through t, sorted by descending
// energy, for report printing.
func (m *Meter) Breakdown(t Seconds) []ComponentEnergy {
	out := make([]ComponentEnergy, 0, len(m.traces))
	for _, tr := range m.traces {
		out = append(out, ComponentEnergy{Name: tr.name, Energy: tr.EnergyAt(t), Power: tr.Power()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Energy != out[j].Energy {
			return out[i].Energy > out[j].Energy
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ComponentEnergy is one row of a Meter breakdown.
type ComponentEnergy struct {
	Name   string
	Energy Joules
	Power  Watts // instantaneous power at query time
}

// Report formats a breakdown as a small text table.
func (m *Meter) Report(t Seconds) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %10s\n", "component", "energy", "power")
	for _, c := range m.Breakdown(t) {
		fmt.Fprintf(&b, "%-24s %14s %10s\n", c.Name, c.Energy, c.Power)
	}
	fmt.Fprintf(&b, "%-24s %14s %10s\n", "TOTAL (incl. overhead)", m.TotalEnergy(t), m.TotalPower())
	return b.String()
}
