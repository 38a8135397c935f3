package opt

import (
	"fmt"

	"energydb/internal/exec"
)

// Objective selects what the optimizer minimises.
type Objective int

const (
	// MinTime is the classical objective: fastest plan wins.
	MinTime Objective = iota
	// MinEnergy minimises modelled joules — the paper's proposal.
	MinEnergy
	// MinEDP minimises energy x delay, a balanced compromise.
	MinEDP
)

func (o Objective) String() string {
	switch o {
	case MinTime:
		return "time"
	case MinEnergy:
		return "energy"
	default:
		return "edp"
	}
}

// EnergyMode selects how the energy objectives (MinEnergy, MinEDP) price
// a plan's joules.
type EnergyMode int

const (
	// MarginalEnergy prices only busy-minus-idle joules — the paper's
	// Figure 2 arithmetic, which assumes the idle floor is someone else's
	// problem. Under it MinEnergy never buys race-to-idle: parallelism
	// costs startup joules and saves only seconds.
	MarginalEnergy EnergyMode = iota
	// IdleFloorAware adds IdleWatts × Seconds to the energy score: the
	// query is billed the idle floor it keeps the server awake for, the
	// same attribution the wall meter and the energy.Attributor use. Under
	// it MinEnergy agrees with the meter — finishing sooner saves the
	// floor, so race-to-idle and wide-and-slow DVFS plans can win.
	IdleFloorAware
)

func (m EnergyMode) String() string {
	if m == IdleFloorAware {
		return "idle-floor"
	}
	return "marginal"
}

// PStatePoint is one CPU operating point for the planner's P-state axis,
// mirroring hw.PState: frequency and active power relative to P0.
type PStatePoint struct {
	Name       string
	FreqScale  float64
	PowerScale float64
}

// Env describes the hardware to the cost models: performance parameters
// for the time model, marginal power parameters for the energy model.
// Power is *marginal* (above idle): the paper's Figure 2 arithmetic
// attributes only busy watts to the query ("assuming that an idle CPU
// does not consume any power, or ... some other concurrent task is taking
// up the rest of the CPU cycles").
type Env struct {
	CPUFreqHz float64
	Cores     int

	// ScanBW is the aggregate sequential bandwidth of the data volume
	// (bytes/s); PageLatency the per-page fixed cost; PageBytes the page
	// size.
	ScanBW      float64
	PageLatency float64
	PageBytes   int64

	// Marginal power, watts.
	CPUWattPerCore float64 // busy minus idle, per core
	StorageWatt    float64 // volume busy minus idle, whole array
	// DRAMWattPerByte is the holding power of operator working memory
	// (hash tables, sort runs). Datasheet DRAM is ~1.3e-9 W/byte; the
	// paper argues optimizers should treat memory as power-expensive, so
	// experiments sweep this knob upward (bench.RunJoinFlip).
	DRAMWattPerByte float64

	// EnergyMode selects marginal or idle-floor-aware pricing for the
	// energy objectives; IdleWatts is the whole-server idle floor the
	// idle-floor-aware mode bills per second of plan runtime.
	EnergyMode EnergyMode
	IdleWatts  float64

	// PStates, when it has more than one point, opens the P-state axis:
	// Optimize re-prices the whole plan at each operating point and keeps
	// the best under the objective (MinTime always runs at the first
	// point, P0). Point 0 must be the nominal {1, 1}.
	PStates []PStatePoint

	// TimeBudget, when positive, constrains plan choice: among candidate
	// plans only those with Seconds within the budget compete under the
	// objective, and a fastest-at-P0 fallback is always considered — so a
	// deadline query is planned cheap-if-possible, fast-if-necessary.
	TimeBudget float64

	Costs exec.CostParams
}

// Grant derives the per-query planning environment from an admission
// grant: every degree-of-parallelism sweep (scan morsels, partitioned
// aggregation, partitioned join builds) is priced against the cores the
// admission controller actually granted from the free pool, rather than
// the machine's configured total. Cores acts as the configured ceiling. A
// grant of one core reproduces the serial plans exactly.
func (e *Env) Grant(cores int) *Env {
	g := *e
	if cores < 1 {
		cores = 1
	}
	if cores < g.Cores {
		g.Cores = cores
	}
	return &g
}

// Validate reports a descriptive error for unusable parameters.
func (e *Env) Validate() error {
	if e.CPUFreqHz <= 0 || e.Cores <= 0 {
		return fmt.Errorf("opt: env CPU not configured: %+v", e)
	}
	if e.ScanBW <= 0 || e.PageBytes <= 0 {
		return fmt.Errorf("opt: env storage not configured: %+v", e)
	}
	return nil
}

// Cost is a plan cost under both models.
type Cost struct {
	Seconds float64
	Joules  float64
	// MemBytes is the peak working memory the plan holds (for reporting
	// and for the DRAM holding-power term already folded into Joules).
	MemBytes int64
}

// Score reduces a cost to the optimizer's comparison key under marginal
// energy pricing. Env.Score is the environment-aware version.
func (c Cost) Score(o Objective) float64 {
	switch o {
	case MinTime:
		return c.Seconds
	case MinEnergy:
		return c.Joules
	default:
		return c.Joules * c.Seconds
	}
}

// Score reduces a cost to the comparison key the optimizer minimises,
// honouring the environment's energy mode: in IdleFloorAware mode the
// energy objectives bill the idle floor the plan keeps the server awake
// for (IdleWatts × Seconds) on top of marginal joules.
func (e *Env) Score(c Cost, o Objective) float64 {
	if o == MinTime {
		return c.Seconds
	}
	j := c.Joules
	if e.EnergyMode == IdleFloorAware {
		j += e.IdleWatts * c.Seconds
	}
	if o == MinEnergy {
		return j
	}
	return j * c.Seconds
}

// AtPState derives the environment at one CPU operating point: frequency
// and marginal core power scale by the point's factors. The idle floor
// does not scale — that is the point of DVFS.
func (e *Env) AtPState(p PStatePoint) *Env {
	g := *e
	g.CPUFreqHz *= p.FreqScale
	g.CPUWattPerCore *= p.PowerScale
	return &g
}

// Add composes sequential costs: times add, joules add, memory peaks.
func (c Cost) Add(d Cost) Cost {
	m := c.MemBytes
	if d.MemBytes > m {
		m = d.MemBytes
	}
	return Cost{Seconds: c.Seconds + d.Seconds, Joules: c.Joules + d.Joules, MemBytes: m}
}

func (c Cost) String() string {
	return fmt.Sprintf("%.4fs / %.2fJ / %dB mem", c.Seconds, c.Joules, c.MemBytes)
}
