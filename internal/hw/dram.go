package hw

import (
	"fmt"

	"energydb/internal/energy"
)

// DRAMSpec describes main memory. Background (refresh + standby) power is
// proportional to the number of ranks; the paper (§4.3) observes that
// "keeping a page in RAM will require energy, proportional to the time the
// page is cached", which is exactly this term.
type DRAMSpec struct {
	Name         string
	Ranks        int // independently power-managed units
	BytesPerRank int64
	WattsPerRank energy.Watts // background power of a powered rank
}

// DRAM models memory as constant background power on the meter. Its one
// reader is the optimizer, which prices operator working memory at
// HoldingPower watts per byte.
type DRAM struct {
	spec DRAMSpec
}

// NewDRAM registers memory on the meter with all ranks powered.
func NewDRAM(m *energy.Meter, name string, spec DRAMSpec) *DRAM {
	if spec.Ranks <= 0 || spec.BytesPerRank <= 0 {
		panic(fmt.Sprintf("hw: invalid DRAM spec %+v", spec))
	}
	d := &DRAM{spec: spec}
	m.Register(name, d.backgroundPower())
	return d
}

func (d *DRAM) backgroundPower() energy.Watts {
	return energy.Watts(float64(d.spec.WattsPerRank) * float64(d.spec.Ranks))
}

// HoldingPower reports the background watts attributable to caching one
// byte for one second: W/byte.
func (d *DRAM) HoldingPower() float64 {
	return float64(d.backgroundPower()) / float64(d.spec.BytesPerRank*int64(d.spec.Ranks))
}
