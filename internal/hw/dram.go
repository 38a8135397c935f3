package hw

import "energydb/internal/energy"

// DRAMSpec describes main memory. Background (refresh + standby) power is
// proportional to the number of ranks; the paper (§4.3) observes that
// "keeping a page in RAM will require energy, proportional to the time the
// page is cached", which is exactly this term. A server models memory as
// that constant background power on its meter; a spec with no ranks means
// no memory is modelled.
type DRAMSpec struct {
	Name         string
	Ranks        int // independently power-managed units
	BytesPerRank int64
	WattsPerRank energy.Watts // background power of a powered rank
}

// backgroundWatts reports the power of every rank powered, 0 when no
// memory is modelled.
func (s DRAMSpec) backgroundWatts() energy.Watts {
	if s.Ranks <= 0 {
		return 0
	}
	return energy.Watts(float64(s.WattsPerRank) * float64(s.Ranks))
}

// HoldingPower reports the background watts attributable to caching one
// byte for one second: W/byte. The optimizer prices operator working
// memory at this rate.
func (s DRAMSpec) HoldingPower() float64 {
	return float64(s.backgroundWatts()) / float64(s.BytesPerRank*int64(s.Ranks))
}
