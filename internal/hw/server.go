package hw

import (
	"fmt"

	"energydb/internal/energy"
	"energydb/internal/sim"
)

// ServerSpec composes a whole machine out of device specs.
type ServerSpec struct {
	Name      string
	CPU       CPUSpec
	DRAM      DRAMSpec
	BaseWatts energy.Watts // chassis, fans, PSU fixed losses (always drawn)

	Disk     DiskSpec
	NumDisks int
	SSD      SSDSpec
	NumSSDs  int

	// CoolingOverhead multiplies total energy to account for cooling: the
	// paper cites 0.5–1 W of cooling per server watt [PBS+03]. 1.0 = none.
	CoolingOverhead float64
}

// Server is a simulated machine: one engine-attached CPU complex, DRAM,
// and arrays of disks and SSDs, all metered.
type Server struct {
	Spec  ServerSpec
	Eng   *sim.Engine
	Meter *energy.Meter
	CPU   *CPU
	DRAM  *DRAM
	Disks []*Disk
	SSDs  []*SSD
}

// NewServer builds a server with a fresh simulation engine and meter.
func NewServer(spec ServerSpec) *Server {
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	return NewServerOn(eng, meter, spec)
}

// NewServerOn builds a server on an existing engine and meter.
func NewServerOn(eng *sim.Engine, meter *energy.Meter, spec ServerSpec) *Server {
	if spec.CoolingOverhead == 0 {
		spec.CoolingOverhead = 1.0
	}
	meter.Overhead = spec.CoolingOverhead
	s := &Server{Spec: spec, Eng: eng, Meter: meter}
	prefix := spec.Name
	if prefix != "" {
		prefix += "/"
	}
	if spec.BaseWatts > 0 {
		meter.Register(prefix+"base", spec.BaseWatts)
	}
	s.CPU = NewCPU(eng, meter, prefix+"cpu", spec.CPU)
	if spec.DRAM.Ranks > 0 {
		s.DRAM = NewDRAM(meter, prefix+"dram", spec.DRAM)
	}
	for i := 0; i < spec.NumDisks; i++ {
		s.Disks = append(s.Disks, NewDisk(eng, meter, fmt.Sprintf("%sdisk%03d", prefix, i), spec.Disk))
	}
	for i := 0; i < spec.NumSSDs; i++ {
		s.SSDs = append(s.SSDs, NewSSD(eng, meter, fmt.Sprintf("%sssd%d", prefix, i), spec.SSD))
	}
	return s
}

// Energy reports whole-server energy (including cooling overhead) through
// the current simulated time.
func (s *Server) Energy() energy.Joules {
	return s.Meter.TotalEnergy(energy.Seconds(s.Eng.Now()))
}

// Power reports instantaneous whole-server power (including overhead).
func (s *Server) Power() energy.Watts { return s.Meter.TotalPower() }

// IdlePower reports the modelled power draw with every component idle
// (disks spinning). Useful for dynamic-range and proportionality metrics.
func (s *Server) IdlePower() energy.Watts {
	w := s.Spec.BaseWatts + s.Spec.CPU.IdleWatts
	if s.DRAM != nil {
		w += energy.Watts(float64(s.Spec.DRAM.WattsPerRank) * float64(s.Spec.DRAM.Ranks))
	}
	w += energy.Watts(float64(s.Spec.Disk.IdleWatts) * float64(s.Spec.NumDisks))
	w += energy.Watts(float64(s.Spec.SSD.IdleWatts) * float64(s.Spec.NumSSDs))
	return energy.Watts(float64(w) * s.Spec.CoolingOverhead)
}

// PeakPower reports the modelled power with every component fully active.
func (s *Server) PeakPower() energy.Watts {
	w := s.Spec.BaseWatts + s.Spec.CPU.IdleWatts +
		energy.Watts(float64(s.Spec.CPU.ActivePerCore)*float64(s.Spec.CPU.Cores))
	if s.DRAM != nil {
		w += energy.Watts(float64(s.Spec.DRAM.WattsPerRank) * float64(s.Spec.DRAM.Ranks))
	}
	w += energy.Watts(float64(s.Spec.Disk.ActiveWatts) * float64(s.Spec.NumDisks))
	w += energy.Watts(float64(s.Spec.SSD.ActiveWatts) * float64(s.Spec.NumSSDs))
	return energy.Watts(float64(w) * s.Spec.CoolingOverhead)
}

// DynamicRange reports the Barroso–Hölzle dynamic power range of the server
// model: (peak-idle)/peak.
func (s *Server) DynamicRange() float64 {
	return energy.DynamicRange(s.IdlePower(), s.PeakPower())
}
