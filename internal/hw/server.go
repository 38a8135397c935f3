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

	Disk     DiskSpec // a rotating disk or a flash drive
	NumDisks int
}

// Server is a simulated machine: one engine-attached CPU complex, DRAM
// background power and an array of storage devices, all metered.
type Server struct {
	Spec  ServerSpec
	Eng   *sim.Engine
	Meter *energy.Meter
	CPU   *CPU
	Disks []*Disk
}

// NewServer builds a server with a fresh simulation engine and meter.
func NewServer(spec ServerSpec) *Server {
	eng := sim.NewEngine()
	meter := energy.NewMeter()
	return NewServerOn(eng, meter, spec)
}

// NewServerOn builds a server on an existing engine and meter.
func NewServerOn(eng *sim.Engine, meter *energy.Meter, spec ServerSpec) *Server {
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
		if spec.DRAM.BytesPerRank <= 0 {
			panic(fmt.Sprintf("hw: invalid DRAM spec %+v", spec.DRAM))
		}
		meter.Register(prefix+"dram", spec.DRAM.backgroundWatts())
	}
	for i := 0; i < spec.NumDisks; i++ {
		s.Disks = append(s.Disks, NewDisk(eng, meter, fmt.Sprintf("%sdisk%03d", prefix, i), spec.Disk))
	}
	return s
}

// IdlePower reports the modelled power draw with every component idle
// (disks spinning). Useful for dynamic-range and proportionality metrics.
func (s *Server) IdlePower() energy.Watts {
	w := s.Spec.BaseWatts + s.Spec.CPU.IdleWatts + s.Spec.DRAM.backgroundWatts()
	return w + energy.Watts(float64(s.Spec.Disk.IdleWatts)*float64(s.Spec.NumDisks))
}

// PeakPower reports the modelled power with every component fully active.
func (s *Server) PeakPower() energy.Watts {
	w := s.Spec.BaseWatts + s.Spec.CPU.IdleWatts +
		energy.Watts(float64(s.Spec.CPU.ActivePerCore)*float64(s.Spec.CPU.Cores)) +
		s.Spec.DRAM.backgroundWatts()
	return w + energy.Watts(float64(s.Spec.Disk.ActiveWatts)*float64(s.Spec.NumDisks))
}

// DynamicRange reports the Barroso–Hölzle dynamic power range of the server
// model: (peak-idle)/peak.
func (s *Server) DynamicRange() float64 {
	return energy.DynamicRange(s.IdlePower(), s.PeakPower())
}
