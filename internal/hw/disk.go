package hw

import (
	"fmt"

	"energydb/internal/energy"
	"energydb/internal/fault"
	"energydb/internal/sim"
)

// SpinState is the power state of a rotating disk. The paper's complaint
// (§2.4) is that disks "are either on (and at full performance and power)
// or off, and the transitions can be expensive" — the model captures
// exactly that: a spun-down disk draws little power but the next request
// pays a multi-second, high-power spin-up.
type SpinState int

const (
	// SpinActive: platters spinning, head serving a request.
	SpinActive SpinState = iota
	// SpinIdle: platters spinning, no request in flight.
	SpinIdle
	// SpinStandby: platters stopped; next access must spin up.
	SpinStandby
)

func (s SpinState) String() string {
	switch s {
	case SpinActive:
		return "active"
	case SpinIdle:
		return "idle"
	case SpinStandby:
		return "standby"
	default:
		return fmt.Sprintf("SpinState(%d)", int(s))
	}
}

// DiskSpec describes a rotating disk model.
type DiskSpec struct {
	Name          string
	CapacityBytes int64
	SeqReadBW     float64 // bytes/s sustained sequential read
	SeqWriteBW    float64 // bytes/s sustained sequential write
	AvgSeek       float64 // s, average seek
	RotLatency    float64 // s, average rotational latency (half a revolution)

	ActiveWatts  energy.Watts // seeking/transferring
	IdleWatts    energy.Watts // spinning, no I/O
	StandbyWatts energy.Watts // spun down
	SpinUpWatts  energy.Watts // during spin-up
	SpinUpTime   float64      // s to go standby -> spinning
}

// DiskStats counts the work a disk has done.
type DiskStats struct {
	Reads      int64
	Writes     int64
	BytesRead  int64
	BytesWrite int64
	Seeks      int64
	SpinUps    int64
	SpinDowns  int64
}

// Disk is a simulated rotating disk: one actuator (sim.Resource of
// capacity 1), a seek/rotate/transfer service-time model, spin states with
// an optional idle spin-down policy, and power accounting.
type Disk struct {
	eng   *sim.Engine
	spec  DiskSpec
	res   *sim.Resource
	trace *energy.Trace
	state SpinState

	// SpinDownAfter, if > 0, spins the disk down after that many seconds
	// without I/O. Zero (default) disables the policy, matching default
	// server firmware.
	SpinDownAfter float64

	nextOffset int64 // for sequential-access detection
	idleGen    int64
	stats      DiskStats
	fault      *fault.DeviceFault
}

// NewDisk registers a disk on the meter, initially spinning and idle.
func NewDisk(e *sim.Engine, m *energy.Meter, name string, spec DiskSpec) *Disk {
	if spec.SeqReadBW <= 0 || spec.SeqWriteBW <= 0 {
		panic(fmt.Sprintf("hw: invalid disk spec %+v", spec))
	}
	d := &Disk{
		eng:        e,
		spec:       spec,
		res:        sim.NewResource(e, name, 1),
		trace:      m.Register(name, spec.IdleWatts),
		state:      SpinIdle,
		nextOffset: -1, // head position unknown: first access seeks
	}
	return d
}

// Spec returns the disk specification.
func (d *Disk) Spec() DiskSpec { return d.spec }

// State reports the current spin state.
func (d *Disk) State() SpinState { return d.state }

// Stats returns a copy of the disk's counters.
func (d *Disk) Stats() DiskStats { return d.stats }

func (d *Disk) setState(s SpinState, w energy.Watts) {
	d.state = s
	d.trace.Set(energy.Seconds(d.eng.Now()), w)
}

// SetFault attaches a scripted fault schedule. Every subsequent request
// consults it: a dead device fails instantly, an armed transient window
// fails the request, and limp mode stretches service time. nil clears.
func (d *Disk) SetFault(f *fault.DeviceFault) { d.fault = f }

// Reset returns the disk to a quiescent idle state after Engine.Crash
// has unwound every process that could be mid-request.
func (d *Disk) Reset() {
	d.res.Reset()
	d.idleGen++
	d.nextOffset = -1
	if d.state != SpinStandby {
		d.setState(SpinIdle, d.spec.IdleWatts)
	}
}

// Read performs a read of size bytes at offset, blocking the calling
// process for the modelled service time. Sequential reads (offset equal to
// the end of the previous access) skip the seek and rotational delay.
// It fails with a typed fault error if a fault script says so.
func (d *Disk) Read(p *sim.Proc, offset, size int64) error {
	return d.access(p, offset, size, false)
}

// Write performs a write of size bytes at offset.
func (d *Disk) Write(p *sim.Proc, offset, size int64) error {
	return d.access(p, offset, size, true)
}

func (d *Disk) access(p *sim.Proc, offset, size int64, write bool) error {
	if size <= 0 {
		panic(fmt.Sprintf("hw: disk %s access of %d bytes", d.spec.Name, size))
	}
	d.res.Acquire(p, 1)
	d.idleGen++ // cancel any pending spin-down decision
	if err := d.fault.Check(p.Now()); err != nil {
		// The request dies before the actuator moves: no service time,
		// no energy beyond the idle floor the meter already charges.
		d.armSpinDown()
		d.res.Release(1)
		return err
	}

	if d.state == SpinStandby {
		d.setState(SpinActive, d.spec.SpinUpWatts)
		p.Sleep(d.spec.SpinUpTime)
		d.stats.SpinUps++
		d.nextOffset = -1 // position unknown after spin-up
		chargeOwner(p, float64(d.spec.SpinUpWatts-d.spec.IdleWatts)*d.spec.SpinUpTime)
	}
	d.setState(SpinActive, d.spec.ActiveWatts)

	service := 0.0
	if offset != d.nextOffset {
		service += d.spec.AvgSeek + d.spec.RotLatency
		d.stats.Seeks++
	}
	bw := d.spec.SeqReadBW
	if write {
		bw = d.spec.SeqWriteBW
	}
	service += float64(size) / bw
	service = d.fault.Stretch(p.Now(), service)
	p.Sleep(service)
	chargeOwner(p, float64(d.spec.ActiveWatts-d.spec.IdleWatts)*service)

	d.nextOffset = offset + size
	if write {
		d.stats.Writes++
		d.stats.BytesWrite += size
	} else {
		d.stats.Reads++
		d.stats.BytesRead += size
	}

	d.setState(SpinIdle, d.spec.IdleWatts)
	d.armSpinDown()
	d.res.Release(1)
	return nil
}

// armSpinDown schedules the idle spin-down check. A generation counter
// invalidates the timer if any I/O arrives in the meantime.
func (d *Disk) armSpinDown() {
	if d.SpinDownAfter <= 0 {
		return
	}
	gen := d.idleGen
	d.eng.After(d.SpinDownAfter, "spindown:"+d.spec.Name, func() {
		if d.idleGen == gen && d.state == SpinIdle && d.res.InUse() == 0 {
			d.stats.SpinDowns++
			d.setState(SpinStandby, d.spec.StandbyWatts)
		}
	})
}

// Sync charges the cost of a synchronous barrier after a write: even a
// sequential append must wait on average half a rotation for the commit
// sector to come around (plus cache flush). Group commit exists to
// amortise exactly this cost.
func (d *Disk) Sync(p *sim.Proc) error {
	d.res.Acquire(p, 1)
	d.idleGen++
	if err := d.fault.Check(p.Now()); err != nil {
		d.armSpinDown()
		d.res.Release(1)
		return err
	}
	d.setState(SpinActive, d.spec.ActiveWatts)
	service := d.fault.Stretch(p.Now(), d.spec.RotLatency)
	p.Sleep(service)
	chargeOwner(p, float64(d.spec.ActiveWatts-d.spec.IdleWatts)*service)
	d.setState(SpinIdle, d.spec.IdleWatts)
	d.armSpinDown()
	d.res.Release(1)
	return nil
}

// SpinDown forces the disk to standby immediately if it is idle.
// It reports whether the transition happened.
func (d *Disk) SpinDown() bool {
	if d.state != SpinIdle || d.res.InUse() != 0 {
		return false
	}
	d.idleGen++
	d.stats.SpinDowns++
	d.setState(SpinStandby, d.spec.StandbyWatts)
	return true
}

// SSDSpec describes a flash solid-state drive. The paper's Figure 2 uses
// three SSDs totalling 5 W — "an order of magnitude more energy efficient
// than regular hard drives".
type SSDSpec struct {
	Name          string
	CapacityBytes int64
	ReadBW        float64 // bytes/s
	WriteBW       float64 // bytes/s
	ReadLatency   float64 // s, per-request fixed overhead
	ActiveWatts   energy.Watts
	IdleWatts     energy.Watts
}

// SSD is a simulated flash drive: no seeks, no spin states.
type SSD struct {
	eng   *sim.Engine
	spec  SSDSpec
	res   *sim.Resource
	trace *energy.Trace
	stats DiskStats
	fault *fault.DeviceFault
}

// NewSSD registers an SSD on the meter.
func NewSSD(e *sim.Engine, m *energy.Meter, name string, spec SSDSpec) *SSD {
	if spec.ReadBW <= 0 || spec.WriteBW <= 0 {
		panic(fmt.Sprintf("hw: invalid SSD spec %+v", spec))
	}
	s := &SSD{
		eng:   e,
		spec:  spec,
		res:   sim.NewResource(e, name, 1),
		trace: m.Register(name, spec.IdleWatts),
	}
	s.res.OnBusyChange(func(n int) {
		w := spec.IdleWatts
		if n > 0 {
			w = spec.ActiveWatts
		}
		s.trace.Set(energy.Seconds(e.Now()), w)
	})
	return s
}

// Spec returns the SSD specification.
func (s *SSD) Spec() SSDSpec { return s.spec }

// Stats returns a copy of the SSD's counters.
func (s *SSD) Stats() DiskStats { return s.stats }

// SetFault attaches a scripted fault schedule; nil clears it.
func (s *SSD) SetFault(f *fault.DeviceFault) { s.fault = f }

// Reset returns the SSD to a quiescent state after Engine.Crash.
func (s *SSD) Reset() { s.res.Reset() }

// Read performs a read of size bytes (offset is irrelevant to timing on
// flash but kept for interface symmetry).
func (s *SSD) Read(p *sim.Proc, offset, size int64) error {
	if size <= 0 {
		panic(fmt.Sprintf("hw: ssd %s read of %d bytes", s.spec.Name, size))
	}
	s.res.Acquire(p, 1)
	if err := s.fault.Check(p.Now()); err != nil {
		s.res.Release(1)
		return err
	}
	service := s.fault.Stretch(p.Now(), s.spec.ReadLatency+float64(size)/s.spec.ReadBW)
	p.Sleep(service)
	chargeOwner(p, float64(s.spec.ActiveWatts-s.spec.IdleWatts)*service)
	s.stats.Reads++
	s.stats.BytesRead += size
	s.res.Release(1)
	return nil
}

// Write performs a write of size bytes.
func (s *SSD) Write(p *sim.Proc, offset, size int64) error {
	if size <= 0 {
		panic(fmt.Sprintf("hw: ssd %s write of %d bytes", s.spec.Name, size))
	}
	s.res.Acquire(p, 1)
	if err := s.fault.Check(p.Now()); err != nil {
		s.res.Release(1)
		return err
	}
	service := s.fault.Stretch(p.Now(), s.spec.ReadLatency+float64(size)/s.spec.WriteBW)
	p.Sleep(service)
	chargeOwner(p, float64(s.spec.ActiveWatts-s.spec.IdleWatts)*service)
	s.stats.Writes++
	s.stats.BytesWrite += size
	s.res.Release(1)
	return nil
}

// Sync charges a flash write barrier (one request latency).
func (s *SSD) Sync(p *sim.Proc) error {
	s.res.Acquire(p, 1)
	if err := s.fault.Check(p.Now()); err != nil {
		s.res.Release(1)
		return err
	}
	service := s.fault.Stretch(p.Now(), s.spec.ReadLatency)
	p.Sleep(service)
	chargeOwner(p, float64(s.spec.ActiveWatts-s.spec.IdleWatts)*service)
	s.res.Release(1)
	return nil
}
