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

// DiskSpec describes a storage device: a rotating disk, or a flash drive,
// which is a DiskSpec with no seek, no rotation and a fixed per-request
// Latency (and whose spin states no caller ever uses).
type DiskSpec struct {
	Name          string
	CapacityBytes int64
	SeqReadBW     float64 // bytes/s sustained sequential read
	SeqWriteBW    float64 // bytes/s sustained sequential write
	Latency       float64 // s, fixed overhead of every request (0 for a disk)
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
	Seeks      int64 // non-sequential requests (free on flash)
	SpinUps    int64
	SpinDowns  int64
}

// Disk is a simulated storage device: one actuator (sim.Resource of
// capacity 1), a latency/seek/rotate/transfer service-time model, spin
// states with an optional idle spin-down policy, and power accounting.
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
// process for the modelled service time: the fixed Latency, the seek and
// rotational delay unless the read is sequential (offset equal to the end
// of the previous access), and the transfer.
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

	service := d.spec.Latency
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

// Sync charges the cost of a synchronous barrier after a write: one
// request Latency, plus, on a disk, half a rotation on average for the
// commit sector to come around — even after a sequential append. Group
// commit exists to amortise exactly this cost.
func (d *Disk) Sync(p *sim.Proc) error {
	d.res.Acquire(p, 1)
	d.idleGen++
	if err := d.fault.Check(p.Now()); err != nil {
		d.armSpinDown()
		d.res.Release(1)
		return err
	}
	d.setState(SpinActive, d.spec.ActiveWatts)
	service := d.fault.Stretch(p.Now(), d.spec.Latency+d.spec.RotLatency)
	p.Sleep(service)
	chargeOwner(p, float64(d.spec.ActiveWatts-d.spec.IdleWatts)*service)
	d.setState(SpinIdle, d.spec.IdleWatts)
	d.armSpinDown()
	d.res.Release(1)
	return nil
}
