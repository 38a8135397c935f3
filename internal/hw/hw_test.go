package hw

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"energydb/internal/energy"
	"energydb/internal/fault"
	"energydb/internal/sim"
)

func newRig(t *testing.T) (*sim.Engine, *energy.Meter) {
	t.Helper()
	return sim.NewEngine(), energy.NewMeter()
}

func TestCPUUseTimeAndEnergy(t *testing.T) {
	e, m := newRig(t)
	cpu := NewCPU(e, m, "cpu", ScanCPU2008()) // 2.4 GHz, 0 W idle, 90 W busy
	e.Go("q", func(p *sim.Proc) {
		cpu.Use(p, 2.4e9) // exactly one second of work
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1.0 {
		t.Fatalf("elapsed = %v, want 1.0", e.Now())
	}
	got := m.ComponentEnergy("cpu", energy.Seconds(e.Now()))
	if math.Abs(float64(got)-90) > 1e-9 {
		t.Fatalf("cpu energy = %v, want 90 J", got)
	}
	if cpu.TotalCycles() != 2.4e9 {
		t.Fatalf("TotalCycles = %v", cpu.TotalCycles())
	}
}

func TestCPUMulticoreOverlap(t *testing.T) {
	e, m := newRig(t)
	spec := OpteronComplex()
	cpu := NewCPU(e, m, "cpu", spec)
	for i := 0; i < spec.Cores; i++ {
		e.Go("q", func(p *sim.Proc) { cpu.Use(p, spec.FreqHz) }) // 1s each
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 1.0 {
		t.Fatalf("32 jobs on 32 cores took %v, want 1.0", e.Now())
	}
	// Energy: idle + all cores busy for 1s.
	want := float64(spec.IdleWatts) + float64(spec.ActivePerCore)*float64(spec.Cores)
	got := m.ComponentEnergy("cpu", energy.Seconds(1))
	if math.Abs(float64(got)-want) > 1e-6 {
		t.Fatalf("cpu energy = %v, want %v", got, want)
	}
	if u := cpu.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

func TestCPUQueueingBeyondCores(t *testing.T) {
	e, m := newRig(t)
	spec := ScanCPU2008() // 1 core
	cpu := NewCPU(e, m, "cpu", spec)
	for i := 0; i < 3; i++ {
		e.Go("q", func(p *sim.Proc) { cpu.Use(p, spec.FreqHz) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 3.0 {
		t.Fatalf("3 jobs on 1 core took %v, want 3.0", e.Now())
	}
}

func TestCPUDVFS(t *testing.T) {
	e, m := newRig(t)
	spec := ScanCPU2008()
	cpu := NewCPU(e, m, "cpu", spec)
	cpu.SetPState(2) // 0.6x freq, 0.3x power
	e.Go("q", func(p *sim.Proc) { cpu.Use(p, 2.4e9) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wantT := 1 / 0.6
	if math.Abs(e.Now()-wantT) > 1e-9 {
		t.Fatalf("slow P-state elapsed = %v, want %v", e.Now(), wantT)
	}
	// Energy at P2: 90*0.3 W for 1/0.6 s = 45 J — less than the 90 J at P0,
	// the race-to-idle-vs-DVFS tradeoff the paper alludes to.
	got := m.ComponentEnergy("cpu", energy.Seconds(e.Now()))
	if math.Abs(float64(got)-45) > 1e-6 {
		t.Fatalf("DVFS energy = %v, want 45", got)
	}
}

func TestCPUInvalidPState(t *testing.T) {
	e, m := newRig(t)
	spec := ScanCPU2008() // three P-states
	cpu := NewCPU(e, m, "cpu", spec)
	deepest := len(spec.PStates) - 1
	if got := cpu.SetPState(99); got != deepest || cpu.PState() != deepest {
		t.Fatalf("SetPState(99) = %d (pstate %d), want clamp to %d", got, cpu.PState(), deepest)
	}
	if got := cpu.SetPState(-5); got != 0 || cpu.PState() != 0 {
		t.Fatalf("SetPState(-5) = %d (pstate %d), want clamp to 0", got, cpu.PState())
	}
	if got := cpu.SetPState(1); got != 1 || cpu.PState() != 1 {
		t.Fatalf("SetPState(1) = %d (pstate %d), want 1 applied as-is", got, cpu.PState())
	}
}

// TestCPURejectsNonFinitePStates: FreqScale is documented "in (0, 1]", and
// a P-state that breaks it turns into time that is not a number the first
// time the governor lands on it — FreqScale 0 made Use sleep +Inf, the
// clock followed, and every meter integral after it read Inf or NaN. The
// spec is refused at construction instead.
func TestCPURejectsNonFinitePStates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []PState{
		{Name: "zero-freq", FreqScale: 0, PowerScale: 0.5},
		{Name: "neg-freq", FreqScale: -0.5, PowerScale: 0.5},
		{Name: "nan-freq", FreqScale: nan, PowerScale: 0.5},
		{Name: "inf-freq", FreqScale: inf, PowerScale: 0.5},
		{Name: "neg-power", FreqScale: 0.5, PowerScale: -1},
		{Name: "nan-power", FreqScale: 0.5, PowerScale: nan},
		{Name: "inf-power", FreqScale: 0.5, PowerScale: inf},
	} {
		func() {
			e, m := newRig(t)
			spec := ScanCPU2008()
			spec.PStates = append(spec.PStates[:1:1], bad)
			defer func() {
				if recover() == nil {
					t.Errorf("NewCPU accepted P-state %+v", bad)
				}
			}()
			NewCPU(e, m, "cpu", spec)
		}()
	}
	// The base frequency is held to the same rule.
	for _, hz := range []float64{nan, inf} {
		func() {
			e, m := newRig(t)
			spec := ScanCPU2008()
			spec.FreqHz = hz
			defer func() {
				if recover() == nil {
					t.Errorf("NewCPU accepted FreqHz %v", hz)
				}
			}()
			NewCPU(e, m, "cpu", spec)
		}()
	}
	// A zero PowerScale is a legal (if optimistic) operating point.
	e, m := newRig(t)
	spec := ScanCPU2008()
	spec.PStates = append(spec.PStates[:1:1], PState{Name: "free", FreqScale: 0.5, PowerScale: 0})
	cpu := NewCPU(e, m, "cpu", spec)

	// Cycles that are not a number never reach the clock either.
	e.Go("q", func(p *sim.Proc) { cpu.Use(p, nan) })
	defer func() {
		if recover() == nil || e.Now() != 0 {
			t.Errorf("Use(NaN) did not panic (now = %v)", e.Now())
		}
	}()
	_ = e.Run()
}

func TestDiskSequentialVsRandom(t *testing.T) {
	e, m := newRig(t)
	spec := Cheetah15K()
	d := NewDisk(e, m, "d0", spec)
	var seqT, randT float64
	e.Go("io", func(p *sim.Proc) {
		start := p.Now()
		d.Read(p, 0, 1*MB)
		d.Read(p, 1*MB, 1*MB) // sequential: no seek
		seqT = p.Now() - start

		start = p.Now()
		d.Read(p, 500*MB, 1*MB) // random: seek + rotate
		randT = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	perMB := 1 * MB / spec.SeqReadBW
	wantSeq := (spec.AvgSeek + spec.RotLatency) + 2*perMB // first read seeks
	if math.Abs(seqT-wantSeq) > 1e-9 {
		t.Fatalf("sequential pair took %v, want %v", seqT, wantSeq)
	}
	wantRand := spec.AvgSeek + spec.RotLatency + perMB
	if math.Abs(randT-wantRand) > 1e-9 {
		t.Fatalf("random read took %v, want %v", randT, wantRand)
	}
	st := d.Stats()
	if st.Reads != 3 || st.Seeks != 2 || st.BytesRead != 3*MB {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskSpinDownAndUp(t *testing.T) {
	e, m := newRig(t)
	spec := Cheetah15K()
	d := NewDisk(e, m, "d0", spec)
	d.SpinDownAfter = 10

	e.Go("io", func(p *sim.Proc) {
		d.Read(p, 0, 1*MB)
		p.Sleep(100) // long idle: disk should spin down after 10s
		if d.State() != SpinStandby {
			t.Errorf("disk not in standby after idle: %v", d.State())
		}
		start := p.Now()
		d.Read(p, 0, 1*MB) // must pay spin-up
		if got := p.Now() - start; got < spec.SpinUpTime {
			t.Errorf("post-standby read took %v, want >= spin-up %v", got, spec.SpinUpTime)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two spin-downs: the one mid-idle, plus the trailing timer after the
	// last read fires once the workload ends.
	st := d.Stats()
	if st.SpinDowns != 2 || st.SpinUps != 1 {
		t.Fatalf("spin transitions = %+v", st)
	}
}

func TestDiskSpinDownSavesEnergyOnLongIdle(t *testing.T) {
	// The §4.2 tradeoff: spin-down wins only if the idle period is long
	// enough to amortise the spin-up cost.
	run := func(spinDown float64, idle float64) energy.Joules {
		e, m := newRig(t)
		d := NewDisk(e, m, "d0", Cheetah15K())
		d.SpinDownAfter = spinDown
		e.Go("io", func(p *sim.Proc) {
			d.Read(p, 0, 1*MB)
			p.Sleep(idle)
			d.Read(p, 0, 1*MB)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return m.ComponentEnergy("d0", energy.Seconds(e.Now()))
	}
	const longIdle = 600
	if on, off := run(10, longIdle), run(0, longIdle); on >= off {
		t.Fatalf("spin-down should save energy over %vs idle: on=%v off=%v", longIdle, on, off)
	}
	const shortIdle = 12 // just past the threshold: pays spin-up for nothing
	if on, off := run(10, shortIdle), run(0, shortIdle); on <= off {
		t.Fatalf("spin-down should cost energy over %vs idle: on=%v off=%v", shortIdle, on, off)
	}
}

func TestDiskIdleTimerCancelledByIO(t *testing.T) {
	e, m := newRig(t)
	d := NewDisk(e, m, "d0", Cheetah15K())
	d.SpinDownAfter = 10
	e.Go("io", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			d.Read(p, 0, 1*MB)
			p.Sleep(5) // always under the threshold
		}
		if n := d.Stats().SpinDowns; n != 0 {
			t.Errorf("disk spun down %d time(s) despite steady I/O", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSSDReadWrite(t *testing.T) {
	e, m := newRig(t)
	spec := FlashSSD2008()
	s := NewDisk(e, m, "ssd", spec)
	e.Go("io", func(p *sim.Proc) {
		s.Read(p, 0, 80*MB) // exactly 1s + latency
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1 + spec.Latency
	if math.Abs(e.Now()-want) > 1e-9 {
		t.Fatalf("ssd read took %v, want %v", e.Now(), want)
	}
	if s.Stats().BytesRead != 80*MB {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestDRAMBackgroundPower(t *testing.T) {
	spec := DDR2x64GiB()
	srv := NewServer(ServerSpec{Name: "mem", CPU: ScanCPU2008(), DRAM: spec})
	srv.Eng.Go("idle", func(p *sim.Proc) { p.Sleep(20) })
	if err := srv.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 20 s at 8 ranks × 8 W, whatever the workload.
	if got := srv.Meter.ComponentEnergy("mem/dram", energy.Seconds(20)); math.Abs(float64(got)-1280) > 1e-6 {
		t.Fatalf("dram energy = %v, want 1280", got)
	}
	if got, want := spec.HoldingPower(), 64.0/float64(64*GiB); got != want {
		t.Fatalf("holding power = %v W/byte, want %v", got, want)
	}
}

func TestServerComposition(t *testing.T) {
	srv := NewServer(DL785(36))
	if len(srv.Disks) != 36 || srv.CPU == nil || srv.Meter.Trace("dl785/dram") == nil {
		t.Fatalf("bad composition: %d disks", len(srv.Disks))
	}
	idle := srv.IdlePower()
	peak := srv.PeakPower()
	if idle <= 0 || peak <= idle {
		t.Fatalf("idle=%v peak=%v", idle, peak)
	}
	// 2008-era servers have a small dynamic range (the paper's complaint).
	if dr := srv.DynamicRange(); dr < 0.05 || dr > 0.6 {
		t.Fatalf("dynamic range = %v, not server-like", dr)
	}
}

func TestServerDiskPowerDominates(t *testing.T) {
	// §5.1: "more than half the power use is concentrated in the disk
	// subsystem" — verify our DL785 model reproduces this for the paper's
	// larger configurations.
	srv := NewServer(DL785(204))
	diskIdle := float64(srv.Spec.Disk.IdleWatts) * 204
	if frac := diskIdle / float64(srv.IdlePower()); frac < 0.5 {
		t.Fatalf("disk power fraction = %v, want > 0.5", frac)
	}
}

func TestFig2RigMatchesPaperPower(t *testing.T) {
	srv := NewServer(ScanRig())
	// Idle: CPU 0 W + 3 SSDs at 5 W total.
	if got := float64(srv.IdlePower()); math.Abs(got-5) > 1e-9 {
		t.Fatalf("scan rig idle = %v, want 5", got)
	}
	if got := float64(srv.PeakPower()); math.Abs(got-95) > 1e-9 {
		t.Fatalf("scan rig peak = %v, want 95", got)
	}
}

// Property: for any split of a byte budget across sequential reads, total
// transfer time on an SSD is invariant (no positional costs beyond the
// fixed per-request latency, which we subtract).
func TestSSDTransferTimeLinearity(t *testing.T) {
	f := func(parts uint8) bool {
		n := int(parts%7) + 1
		total := int64(70 * MB)
		e := sim.NewEngine()
		m := energy.NewMeter()
		s := NewDisk(e, m, "ssd", FlashSSD2008())
		e.Go("io", func(p *sim.Proc) {
			chunk := total / int64(n)
			rem := total
			for i := 0; i < n; i++ {
				sz := chunk
				if i == n-1 {
					sz = rem
				}
				s.Read(p, 0, sz)
				rem -= sz
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		pure := e.Now() - float64(n)*s.Spec().Latency
		want := float64(total) / s.Spec().SeqReadBW
		return math.Abs(pure-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: disk energy over any workload is bounded by time x active
// power and at least time x standby power.
func TestDiskEnergyBounds(t *testing.T) {
	f := func(nReads uint8, gap uint8) bool {
		e := sim.NewEngine()
		m := energy.NewMeter()
		spec := Cheetah15K()
		d := NewDisk(e, m, "d", spec)
		d.SpinDownAfter = 5
		n := int(nReads%10) + 1
		g := float64(gap % 30)
		e.Go("io", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				d.Read(p, int64(i)*10*MB, 1*MB)
				p.Sleep(g)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		elapsed := e.Now()
		got := float64(m.ComponentEnergy("d", energy.Seconds(elapsed)))
		hi := elapsed * float64(spec.SpinUpWatts)
		lo := elapsed * float64(spec.StandbyWatts)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFlashRequestsPinned drives one flash device through every path a
// request can take — a first, a sequential and a far read, a write, a
// sync, a read a transient fault refuses, a read limp mode stretches, two
// processes contending, and a crash with one request queued — and pins
// the clock, the device's metered joules and the joules charged to the
// owning account after each step, bit for bit. It runs the catalog drive
// (active and idle watts equal, so nothing is charged to the owner) and
// one drawing more when busy, so the marginal charge is pinned as well.
func TestFlashRequestsPinned(t *testing.T) {
	for _, tc := range []struct {
		active energy.Watts
		want   [][3]uint64
	}{
		{active: 5.0 / 3, want: [][3]uint64{
			{0x3f700d943d394673, 0x3f7ac14c660a2015, 0x0},
			{0x3f800d943d394673, 0x3f8ac14c660a2015, 0x0},
			{0x3f8d1cdbd8d94a8a, 0x3f9842b734b51374, 0x0},
			{0x3f951611ba3ca750, 0x3fa192641b328b6e, 0x0},
			{0x3f9842b734b51372, 0x3fa43798abec3ae0, 0x0},
			{0x3f9b5525cc426351, 0x3fa6c6f4d4e1fd6f, 0x0},
			{0x3fa060fe47991bc5, 0x3fab4c527754839e, 0x0},
			{0x3fade72e77e28fac, 0x3fb8eb5163e777ba, 0x0},
			{0x3fbbc06408be14a3, 0x3fc720535c9e6688, 0x0},
			{0x3fbcc13d4c91a90a, 0x3fc7f65dbfceb788, 0x0},
		}},
		{active: 4, want: [][3]uint64{
			{0x3f700d943d394673, 0x3f81c52461df182a, 0x3f6191f8bb68207a},
			{0x3f800d943d394673, 0x3f91c52461df182a, 0x3f7191f8bb68207a},
			{0x3f8d1cdbd8d94a8a, 0x3fa25c58c66ab2fc, 0x3f88ebf4b040a50a},
			{0x3f951611ba3ca750, 0x3fabd61f5be5d9e3, 0x3f94877681669cec},
			{0x3f9842b734b51372, 0x3fae99e94ab1d4f8, 0x3f94c4a13d8b3433},
			{0x3f9b5525cc426351, 0x3fb094a2b9d3cbc4, 0x3f94c4a13d8b3433},
			// A refused request leaves the meter alone, so the idle
			// stretch around it is integrated as one term.
			{0x3fa060fe47991bc5, 0x3fb436b8f9b13165, 0x3f9a423ef81bbe59},
			{0x3fade72e77e28fac, 0x3fc7a18cad220c9a, 0x3fb657c7f65ca179},
			{0x3fbbc06408be14a3, 0x3fd89d93235dd31a, 0x3fb657c7f65ca179},
			{0x3fbcc13d4c91a90a, 0x3fd92bbc466ccbdb, 0x3fb6e457bc37e27d},
		}},
	} {
		e, m := newRig(t)
		spec := FlashSSD2008()
		spec.ActiveWatts = tc.active
		d := NewDisk(e, m, "flash", spec)
		acct := energy.NewAttributor(m).Begin(0)

		var got [][3]uint64
		rec := func() {
			now := e.Now()
			got = append(got, [3]uint64{
				math.Float64bits(now),
				math.Float64bits(float64(m.ComponentEnergy("flash", energy.Seconds(now)))),
				math.Float64bits(float64(acct.Direct())),
			})
		}
		run := func(name string, fn func(p *sim.Proc)) {
			e.Go(name, func(p *sim.Proc) {
				p.SetOwner(acct)
				fn(p)
			})
		}
		must := func(err error) {
			if err != nil {
				t.Errorf("request failed: %v", err)
			}
		}
		step := func(fn func(p *sim.Proc)) {
			run("io", func(p *sim.Proc) {
				p.Sleep(0.003) // an idle gap before every step
				fn(p)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			rec()
		}

		step(func(p *sim.Proc) { must(d.Read(p, 0, 64<<10)) })
		step(func(p *sim.Proc) { must(d.Read(p, 64<<10, 64<<10)) })
		step(func(p *sim.Proc) { must(d.Read(p, 20*GiB, 256<<10)) })
		step(func(p *sim.Proc) { must(d.Write(p, 3*GiB, 128<<10)) })
		step(func(p *sim.Proc) { must(d.Sync(p)) })
		f := fault.NewDeviceFault("flash")
		d.SetFault(f)
		step(func(p *sim.Proc) {
			f.TransientAt(p.Now(), 1)
			if err := d.Read(p, 0, 64<<10); !fault.IsTransient(err) {
				t.Errorf("read under a transient fault: %v", err)
			}
		})
		step(func(p *sim.Proc) {
			f.LimpAt(p.Now(), 2.5)
			must(d.Read(p, 64<<10, 64<<10))
		})
		d.SetFault(nil)

		// Two processes contend: the second queues behind the first.
		for _, off := range []int64{0, 8 * GiB} {
			run("contend", func(p *sim.Proc) { must(d.Read(p, off, 1<<20)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		rec()

		// A crash mid-request, with a second request queued behind it.
		start := e.Now()
		for _, off := range []int64{0, 4 * GiB} {
			run("victim", func(p *sim.Proc) { _ = d.Read(p, off, 8<<20) })
		}
		if err := e.RunUntil(start + 0.05); err != nil {
			t.Fatal(err)
		}
		e.Crash()
		d.Reset()
		rec()
		step(func(p *sim.Proc) { must(d.Read(p, 0, 64<<10)) })

		if !reflect.DeepEqual(got, tc.want) {
			var b strings.Builder
			for _, g := range got {
				fmt.Fprintf(&b, "\t{%#x, %#x, %#x},\n", g[0], g[1], g[2])
			}
			t.Errorf("active %v: (now, device joules, owner joules) bits moved; got\n%s", tc.active, b.String())
		}
	}
}
