package storage

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"energydb/internal/energy"
	"energydb/internal/hw"
	"energydb/internal/sim"
)

const testPage = 256 << 10 // 256 KiB

func ssdArray(e *sim.Engine, m *energy.Meter, n int) []BlockDevice {
	devs := make([]BlockDevice, n)
	for i := range devs {
		devs[i] = hw.NewDisk(e, m, fmt.Sprintf("ssd%d", i), hw.FlashSSD2008())
	}
	return devs
}

func diskArray(e *sim.Engine, m *energy.Meter, n int) []BlockDevice {
	devs := make([]BlockDevice, n)
	for i := range devs {
		devs[i] = hw.NewDisk(e, m, fmt.Sprintf("disk%d", i), hw.Cheetah15K())
	}
	return devs
}

func TestStripedLocate(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	v := NewVolume("v", Striped, testPage, ssdArray(e, m, 3))
	wantDev := []int{0, 1, 2, 0, 1, 2}
	wantOff := []int64{0, 0, 0, testPage, testPage, testPage}
	for pg := range wantDev {
		d, off := v.locate(int64(pg))
		if d != wantDev[pg] || off != wantOff[pg] {
			t.Errorf("page %d -> (%d,%d), want (%d,%d)", pg, d, off, wantDev[pg], wantOff[pg])
		}
	}
}

func TestRAID5LocateAvoidsParity(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	v := NewVolume("v", RAID5, testPage, ssdArray(e, m, 4))
	// Row 0: parity on dev 0, data on 1,2,3. Row 1: parity on dev 1, etc.
	for pg := int64(0); pg < 100; pg++ {
		d, off := v.locate(pg)
		pd, poff := v.parityLoc(pg)
		if d == pd && off == poff {
			t.Fatalf("page %d mapped onto its own parity (%d,%d)", pg, d, off)
		}
	}
}

// Property: the page -> (device, offset) mapping is injective for both
// layouts, and never collides with the row's parity location under RAID5.
func TestLocateInjective(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	f := func(ndev uint8, layoutBit bool) bool {
		n := int(ndev%6) + 3
		layout := Striped
		if layoutBit {
			layout = RAID5
		}
		v := NewVolume("v", layout, testPage, ssdArray(e, m, n))
		seen := map[[2]int64]int64{}
		for pg := int64(0); pg < 500; pg++ {
			d, off := v.locate(pg)
			key := [2]int64{int64(d), off}
			if prev, dup := seen[key]; dup {
				t.Logf("pages %d and %d both at %v", prev, pg, key)
				return false
			}
			seen[key] = pg
			if layout == RAID5 {
				pd, poff := v.parityLoc(pg)
				if d == pd && off == poff {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReadPageTiming(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	v := NewVolume("v", Striped, testPage, ssdArray(e, m, 1))
	e.Go("io", func(p *sim.Proc) { v.ReadPage(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	spec := hw.FlashSSD2008()
	want := spec.Latency + float64(testPage)/spec.SeqReadBW
	if math.Abs(e.Now()-want) > 1e-9 {
		t.Fatalf("page read took %v, want %v", e.Now(), want)
	}
	if st := v.Stats(); st.PagesRead != 1 || st.BytesRead != testPage {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRAID5WritePenalty(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	v := NewVolume("v", RAID5, testPage, ssdArray(e, m, 3))
	e.Go("io", func(p *sim.Proc) { v.WritePage(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.PagesRead != 2 || st.PagesWritten != 2 {
		t.Fatalf("RAID5 write should be 2 reads + 2 writes, got %+v", st)
	}

	// RAID-0 write is a single I/O.
	e2, m2 := sim.NewEngine(), energy.NewMeter()
	v2 := NewVolume("v", Striped, testPage, ssdArray(e2, m2, 3))
	e2.Go("io", func(p *sim.Proc) { v2.WritePage(p, 0) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if st := v2.Stats(); st.PagesWritten != 1 || st.PagesRead != 0 {
		t.Fatalf("striped write stats = %+v", st)
	}
}

func TestScanReadsAllPagesOnce(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	v := NewVolume("v", Striped, testPage, ssdArray(e, m, 3))
	const n = 50
	seen := map[int64]int{}
	e.Go("scan", func(p *sim.Proc) {
		v.Scan(p, 0, n, 0, func(pg int64) { seen[pg]++ })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("saw %d distinct pages, want %d", len(seen), n)
	}
	for pg, c := range seen {
		if c != 1 {
			t.Fatalf("page %d consumed %d times", pg, c)
		}
	}
	if st := v.Stats(); st.PagesRead != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScanParallelismAcrossDevices(t *testing.T) {
	// Scanning N pages over k SSDs should take ~1/k the single-device time.
	timeFor := func(k int) float64 {
		e, m := sim.NewEngine(), energy.NewMeter()
		v := NewVolume("v", Striped, testPage, ssdArray(e, m, k))
		e.Go("scan", func(p *sim.Proc) {
			v.Scan(p, 0, 60, 0, func(int64) {})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	t1, t3 := timeFor(1), timeFor(3)
	if ratio := t1 / t3; ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("3-device speedup = %v, want ~3 (t1=%v t3=%v)", ratio, t1, t3)
	}
}

func TestScanOverlapsCPUWithIO(t *testing.T) {
	// With consume() charging CPU time, total elapsed should approach
	// max(IO, CPU), not IO + CPU — the Figure 2 overlap.
	e, m := sim.NewEngine(), energy.NewMeter()
	cpu := hw.NewCPU(e, m, "cpu", hw.ScanCPU2008())
	v := NewVolume("v", Striped, testPage, ssdArray(e, m, 3))
	const n = 60
	perPageIO := float64(testPage) / hw.FlashSSD2008().SeqReadBW // per device
	ioTime := float64(n) / 3 * perPageIO
	cpuPerPage := ioTime / n * 1.5 // CPU is the bottleneck at 1.5x IO rate
	e.Go("scan", func(p *sim.Proc) {
		v.Scan(p, 0, n, 0, func(int64) {
			cpu.Use(p, cpuPerPage*cpu.Spec().FreqHz)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	cpuTotal := cpuPerPage * n
	serial := ioTime + cpuTotal
	if e.Now() >= serial*0.85 {
		t.Fatalf("no overlap: elapsed %v vs serial %v (io=%v cpu=%v)", e.Now(), serial, ioTime, cpuTotal)
	}
	if e.Now() < cpuTotal-1e-9 {
		t.Fatalf("elapsed %v below CPU lower bound %v", e.Now(), cpuTotal)
	}
}

func TestScanEmptyRange(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	v := NewVolume("v", Striped, testPage, ssdArray(e, m, 2))
	called := false
	e.Go("scan", func(p *sim.Proc) {
		v.Scan(p, 5, 5, 4, func(int64) { called = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("consume called on empty range")
	}
}

func TestVolumeValidation(t *testing.T) {
	e, m := sim.NewEngine(), energy.NewMeter()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no devices", func() { NewVolume("v", Striped, testPage, nil) })
	mustPanic("raid5 too small", func() { NewVolume("v", RAID5, testPage, ssdArray(e, m, 2)) })
	mustPanic("bad page size", func() { NewVolume("v", Striped, 0, ssdArray(e, m, 1)) })
	if Striped.String() != "raid0" || RAID5.String() != "raid5" {
		t.Fatal("layout names")
	}
}
