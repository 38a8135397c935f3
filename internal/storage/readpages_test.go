package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"energydb/internal/energy"
	"energydb/internal/hw"
	"energydb/internal/sim"
)

// recDev is a BlockDevice that records the requests it served. Each takes
// `took` seconds; with fail set, every request fails after that time.
type recDev struct {
	reqs []devRun
	took float64
	fail error
}

func (d *recDev) Read(p *sim.Proc, off, size int64) error {
	p.Sleep(d.took)
	if d.fail != nil {
		return d.fail
	}
	d.reqs = append(d.reqs, devRun{off: off, bytes: size})
	return nil
}

func (d *recDev) Write(p *sim.Proc, off, size int64) error { return d.Read(p, off, size) }

func recArray(n int, took float64) ([]*recDev, []BlockDevice) {
	recs := make([]*recDev, n)
	devs := make([]BlockDevice, n)
	for i := range recs {
		recs[i] = &recDev{took: took}
		devs[i] = recs[i]
	}
	return recs, devs
}

// oldRequests is the request list each device got from ReadPages at
// 51639a0: distinct pages filed per device through a map in the order
// given, then coalesced into runs. It is the oracle the free-list request
// is held to.
func oldRequests(v *Volume, pages []int64) [][]devRun {
	byDev := make([][]int64, len(v.devs))
	seen := make(map[int64]struct{}, len(pages))
	for _, pg := range pages {
		if _, dup := seen[pg]; dup {
			continue
		}
		seen[pg] = struct{}{}
		d, _ := v.locate(pg)
		byDev[d] = append(byDev[d], pg)
	}
	out := make([][]devRun, len(v.devs))
	for d, pgs := range byDev {
		for _, pg := range pgs {
			_, off := v.locate(pg)
			if n := len(out[d]); n > 0 && out[d][n-1].off+out[d][n-1].bytes == off {
				out[d][n-1].bytes += v.pageSize
				continue
			}
			out[d] = append(out[d], devRun{off: off, bytes: v.pageSize})
		}
	}
	return out
}

// randomPages mixes what scans ask for — runs of consecutive pages, as a
// column block spans — with scattered pages, repeats and descending order.
func randomPages(rng *rand.Rand) []int64 {
	var pages []int64
	for k := rng.Intn(6); k >= 0; k-- {
		switch rng.Intn(4) {
		case 0:
			pages = append(pages, rng.Int63n(200))
		case 1:
			if len(pages) > 0 {
				pages = append(pages, pages[rng.Intn(len(pages))])
			}
		case 2:
			for pg, n := rng.Int63n(200), rng.Int63n(12); n > 0; n-- {
				pages = append(pages, pg)
				pg--
				if pg < 0 {
					break
				}
			}
		default:
			lo := rng.Int63n(200)
			for pg, hi := lo, lo+1+rng.Int63n(20); pg < hi; pg++ {
				pages = append(pages, pg)
			}
		}
	}
	return pages
}

// TestReadPagesRequestsMatchOldCoalesce: over random page lists on striped
// and RAID-5 volumes of every width, each device receives exactly the
// requests, in the same order, that the map-plus-coalesce ReadPages gave
// it — through calls that reuse one request after another.
func TestReadPagesRequestsMatchOldCoalesce(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	for _, layout := range []Layout{Striped, RAID5} {
		for n := 1; n <= 6; n++ {
			if layout == RAID5 && n < 3 {
				continue
			}
			e := sim.NewEngine()
			recs, devs := recArray(n, 0.001)
			v := NewVolume("v", layout, testPage, devs)
			e.Go("reader", func(p *sim.Proc) {
				for call := 0; call < 200; call++ {
					pages := randomPages(rng)
					want := oldRequests(v, pages)
					for _, d := range recs {
						d.reqs = d.reqs[:0]
					}
					if err := v.ReadPages(p, pages); err != nil {
						t.Errorf("%v×%d: %v", layout, n, err)
						return
					}
					for d, rec := range recs {
						if len(rec.reqs) == 0 && len(want[d]) == 0 {
							continue
						}
						if !reflect.DeepEqual(rec.reqs, want[d]) {
							t.Errorf("%v×%d, pages %v: device %d got %v, want %v", layout, n, pages, d, rec.reqs, want[d])
							return
						}
					}
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReadPagesReadsDuplicatesOnce: a page asked for twice is read once.
func TestReadPagesReadsDuplicatesOnce(t *testing.T) {
	e := sim.NewEngine()
	recs, devs := recArray(2, 0.001)
	v := NewVolume("v", Striped, testPage, devs)
	e.Go("reader", func(p *sim.Proc) {
		if err := v.ReadPages(p, []int64{0, 2, 0, 1, 3, 2, 1, 3}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.PagesRead != 4 || st.BytesRead != 4*testPage {
		t.Fatalf("stats = %+v, want 4 pages", st)
	}
	// Device 0 holds pages 0 and 2, device 1 pages 1 and 3: one run each.
	for d, rec := range recs {
		if want := []devRun{{off: 0, bytes: 2 * testPage}}; !reflect.DeepEqual(rec.reqs, want) {
			t.Errorf("device %d got %v, want %v", d, rec.reqs, want)
		}
	}
}

// TestReadPagesFirstErrorInDeviceOrder: with two devices failing, the
// error ReadPages returns is the lower device's, although the higher one
// failed first; every reader has exited when it returns, and the next call
// on the volume succeeds.
func TestReadPagesFirstErrorInDeviceOrder(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := sim.NewEngine()
	recs, devs := recArray(4, 1)
	v := NewVolume("v", Striped, testPage, devs)
	err1, err3 := errors.New("device 1 failed"), errors.New("device 3 failed")
	recs[1].fail, recs[1].took = err1, 2
	recs[3].fail = err3
	// Device d holds pages 8k+d, two device pages apart: ten runs each.
	var pages []int64
	for pg := int64(0); pg < 80; pg += 8 {
		pages = append(pages, pg, pg+1, pg+2, pg+3)
	}
	e.Go("reader", func(p *sim.Proc) {
		if err := v.ReadPages(p, pages); err != err1 {
			t.Errorf("ReadPages = %v, want %v", err, err1)
		}
		if e.Live() != 1 {
			t.Errorf("%d processes live after ReadPages returned: %v", e.Live(), e.LiveNames())
		}
		// Devices 0 and 2 stopped at the run boundary after the stop.
		for _, d := range []int{0, 2} {
			if len(recs[d].reqs) >= 10 {
				t.Errorf("device %d read all %d runs despite the failure", d, len(recs[d].reqs))
			}
			recs[d].reqs = recs[d].reqs[:0]
		}
		recs[1].fail, recs[3].fail = nil, nil
		if err := v.ReadPages(p, pages); err != nil {
			t.Errorf("the call after the failure: %v", err)
		}
		for d, rec := range recs {
			if len(rec.reqs) != 10 {
				t.Errorf("device %d served %d runs after the failure, want 10", d, len(rec.reqs))
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d after Run", e.Live())
	}
	settled(t, baseline)
}

// TestReadPagesAfterCrashTakesFreshTime: Crash kills a ReadPages caller
// after one device's reader has reported and before the other's. Once the
// disks and the volume are reset, the next ReadPages of the same pages
// takes exactly as long as on a fresh volume and reads every page once. A
// request recycled from the killed call could still hold device 0's report
// and end the next call when its device 0 reports, or hold the dead caller
// as a waiter.
func TestReadPagesAfterCrashTakesFreshTime(t *testing.T) {
	// Device 0 reads page 0; device 1 reads pages 1, 3, 5 and 7 as one
	// four-page run, and finishes last.
	pages := []int64{0, 1, 3, 5, 7}
	type rig struct {
		e     *sim.Engine
		disks []*hw.Disk
		v     *Volume
	}
	newRig := func() rig {
		e, m := sim.NewEngine(), energy.NewMeter()
		r := rig{e: e}
		var devs []BlockDevice
		for i := 0; i < 2; i++ {
			d := hw.NewDisk(e, m, fmt.Sprintf("disk%d", i), hw.Cheetah15K())
			r.disks = append(r.disks, d)
			devs = append(devs, d)
		}
		r.v = NewVolume("v", Striped, testPage, devs)
		return r
	}
	elapsed := func(r rig, pages []int64) float64 {
		t.Helper()
		took := -1.0
		r.e.Go("reader", func(p *sim.Proc) {
			start := p.Now()
			if err := r.v.ReadPages(p, pages); err != nil {
				t.Error(err)
			}
			took = p.Now() - start
		})
		if err := r.e.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	fresh := elapsed(newRig(), pages)
	first := elapsed(newRig(), pages[:1])
	if !(first < fresh) {
		t.Fatalf("device 0 takes %v, the whole read %v: no gap to crash in", first, fresh)
	}

	for _, crash := range []struct {
		when  string
		reach func(r rig)
	}{
		// Device 0's reader has put its report in the mailbox and the
		// caller's wake-up to take it is pending.
		{"before the caller took device 0's report", func(r rig) {
			for r.v.Stats().PagesRead == 0 {
				if !r.e.Step() {
					t.Fatal("the read ran dry")
				}
			}
		}},
		// The caller took device 0's report and waits for device 1's.
		{"while the caller waits for device 1", func(r rig) {
			if err := r.e.RunUntil((first + fresh) / 2); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		r := newRig()
		r.e.Go("victim", func(p *sim.Proc) {
			_ = r.v.ReadPages(p, pages)
			t.Errorf("crash %s: the victim returned from ReadPages", crash.when)
		})
		crash.reach(r)
		r.e.Crash()
		for _, d := range r.disks {
			d.Reset()
		}
		r.v.Reset()
		before := r.v.Stats().PagesRead
		if got := elapsed(r, pages); got != fresh {
			t.Errorf("crash %s: the next ReadPages took %v, on a fresh volume %v", crash.when, got, fresh)
		}
		if got := r.v.Stats().PagesRead - before; got != int64(len(pages)) {
			t.Errorf("crash %s: the next ReadPages read %d pages, want %d", crash.when, got, len(pages))
		}
	}
}

// TestReadPagesAllocs pins what a block read costs the host allocator:
// one object per reader goroutine and one for the caller's. At 51639a0, 9
// pages over 4 disks cost 43 objects, the caller's Go included: a map,
// per-device page lists and runs, a mailbox, a stop flag, an error slice
// and per reader a closure and a process of 4.
func TestReadPagesAllocs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, m := sim.NewEngine(), energy.NewMeter()
	v := NewVolume("v", Striped, testPage, diskArray(e, m, 4))
	pages := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	read := func(p *sim.Proc) {
		if err := v.ReadPages(p, pages); err != nil {
			t.Error(err)
		}
	}
	call := func() {
		e.Go("caller", read)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		call()
	}
	if got := testing.AllocsPerRun(200, call); got > 6 {
		t.Errorf("ReadPages of 9 pages over 4 disks: %v allocs, want at most 6", got)
	}
	settled(t, baseline)
}

// settled waits for the goroutine count to come back to baseline: no
// goroutine outlives its process, but one that has just handed its last
// turn back to the engine may still be on its way out when Run returns.
func settled(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines, %d before the engine started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
