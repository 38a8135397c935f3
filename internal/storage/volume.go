// Package storage provides the block layer between the database engine and
// the simulated devices: fixed-size pages mapped onto arrays of disks or
// SSDs by striping (RAID-0) or rotating-parity RAID-5, and a windowed
// parallel scan that keeps every spindle busy.
//
// The volume is a *timing* plane: it charges simulated device time and
// tracks I/O statistics. Data bytes themselves live in the table layer.
package storage

import (
	"fmt"

	"energydb/internal/sim"
)

// BlockDevice is the device contract volumes build on; hw.Disk and hw.SSD
// implement it. Errors are typed against the internal/fault taxonomy
// (ErrDeviceFailed, ErrTransientIO) and propagate unchanged through the
// volume to the execution layer.
type BlockDevice interface {
	Read(p *sim.Proc, offset, size int64) error
	Write(p *sim.Proc, offset, size int64) error
}

// Layout selects how pages map to devices.
type Layout int

const (
	// Striped is RAID-0: pages round-robin across all devices.
	Striped Layout = iota
	// RAID5 rotates one parity page per stripe row; writes pay the classic
	// read-modify-write penalty (two reads + two writes).
	RAID5
)

func (l Layout) String() string {
	switch l {
	case Striped:
		return "raid0"
	case RAID5:
		return "raid5"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// VolumeStats counts volume-level I/O.
type VolumeStats struct {
	PagesRead    int64
	PagesWritten int64
	BytesRead    int64
	BytesWritten int64
}

// Volume maps a linear page space onto a set of devices.
type Volume struct {
	name     string
	devs     []BlockDevice
	pageSize int64
	layout   Layout
	stats    VolumeStats
	nextByte int64

	hostBW   float64
	hostLink *sim.Resource

	free *readReq // ReadPages requests handed back for reuse

	// Diagnostic names for what a read starts, built once: the mailboxes
	// and window of ReadPages and Scan and, per device, their reader
	// processes.
	rpName, scanName, scanWinName string
	rpReader, scanReader          []string

	// MaxRunPages caps the pages coalesced into one device request during
	// Scan (0 = window/4). Real 2008 controllers capped transfers at
	// 64-256 KB per request; the cap fixes per-seek efficiency across
	// array sizes.
	MaxRunPages int
}

// NewVolume creates a volume. RAID5 requires at least three devices.
func NewVolume(name string, layout Layout, pageSize int64, devs []BlockDevice) *Volume {
	if len(devs) == 0 {
		panic("storage: volume needs at least one device")
	}
	if layout == RAID5 && len(devs) < 3 {
		panic("storage: RAID5 needs at least three devices")
	}
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	v := &Volume{name: name, devs: devs, pageSize: pageSize, layout: layout,
		rpName: name + ":rp", scanName: name + ":scan", scanWinName: name + ":scanwin"}
	for d := range devs {
		v.rpReader = append(v.rpReader, fmt.Sprintf("%s:rp%d", name, d))
		v.scanReader = append(v.scanReader, fmt.Sprintf("%s:reader%d", name, d))
	}
	return v
}

// Name reports the volume name.
func (v *Volume) Name() string { return v.name }

// PageSize reports the page size in bytes.
func (v *Volume) PageSize() int64 { return v.pageSize }

// Devices reports the device count.
func (v *Volume) Devices() int { return len(v.devs) }

// Layout reports the volume layout.
func (v *Volume) Layout() Layout { return v.layout }

// Stats returns a copy of the I/O counters.
func (v *Volume) Stats() VolumeStats { return v.stats }

// SetHostLink models the shared controller/bus path between the device
// array and the host (SAS links, PCIe): every page transferred also holds
// a single shared link for bytes/bw seconds. Large arrays saturate this
// ceiling — the physical source of the diminishing returns in the paper's
// Figure 1 ("the 7th disk provides less incremental performance benefit
// than the 6th"). bw <= 0 disables the model.
func (v *Volume) SetHostLink(eng *sim.Engine, bw float64) {
	if bw <= 0 {
		v.hostBW = 0
		v.hostLink = nil
		return
	}
	v.hostBW = bw
	v.hostLink = sim.NewResource(eng, v.name+":host", 1)
}

// Reset quiesces the volume's shared host link after Engine.Crash has
// unwound every process that could be mid-transfer. The devices
// themselves are reset individually by their owners.
func (v *Volume) Reset() {
	if v.hostLink != nil {
		v.hostLink.Reset()
	}
}

// hostTransfer charges the shared link for moving n bytes to the host.
func (v *Volume) hostTransfer(p *sim.Proc, n int64) {
	if v.hostLink == nil {
		return
	}
	v.hostLink.Use(p, 1, float64(n)/v.hostBW)
}

// AllocExtent reserves n contiguous bytes and returns the starting byte
// offset. Extents pack tightly: adjacent extents may share a boundary
// page, exactly as column-store segments do on real volumes. Allocation
// is an instantaneous metadata operation.
func (v *Volume) AllocExtent(n int64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("storage: alloc of %d bytes", n))
	}
	start := v.nextByte
	v.nextByte += n
	return start
}

// AllocPages reserves n contiguous page-aligned logical pages and returns
// the first page number.
func (v *Volume) AllocPages(n int64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("storage: alloc of %d pages", n))
	}
	if rem := v.nextByte % v.pageSize; rem != 0 {
		v.nextByte += v.pageSize - rem
	}
	start := v.nextByte / v.pageSize
	v.nextByte += n * v.pageSize
	return start
}

// AllocBytes reserves enough contiguous whole pages for n bytes and
// returns the first page and the page count.
func (v *Volume) AllocBytes(n int64) (firstPage, pages int64) {
	pages = (n + v.pageSize - 1) / v.pageSize
	if pages == 0 {
		pages = 1
	}
	return v.AllocPages(pages), pages
}

// PageSpan reports the page range [pageLo, pageHi) covering the byte
// extent [byteLo, byteHi).
func (v *Volume) PageSpan(byteLo, byteHi int64) (pageLo, pageHi int64) {
	pageLo = byteLo / v.pageSize
	pageHi = (byteHi + v.pageSize - 1) / v.pageSize
	if pageHi <= pageLo {
		pageHi = pageLo + 1
	}
	return pageLo, pageHi
}

// ReadPages reads an arbitrary set of pages with all devices working in
// parallel (duplicates are read once). Each device gets one vectored read
// per run of consecutive pages, in the order the pages were given. It
// returns when every reader has finished — on a device error the remaining
// readers stop at their next run boundary, every reader still exits, and
// the first error (in device order) is returned.
//
// The call's state — each device's runs and error, the mailbox its readers
// report on, the stop flag — is a readReq taken from the volume's free list
// and handed back on return, so a read allocates nothing but its readers'
// goroutines. A caller that Crash unwinds (p.Killed()) leaves by a panic
// out of done.Get, and its request is dropped, not handed back — which is
// why no defer here may hand it back: its mailbox can still hold finished
// readers' reports and the dead caller as a waiter, and a stale report
// would end the next call on it early.
func (v *Volume) ReadPages(p *sim.Proc, pages []int64) error {
	if len(pages) == 0 {
		return nil
	}
	eng := p.Engine()
	r := v.free
	if r != nil {
		v.free = r.next
	} else {
		r = v.newReadReq(eng)
	}
	for _, pg := range pages {
		r.file(pg)
	}
	launched := 0
	for d := range r.devs {
		if dr := &r.devs[d]; len(dr.runs) > 0 {
			launched++
			eng.Go(v.rpReader[d], dr.read)
		}
	}
	for i := 0; i < launched; i++ {
		if err := r.done.Get(p); err != nil {
			r.stop = true
		}
	}
	var err error
	for d := range r.devs {
		dr := &r.devs[d]
		if err == nil {
			err = dr.err
		}
		dr.runs, dr.err = dr.runs[:0], nil
	}
	r.stop = false
	r.next, v.free = v.free, r
	return err
}

// readReq is one ReadPages call's state, recycled through Volume.free.
type readReq struct {
	v    *Volume
	devs []devReads // one per device
	done *sim.Mailbox[error]
	stop bool     // a reader failed: the others stop at their next run
	next *readReq // the volume's free list
}

// devReads is one device's share of a readReq.
type devReads struct {
	req  *readReq
	dev  int
	runs []devRun
	err  error
	read func(*sim.Proc) // run, bound once for every call that reuses the slot
}

type devRun struct {
	off   int64
	bytes int64
}

func (v *Volume) newReadReq(eng *sim.Engine) *readReq {
	r := &readReq{v: v, devs: make([]devReads, len(v.devs)), done: sim.NewMailbox[error](eng, v.rpName)}
	for d := range r.devs {
		dr := &r.devs[d]
		dr.req, dr.dev = r, d
		dr.read = dr.run
	}
	return r
}

// file adds page pg to its device's runs: it extends the last run when pg
// is the device page right after it, and is dropped when a run already
// holds it. A page lives on one device and the runs hold exactly the pages
// filed, so that device's runs are all a duplicate needs comparing with.
func (r *readReq) file(pg int64) {
	v := r.v
	d, off := v.locate(pg)
	dr := &r.devs[d]
	for _, run := range dr.runs {
		if off >= run.off && off < run.off+run.bytes {
			return
		}
	}
	if n := len(dr.runs); n > 0 && dr.runs[n-1].off+dr.runs[n-1].bytes == off {
		dr.runs[n-1].bytes += v.pageSize
		return
	}
	dr.runs = append(dr.runs, devRun{off: off, bytes: v.pageSize})
}

// run is a device reader's body. One vectored read per run: the device
// seeks once and streams the whole run, exactly as a real scatter-gather
// scan request would.
func (dr *devReads) run(rp *sim.Proc) {
	r := dr.req
	v := r.v
	for _, run := range dr.runs {
		if r.stop {
			break
		}
		if err := v.devs[dr.dev].Read(rp, run.off, run.bytes); err != nil {
			dr.err = err
			break
		}
		v.hostTransfer(rp, run.bytes)
		v.stats.PagesRead += run.bytes / v.pageSize
		v.stats.BytesRead += run.bytes
	}
	r.done.Put(dr.err)
}

// locate maps a logical page to (device index, device byte offset).
// For RAID-0: page i lives on device i%n at row i/n.
// For RAID-5 (left-symmetric): each row of n device-pages holds n-1 data
// pages plus one parity page whose device rotates by row.
func (v *Volume) locate(page int64) (dev int, off int64) {
	n := int64(len(v.devs))
	switch v.layout {
	case Striped:
		return int(page % n), (page / n) * v.pageSize
	case RAID5:
		nd := n - 1 // data pages per row
		row := page / nd
		k := page % nd
		parity := row % n
		d := k
		if d >= parity {
			d++
		}
		return int(d), row * v.pageSize
	default:
		panic("storage: unknown layout")
	}
}

// parityLoc returns the device and offset of the parity page for the row
// containing the given logical page (RAID5 only).
func (v *Volume) parityLoc(page int64) (dev int, off int64) {
	n := int64(len(v.devs))
	nd := n - 1
	row := page / nd
	return int(row % n), row * v.pageSize
}

// ReadPage charges the I/O time of reading one logical page.
func (v *Volume) ReadPage(p *sim.Proc, page int64) error {
	if page < 0 {
		panic(fmt.Sprintf("storage: read of negative page %d", page))
	}
	dev, off := v.locate(page)
	if err := v.devs[dev].Read(p, off, v.pageSize); err != nil {
		return err
	}
	v.hostTransfer(p, v.pageSize)
	v.stats.PagesRead++
	v.stats.BytesRead += v.pageSize
	return nil
}

// WritePage charges the I/O time of writing one logical page. On RAID-5
// this is the full read-modify-write: read old data, read old parity,
// write data, write parity.
func (v *Volume) WritePage(p *sim.Proc, page int64) error {
	if page < 0 {
		panic(fmt.Sprintf("storage: write of negative page %d", page))
	}
	dev, off := v.locate(page)
	if v.layout == RAID5 {
		pdev, poff := v.parityLoc(page)
		if err := v.devs[dev].Read(p, off, v.pageSize); err != nil {
			return err
		}
		if err := v.devs[pdev].Read(p, poff, v.pageSize); err != nil {
			return err
		}
		if err := v.devs[dev].Write(p, off, v.pageSize); err != nil {
			return err
		}
		if err := v.devs[pdev].Write(p, poff, v.pageSize); err != nil {
			return err
		}
		v.stats.BytesRead += 2 * v.pageSize
		v.stats.BytesWritten += 2 * v.pageSize
		v.stats.PagesRead += 2
		v.stats.PagesWritten += 2
		return nil
	}
	if err := v.devs[dev].Write(p, off, v.pageSize); err != nil {
		return err
	}
	v.stats.PagesWritten++
	v.stats.BytesWritten += v.pageSize
	return nil
}

// scanMsg is one delivery from a Scan reader to the consumer: a page, a
// device error, or an exit marker (the reader has terminated).
type scanMsg struct {
	page int64
	err  error
	exit bool
}

// Scan reads logical pages [start, end) using every device concurrently
// and invokes consume(page) from the calling process as pages arrive. The
// window bounds the number of pages in flight (<=0 selects 2x devices);
// consume may charge CPU time, and that work overlaps further I/O — this
// is the disk/CPU overlap the paper's Figure 2 relies on.
//
// Pages are delivered in completion order, not logical order; callers that
// need ordering must make pages self-describing (the table layer does).
//
// On a device error the scan stops: remaining readers unwind at their
// next window acquisition, Scan blocks until every reader has exited
// (so no simulated process outlives the call), and the first error
// delivered is returned. consume is never invoked after an error.
func (v *Volume) Scan(p *sim.Proc, start, end int64, window int, consume func(page int64)) error {
	if start >= end {
		return nil
	}
	if window <= 0 {
		window = 2 * len(v.devs)
	}
	eng := p.Engine()
	tokens := sim.NewResource(eng, v.scanWinName, window)
	done := sim.NewMailbox[scanMsg](eng, v.scanName)
	stop := new(bool)

	// Partition pages by owning device so each reader's accesses are
	// sequential on its device.
	byDev := make([][]int64, len(v.devs))
	for pg := start; pg < end; pg++ {
		d, _ := v.locate(pg)
		byDev[d] = append(byDev[d], pg)
	}
	// Coalesce each device's pages into vectored runs no larger than a
	// quarter of the window, so one seek covers many pages while the
	// window still bounds bytes in flight.
	maxRun := v.MaxRunPages
	if maxRun <= 0 {
		maxRun = window / 4
	}
	if maxRun < 1 {
		maxRun = 1
	}
	if maxRun > window {
		maxRun = window
	}
	launched := 0
	for d, pages := range byDev {
		if len(pages) == 0 {
			continue
		}
		launched++
		d, pages := d, pages
		eng.Go(v.scanReader[d], func(rp *sim.Proc) {
			defer done.Put(scanMsg{exit: true})
			i := 0
			for i < len(pages) && !*stop {
				// Extend the run while pages stay contiguous on device.
				j := i + 1
				_, off := v.locate(pages[i])
				for j < len(pages) && j-i < maxRun {
					_, next := v.locate(pages[j])
					if next != off+int64(j-i)*v.pageSize {
						break
					}
					j++
				}
				n := j - i
				tokens.Acquire(rp, n)
				if *stop {
					tokens.Release(n)
					return
				}
				if err := v.devs[d].Read(rp, off, int64(n)*v.pageSize); err != nil {
					tokens.Release(n)
					done.Put(scanMsg{err: err})
					return
				}
				v.hostTransfer(rp, int64(n)*v.pageSize)
				v.stats.PagesRead += int64(n)
				v.stats.BytesRead += int64(n) * v.pageSize
				for ; i < j; i++ {
					done.Put(scanMsg{page: pages[i]})
				}
			}
		})
	}
	// Drive the scan until every reader has exited. Window tokens held by
	// undelivered pages are released even after an error so that readers
	// parked on the window can wake, observe stop, and unwind.
	var firstErr error
	for exits := 0; exits < launched; {
		m := done.Get(p)
		switch {
		case m.exit:
			exits++
		case m.err != nil:
			if firstErr == nil {
				firstErr = m.err
			}
			*stop = true
		default:
			if firstErr == nil {
				consume(m.page)
			}
			tokens.Release(1)
		}
	}
	return firstErr
}
