package bench

import (
	"fmt"

	"energydb/internal/compress"
	"energydb/internal/energy"
	"energydb/internal/exec"
	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// Figure2Run is one configuration's measurements.
type Figure2Run struct {
	Name       string
	TotalSec   float64
	CPUSec     float64
	Joules     float64 // metered whole-rig energy
	PaperModel float64 // 90 W x CPU + 5 W x total, the paper's arithmetic
	Ratio      float64 // compressed/raw bytes on the volume
}

// Figure2Result reproduces Figure 2.
type Figure2Result struct {
	Uncompressed Figure2Run
	Compressed   Figure2Run
	// The paper's values, rendered beside ours.
	PaperUncompressed Figure2Run
	PaperCompressed   Figure2Run
}

// Speedup reports how much faster the compressed scan ran.
func (r *Figure2Result) Speedup() float64 {
	return r.Uncompressed.TotalSec / r.Compressed.TotalSec
}

// EnergyRatio reports compressed/uncompressed joules (paper: 487/338).
func (r *Figure2Result) EnergyRatio() float64 {
	return r.Compressed.Joules / r.Uncompressed.Joules
}

// RunFigure2 is the paper's scan experiment: a relational scan of ORDERS
// (SF 0.05, seed 2009) projecting five of seven attributes on one 90 W
// CPU and three flash SSDs totalling 5 W, run uncompressed and
// compressed.
func RunFigure2() (*Figure2Result, error) {
	gen := tpch.Generate(0.05, 2009)
	orders := gen.Tables["orders"]

	run := func(name string, codec compress.Codec) (Figure2Run, error) {
		srv := hw.NewServer(hw.ScanRig())
		devs := make([]storage.BlockDevice, len(srv.Disks))
		for i, d := range srv.Disks {
			devs[i] = d
		}
		vol := storage.NewVolume("data", storage.Striped, 64<<10, devs)
		codecs := make([]compress.Codec, len(orders.Schema.Cols))
		for i := range codecs {
			codecs[i] = codec
		}
		st, err := exec.PlaceColumnMajor(orders, vol, 1, 32768, codecs)
		if err != nil {
			return Figure2Run{}, err
		}
		// Project o_orderkey, o_custkey, o_totalprice, o_orderdate,
		// o_orderpriority (5 of 7) and apply the trivial predicate.
		read := []int{0, 1, 3, 4, 5}
		emit := []int{0, 1, 2, 3, 4}
		pred := &exec.ColConst{Col: 2, Op: exec.Gt, Val: table.FloatVal(0)}

		var scanErr error
		srv.Eng.Go("scan", func(p *sim.Proc) {
			ctx := exec.NewCtx(p, srv.CPU)
			scan := exec.NewColumnScan(st, read, emit, pred)
			_, scanErr = exec.RowCount(ctx, scan)
			ctx.Release()
		})
		if err := srv.Eng.Run(); err != nil {
			return Figure2Run{}, err
		}
		if scanErr != nil {
			return Figure2Run{}, scanErr
		}
		total := srv.Eng.Now()
		cpuSec := srv.CPU.BusyCoreSeconds()
		return Figure2Run{
			Name:       name,
			TotalSec:   total,
			CPUSec:     cpuSec,
			Joules:     float64(srv.Meter.TotalEnergy(energy.Seconds(total))),
			PaperModel: 90*cpuSec + 5*total,
			Ratio:      st.CompressionRatio(),
		}, nil
	}

	raw, err := run("uncompressed", compress.Raw)
	if err != nil {
		return nil, err
	}
	lz, err := run("compressed", compress.LZ)
	if err != nil {
		return nil, err
	}
	return &Figure2Result{
		Uncompressed:      raw,
		Compressed:        lz,
		PaperUncompressed: Figure2Run{Name: "paper/uncompressed", TotalSec: 10, CPUSec: 3.2, Joules: 338},
		PaperCompressed:   Figure2Run{Name: "paper/compressed", TotalSec: 5.5, CPUSec: 5.1, Joules: 487},
	}, nil
}

// Render prints the Figure 2 series next to the paper's numbers.
func (r *Figure2Result) Render() string {
	t := NewTable("Figure 2 — relational scan on uncompressed vs compressed data (1 CPU @90W, 3 SSDs @5W)",
		"config", "total(s)", "cpu(s)", "energy(J)", "E=90*cpu+5*total", "enc/raw")
	for _, run := range []Figure2Run{r.Uncompressed, r.Compressed} {
		t.Addf(run.Name, run.TotalSec, run.CPUSec, run.Joules, run.PaperModel, run.Ratio)
	}
	t.Addf(r.PaperUncompressed.Name, r.PaperUncompressed.TotalSec, r.PaperUncompressed.CPUSec,
		r.PaperUncompressed.Joules, "-", "-")
	t.Addf(r.PaperCompressed.Name, r.PaperCompressed.TotalSec, r.PaperCompressed.CPUSec,
		r.PaperCompressed.Joules, "-", "-")
	t.Add("")
	t.Add(fmt.Sprintf("speedup (compressed) = %.2fx   energy ratio = %.2fx   [paper: 1.82x, 1.44x]",
		r.Speedup(), r.EnergyRatio()))
	return t.String()
}
