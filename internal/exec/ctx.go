// Package exec is the vectorised volcano executor: storage-backed scans
// (row- and column-oriented, with per-column compression), filters,
// projections, hash and block-nested-loop joins, external sort, hash
// aggregation and limit.
//
// Operators do real work on real data (codecs really decode, joins really
// match) and *charge* that work to the simulated hardware: CPU cycles via
// hw.CPU, page I/O via storage.Volume / buffer.Pool. Simulated elapsed
// time and energy therefore reflect exactly the bytes moved and tuples
// processed by the chosen plan — which is the mechanism behind both of the
// paper's experiments.
package exec

import (
	"energydb/internal/buffer"
	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/storage"
)

// CostParams are the CPU cost constants (cycles per unit of work) charged
// by operators. The scan constant is calibrated so a simple projection
// scan processes ~0.75 GB/s per 2.4 GHz core, matching the relational
// scanner of Harizopoulos et al. [HLA+06] that Figure 2 draws on.
type CostParams struct {
	ScanCyclesPerByte      float64 // predicate+projection work per scanned byte
	RowParseCyclesPerByte  float64 // extra row-store tuple parsing cost
	FilterCyclesPerRow     float64 // per predicate term per row
	ProjectCyclesPerRow    float64 // per scalar expression per row
	HashBuildCyclesPerRow  float64
	HashProbeCyclesPerRow  float64
	JoinOutputCyclesPerRow float64
	SortCyclesPerRowLog    float64 // per row per log2(rows)
	AggCyclesPerRow        float64 // per row per aggregate
}

// DefaultCosts returns the calibrated cost constants.
func DefaultCosts() CostParams {
	return CostParams{
		ScanCyclesPerByte:      3.2,
		RowParseCyclesPerByte:  2.2,
		FilterCyclesPerRow:     8,
		ProjectCyclesPerRow:    12,
		HashBuildCyclesPerRow:  60,
		HashProbeCyclesPerRow:  45,
		JoinOutputCyclesPerRow: 25,
		SortCyclesPerRowLog:    14,
		AggCyclesPerRow:        30,
	}
}

// Ctx carries the simulated hardware an operator tree executes against.
type Ctx struct {
	P     *sim.Proc
	CPU   *hw.CPU
	DRAM  *hw.DRAM        // optional: charged for working-set traffic
	Pool  *buffer.Pool    // optional: row scans go through it when set
	Temp  *storage.Volume // optional: spill target for external sort
	Costs CostParams

	// MemBudgetBytes caps operator working memory (hash tables, sort
	// runs); 0 means unlimited. Exceeding it forces spills.
	MemBudgetBytes int64

	// PageRefetchJoules, when positive, is the estimated energy to re-read
	// one page from the backing store; row scans forward it to energy-
	// aware buffer policies.
	PageRefetchJoules float64

	// VectorSize is the preferred rows per batch for non-scan operators.
	VectorSize int

	// Widen, when non-nil, lets a live fragmented exchange accept extra
	// cores mid-pipeline (see Widener). Worker contexts copied from this
	// one share it by pointer.
	Widen *Widener
}

// NewCtx builds a context with default costs and vector size.
func NewCtx(p *sim.Proc, cpu *hw.CPU) *Ctx {
	return &Ctx{P: p, CPU: cpu, Costs: DefaultCosts(), VectorSize: 4096,
		Widen: &Widener{}}
}

// ChargeBytes charges byte-proportional CPU work.
func (c *Ctx) ChargeBytes(n int64, cyclesPerByte float64) {
	if n > 0 {
		c.CPU.Use(c.P, float64(n)*cyclesPerByte)
	}
}

// ChargeRows charges row-proportional CPU work.
func (c *Ctx) ChargeRows(n int, cyclesPerRow float64) {
	if n > 0 {
		c.CPU.Use(c.P, float64(n)*cyclesPerRow)
	}
}

// TouchDRAM charges marginal memory access energy for n bytes, if a DRAM
// device is attached.
func (c *Ctx) TouchDRAM(n int64) {
	if c.DRAM != nil && n > 0 {
		c.DRAM.Access(n)
	}
}
