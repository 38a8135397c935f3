// Package exec is the vectorised volcano executor: storage-backed scans
// (row- and column-oriented, with per-column compression), filters,
// projections, hash and block-nested-loop joins, external sort, hash
// aggregation and limit.
//
// Operators do real work on real data (codecs really decode, joins really
// match) and *charge* that work to the simulated hardware: CPU cycles via
// hw.CPU, page I/O via storage.Volume. Simulated elapsed
// time and energy therefore reflect exactly the bytes moved and tuples
// processed by the chosen plan — which is the mechanism behind both of the
// paper's experiments.
package exec

import (
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
	Temp  *storage.Volume // optional: spill target for external sort
	Costs CostParams

	// MemBudgetBytes caps operator working memory (hash tables, sort
	// runs); 0 means unlimited. Exceeding it forces spills.
	MemBudgetBytes int64

	// Mem is the batch memory the statement's operators borrow from,
	// shared with the other statements of its engine; nil gives the
	// statement memory of its own.
	Mem *Memory

	stmt      *Ctx // the statement's own Ctx, of which a fragment's is a copy
	borrowing bool // on stmt: the statement has borrowed from Mem
}

// Memory is the recycler (batchMem, scanscratch.go) that the statements of
// one engine borrow from while any of them runs: the first statement to
// borrow takes one from the process-wide pool, and the last to end
// (Ctx.Release) hands it back, so an idle engine pins none of it. A
// statement's operators take arrays from it and hand them back at their
// Close, for the statement's later operators and the engine's other
// statements to refill; the engine runs one simulated process at a time,
// which is what lets them share it without a lock. The zero value is
// ready for use.
type Memory struct {
	mem   *batchMem
	users int // statements that have borrowed and not ended
}

// vectorSize is the rows per batch that non-scan operators emitting a
// materialised result (sort, aggregation) hand downstream.
const vectorSize = 4096

// NewCtx builds a context with default costs, for one statement.
func NewCtx(p *sim.Proc, cpu *hw.CPU) *Ctx {
	c := &Ctx{P: p, CPU: cpu, Costs: DefaultCosts()}
	c.stmt = c
	return c
}

// Release ends the statement. Once no other statement of the engine is
// borrowing, the recycler — to which every operator has handed its arrays
// back by its Close — goes back to the process-wide pool, for any engine
// to take. Call it on the statement's Ctx once the operator tree is
// closed; no operator may run on it, or on a copy of it, after.
func (c *Ctx) Release() {
	s := c.stmt
	if s == nil || !s.borrowing {
		return
	}
	s.borrowing = false
	m := s.Mem
	if m.users--; m.users == 0 {
		batchMems.Put(m.mem)
		m.mem = nil
	}
}

// borrow returns the recycler the statement borrows from, taking one from
// the process-wide pool if no statement of the engine holds it. A Ctx not
// made by NewCtx is its own statement.
func (c *Ctx) borrow() *batchMem {
	if c.stmt == nil {
		c.stmt = c
	}
	s := c.stmt
	if !s.borrowing {
		s.borrowing = true
		if s.Mem == nil {
			s.Mem = new(Memory)
		}
		if s.Mem.users++; s.Mem.mem == nil {
			s.Mem.mem = batchMems.Get().(*batchMem)
		}
	}
	return s.Mem.mem
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
