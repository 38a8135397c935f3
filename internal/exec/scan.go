package exec

import (
	"fmt"

	"energydb/internal/buffer"
	"energydb/internal/sim"
	"energydb/internal/storage"
	"energydb/internal/table"
)

// ColumnScan reads a ColumnMajor StoredTable: only the columns in ReadCols
// are fetched from the volume, each block is really decompressed (charging
// the codec's decode cycles), a predicate filters rows, and Emit selects
// the output columns.
//
// Decoding is selection-driven, as in the read-optimised scanner of
// [HLA+06] (see ctx.go): per block, the columns the predicate reads are
// decoded first and the predicate runs over them; the other ("late")
// columns are decoded afterwards, and only as far as the surviving rows
// need — not at all when none survived, and for dictionary strings only
// the surviving cells. Cells of a late column outside the selection hold
// unspecified values, though every vector keeps the block's row count
// (CONTRACT.md, "Scan scratch lifetime"). This is host work: the simulated
// machine is charged for decoding every read column of every block either
// way, before the predicate, so the model clock does not see it.
//
// I/O is pipelined: a background reader process fetches block b+1..b+W
// while the consumer decodes and processes block b, so elapsed time tends
// to max(I/O, CPU) — the overlap the paper's Figure 2 assumes ("by
// overlapping disk with CPU time, the total time is 10 secs").
//
// A scan owns the whole table by default. When Morsels points at a shared
// dispenser the scan is one fragment of a parallel scan: its reader claims
// block ranges from the dispenser instead, and together the fragments of
// the set cover every block exactly once.
type ColumnScan struct {
	ST       *StoredTable
	ReadCols []int    // source column indexes fetched (projection ∪ predicate columns)
	Emit     []int    // positions within ReadCols forming the output row
	Pred     Pred     // evaluated over the ReadCols batch; nil = all rows
	Window   int      // pipeline depth in blocks (default 2)
	Morsels  *Morsels // shared block dispenser; nil = scan all blocks

	schema  *table.Schema
	readSch *table.Schema
	late    uint64 // bit i: ReadCols[i] is decoded after Pred, which does not read it
	nblocks int
	eof     bool
	started bool
	cancel  bool
	ready   *sim.Mailbox[blockMsg]
	credits *sim.Mailbox[int]
	scratch scanScratch // reusable decode memory, this scan's alone
}

// blockMsg is one delivery from a scan reader process: a fetched block
// index, an I/O error, or (b < 0, err == nil) end of stream.
type blockMsg struct {
	b   int
	err error
}

// NewColumnScan builds a scan; emit positions index into readCols. A scan
// may read (and emit) no columns at all — a count-only plan — in which
// case it produces zero-column batches carrying each block's cardinality
// without touching the volume.
func NewColumnScan(st *StoredTable, readCols, emit []int, pred Pred) *ColumnScan {
	if st.Layout != ColumnMajor {
		panic("exec: ColumnScan over non-columnar placement")
	}
	cols := make([]table.Column, len(emit))
	for i, e := range emit {
		cols[i] = st.Tab.Schema.Cols[readCols[e]]
	}
	readCs := make([]table.Column, len(readCols))
	for i, ci := range readCols {
		readCs[i] = st.Tab.Schema.Cols[ci]
	}
	return &ColumnScan{
		ST:       st,
		ReadCols: readCols,
		Emit:     emit,
		Pred:     pred,
		schema:   table.NewSchema(st.Tab.Schema.Name, cols...),
		readSch:  table.NewSchema(st.Tab.Schema.Name, readCs...),
		late:     lateCols(pred, len(readCols)),
	}
}

// lateCols returns the mask of the ncols read-column positions pred does
// not read. No predicate, one of a type predCols does not know, or more
// columns than the mask has bits leaves no column late: every column is
// then decoded before the predicate.
func lateCols(pred Pred, ncols int) uint64 {
	if pred == nil || ncols > 64 {
		return 0
	}
	early, ok := predCols(pred)
	if !ok {
		return 0
	}
	return ^early & (1<<uint(ncols) - 1)
}

// predCols returns the mask of the batch columns p reads; ok is false when
// p contains a predicate whose columns are not known here.
func predCols(p Pred) (mask uint64, ok bool) {
	switch p := p.(type) {
	case *ColConst:
		return 1 << uint(p.Col), true
	case *ColCol:
		return 1<<uint(p.Left) | 1<<uint(p.Right), true
	case *And:
		return predsCols(p.Preds)
	case *Or:
		return predsCols(p.Preds)
	case *Not:
		return predCols(p.Pred)
	}
	return 0, false
}

func predsCols(ps []Pred) (mask uint64, ok bool) {
	for _, q := range ps {
		m, ok := predCols(q)
		if !ok {
			return 0, false
		}
		mask |= m
	}
	return mask, true
}

// Schema implements Operator.
func (s *ColumnScan) Schema() *table.Schema { return s.schema }

// Open implements Operator. A shared Morsels dispenser is NOT reset here:
// sibling fragments claim from the same queue and the exchange running
// them owns its reset.
func (s *ColumnScan) Open(ctx *Ctx) error {
	s.nblocks = s.ST.NumBlocks()
	s.eof = false
	s.started = false
	s.cancel = false
	return nil
}

func (s *ColumnScan) start(ctx *Ctx) {
	s.started = true
	st := s.ST
	morsels := s.Morsels
	if morsels == nil {
		// Serial scan: one private morsel covering every block keeps the
		// reader streaming blocks in order exactly as before.
		morsels = NewMorsels(s.nblocks, max(1, s.nblocks))
	}
	// Fetch all projected columns' pages for each block in one parallel
	// batch so every device works at once.
	s.ready, s.credits = startMorselReader(ctx, "colscan:"+st.Tab.Schema.Name,
		s.Window, st.Vol, morsels, &s.cancel,
		func(b int, pages []int64) []int64 {
			for _, ci := range s.ReadCols {
				blk := st.cols[ci][b]
				plo, phi := st.Vol.PageSpan(blk.byteLo, blk.byteHi)
				for pg := plo; pg < phi; pg++ {
					pages = append(pages, pg)
				}
			}
			return pages
		})
}

// Next implements Operator.
func (s *ColumnScan) Next(ctx *Ctx) (*table.Batch, error) {
	s.scratch.retire() // the previous block's batch is dead from here on
	if s.eof {
		return nil, nil
	}
	if !s.started {
		s.start(ctx)
	}
	m := s.ready.Get(ctx.P)
	if m.err != nil {
		s.eof = true
		return nil, fmt.Errorf("exec: scan %s: %w", s.schema.Name, m.err)
	}
	b := m.b
	if b < 0 {
		s.eof = true
		return nil, nil
	}
	s.credits.Put(1)
	read, err := s.decode(b, s.late, nil)
	if err != nil {
		return nil, err
	}
	var logicalBytes int64
	for _, ci := range s.ReadCols {
		blk := &s.ST.cols[ci][b]
		// Real decompression cost: decode cycles per logical byte.
		ctx.ChargeBytes(blk.rawSize, s.ST.Codecs[ci].Cost().DecodeCyclesPerByte)
		logicalBytes += blk.rawSize
	}
	// Scanner work proper: predicate + projection over the logical bytes.
	ctx.ChargeBytes(logicalBytes, ctx.Costs.ScanCyclesPerByte)
	ctx.TouchDRAM(logicalBytes)
	return s.emit(ctx, b, read)
}

// decode refills the scan's scratch batch with block b of the read columns
// bar those in the skip mask, which are sized to the block and otherwise
// left as they are. A non-nil sel lists the rows the caller will read. It
// is host work only — no simulated time passes — and Next charges for
// every read column, whichever call decodes it and however far.
func (s *ColumnScan) decode(b int, skip uint64, sel []int32) (*table.Batch, error) {
	lo, hi := s.ST.blockSpan(b)
	read := s.scratch.batch(s.readSch, hi-lo)
	for i, ci := range s.ReadCols {
		if skip>>uint(i)&1 != 0 {
			s.scratch.size(i, hi-lo)
			continue
		}
		if err := s.scratch.column(i, s.ST.Codecs[ci], &s.ST.cols[ci][b], sel); err != nil {
			return nil, fmt.Errorf("exec: column %d block %d: %w", ci, b, err)
		}
	}
	read.SetRows(hi - lo)
	return read, nil
}

// emit runs the predicate over block b, decoded into read as far as the
// predicate needs, then decodes the late columns for the rows that
// survived — none: not at all; all of them: no selection to honour — and
// projects.
func (s *ColumnScan) emit(ctx *Ctx, b int, read *table.Batch) (*table.Batch, error) {
	sel := s.scratch.filter(ctx, read, s.Pred)
	if s.late != 0 && len(sel) > 0 {
		want := sel
		if len(sel) == read.Rows() {
			want = nil
		}
		if _, err := s.decode(b, ^s.late, want); err != nil {
			return nil, err
		}
	}
	s.scratch.poisonUnselected(s.late, sel)
	return s.scratch.project(read, sel, s.Emit, s.schema), nil
}

// Close implements Operator. Closing early cancels the reader process.
func (s *ColumnScan) Close(ctx *Ctx) error {
	s.scratch.release()
	if s.started && !s.eof {
		s.cancel = true
		// Unblock the reader if it is waiting for credit, and release any
		// blocks it already fetched.
		s.credits.Put(1)
		for {
			if _, ok := s.ready.TryGet(); !ok {
				break
			}
		}
	}
	return nil
}

// RowScan reads a RowMajor StoredTable: every page of every block is
// fetched (all columns travel together), blocks are decompressed and
// parsed back into tuples, then filtered and projected.
//
// With Window > 0 the scan pipelines: a reader process prefetches up to
// Window blocks ahead with all devices in parallel, bypassing the buffer
// pool (big scans should not pollute it). With Window == 0 pages go one
// at a time through ctx.Pool when present — the point-lookup path.
//
// When Morsels points at a shared dispenser the scan is one fragment of a
// parallel scan (see Parallel): its reader claims block ranges from the
// dispenser and prefetches them with a Window-deep credit pipeline.
type RowScan struct {
	ST      *StoredTable
	Emit    []int // source schema positions forming the output row
	Pred    Pred  // evaluated over the full source batch; nil = all rows
	Window  int
	Morsels *Morsels // shared block dispenser; nil = scan all blocks

	schema  *table.Schema
	unread  uint64 // bit i: source column i is read by neither Pred nor Emit
	next    int
	eof     bool
	started bool
	cancel  bool
	ready   *sim.Mailbox[blockMsg]
	credits *sim.Mailbox[int]
	scratch scanScratch // reusable decode memory, this scan's alone
}

// NewRowScan builds a row-store scan; emit positions index the source
// schema.
func NewRowScan(st *StoredTable, emit []int, pred Pred) *RowScan {
	if st.Layout != RowMajor {
		panic("exec: RowScan over non-row placement")
	}
	cols := make([]table.Column, len(emit))
	var read uint64
	for i, e := range emit {
		cols[i] = st.Tab.Schema.Cols[e]
		read |= 1 << uint(e)
	}
	if pred != nil {
		if m, ok := predCols(pred); ok {
			read |= m
		} else {
			read = ^uint64(0)
		}
	}
	return &RowScan{ST: st, Emit: emit, Pred: pred, unread: ^read,
		schema: table.NewSchema(st.Tab.Schema.Name, cols...)}
}

// Schema implements Operator.
func (s *RowScan) Schema() *table.Schema { return s.schema }

// Open implements Operator. As with ColumnScan, a shared Morsels
// dispenser is reset by the exchange running the fragments, not here.
func (s *RowScan) Open(ctx *Ctx) error {
	s.next = 0
	s.eof = false
	s.started = false
	s.cancel = false
	return nil
}

// startMorsels launches the fragment reader: it claims morsels from the
// shared dispenser and prefetches their blocks under a Window-deep credit
// pipeline, bypassing the buffer pool like the streaming reader.
func (s *RowScan) startMorsels(ctx *Ctx) {
	s.started = true
	st := s.ST
	s.ready, s.credits = startMorselReader(ctx, "rowscan:"+st.Tab.Schema.Name,
		s.Window, st.Vol, s.Morsels, &s.cancel,
		func(b int, pages []int64) []int64 {
			blk := st.rows[b]
			plo, phi := st.Vol.PageSpan(blk.byteLo, blk.byteHi)
			for pg := plo; pg < phi; pg++ {
				pages = append(pages, pg)
			}
			return pages
		})
}

// startMorselReader wires the fragment-reader pipeline shared by both
// scans — a ready and a credits mailbox with window credits primed
// (window <= 0 selects 2) and a reader process — and runs the protocol:
// claim a morsel, gate each of its blocks on a pipeline credit, collect
// the block's pages via pageList, fetch them in one vectored request and
// announce the block on ready; when the dispenser runs dry a sentinel
// (b < 0) marks end of stream. A device error is announced the same way
// (b < 0 with err set) and ends the reader. The scan's cancel flag is
// checked after every credit, so a closing consumer can always release a
// parked reader with a single credit.
func startMorselReader(ctx *Ctx, name string, window int, vol *storage.Volume, morsels *Morsels, cancel *bool, pageList func(b int, pages []int64) []int64) (ready *sim.Mailbox[blockMsg], credits *sim.Mailbox[int]) {
	if window <= 0 {
		window = 2
	}
	eng := ctx.P.Engine()
	// The reader process carries the table's name; its mailboxes need not.
	ready = sim.NewMailbox[blockMsg](eng, "scan:ready")
	credits = sim.NewMailbox[int](eng, "scan:credits")
	for i := 0; i < window; i++ {
		credits.Put(1)
	}
	eng.Go(name, func(rp *sim.Proc) {
		var pages []int64
		for {
			lo, hi, ok := morsels.Claim()
			if !ok {
				break
			}
			for b := lo; b < hi; b++ {
				credits.Get(rp)
				if *cancel {
					return
				}
				pages = pageList(b, pages[:0])
				if err := vol.ReadPages(rp, pages); err != nil {
					ready.Put(blockMsg{b: -1, err: err})
					return
				}
				ready.Put(blockMsg{b: b})
			}
		}
		ready.Put(blockMsg{b: -1}) // end of stream
	})
	return ready, credits
}

func (s *RowScan) start(ctx *Ctx) {
	s.started = true
	eng := ctx.P.Engine()
	s.ready = sim.NewMailbox[blockMsg](eng, "rowscan:ready")
	st := s.ST
	if len(st.rows) == 0 {
		return
	}
	// Map every page of the table's extent to the blocks it completes
	// (adjacent blocks share boundary pages).
	firstPage, _ := st.Vol.PageSpan(st.rows[0].byteLo, st.rows[0].byteHi)
	last := st.rows[len(st.rows)-1]
	_, lastPage := st.Vol.PageSpan(last.byteLo, last.byteHi)
	remaining := make([]int, len(st.rows))
	blocksOf := make(map[int64][]int)
	for b, blk := range st.rows {
		lo, hi := st.Vol.PageSpan(blk.byteLo, blk.byteHi)
		remaining[b] = int(hi - lo)
		for pg := lo; pg < hi; pg++ {
			blocksOf[pg] = append(blocksOf[pg], b)
		}
	}
	window := s.Window * 32 // pages in flight
	eng.Go("rowscan:"+st.Tab.Schema.Name, func(rp *sim.Proc) {
		err := st.Vol.Scan(rp, firstPage, lastPage, window, func(pg int64) {
			for _, b := range blocksOf[pg] {
				remaining[b]--
				if remaining[b] == 0 {
					s.ready.Put(blockMsg{b: b})
				}
			}
		})
		if err != nil {
			s.ready.Put(blockMsg{b: -1, err: err})
		}
	})
}

// Next implements Operator.
func (s *RowScan) Next(ctx *Ctx) (*table.Batch, error) {
	s.scratch.retire() // the previous block's batch is dead from here on

	var bi int // placement block index (errors name the on-disk block)
	switch {
	case s.Morsels != nil:
		if s.eof {
			return nil, nil
		}
		if !s.started {
			s.startMorsels(ctx)
		}
		m := s.ready.Get(ctx.P)
		if m.err != nil {
			s.eof = true
			return nil, fmt.Errorf("exec: scan %s: %w", s.schema.Name, m.err)
		}
		bi = m.b
		if bi < 0 {
			s.eof = true
			return nil, nil
		}
		s.credits.Put(1)
		s.next++
	case s.Window > 0:
		if s.next >= len(s.ST.rows) {
			return nil, nil
		}
		if !s.started {
			s.start(ctx)
		}
		// Blocks arrive in I/O completion order; row order within the
		// relation is not semantically meaningful.
		m := s.ready.Get(ctx.P)
		if m.err != nil {
			s.eof = true
			s.next = len(s.ST.rows)
			return nil, fmt.Errorf("exec: scan %s: %w", s.schema.Name, m.err)
		}
		bi = m.b
		s.next++
	default:
		if s.next >= len(s.ST.rows) {
			return nil, nil
		}
		bi = s.next
		s.next++
	}
	blk := &s.ST.rows[bi]

	if s.Morsels == nil && s.Window <= 0 {
		// Unpipelined path: fetch pages through the pool when attached.
		pageLo, pageHi := s.ST.Vol.PageSpan(blk.byteLo, blk.byteHi)
		for pg := pageLo; pg < pageHi; pg++ {
			if ctx.Pool != nil {
				k := buffer.PageKey{File: s.ST.FileID, Page: pg}
				err := ctx.Pool.Get(ctx.P, k, func(p *sim.Proc) error {
					if err := s.ST.Vol.ReadPage(p, pg); err != nil {
						return err
					}
					if ctx.PageRefetchJoules > 0 {
						ctx.Pool.SetRefetchCost(k, ctx.PageRefetchJoules)
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("exec: scan %s: %w", s.schema.Name, err)
				}
				ctx.Pool.Unpin(k)
			} else {
				if err := s.ST.Vol.ReadPage(ctx.P, pg); err != nil {
					return nil, fmt.Errorf("exec: scan %s: %w", s.schema.Name, err)
				}
			}
		}
	}

	full, err := s.decode(bi)
	if err != nil {
		return nil, err
	}
	ctx.ChargeBytes(blk.rawSize, s.ST.RowCodec.Cost().DecodeCyclesPerByte)
	// Row stores pay tuple-parsing cost on top of the scan work.
	ctx.ChargeBytes(blk.rawSize, ctx.Costs.ScanCyclesPerByte+ctx.Costs.RowParseCyclesPerByte)
	ctx.TouchDRAM(blk.rawSize)
	return s.scratch.project(full, s.scratch.filter(ctx, full, s.Pred), s.Emit, s.schema), nil
}

// decode refills the scan's scratch batch with the tuples of block bi.
// The string cells of columns neither Pred nor Emit reads are parsed but
// left "", which is host work saved, not simulated work: Next charges for
// the whole block either way, afterwards.
func (s *RowScan) decode(bi int) (*table.Batch, error) {
	blk := &s.ST.rows[bi]
	raw, err := s.scratch.expand(s.ST.RowCodec, blk)
	if err != nil {
		return nil, fmt.Errorf("exec: row block %d: %w", bi, err)
	}
	full := s.scratch.batch(s.ST.Tab.Schema, blk.hi-blk.lo)
	if err := table.DecodeRowsInto(full, raw, blk.hi-blk.lo, s.unread); err != nil {
		return nil, fmt.Errorf("exec: row block %d: %w", bi, err)
	}
	return full, nil
}

// Close implements Operator. An early close lets the streaming reader run
// out on its own (it holds no consumer-owned resources); a morsel-mode
// reader blocked on credits is released explicitly. Remaining ready
// notifications are drained.
func (s *RowScan) Close(ctx *Ctx) error {
	s.scratch.release()
	s.cancel = true
	if s.started {
		if s.Morsels != nil && !s.eof {
			s.credits.Put(1)
		}
		for {
			if _, ok := s.ready.TryGet(); !ok {
				break
			}
		}
	}
	return nil
}

// iotaSel returns scratch resized to [0, 1, ..., n-1], growing its backing
// array only when needed so steady-state filtering allocates nothing.
func iotaSel(scratch *[]int32, n int) []int32 {
	s := *scratch
	if cap(s) < n {
		s = make([]int32, n)
		*scratch = s
	}
	s = s[:n]
	for i := range s {
		s[i] = int32(i)
	}
	return s
}
