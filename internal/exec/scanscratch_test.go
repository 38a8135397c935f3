package exec

import (
	"bytes"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// everyCodec lists the codecs, in name order.
var everyCodec = []compress.Codec{compress.Bitpack, compress.Delta, compress.Dict, compress.LZ, compress.Raw}

// uniformCodecs assigns c to every column, sensible pairing or not: the
// scan must decode whatever the placement holds.
func uniformCodecs(n int, c compress.Codec) []compress.Codec {
	cs := make([]compress.Codec, n)
	for i := range cs {
		cs[i] = c
	}
	return cs
}

// sameVector compares through the wire form, which is bit-exact.
func sameVector(a, b *table.Vector) bool {
	return a.Len() == b.Len() &&
		bytes.Equal(a.EncodeBytes(nil, 0, a.Len()), b.EncodeBytes(nil, 0, b.Len()))
}

// TestScanDecodeMatchesGenericDecode is the differential test for the
// scan's decode step: on every codec × every TPC-H column, refilling one
// reused scratch block after block (typed entry points where the codec
// has one, DecodeVectorInto otherwise) yields exactly what the generic,
// freshly allocating form — Codec.Decode then table.DecodeVector — and
// the source table hold. The row layout gets the same treatment.
func TestScanDecodeMatchesGenericDecode(t *testing.T) {
	db := tpch.Generate(0.002, 11)
	const blockRows = 700 // several blocks a table, the last one short
	for name, tab := range db.Tables {
		for _, codec := range everyCodec {
			vol := newRig(1).vol
			st, err := PlaceColumnMajor(tab, vol, 1, blockRows, uniformCodecs(len(tab.Schema.Cols), codec))
			if err != nil {
				t.Fatal(err)
			}
			sc := scanScratch{mem: new(batchMem)}
			sc.batch(tab.Schema, blockRows)
			for b := 0; b < st.NumBlocks(); b++ {
				for ci, col := range tab.Schema.Cols {
					blk := &st.cols[ci][b]
					if err := sc.column(ci, codec, blk, nil); err != nil {
						t.Fatalf("%s.%s under %s, block %d: %v", name, col.Name, codec.Name(), b, err)
					}
					raw, err := codec.Decode(nil, blk.enc)
					if err != nil {
						t.Fatal(err)
					}
					generic, err := table.DecodeVector(col.Type, raw, blk.hi-blk.lo)
					if err != nil {
						t.Fatal(err)
					}
					got := sc.read.Vecs[ci]
					if !sameVector(got, generic) || !sameVector(got, tab.Column(ci).Slice(blk.lo, blk.hi)) {
						t.Fatalf("%s.%s under %s, block %d: scan decode differs from generic decode", name, col.Name, codec.Name(), b)
					}
				}
			}

			rst, err := PlaceRowMajor(tab, vol, 2, blockRows, codec)
			if err != nil {
				t.Fatal(err)
			}
			rsc := scanScratch{mem: new(batchMem)}
			for b := range rst.rows {
				blk := &rst.rows[b]
				raw, err := rsc.expand(codec, blk)
				if err != nil {
					t.Fatal(err)
				}
				full := rsc.batch(tab.Schema, blk.hi-blk.lo)
				if err := table.DecodeRowsInto(full, raw, blk.hi-blk.lo, 0); err != nil {
					t.Fatalf("%s rows under %s, block %d: %v", name, codec.Name(), b, err)
				}
				for ci := range tab.Schema.Cols {
					if !sameVector(full.Vecs[ci], tab.Column(ci).Slice(blk.lo, blk.hi)) {
						t.Fatalf("%s rows under %s, block %d col %d: decode differs from the table", name, codec.Name(), b, ci)
					}
				}
			}
		}
	}
}

// decodeCase is one lineitem column under one codec: what the decode
// microbenchmarks and the steady-state allocation test scan.
type decodeCase struct {
	name  string
	col   string
	codec compress.Codec
}

var decodeCases = []decodeCase{
	{"delta", "l_orderkey", compress.Delta},
	{"bitpack", "l_partkey", compress.Bitpack},
	{"dict", "l_shipmode", compress.Dict},
	{"lz", "l_extendedprice", compress.LZ},
	{"raw", "l_extendedprice", compress.Raw},
}

// lineitemBlocks is TPC-H lineitem at SF 0.01: 8 blocks of up to 8192
// rows, the engine's default block size.
func lineitemBlocks(tb testing.TB) *table.Table {
	tb.Helper()
	li := tpch.Generate(0.01, 2009).Tables["lineitem"]
	if nb := (li.Rows() + 8191) / 8192; nb != 8 {
		tb.Fatalf("lineitem at SF 0.01 has %d blocks, the decode benchmarks assume 8", nb)
	}
	return li
}

// columnDecodeScan places t with codec on the named column and returns a
// scan reading only that column, plus the column's logical bytes. With a
// predicate — over batch column 0, which is then predCol under its default
// codec — the scan reads predCol as well and the named column is its late
// column.
func columnDecodeScan(tb testing.TB, t *table.Table, c decodeCase, predCol string, pred Pred) (*ColumnScan, int64) {
	tb.Helper()
	ci := t.Schema.MustColIndex(c.col)
	codecs := tpch.DefaultCodecs(t.Schema)
	codecs[ci] = c.codec
	st, err := PlaceColumnMajor(t, newRig(1).vol, 1, 8192, codecs)
	if err != nil {
		tb.Fatal(err)
	}
	if pred == nil {
		return NewColumnScan(st, []int{ci}, []int{0}, nil), st.ColRawBytes(ci)
	}
	scan := NewColumnScan(st, []int{t.Schema.MustColIndex(predCol), ci}, []int{0, 1}, pred)
	if scan.late != 0b10 {
		tb.Fatalf("%s behind a predicate on %s: late mask %#b, want it late", c.col, predCol, scan.late)
	}
	return scan, st.ColRawBytes(ci)
}

// numericOnly copies t's int- and float-class columns into a new table:
// the rows a row scan can decode without allocating (a string cell outside
// a dictionary is its own allocation by design, see CONTRACT.md).
func numericOnly(t *table.Table) *table.Table {
	var cols []table.Column
	var vecs []*table.Vector
	for i, c := range t.Schema.Cols {
		if c.Type.Physical() != table.PhysString {
			cols = append(cols, c)
			vecs = append(vecs, t.Column(i))
		}
	}
	b := &table.Batch{Schema: table.NewSchema(t.Schema.Name, cols...), Vecs: vecs}
	b.SetRows(t.Rows())
	out := table.NewTable(b.Schema)
	out.AppendBatch(b)
	return out
}

// allCols is every column of st, as read and as emitted.
func allCols(st *StoredTable) []int {
	cols := make([]int, len(st.Tab.Schema.Cols))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

func rowDecodeScan(tb testing.TB, li *table.Table, codec compress.Codec) *RowScan {
	tb.Helper()
	st, err := PlaceRowMajor(numericOnly(li), newRig(1).vol, 1, 8192, codec)
	if err != nil {
		tb.Fatal(err)
	}
	return NewRowScan(st, allCols(st), nil)
}

// decodeEmit is a scan's Next once the block's pages are in, minus the
// charges (which park the process): decode into the scratch, then filter
// and project.
func (s *ColumnScan) decodeEmit(ctx *Ctx, b int) (*table.Batch, error) {
	s.scratch.claim(ctx)
	read, err := s.decode(b, s.late, nil)
	if err != nil {
		return nil, err
	}
	return s.emit(ctx, b, read)
}

func (s *RowScan) decodeEmit(ctx *Ctx, b int) (*table.Batch, error) {
	s.scratch.claim(ctx)
	full, err := s.decode(b)
	if err != nil {
		return nil, err
	}
	return s.scratch.project(full, s.scratch.filter(ctx, full, s.Pred), s.Emit, s.schema), nil
}

// TestScanDecodeSteadyStateAllocs pins the point of the scan scratch: once
// a scan has decoded each block shape once, decoding a block — everything
// Next does after the block's pages are in, bar charging for it —
// allocates nothing, for int, float and dictionary columns and for numeric
// rows — also when a predicate keeps a few rows of every block and the
// column is decoded late, for those rows.
func TestScanDecodeSteadyStateAllocs(t *testing.T) {
	li := lineitemBlocks(t)
	ctx := benchCtx()
	steady := func(name string, nblocks int, decode func(b int) (*table.Batch, error)) {
		pass := func() {
			for b := 0; b < nblocks; b++ {
				if out, err := decode(b); err != nil {
					t.Fatalf("%s block %d: %v", name, b, err)
				} else if out.Rows() == 0 {
					t.Fatalf("%s block %d: no rows", name, b)
				}
			}
		}
		pass() // first block sizes the scratch; a dictionary column meets its domain
		if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
			t.Errorf("%s: %v allocs per %d-block pass in steady state, want 0", name, allocs, nblocks)
		}
	}
	for _, c := range decodeCases {
		scan, _ := columnDecodeScan(t, li, c, "", nil)
		steady("column/"+c.name, scan.ST.NumBlocks(), func(b int) (*table.Batch, error) { return scan.decodeEmit(ctx, b) })
		// Seventh lines: a few rows in a hundred, some in every block.
		late, _ := columnDecodeScan(t, li, c, "l_linenumber", &ColConst{Col: 0, Op: Eq, Val: table.IntVal(7)})
		steady("column/"+c.name+"/selective", late.ST.NumBlocks(), func(b int) (*table.Batch, error) { return late.decodeEmit(ctx, b) })
	}
	for _, codec := range []compress.Codec{compress.Raw, compress.LZ} {
		scan := rowDecodeScan(t, li, codec)
		steady("row/"+codec.Name(), scan.ST.NumBlocks(), func(b int) (*table.Batch, error) { return scan.decodeEmit(ctx, b) })
	}
}

// opaquePred hides a predicate's type, so predCols cannot tell its columns.
type opaquePred struct{ Pred }

// TestRowScanLeavesUnreadStringsUnmade: a row scan parses, but does not
// materialise, the string cells of the columns neither its predicate nor
// its projection reads. Over lineitem, with three string columns, numbers
// behind a numeric predicate decode without allocating; and every shape — strings emitted or filtered on, no
// predicate, a predicate whose columns are unknown — emits exactly what the
// same scan with every cell materialised does.
func TestRowScanLeavesUnreadStringsUnmade(t *testing.T) {
	li := tpch.Generate(0.002, 11).Tables["lineitem"]
	st, err := PlaceRowMajor(li, newRig(1).vol, 1, 700, compress.Raw)
	if err != nil {
		t.Fatal(err)
	}
	ctx := benchCtx()
	col := li.Schema.MustColIndex
	third := func() Pred { return &ColConst{Col: col("l_linenumber"), Op: Eq, Val: table.IntVal(3)} }
	for _, c := range []struct {
		name string
		emit []int
		pred Pred
	}{
		{"numbers", []int{col("l_orderkey"), col("l_extendedprice")}, third()},
		{"string emitted", []int{col("l_shipmode"), col("l_quantity")}, third()},
		{"string filtered", []int{col("l_orderkey")}, &ColConst{Col: col("l_returnflag"), Op: Eq, Val: table.StrVal("R")}},
		{"no predicate", []int{col("l_linestatus")}, nil},
		{"opaque predicate", []int{col("l_orderkey")}, opaquePred{&ColConst{Col: col("l_linestatus"), Op: Eq, Val: table.StrVal("F")}}},
	} {
		scan := NewRowScan(st, c.emit, c.pred)
		whole := NewRowScan(st, c.emit, c.pred)
		whole.unread = 0
		for b := range st.rows {
			got, err := scan.decodeEmit(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := whole.decodeEmit(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			got, want = got.Clone(), want.Clone()
			if got.Rows() != want.Rows() || got.Rows() == 0 {
				t.Fatalf("%s, block %d: %d rows, want %d (> 0)", c.name, b, got.Rows(), want.Rows())
			}
			for i := range want.Vecs {
				if !sameVector(got.Vecs[i], want.Vecs[i]) {
					t.Fatalf("%s, block %d: column %d differs from the fully materialised scan", c.name, b, i)
				}
			}
		}
	}

	scan := NewRowScan(st, []int{col("l_orderkey"), col("l_extendedprice")}, third())
	pass := func() {
		for b := range st.rows {
			if _, err := scan.decodeEmit(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Errorf("%v allocs per pass over lineitem emitting numbers, want 0", allocs)
	}
}
