package exec

import (
	"fmt"
	"slices"

	"energydb/internal/compress"
	"energydb/internal/storage"
	"energydb/internal/table"
)

// TableLayout selects the physical organisation of a stored table — the
// paper's first "future direction" (§5.1 physical database design).
type TableLayout int

const (
	// RowMajor stores complete tuples in slotted blocks (the classic
	// N-ary layout); scans must read every column.
	RowMajor TableLayout = iota
	// ColumnMajor stores each column in its own block sequence, each
	// independently compressed; scans read only projected columns.
	ColumnMajor
)

func (l TableLayout) String() string {
	if l == RowMajor {
		return "row"
	}
	return "column"
}

// block is one placed unit: a row range encoded to real bytes and mapped
// to a contiguous page range on the volume.
type block struct {
	lo, hi  int // row range [lo, hi)
	enc     []byte
	rawSize int64 // pre-compression byte size
	byteLo  int64 // volume byte extent [byteLo, byteHi)
	byteHi  int64
}

// StoredTable is a table placed onto a simulated volume: the encoding is
// real (codecs actually ran, sizes are measured), the pages are charged on
// the volume when scanned.
type StoredTable struct {
	Tab       *table.Table
	Vol       *storage.Volume
	Layout    TableLayout
	FileID    int32
	BlockRows int

	// Codecs holds the per-column codec for ColumnMajor placements; for
	// RowMajor placements RowCodec compresses whole blocks.
	Codecs   []compress.Codec
	RowCodec compress.Codec

	cols [][]block // [column][block], ColumnMajor
	rows []block   // RowMajor
}

// PlaceColumnMajor encodes t column-by-column in blocks of blockRows rows,
// compresses each block with the column's codec, and allocates contiguous
// volume pages per column. A Raw block is its image, written straight into
// a slice of its size; a StringEncoder (Dict) encodes a string column's
// values with no image; other codecs encode the image, kept block to block.
func PlaceColumnMajor(t *table.Table, vol *storage.Volume, fileID int32, blockRows int, codecs []compress.Codec) (*StoredTable, error) {
	if len(codecs) != len(t.Schema.Cols) {
		return nil, fmt.Errorf("exec: %d codecs for %d columns", len(codecs), len(t.Schema.Cols))
	}
	if blockRows <= 0 {
		return nil, fmt.Errorf("exec: blockRows = %d", blockRows)
	}
	st := &StoredTable{
		Tab: t, Vol: vol, Layout: ColumnMajor, FileID: fileID,
		BlockRows: blockRows, Codecs: codecs,
		cols: make([][]block, len(t.Schema.Cols)),
	}
	n := t.Rows()
	var raw, buf []byte // wire image and encoder output, reused block to block
	for ci, codec := range codecs {
		v := t.Column(ci)
		strs, isStrs := codec.(compress.StringEncoder)
		for lo := 0; lo < n; lo += blockRows {
			hi := lo + blockRows
			if hi > n {
				hi = n
			}
			rawSize := v.ByteSize(lo, hi)
			var enc []byte
			switch {
			case codec == compress.Raw:
				enc = v.EncodeBytes(make([]byte, 0, rawSize), lo, hi)
			case isStrs && v.Type.Physical() == table.PhysString:
				buf = strs.EncodeStrings(buf[:0], v.S[lo:hi])
				enc = slices.Clone(buf)
			default:
				raw = v.EncodeBytes(slices.Grow(raw[:0], int(rawSize)), lo, hi)
				buf = codec.Encode(buf[:0], raw)
				enc = slices.Clone(buf)
			}
			st.cols[ci] = append(st.cols[ci], st.place(lo, hi, enc, rawSize))
		}
	}
	return st, nil
}

// place maps a block's encoded bytes, exactly sized, to the next extent.
func (st *StoredTable) place(lo, hi int, enc []byte, rawSize int64) block {
	off := st.Vol.AllocExtent(int64(len(enc)))
	return block{lo: lo, hi: hi, enc: enc, rawSize: rawSize, byteLo: off, byteHi: off + int64(len(enc))}
}

// PlaceRowMajor encodes t row-by-row in blocks of blockRows rows,
// compresses each block with codec, and allocates contiguous pages. A Raw
// block is its row image, written straight into a slice of its size.
func PlaceRowMajor(t *table.Table, vol *storage.Volume, fileID int32, blockRows int, codec compress.Codec) (*StoredTable, error) {
	if blockRows <= 0 {
		return nil, fmt.Errorf("exec: blockRows = %d", blockRows)
	}
	if codec == nil {
		codec = compress.Raw
	}
	st := &StoredTable{
		Tab: t, Vol: vol, Layout: RowMajor, FileID: fileID,
		BlockRows: blockRows, RowCodec: codec,
	}
	n := t.Rows()
	var raw, buf []byte // wire image and encoder output, reused block to block
	for lo := 0; lo < n; lo += blockRows {
		hi := lo + blockRows
		if hi > n {
			hi = n
		}
		b := t.Slice(lo, hi)
		rawSize := b.ByteSize()
		var enc []byte
		if codec == compress.Raw {
			enc = b.EncodeRows(make([]byte, 0, rawSize), 0, b.Rows())
		} else {
			raw = b.EncodeRows(slices.Grow(raw[:0], int(rawSize)), 0, b.Rows())
			buf = codec.Encode(buf[:0], raw)
			enc = slices.Clone(buf)
		}
		st.rows = append(st.rows, st.place(lo, hi, enc, rawSize))
	}
	return st, nil
}

// blockSpan reports the row range [lo, hi) of block b — the placement's
// cardinality metadata, available even when a scan reads no columns.
func (st *StoredTable) blockSpan(b int) (lo, hi int) {
	if st.Layout == RowMajor {
		return st.rows[b].lo, st.rows[b].hi
	}
	blk := st.cols[0][b]
	return blk.lo, blk.hi
}

// NumBlocks reports the block count (per column for ColumnMajor — all
// columns have the same count).
func (st *StoredTable) NumBlocks() int {
	if st.Layout == RowMajor {
		return len(st.rows)
	}
	if len(st.cols) == 0 {
		return 0
	}
	return len(st.cols[0])
}

// EncodedBytes reports the total on-volume bytes (all columns).
func (st *StoredTable) EncodedBytes() int64 {
	var n int64
	if st.Layout == RowMajor {
		for _, b := range st.rows {
			n += int64(len(b.enc))
		}
		return n
	}
	for _, col := range st.cols {
		for _, b := range col {
			n += int64(len(b.enc))
		}
	}
	return n
}

// RawBytes reports the total pre-compression bytes.
func (st *StoredTable) RawBytes() int64 {
	var n int64
	if st.Layout == RowMajor {
		for _, b := range st.rows {
			n += b.rawSize
		}
		return n
	}
	for _, col := range st.cols {
		for _, b := range col {
			n += b.rawSize
		}
	}
	return n
}

// ColEncodedBytes reports the on-volume bytes of one column
// (ColumnMajor only).
func (st *StoredTable) ColEncodedBytes(ci int) int64 {
	var n int64
	for _, b := range st.cols[ci] {
		n += int64(len(b.enc))
	}
	return n
}

// ColRawBytes reports the pre-compression bytes of one column
// (ColumnMajor only).
func (st *StoredTable) ColRawBytes(ci int) int64 {
	var n int64
	for _, b := range st.cols[ci] {
		n += b.rawSize
	}
	return n
}

// CompressionRatio reports encoded/raw across the whole table.
func (st *StoredTable) CompressionRatio() float64 {
	raw := st.RawBytes()
	if raw == 0 {
		return 1
	}
	return float64(st.EncodedBytes()) / float64(raw)
}
