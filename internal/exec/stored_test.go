package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// placementDigest is the sha256 TestPlacementBytesPinned takes over what
// placement writes, recorded before placement stopped going through a
// block's byte image for Raw and Dict blocks. Every stored byte, block
// extent and raw size must stay as it was.
const placementDigest = "2dfdf0fef693706284cfcdc00fb2fa5578ed36d566b768d8c8579290f7126b87"

// adversarialTable holds the values an encoder is likeliest to get wrong:
// a leading and a later NaN, ±0 and infinities, the int64 extremes and −1,
// and empty, NUL-bearing and long (two-byte length prefix) strings.
func adversarialTable() *table.Table {
	s := table.NewSchema("adversarial",
		table.Col("i", table.Int64),
		table.Col("f", table.Float64),
		table.Col("s", table.String),
		table.Col("d", table.Date),
	)
	t := table.NewTable(s)
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, -1, math.MinInt64, 7}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, math.NaN(), math.Inf(-1), math.Inf(1), -2.25}
	strs := []string{"", "\x00", "a\x00b", strings.Repeat("x", 200), "", "\x00\x00", "a\x00b", "z"}
	for i := range ints {
		t.AppendRow(table.IntVal(ints[i]), table.FloatVal(floats[i]), table.StrVal(strs[i]), table.DateVal(int64(i)-3))
	}
	return t
}

// TestPlacementBytesPinned holds every block placement writes — its bytes,
// raw size, row range and volume extent — to a digest, for the three
// layouts the engine places (col/default, col/raw, row/raw) over every
// TPC-H table at SF 0.01 and over adversarialTable in blocks of 3 rows.
func TestPlacementBytesPinned(t *testing.T) {
	gen := tpch.Generate(0.01, 42)
	names := make([]string, 0, len(gen.Tables))
	for name := range gen.Tables {
		names = append(names, name)
	}
	slices.Sort(names)
	type load struct {
		tab       *table.Table
		blockRows int
	}
	loads := []load{{adversarialTable(), 3}}
	for _, name := range names {
		loads = append(loads, load{gen.Tables[name], 8192})
	}

	vol := newRig(2).vol
	h := sha256.New()
	word := func(x int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x))) }
	blocks := func(bs []block) {
		word(int64(len(bs)))
		for _, b := range bs {
			word(int64(b.lo))
			word(int64(b.hi))
			word(b.rawSize)
			word(b.byteLo)
			word(b.byteHi)
			word(int64(len(b.enc)))
			h.Write(b.enc)
		}
	}
	for i, l := range loads {
		h.Write([]byte(l.tab.Schema.Name))
		fileID := int32(3 * i)
		colDef, err := PlaceColumnMajor(l.tab, vol, fileID, l.blockRows, tpch.DefaultCodecs(l.tab.Schema))
		if err != nil {
			t.Fatal(err)
		}
		colRaw, err := PlaceColumnMajor(l.tab, vol, fileID+1, l.blockRows, tpch.RawCodecs(l.tab.Schema))
		if err != nil {
			t.Fatal(err)
		}
		rowRaw, err := PlaceRowMajor(l.tab, vol, fileID+2, l.blockRows, compress.Raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []*StoredTable{colDef, colRaw} {
			for _, col := range st.cols {
				blocks(col)
			}
		}
		blocks(rowRaw.rows)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != placementDigest {
		t.Errorf("placement digest = %s, want %s", got, placementDigest)
	}
}
