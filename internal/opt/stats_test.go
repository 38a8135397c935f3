package opt

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"energydb/internal/table"
	"energydb/internal/tpch"
)

// analyzeBoxed is the reference TestAnalyzeMatchesBoxed and FuzzAnalyze
// hold Analyze to: NDV counted by a Go map, whose equality makes ±0 one
// value, with every NaN counted as one value more, as grouping makes it.
func analyzeBoxed(t *table.Table) *TableStats {
	n := t.Rows()
	st := &TableStats{Rows: int64(n), Cols: make([]ColStats, len(t.Schema.Cols))}
	for ci := range t.Schema.Cols {
		v := t.Column(ci)
		var distinct int
		switch v.Type.Physical() {
		case table.PhysInt:
			seen := make(map[int64]struct{})
			for _, x := range v.I {
				seen[x] = struct{}{}
			}
			distinct = len(seen)
		case table.PhysFloat:
			seen, nan := make(map[float64]struct{}), 0
			for _, x := range v.F {
				if math.IsNaN(x) {
					nan = 1
				} else {
					seen[x] = struct{}{}
				}
			}
			distinct = len(seen) + nan
		default:
			seen := make(map[string]struct{})
			for _, x := range v.S {
				seen[x] = struct{}{}
			}
			distinct = len(seen)
		}
		st.Cols[ci] = ColStats{NDV: int64(max(distinct, 1))}
	}
	return st
}

// checkAnalyze fails t unless Analyze(tab) equals analyzeBoxed(tab).
func checkAnalyze(t *testing.T, tab *table.Table) {
	t.Helper()
	got, want := Analyze(tab), analyzeBoxed(tab)
	if got.Rows != want.Rows || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows, %d columns; want %d, %d", tab.Schema.Name, got.Rows, len(got.Cols), want.Rows, len(want.Cols))
	}
	for i, g := range got.Cols {
		if w := want.Cols[i]; g.NDV != w.NDV {
			t.Fatalf("%s.%s: NDV %d, want %d", tab.Schema.Name, tab.Schema.Cols[i].Name, g.NDV, w.NDV)
		}
	}
}

// fuzzTable reads data as 8-byte words, one row each, into columns of
// every physical class: the word as an int, as a small signed int, as the
// bits of a float and as a date, a float from a small domain of the
// awkward values, and a short NUL-prone string cut from the word's bytes.
func fuzzTable(data []byte) *table.Table {
	s := table.NewSchema("fuzz",
		table.Col("i", table.Int64),
		table.Col("small", table.Int64),
		table.Col("bits", table.Float64),
		table.Col("awkward", table.Float64),
		table.Col("s", table.String),
		table.Col("d", table.Date),
	)
	awkward := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1), 0.5}
	tab := table.NewTable(s)
	for off := 0; off+8 <= len(data); off += 8 {
		w := binary.LittleEndian.Uint64(data[off:])
		tab.AppendRow(
			table.IntVal(int64(w)),
			table.IntVal(int64(int8(w))),
			table.FloatVal(math.Float64frombits(w)),
			table.FloatVal(awkward[w>>61]),
			table.StrVal(string(data[off:off+int(w>>61)])),
			table.DateVal(int64(w>>60)-8),
		)
	}
	return tab
}

// words is the little-endian image of ws, a fuzzTable input.
func words(ws ...uint64) []byte {
	var out []byte
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// TestAnalyzeMatchesBoxed holds Analyze to analyzeBoxed over every TPC-H
// table at SF 0.01, a table of the values statistics are likeliest to get
// wrong, an empty table and a column of 100 000 distinct ints.
func TestAnalyzeMatchesBoxed(t *testing.T) {
	gen := tpch.Generate(0.01, 42)
	for _, tab := range gen.Tables {
		checkAnalyze(t, tab)
	}

	s := table.NewSchema("adversarial",
		table.Col("i", table.Int64),
		table.Col("f", table.Float64),
		table.Col("zeros", table.Float64),
		table.Col("s", table.String),
		table.Col("d", table.Date),
	)
	adv := table.NewTable(s)
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, -1, math.MinInt64, 0}
	floats := []float64{nan, negZero, 0, 1.5, nan, math.Inf(-1), math.Inf(1), nan}
	zeros := []float64{negZero, 0, nan, 2, negZero, 0, -3, nan}
	strs := []string{"", "\x00", "a\x00b", strings.Repeat("x", 200), "", "\x00\x00", "a\x00b", "a"}
	for i := range ints {
		adv.AppendRow(table.IntVal(ints[i]), table.FloatVal(floats[i]), table.FloatVal(zeros[i]),
			table.StrVal(strs[i]), table.DateVal(ints[len(ints)-1-i]))
	}
	checkAnalyze(t, adv)
	// By hand: ±0 is one value and so is every NaN.
	st := Analyze(adv)
	if st.Cols[0].NDV != 5 || st.Cols[1].NDV != 5 || st.Cols[2].NDV != 4 {
		t.Errorf("adversarial: NDV %d/%d/%d, want 5/5/4", st.Cols[0].NDV, st.Cols[1].NDV, st.Cols[2].NDV)
	}

	checkAnalyze(t, table.NewTable(s))

	distinct := table.NewTable(table.NewSchema("distinct", table.Col("k", table.Int64)))
	for i := int64(0); i < 100_000; i++ {
		distinct.AppendRow(table.IntVal((i * 7919) % 100_000 * -3))
	}
	checkAnalyze(t, distinct)
	if st := Analyze(distinct); st.Cols[0].NDV != 100_000 {
		t.Errorf("distinct: NDV %d, want 100000", st.Cols[0].NDV)
	}
}

// FuzzAnalyze holds Analyze to analyzeBoxed over fuzzTable's columns.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{})
	f.Add(words(0, 1<<63, math.Float64bits(math.NaN()), 1<<63|math.Float64bits(math.NaN()), 0x7ff0000000000001))
	f.Add(words(1<<61, 2<<61, 1<<61, 0, 1<<63, 7<<61))
	f.Add(words(0xffffffffffffffff, 0x8000000000000000, 0x7fffffffffffffff, 0xffffffffffffffff))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAnalyze(t, fuzzTable(data))
	})
}

// BenchmarkAnalyze computes the statistics of every TPC-H table at SF 0.01,
// what placing a loaded database adds to the encoding.
func BenchmarkAnalyze(b *testing.B) {
	gen := tpch.Generate(0.01, 42)
	names := make([]string, 0, len(gen.Tables))
	for name := range gen.Tables {
		names = append(names, name)
	}
	slices.Sort(names)
	b.ReportAllocs()
	for b.Loop() {
		for _, name := range names {
			Analyze(gen.Tables[name])
		}
	}
}
