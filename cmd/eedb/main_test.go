package main

import (
	"strings"
	"testing"

	"energydb/internal/table"
)

// TestPrintRowsSeparatesColumns: every cell starts where its column's
// header does, two spaces or more after the cell to its left, however wide
// the cells are. A fixed 18-character field ran a wider cell into the next
// column: an EXPLAIN detail "… rows≈25" followed by dop 1 read "rows≈251".
func TestPrintRowsSeparatesColumns(t *testing.T) {
	s := table.NewSchema("explain",
		table.ColW("op", table.String, 32),
		table.ColW("detail", table.String, 64),
		table.Col("dop", table.Int64),
		table.Col("est_ms", table.Float64),
		table.Col("est_joules", table.Float64))
	tab := table.NewTable(s)
	tab.AppendRow(table.StrVal("project"), table.StrVal("2 exprs"), table.IntVal(1),
		table.FloatVal(1.3784269284137403), table.FloatVal(0.022060399654619842))
	tab.AppendRow(table.StrVal("  nl join"), table.StrVal("on L.0 = R.1 rows≈25"), table.IntVal(1),
		table.FloatVal(1.3781869284137402), table.FloatVal(0.02205775965461984))
	tab.AppendRow(table.StrVal("          hash join"), table.StrVal("on L.0 = R.0 rows≈15000"), table.IntVal(8),
		table.FloatVal(2.362256759344363), table.FloatVal(0.0430761081495098))

	var out strings.Builder
	printRows(&out, tab.Slice(0, tab.Rows()))
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 1+tab.Rows() {
		t.Fatalf("%d lines, want a header and %d rows:\n%s", len(lines), tab.Rows(), out.String())
	}
	starts := make([]int, len(s.Cols))
	for c, col := range s.Cols {
		starts[c] = strings.Index(lines[0], col.Name) // the header is ASCII: bytes are runes
	}
	for r := 0; r < tab.Rows(); r++ {
		line := []rune(lines[1+r])
		for c, v := range tab.Slice(r, r+1).Row(0) {
			cell := []rune(v.String())
			at := starts[c]
			if at+len(cell) > len(line) || string(line[at:at+len(cell)]) != string(cell) ||
				c > 0 && string(line[at-2:at]) != "  " {
				t.Fatalf("row %d: cell %q is not at column %q's offset %d, two spaces after the cell before it:\n%s",
					r, string(cell), s.Cols[c].Name, at, out.String())
			}
		}
	}
}
