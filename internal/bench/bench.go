// Package bench contains the experiment drivers that regenerate every
// figure in the paper's evaluation plus the ablations. Each RunX function
// is deterministic, returns a structured result, and renders a text table
// shaped like the paper's series; acceptance criteria live in the package
// tests.
package bench

import (
	"fmt"
	"strings"
)

// Table is a simple text table builder for experiment reports.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// Add appends one formatted row.
func (t *Table) Add(cells ...string) { t.rows = append(t.rows, cells) }

// Addf appends a row of fmt.Sprint-ed values.
func (t *Table) Addf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		if len(r) < len(t.header) {
			continue // footer/annotation rows do not set column widths
		}
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
