// Package report renders the fixed-width text tables and the schedule
// Gantt charts of the experiment harness and the CLI.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped,
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}
