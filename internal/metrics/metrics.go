// Package metrics provides small result-reporting helpers shared by the
// experiment harness, the benchmarks and the command-line tools: numeric
// series, result tables with text and CSV rendering, and latency histograms
// with their Prometheus text rendering.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rectangular result table, one row per parameter setting.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are free-form lines printed under the table (calibration
	// caveats, scaling factors, etc.).
	Notes []string
}

// AddRow appends a row; values are formatted with %v, floats with 3 decimals.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case float32:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  note: " + n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// CSV writes the table in comma-separated form (title and notes omitted).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(csvLine(t.Columns))
	for _, row := range t.Rows {
		b.WriteString(csvLine(row))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvLine(cells []string) string {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		out[i] = c
	}
	return strings.Join(out, ",") + "\n"
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Ratio returns a/b, or 0 when b is 0 — a convenience for speedup columns.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PercentChange returns (x-base)/base in percent, or 0 when base is 0.
func PercentChange(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base * 100
}
