package metrics

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{
		Title:   "Sample",
		Columns: []string{"size_mb", "runtime_s", "label"},
		Notes:   []string{"a note"},
	}
	t.AddRow(200.0, 307.5, "bulk")
	t.AddRow(400, 612.123456, "non,bulk")
	return t
}

func TestTableRender(t *testing.T) {
	tbl := sampleTable()
	out := tbl.String()
	for _, want := range []string{"Sample", "size_mb", "307.500", "612.123", "note: a note", "bulk"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, header, separator, two rows, one note.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := sampleTable()
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "size_mb,runtime_s,label" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], `"non,bulk"`) {
		t.Fatalf("comma not quoted: %q", lines[2])
	}
}

// column extracts a numeric column of tbl by name; non-numeric cells are
// skipped.
func column(tbl *Table, name string) []float64 {
	idx := slices.Index(tbl.Columns, name)
	if idx < 0 {
		return nil
	}
	var out []float64
	for _, row := range tbl.Rows {
		var v float64
		if idx < len(row) {
			if _, err := fmt.Sscanf(row[idx], "%f", &v); err == nil {
				out = append(out, v)
			}
		}
	}
	return out
}

func TestTableColumn(t *testing.T) {
	tbl := sampleTable()
	col := column(tbl, "runtime_s")
	if len(col) != 2 || math.Abs(col[0]-307.5) > 1e-9 {
		t.Fatalf("Column = %v", col)
	}
	if column(tbl, "missing") != nil {
		t.Fatal("missing column should return nil")
	}
}

func TestRatioAndPercent(t *testing.T) {
	if Ratio(10, 2) != 5 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio broken")
	}
	if PercentChange(110, 100) != 10 || PercentChange(5, 0) != 0 {
		t.Fatal("PercentChange broken")
	}
}
