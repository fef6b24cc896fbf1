package relstore_test

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// TestPageEncodingGuards pins, on the guard night, what closed heap pages
// hold: bytes per row of the two largest tables, no slot directory on any
// page of a table without a string column and a layout of its own on each of
// its closed pages, column streams no wider than their values need
// (Table.CheckPageStreams), and TableStat.ResidentBytes counting those
// layouts where they are held.
func TestPageEncodingGuards(t *testing.T) {
	// Closed-page bytes per row, measured + 5 %: 28.3 and 10.0 here as bit
	// streams, 42.6 and 15.2 as byte-wide deltas with a NULL bitmap per row,
	// where a wide record and its slot-directory entry were 106 + 4 and 49 + 4
	// bytes.
	ceilings := map[string]float64{
		catalog.TObjects:       29.8,
		catalog.TObjectFingers: 10.5,
	}
	db := loadGuardNight(t, tuning.NoIndexes, relstore.IndexImmediate)
	for _, ts := range db.StatsSnapshot().Tables {
		tbl := db.Table(ts.Name)
		tbl.CheckPageStreams(t)
		g := tbl.PageGeometry()
		if g.HeapBytes+ts.RowDirBytes+ts.KeyIndexBytes != ts.ResidentBytes {
			t.Errorf("%s: pages hold %d bytes, directory %d, key indexes %d; stats say %d resident", ts.Name, g.HeapBytes, ts.RowDirBytes, ts.KeyIndexBytes, ts.ResidentBytes)
		}
		strs := false
		for _, c := range tbl.Schema().Columns {
			strs = strs || c.Type == relstore.TypeString
		}
		if !strs && (g.WithOffs != 0 || g.OwnLayouts != g.ClosedPages) {
			t.Errorf("%s has no string column, yet %d of %d pages keep offs and %d of %d closed pages carry their own layout", ts.Name, g.WithOffs, g.Pages, g.OwnLayouts, g.ClosedPages)
		}
		if strs && (g.WithOffs != g.Pages || g.OwnLayouts != 0) {
			t.Errorf("%s has a string column, yet %d of %d pages keep offs and %d carry their own layout", ts.Name, g.WithOffs, g.Pages, g.OwnLayouts)
		}
		ceiling, pinned := ceilings[ts.Name]
		if !pinned {
			continue
		}
		if g.ClosedRows < 2_000 {
			t.Fatalf("%s: %d rows on closed pages", ts.Name, g.ClosedRows)
		}
		perRow := float64(g.ClosedBytes) / float64(g.ClosedRows)
		t.Logf("%s: %d rows on %d closed pages, %.2f bytes per row (%d layout bytes in all), %.1f nominal bytes per row",
			ts.Name, g.ClosedRows, g.ClosedPages, perRow, g.LayoutBytes, float64(ts.NominalBytes)/float64(ts.Rows))
		if perRow > ceiling {
			t.Errorf("%s: closed pages hold %.2f bytes per row, ceiling %.1f", ts.Name, perRow, ceiling)
		}
	}
}
