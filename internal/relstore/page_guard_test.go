package relstore_test

import (
	"testing"

	"skyloader/internal/arrayset"
	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// TestPageEncodingGuards pins, on the guard night loaded by one writer and
// by two (loadTwoWriterNight), what closed heap pages hold: bytes per row of
// the largest tables, no slot directory on any page of a table without a
// string column and a layout of its own on each of its closed pages, column
// streams no wider than their values need and split exactly where a split is
// narrower (Table.CheckPageStreams), and TableStat.ResidentBytes counting
// those layouts where they are held.
func TestPageEncodingGuards(t *testing.T) {
	// Closed-page bytes per row, measured + 5 %.  One writer: 27.25 and 9.70
	// here as bit streams split where two clusters are narrower (28.2 and
	// 9.9 with one base a stream), 42.6 and 15.2 as byte-wide deltas with a
	// NULL bitmap per row, where a wide record and its slot-directory entry
	// were 106 + 4 and 49 + 4 bytes.  Two writers: 29.28, 9.79, 5.56 and
	// 8.20 (34.80, 13.25, 9.46 and 10.91 with one base a stream).
	for _, load := range []struct {
		name     string
		db       *relstore.DB
		ceilings map[string]float64
	}{
		{"one writer", loadGuardNight(t, tuning.NoIndexes, relstore.IndexImmediate), map[string]float64{
			catalog.TObjects:       28.6,
			catalog.TObjectFingers: 10.2,
		}},
		{"two writers", loadTwoWriterNight(t), map[string]float64{
			catalog.TObjects:         30.7,
			catalog.TObjectFingers:   10.3,
			catalog.TObjectApertures: 5.84,
			catalog.TFrameApertures:  8.61,
		}},
	} {
		for _, ts := range load.db.StatsSnapshot().Tables {
			tbl := load.db.Table(ts.Name)
			tbl.CheckPageStreams(t)
			g := tbl.PageGeometry()
			if g.HeapBytes+ts.RowDirBytes+ts.KeyIndexBytes != ts.ResidentBytes {
				t.Errorf("%s %s: pages hold %d bytes, directory %d, key indexes %d; stats say %d resident", load.name, ts.Name, g.HeapBytes, ts.RowDirBytes, ts.KeyIndexBytes, ts.ResidentBytes)
			}
			strs := false
			for _, c := range tbl.Schema().Columns {
				strs = strs || c.Type == relstore.TypeString
			}
			if !strs && (g.WithOffs != 0 || g.OwnLayouts != g.ClosedPages) {
				t.Errorf("%s %s has no string column, yet %d of %d pages keep offs and %d of %d closed pages carry their own layout", load.name, ts.Name, g.WithOffs, g.Pages, g.OwnLayouts, g.ClosedPages)
			}
			if strs && (g.WithOffs != g.Pages || g.OwnLayouts != 0) {
				t.Errorf("%s %s has a string column, yet %d of %d pages keep offs and %d carry their own layout", load.name, ts.Name, g.WithOffs, g.Pages, g.OwnLayouts)
			}
			ceiling, pinned := load.ceilings[ts.Name]
			if !pinned {
				continue
			}
			floor := 2_000
			if ts.Name == catalog.TFrameApertures {
				floor = 700 // the night's 744 frame-aperture rows fill four pages
			}
			if g.ClosedRows < floor {
				t.Fatalf("%s %s: %d rows on closed pages", load.name, ts.Name, g.ClosedRows)
			}
			perRow := float64(g.ClosedBytes) / float64(g.ClosedRows)
			t.Logf("%s %s: %d rows on %d closed pages, %.2f bytes per row (%d layout bytes in all), %.1f nominal bytes per row",
				load.name, ts.Name, g.ClosedRows, g.ClosedPages, perRow, g.LayoutBytes, float64(ts.NominalBytes)/float64(ts.Rows))
			if perRow > ceiling {
				t.Errorf("%s %s: closed pages hold %.2f bytes per row, ceiling %.2f", load.name, ts.Name, perRow, ceiling)
			}
		}
	}
}

// loadTwoWriterNight loads the guard night as two loaders at batch size 40
// leave it: one writer takes the even files and the other the odd ones, each
// buffers its rows in an array set of 1000 rows a table and sends every flush
// cycle's arrays, parents first, in 40-row InsertBatch chunks, and the two
// writers' Txns take turns chunk by chunk on one goroutine, so the two files'
// rows interleave on every heap page.
func loadTwoWriterNight(t *testing.T) *relstore.DB {
	t.Helper()
	schema := catalog.NewSchema()
	db, err := relstore.Open(schema, relstore.WithConfig(tuning.ProductionLoading().DBConfig()))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(seed, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	var chunks [2][]*arrayset.Array
	for i, f := range guardNight() {
		chunks[i%2] = append(chunks[i%2], loaderChunks(t, schema, f)...)
	}
	var txns [2]*relstore.Txn
	for w := range txns {
		if txns[w], err = db.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < max(len(chunks[0]), len(chunks[1])); k++ {
		for w, txn := range txns {
			if k >= len(chunks[w]) {
				continue
			}
			c := chunks[w][k]
			if _, err := txn.InsertBatch(c.Table, c.Columns, c.Rows); err != nil {
				t.Fatalf("writer %d, %s chunk %d: %v", w, c.Table, k, err)
			}
		}
	}
	for _, txn := range txns {
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// loaderChunks returns the InsertBatch calls a loader at array size 1000 and
// batch size 40 makes for file f: each flush cycle's arrays in flush order,
// cut into 40-row chunks.
func loaderChunks(t *testing.T, schema *relstore.Schema, f *catalog.File) []*arrayset.Array {
	t.Helper()
	tr := catalog.NewTransformer(schema)
	set := arrayset.MustNew(schema, arrayset.DefaultConfig())
	var out []*arrayset.Array
	flush := func() {
		for _, arr := range set.Drain() {
			for at := 0; at < arr.Len(); at += 40 {
				out = append(out, &arrayset.Array{Table: arr.Table, Columns: arr.Columns, Rows: arr.Rows[at:min(at+40, arr.Len())]})
			}
		}
	}
	for _, rec := range f.Records {
		row, err := tr.Transform(rec)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := set.Add(row.Table, row.Columns, row.Values, rec.Line)
		if err != nil {
			t.Fatal(err)
		}
		if full {
			flush()
		}
	}
	flush()
	return out
}
