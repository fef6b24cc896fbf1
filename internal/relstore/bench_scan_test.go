package relstore_test

import (
	"math"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
)

// BenchmarkScanRef is a full scan of a generated night's objects that decodes
// mag, as queries.MagnitudeHistogram does: the heap's page walk and a NULL
// test and a Float per row, almost all of them on closed narrow pages.
func BenchmarkScanRef(b *testing.B) {
	schema := catalog.NewSchema()
	tr := catalog.NewTransformer(schema)
	db := relstore.MustOpen(schema)
	txn, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 16); err != nil {
		b.Fatal(err)
	}
	for _, f := range catalog.GenerateNight(catalog.NightSpec{TotalMB: 800, RowsPerMB: 100, Seed: 7, RunID: 1, Files: 4}) {
		for _, rec := range f.Records {
			row, err := tr.Transform(rec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Insert(row.Table, row.Columns, row.Values); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	mag := schema.Table(catalog.TObjects).ColumnIndex("mag")
	rows, sum := 0, 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.ScanRef(catalog.TObjects, func(v relstore.RowView) bool {
			if !v.IsNull(mag) {
				sum += math.Floor(v.Float(mag) / 0.5)
			}
			rows++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}
