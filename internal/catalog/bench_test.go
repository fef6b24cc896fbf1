package catalog

import (
	"io"
	"runtime"
	"testing"
)

// BenchmarkCatalogParse measures the parse+transform cost per catalog line —
// the client-side work of §3 (type conversion, precision adjustment, derived
// htmid/unit-vector computation) that precedes buffering.
func BenchmarkCatalogParse(b *testing.B) {
	schema := NewSchema()
	tr := NewTransformer(schema)
	file := Generate(GenSpec{SizeMB: 10, Seed: 1})
	lines := make([]string, len(file.Records))
	for i, rec := range file.Records {
		lines[i] = rec.Format()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := ParseLine(lines[i%len(lines)], i+1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Transform(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteNight generates a fixed-seed 100k-row night of four files and
// writes it to io.Discard, the work behind every generated catalog on disk
// (skygen, the benchmark's input set-up).  It reports the cost per generated
// row: wall time and allocations.
func BenchmarkWriteNight(b *testing.B) {
	spec := NightSpec{TotalMB: 1000, Files: 4, Seed: 7, ErrorRate: 0.002, RunID: 1}
	b.ReportAllocs()
	var rows int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range GenerateNight(spec) {
			if _, err := f.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
			rows += f.DataRows
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rows), "allocs/row")
}
