package arrayset

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
)

// BenchmarkArraySetAddFlush measures the steady-state client-side buffering
// cost per row as the loader pays it: one scratch row copied in by Add, and
// the periodic Drain + Recycle that ends each flush cycle (paper §4.3) and
// hands the arrays' buffers to the next.
func BenchmarkArraySetAddFlush(b *testing.B) {
	schema := catalog.NewSchema()
	set, err := New(schema, Config{ArraySize: 1000})
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"object_id", "frame_id", "ra", "dec", "mag"}
	vals := []relstore.Value{relstore.Int(0), relstore.Int(1), relstore.Float(10.0), relstore.Float(10.0), relstore.Float(18.0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = relstore.Int(int64(i))
		full, _, err := set.Add(catalog.TObjects, cols, vals, i)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			set.Recycle(set.Drain())
		}
	}
}
