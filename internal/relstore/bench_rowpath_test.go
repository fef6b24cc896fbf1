package relstore

import (
	"math/rand"
	"testing"
)

// BenchmarkInsertRow measures one row through Txn.Insert — a one-row batch:
// coercion, foreign-key probe, constraint checks, heap append, PK/unique hash
// maintenance and the secondary index pass, with no WAL.  This is the per-row
// cost the paper's array-set batching exists to amortize.
func BenchmarkInsertRow(b *testing.B) {
	db := fingersDB(b, int64(b.N)/64+1)
	txn, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	row := make([]Value, len(fingerCols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerRow(row, int64(i), 64)
		if _, err := txn.Insert("fingers", fingerCols, row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeKey measures primary-key encoding, the string the PK and
// unique hash maps are keyed by.
func BenchmarkEncodeKey(b *testing.B) {
	key := []Value{Int(123456789), Float(53600.5)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if EncodeKey(key) == "" {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkAppendKey measures the scratch-buffer encoding path used by the
// insert hot path (no result-string materialization).
func BenchmarkAppendKey(b *testing.B) {
	key := []Value{Int(123456789), Float(53600.5)}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendKey(buf[:0], key)
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// benchRowPathDB commits rows fingers (about 200 to a page, so a thousand id
// runs in the row directory) for the read-path benchmarks below.
func benchRowPathDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := fingersDB(b, int64(rows)/4096+1)
	txn, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	row := make([]Value, len(fingerCols))
	for i := 0; i < rows; i++ {
		fingerRow(row, int64(i), 4096)
		if _, err := txn.Insert("fingers", fingerCols, row); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkLookupByPKRef is one primary-key probe end to end: hash, tag
// match, row directory, page, key compare, visitor.  With RangeIndexedRef it
// is where a slower rowDir.get shows (PERFORMANCE.md: 6 ns for an array, 5
// for the scaled try, 75 for a binary search over the runs).
func BenchmarkLookupByPKRef(b *testing.B) {
	const rows = 200_000
	db := benchRowPathDB(b, rows)
	key := []Value{Int(0)}
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0].I = int64(i*7919) % rows
		found, err := db.LookupByPKRef("fingers", key, func(v RowView) { sum += v.Int(1) })
		if err != nil || !found {
			b.Fatalf("lookup %d: found %v, %v", key[0].I, found, err)
		}
	}
}

// BenchmarkRangeIndexedRef walks a secondary-index range whose candidates are
// scattered over the whole heap (every 4096th row), so each one is a row
// directory probe far from the last.
func BenchmarkRangeIndexedRef(b *testing.B) {
	const rows = 200_000
	db := benchRowPathDB(b, rows)
	from, to := []Value{Float(0)}, []Value{Float(0)}
	visited := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from[0].F = float64(i % 4096)
		to[0].F = from[0].F
		err := db.RangeIndexedRef("fingers", "ix_flux", from, to, func(v RowView) bool { visited++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(visited)/float64(b.N), "rows/op")
}

// BenchmarkFKProbe inserts batches of 256 fingers, each probing its parent
// object through the foreign key, over 65,536 objects whose primary keys the
// index holds in runs (loaded in step with their row ids) or in its tag table
// (loaded in a shuffled order).  A probe a run answers reads no parent row;
// one the tag table answers reads the row its tag matches.
func BenchmarkFKProbe(b *testing.B) {
	const objects, batch = 1 << 16, 256
	for _, shape := range []string{"runs", "tags"} {
		b.Run(shape, func(b *testing.B) {
			ids := make([]int, objects)
			for i := range ids {
				ids[i] = i
			}
			if shape == "tags" {
				rand.New(rand.NewSource(7)).Shuffle(objects, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			db := MustOpen(testSchema(b))
			txn, _ := db.Begin()
			if _, err := txn.Insert("frames", []string{"frame_id"}, []Value{Int(0)}); err != nil {
				b.Fatal(err)
			}
			for _, o := range ids {
				if _, err := txn.Insert("objects", []string{"object_id", "frame_id", "mag"}, []Value{Int(int64(o)), Int(0), Float(20)}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
			if pk := db.Table("objects").pk; (pk.inRuns == objects) != (shape == "runs") {
				b.Fatalf("%s: %d of %d object keys in runs", shape, pk.inRuns, objects)
			}
			rows := make([][]Value, batch)
			for j := range rows {
				rows[j] = make([]Value, len(fingerCols))
			}
			txn, _ = db.Begin()
			next := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					row[0], row[1], row[2] = Int(next), Int(next*7919%objects), Float(float64(next))
					next++
				}
				if _, err := txn.InsertBatch("fingers", fingerCols, rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
		})
	}
}
