package relstore

import (
	"math/rand"
	"testing"
)

// batchBenchSchema mirrors the shape of the catalog's objects table as the
// Figure 8 experiment loads it: integer primary key, foreign key to a parent
// table, a single-integer htmid index and the composite three-float
// (ra, dec, mag) index whose maintenance dominates index overhead in the
// paper.
func batchBenchSchema(b *testing.B) *Schema {
	b.Helper()
	s, err := NewSchema(
		&TableSchema{
			Name:       "frames",
			Columns:    []Column{{Name: "frame_id", Type: TypeInt}},
			PrimaryKey: []string{"frame_id"},
		},
		&TableSchema{
			Name: "objs",
			Columns: []Column{
				{Name: "object_id", Type: TypeInt},
				{Name: "frame_id", Type: TypeInt},
				{Name: "htmid", Type: TypeInt},
				{Name: "ra", Type: TypeFloat},
				{Name: "dec", Type: TypeFloat},
				{Name: "mag", Type: TypeFloat},
			},
			PrimaryKey: []string{"object_id"},
			ForeignKeys: []ForeignKey{
				{Name: "fk_obj_frame", Columns: []string{"frame_id"}, RefTable: "frames", RefColumns: []string{"frame_id"}},
			},
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// batchBenchDB builds the Figure 8-shaped database: the objs table with its
// htmid and composite (ra, dec, mag) indexes, and enough frames for the
// foreign-key probes to hit.
func batchBenchDB(b *testing.B) *DB {
	b.Helper()
	db := MustOpen(batchBenchSchema(b))
	if _, err := db.CreateIndex("objs", "ix_htmid", []string{"htmid"}, false); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex("objs", "ix_radecmag", []string{"ra", "dec", "mag"}, false); err != nil {
		b.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	for f := int64(0); f < 64; f++ {
		if _, err := txn.Insert("frames", []string{"frame_id"}, []Value{Int(f)}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	return db
}

// objRows fills buf with one batch of catalog-file-like rows starting at row
// id start: ids ascend with arrival order, and each batch covers one small
// sky footprint (a catalog file images one region), so htmid and ra/dec fall
// in clustered runs — the workload structure the sorted bulk index pass is
// designed around.
func objRows(buf [][]Value, rng *rand.Rand, start int64) {
	batch := int64(len(buf))
	fileBase := start / batch * 1000 // one footprint per batch, drifting across the sky
	for i := range buf {
		id := start + int64(i)
		buf[i][0] = Int(id)
		buf[i][1] = Int(rng.Int63n(64))
		buf[i][2] = Int(fileBase + rng.Int63n(1000)) // htmid within the footprint
		buf[i][3] = Float(float64(fileBase)/100 + rng.Float64())
		buf[i][4] = Float(-20 + rng.Float64())
		buf[i][5] = Float(14 + 8*rng.Float64())
	}
}

// BenchmarkInsertBatch compares the wall-clock cost per row of the per-row
// transaction loop (one table-lock round trip, WAL append, lock-manager call
// and index descent per row — what the DES cost model charges for) against
// Txn.InsertBatch at batch size 1000 (each of those paid once per batch).
// ns/row is a smoke figure; relstore.apply_ns_per_row in a traced `make perf`
// run is the measured one.
func BenchmarkInsertBatch(b *testing.B) {
	const batchSize = 1000
	cols := []string{"object_id", "frame_id", "htmid", "ra", "dec", "mag"}
	newBuf := func() [][]Value {
		buf := make([][]Value, batchSize)
		for i := range buf {
			buf[i] = make([]Value, len(cols))
		}
		return buf
	}

	b.Run("PerRow", func(b *testing.B) {
		db := batchBenchDB(b)
		txn, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		buf := newBuf()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			objRows(buf, rng, int64(n)*batchSize)
			for _, r := range buf {
				if _, err := txn.Insert("objs", cols, r); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/row")
	})

	b.Run("Batch", func(b *testing.B) {
		db := batchBenchDB(b)
		txn, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		buf := newBuf()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			objRows(buf, rng, int64(n)*batchSize)
			br, err := txn.InsertBatch("objs", cols, buf)
			if err != nil || br.RowsInserted != batchSize {
				b.Fatalf("batch: %+v err=%v", br, err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/row")
	})
}

// BenchmarkBTreeInsertSorted isolates secondary-index maintenance: inserting
// 1000-key batches drawn from a random key domain one descent at a time
// versus sorting each batch and feeding it to the leaf-aware sequential pass.
// Both sub-benchmarks grow a tree from the same key stream, so later
// iterations work against the same tree sizes.
func BenchmarkBTreeInsertSorted(b *testing.B) {
	const batchSize = 1000
	makeBatch := func(rng *rand.Rand, keys [][]byte, ids []int64, start int64) {
		for i := range keys {
			keys[i] = AppendOrderedKey(keys[i][:0], []Value{Int(rng.Int63n(1 << 30))})
			ids[i] = start + int64(i)
		}
	}
	newBufs := func() ([][]byte, []int64) {
		keys := make([][]byte, batchSize)
		for i := range keys {
			keys[i] = make([]byte, 0, 16)
		}
		return keys, make([]int64, batchSize)
	}

	b.Run("RandomOrder", func(b *testing.B) {
		tr := NewBTree(32)
		rng := rand.New(rand.NewSource(1))
		keys, ids := newBufs()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			makeBatch(rng, keys, ids, int64(n)*batchSize)
			for i := range keys {
				tr.Insert(keys[i], ids[i])
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/key")
	})

	b.Run("SortedBatch", func(b *testing.B) {
		tr := NewBTree(32)
		rng := rand.New(rand.NewSource(1))
		keys, ids := newBufs()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			makeBatch(rng, keys, ids, int64(n)*batchSize)
			sortKVs(keys, ids)
			tr.InsertSorted(keys, ids)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/key")
	})

	// The loading workload's natural order: keys arrive already clustered
	// (htmid runs), which is where the cached-leaf window pays off hardest.
	b.Run("SortedBatchClustered", func(b *testing.B) {
		tr := NewBTree(32)
		rng := rand.New(rand.NewSource(1))
		keys, ids := newBufs()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			base := int64(n) * batchSize
			for i := range keys {
				keys[i] = AppendOrderedKey(keys[i][:0], []Value{Int(base + rng.Int63n(batchSize))})
				ids[i] = base + int64(i)
			}
			sortKVs(keys, ids)
			tr.InsertSorted(keys, ids)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchSize, "ns/key")
	})
}
