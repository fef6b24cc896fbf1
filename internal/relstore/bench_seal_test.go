package relstore

import (
	"math/rand"
	"testing"
)

// BenchmarkSealBulkBuild isolates the end-of-load bulk index build: given the
// same presorted key stream, construct the tree by packing leaves left to
// right (BuildFromSorted, what Seal does), by the leaf-aware sequential
// insert pass (InsertSorted, what per-batch maintenance does at best), and by
// one descent per key (Insert, what replay does).  ns/key here is a smoke
// figure; relstore.seal_ns_per_key in a traced `make perf` run is measured.
func BenchmarkSealBulkBuild(b *testing.B) {
	const n = 100_000
	keys := make([][]byte, n)
	ids := make([]int64, n)
	rng := rand.New(rand.NewSource(9))
	k := int64(0)
	for i := range keys {
		k += rng.Int63n(3) // ascending with duplicate runs, htmid-like
		keys[i] = EncodeOrderedKey([]Value{Int(k)})
		ids[i] = int64(i)
	}

	b.Run("BuildFromSorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := NewBTree(32)
			tr.BuildFromSorted(keys, ids)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
	})

	b.Run("InsertSorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := NewBTree(32)
			tr.InsertSorted(keys, ids)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
	})

	b.Run("Insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := NewBTree(32)
			for j := range keys {
				tr.Insert(keys[j], ids[j])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
	})
}

// BenchmarkIndexLoadPolicy is the end-to-end policy comparison on the
// Figure-8-shaped workload (objs table with the htmid index and the
// composite three-float index, catalog-file-like batches of 1000): Immediate
// maintains both indexes on every batch; Deferred loads inside
// BeginLoad/Seal, skipping per-batch maintenance, and pays the bulk rebuild
// at the end.  Each iteration loads a fresh database; the deferred time
// includes Seal, so ns/row is a true end-to-end comparison; ingest-bulk
// against ingest-durable in bench/README.md is the measured form of it.
func BenchmarkIndexLoadPolicy(b *testing.B) {
	const (
		batchSize = 40 // the paper's batch-size optimum (Figure 5)
		batches   = 2500
		rows      = batchSize * batches
	)
	cols := []string{"object_id", "frame_id", "htmid", "ra", "dec", "mag"}
	newBuf := func() [][]Value {
		buf := make([][]Value, batchSize)
		for i := range buf {
			buf[i] = make([]Value, len(cols))
		}
		return buf
	}
	// fig8Rows is objRows with one difference: successive catalog files image
	// *random* sky footprints instead of a monotonically drifting stripe, so
	// per-batch index maintenance lands all over the growing tree — the
	// Figure 8 situation — while keys within one batch stay clustered.
	fig8Rows := func(buf [][]Value, rng *rand.Rand, start, fileBase int64) {
		for i := range buf {
			id := start + int64(i)
			buf[i][0] = Int(id)
			buf[i][1] = Int(rng.Int63n(64))
			buf[i][2] = Int(fileBase + rng.Int63n(1000))
			buf[i][3] = Float(float64(fileBase)/100 + rng.Float64())
			buf[i][4] = Float(-20 + rng.Float64())
			buf[i][5] = Float(14 + 8*rng.Float64())
		}
	}
	const (
		policyNone = iota // no secondary indexes at all (the Figure 8 floor)
		policyImmediate
		policyDeferred
	)
	loadOne := func(b *testing.B, mode int) {
		b.Helper()
		b.StopTimer()
		db := MustOpen(batchBenchSchema(b))
		if mode != policyNone {
			policy := IndexImmediate
			if mode == policyDeferred {
				policy = IndexDeferred
			}
			if _, err := db.CreateIndexWith("objs", "ix_htmid", []string{"htmid"}, false, policy); err != nil {
				b.Fatal(err)
			}
			if _, err := db.CreateIndexWith("objs", "ix_radecmag", []string{"ra", "dec", "mag"}, false, policy); err != nil {
				b.Fatal(err)
			}
		}
		setup, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for f := int64(0); f < 64; f++ {
			if _, err := setup.Insert("frames", []string{"frame_id"}, []Value{Int(f)}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := setup.Commit(); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		buf := newBuf()
		b.StartTimer()

		if mode == policyDeferred {
			if err := db.BeginLoad(); err != nil {
				b.Fatal(err)
			}
		}
		txn, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < batches; n++ {
			fig8Rows(buf, rng, int64(n)*batchSize, rng.Int63n(1<<24))
			br, err := txn.InsertBatch("objs", cols, buf)
			if err != nil || br.RowsInserted != batchSize {
				b.Fatalf("batch: %+v err=%v", br, err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		if mode == policyDeferred {
			if _, err := db.Seal(); err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, m := range []struct {
		name string
		mode int
	}{{"NoIndexes", policyNone}, {"Immediate", policyImmediate}, {"Deferred", policyDeferred}} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				loadOne(b, m.mode)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
