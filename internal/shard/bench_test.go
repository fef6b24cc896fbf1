package shard

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/queries"
	"skyloader/internal/shard/wire"
	"skyloader/internal/tuning"
)

// benchQueries are the fixed per-class probes both sides answer: a cone that
// hits the generated footprint, a hot object lookup and the full-table
// histogram (the worst gather case — every shard contributes bins).
func benchQueries(files []*catalog.File) []struct {
	name string
	q    queries.Query
} {
	return []struct {
		name string
		q    queries.Query
	}{
		{"cone", queries.Cone{RA: files[0].RABase + 1.0, Dec: files[0].DecBase + 0.4, RadiusDeg: 2}},
		{"lookup", queries.ObjectLookup{ObjectID: 100_000_001}},
		{"maghist", queries.MagHistogram{BinWidth: 0.5}},
	}
}

func benchFiles() []*catalog.File {
	return catalog.GenerateNight(catalog.NightSpec{TotalMB: 4, Files: 4, RowsPerMB: 200, Seed: 21})
}

// BenchmarkScatterGather measures one query through the whole distributed
// path — routing, per-shard wire encode/decode, agent execution, k-way merge
// — on a 3-shard in-process fleet with a zero-cost network model, so the
// delta vs BenchmarkSingleNode is pure sharding overhead.
func BenchmarkScatterGather(b *testing.B) {
	files := benchFiles()
	co, _, inline := buildFleet(b, files, 3, false)
	defer co.Close()
	for _, bq := range benchQueries(files) {
		q := bq.q
		b.Run(bq.name, func(b *testing.B) {
			var sink int
			inline.RunInline("bench", func(w exec.Worker) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := co.Execute(w, q, nil)
					if err != nil {
						b.Fatal(err)
					}
					sink += res.Stats.RowsReturned
				}
			})
			if b.N > 0 && sink == 0 && q.Class() != "frame" {
				b.Fatalf("benchmark returned no rows; measuring an empty path")
			}
		})
	}
	// Lookups only, over every object of the night in turn rather than one
	// hot id: the coordinator's per-request bookkeeping is what is left once a
	// lookup is one round trip, so allocs/op is the figure to read.
	ids := objectIDs(files...)
	b.Run("lookups", func(b *testing.B) {
		var sink int
		inline.RunInline("bench", func(w exec.Worker) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := co.Execute(w, queries.ObjectLookup{ObjectID: ids[i%len(ids)]}, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink += res.Stats.RowsReturned
			}
		})
		if sink != b.N {
			b.Fatalf("%d of %d lookups found their object", sink, b.N)
		}
	})
}

// BenchmarkSingleNode is the same probes against one database holding the
// whole catalog — the baseline the fleet is compared to.
func BenchmarkSingleNode(b *testing.B) {
	files := benchFiles()
	oracle := buildOracle(b, files, tuning.ProductionLoading())
	for _, bq := range benchQueries(files) {
		q := bq.q
		b.Run(bq.name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				res, err := q.Run(oracle)
				if err != nil {
					b.Fatal(err)
				}
				sink += res.Stats.RowsReturned
			}
			if b.N > 0 && sink == 0 {
				b.Fatalf("benchmark returned no rows; measuring an empty path")
			}
		})
	}
}

// BenchmarkWireQueryResult measures codec cost alone: framing and decoding
// a QueryResult of the size a real cone answer produces.
func BenchmarkWireQueryResult(b *testing.B) {
	files := benchFiles()
	oracle := buildOracle(b, files, tuning.ProductionLoading())
	res, err := benchQueries(files)[0].q.Run(oracle)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Objects) == 0 {
		b.Fatal("cone probe returned no objects; frame would be trivial")
	}
	msg := wire.QueryResult{QueryID: 1, Stats: res.Stats, Objects: res.Objects, Bins: res.Bins}
	buf := wire.Append(nil, msg)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame := wire.Append(buf[:0], msg)
		if _, _, err := wire.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
