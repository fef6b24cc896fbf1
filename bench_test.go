// Benchmarks regenerating the paper's evaluation (§5), the headline claim and
// the ablation studies, plus micro-benchmarks of the core building blocks.
//
// Each BenchmarkFigure*/BenchmarkHeadline/BenchmarkAblation* iteration runs
// the corresponding experiment in a reduced "quick" configuration so the
// whole suite completes in a couple of minutes; the full sweeps (the exact
// series reported in EXPERIMENTS.md) are produced by `go run ./cmd/skybench
// -all`.  Virtual-time results are attached to the benchmark output with
// b.ReportMetric, so the paper-facing quantities (speedups, throughputs,
// overheads) appear directly in `go test -bench` output.
package skyloader_test

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"skyloader/internal/arrayset"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/experiments"
	"skyloader/internal/htm"
	"skyloader/internal/metrics"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/shard"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// benchCfg is the reduced configuration used by the experiment benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Quick: true, RowsPerMB: 40, Seed: 20051112}
}

// lastOf returns the final value of a numeric table column (0 when absent).
func lastOf(tbl *metrics.Table, col string) float64 {
	xs := tbl.Column(col)
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// meanOf returns the mean of a numeric table column (0 when absent).
func meanOf(tbl *metrics.Table, col string) float64 {
	xs := tbl.Column(col)
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// --- Paper evaluation: one benchmark per figure ---------------------------

// BenchmarkFigure4BulkVsNonBulk regenerates Figure 4 (bulk vs. non-bulk
// loading, single process).  Reported metric: mean bulk speedup (paper: 7-9x).
func BenchmarkFigure4BulkVsNonBulk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanOf(tbl, "speedup"), "speedup")
		b.ReportMetric(lastOf(tbl, "bulk_runtime_s"), "bulk_vsec")
		b.ReportMetric(lastOf(tbl, "nonbulk_runtime_s"), "nonbulk_vsec")
	}
}

// BenchmarkFigure5BatchSize regenerates Figure 5 (effect of batch size on a
// 200 MB load).  Reported metric: runtime at the smallest and largest batch.
func BenchmarkFigure5BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rt := tbl.Column("runtime_s")
		b.ReportMetric(rt[0], "batch10_vsec")
		b.ReportMetric(rt[len(rt)-1], "batch60_vsec")
	}
}

// BenchmarkFigure6ArraySize regenerates Figure 6 (effect of array size).
// Reported metric: runtime at the smallest, optimal and largest array size.
func BenchmarkFigure6ArraySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rt := tbl.Column("runtime_s")
		b.ReportMetric(rt[0], "smallest_vsec")
		b.ReportMetric(slices.Min(rt), "best_vsec")
		b.ReportMetric(rt[len(rt)-1], "largest_vsec")
	}
}

// BenchmarkFigure7Parallelism regenerates Figure 7 (effect of parallelism on
// throughput).  Reported metrics: single-loader and best throughput in
// nominal MB per virtual second.
func BenchmarkFigure7Parallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		thr := tbl.Column("throughput_mb_s")
		b.ReportMetric(thr[0], "single_MBps")
		b.ReportMetric(slices.Max(thr), "peak_MBps")
	}
}

// BenchmarkFigure8Indices regenerates Figure 8 (effect of attribute indices).
// Reported metrics: mean overhead of the single-integer and composite
// three-float indices (paper: ~1.5% and ~8.5%).
func BenchmarkFigure8Indices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanOf(tbl, "int_overhead_pct"), "int_ovh_pct")
		b.ReportMetric(meanOf(tbl, "composite_overhead_pct"), "comp_ovh_pct")
	}
}

// BenchmarkFigure9DatabaseSize regenerates Figure 9 (effect of database
// size).  Reported metric: relative spread of runtimes across 50-300 GB
// (paper: flat).
func BenchmarkFigure9DatabaseSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Figure9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rt, mean := tbl.Column("runtime_s"), meanOf(tbl, "runtime_s")
		spread := 0.0
		if mean > 0 {
			spread = (slices.Max(rt) - slices.Min(rt)) / mean * 100
		}
		b.ReportMetric(spread, "spread_pct")
		b.ReportMetric(mean, "runtime_vsec")
	}
}

// BenchmarkHeadline40GB regenerates the headline claim (40 GB night: >20 h
// with the original pipeline vs <3 h with SkyLoader).  Reported metric: the
// reduction factor between the two configurations.
func BenchmarkHeadline40GB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Headline(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		hours := tbl.Column("runtime_h_40gb")
		if len(hours) == 2 && hours[1] > 0 {
			b.ReportMetric(hours[0]/hours[1], "reduction_x")
		}
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationAssignment compares dynamic vs. static file assignment on
// a skewed night (§4.4).
func BenchmarkAblationAssignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationAssignment(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		wall := tbl.Column("wall_time_s")
		if len(wall) == 2 && wall[0] > 0 {
			b.ReportMetric(wall[1]/wall[0], "static_penalty_x")
		}
	}
}

// BenchmarkAblationCommitFrequency measures the §4.5.2 commit-frequency
// trade-off.
func BenchmarkAblationCommitFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationCommitFrequency(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rt := tbl.Column("runtime_s")
		if len(rt) >= 2 && rt[len(rt)-1] > 0 {
			b.ReportMetric(rt[0]/rt[len(rt)-1], "frequent_commit_penalty_x")
		}
	}
}

// BenchmarkAblationCacheSize measures the §4.5.5 data-cache-size effect.
func BenchmarkAblationCacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationCacheSize(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rt := tbl.Column("runtime_s")
		if len(rt) >= 2 && rt[0] > 0 {
			b.ReportMetric(rt[len(rt)-1]/rt[0], "large_cache_penalty_x")
		}
	}
}

// BenchmarkAblationErrorRate measures the §4.2 worst-case behaviour as the
// error rate grows.
func BenchmarkAblationErrorRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationErrorRate(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rt := tbl.Column("runtime_s")
		if len(rt) >= 2 && rt[0] > 0 {
			b.ReportMetric(rt[len(rt)-1]/rt[0], "dirty_penalty_x")
		}
	}
}

// BenchmarkAblationTwoPhase compares single-pass SkyLoader with the
// SDSS-style two-phase loader (§6).
func BenchmarkAblationTwoPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.AblationTwoPhase(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanOf(tbl, "two_phase_penalty_pct"), "two_phase_penalty_pct")
	}
}

// --- Micro-benchmarks of the building blocks -------------------------------

// BenchmarkBTreeInsert measures secondary-index maintenance cost per insert.
// The key is encoded into a reused buffer, as the table layer's scratch does.
func BenchmarkBTreeInsert(b *testing.B) {
	bt := relstore.NewBTree(32)
	key := make([]byte, 0, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key = relstore.AppendOrderedKey(key[:0], []relstore.Value{relstore.Int(int64(i * 2654435761 % 1000003))})
		bt.Insert(key, int64(i))
	}
}

// BenchmarkHTMLookup measures the per-object htmid computation performed
// during the transform step.
func BenchmarkHTMLookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ra := float64(i%3600) / 10
		dec := float64(i%1700)/10 - 85
		if _, err := htm.Lookup(ra, dec, htm.DefaultDepth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogGenerate measures synthetic catalog generation throughput.
func BenchmarkCatalogGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := catalog.Generate(catalog.GenSpec{SizeMB: 10, Seed: int64(i), ErrorRate: 0.01})
		if f.DataRows == 0 {
			b.Fatal("empty file")
		}
	}
}

// BenchmarkCatalogTransform measures parse+transform cost per catalog row.
func BenchmarkCatalogTransform(b *testing.B) {
	schema := catalog.NewSchema()
	tr := catalog.NewTransformer(schema)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 20, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := file.Records[i%len(file.Records)]
		if _, err := tr.Transform(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArraySetAdd measures the client-side buffering cost per row.
func BenchmarkArraySetAdd(b *testing.B) {
	schema := catalog.NewSchema()
	set, err := arrayset.New(schema, arrayset.Config{ArraySize: 1000})
	if err != nil {
		b.Fatal(err)
	}
	cols := []string{"object_id", "frame_id", "ra", "dec", "mag"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, _, err := set.Add(catalog.TObjects, cols,
			[]relstore.Value{relstore.Int(int64(i)), relstore.Int(1), relstore.Float(10.0), relstore.Float(10.0), relstore.Float(18.0)}, i)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			set.Drain()
		}
	}
}

// BenchmarkRelstoreInsert measures the engine's raw insert path (constraints,
// heap, PK hash, WAL, cache) without the simulation layer.
func BenchmarkRelstoreInsert(b *testing.B) {
	db := relstore.MustOpen(catalog.NewSchema())
	txn, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 8); err != nil {
		b.Fatal(err)
	}
	cols := []string{"obs_id", "run_id", "telescope_id", "mjd_start", "ra_center", "dec_center", "airmass", "filter_set", "exposure_s"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := []relstore.Value{relstore.Int(int64(i + 10)), relstore.Int(1), relstore.Int(1), relstore.Float(53600.5), relstore.Float(120.0), relstore.Float(10.0), relstore.Float(1.2), relstore.Str("R"), relstore.Float(140.0)}
		if _, err := txn.Insert(catalog.TObservations, cols, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoaderEndToEnd measures real (host) time to simulate loading one
// 10 MB catalog file with the full stack: generator, DES, engine, loader.
func BenchmarkLoaderEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := exec.NewDES(int64(i))
		db := relstore.MustOpen(catalog.NewSchema())
		txn, _ := db.Begin()
		if err := catalog.SeedReference(txn, 8); err != nil {
			b.Fatal(err)
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		server := sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
		file := catalog.Generate(catalog.GenSpec{SizeMB: 10, Seed: int64(i), ErrorRate: 0.01, RunID: 1, IDBase: 1000})
		var stats core.Stats
		sched.Spawn("loader", func(w exec.Worker) {
			conn := server.ConnectWorker(w)
			defer conn.Close()
			loader, err := core.NewLoader(conn, core.DefaultConfig())
			if err != nil {
				b.Error(err)
				return
			}
			stats, err = loader.LoadFiles([]*catalog.File{file})
			if err != nil {
				b.Error(err)
			}
		})
		sched.Run()
		if stats.RowsLoaded == 0 {
			b.Fatal("nothing loaded")
		}
		b.ReportMetric(stats.Elapsed.Seconds(), "vsec_per_10MB")
	}
}

// nightTexts renders each file of a night as the catalog text it is on disk.
func nightTexts(b *testing.B, night []*catalog.File) []string {
	texts := make([]string, len(night))
	for i, f := range night {
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		texts[i] = buf.String()
	}
	return texts
}

// BenchmarkIngestNight is the timed region of every skyperf workload on the
// wall clock: a 100k-row night as catalog text, catalog.ReadRecords on every
// file, then parallel.Run with two loaders on the realtime scheduler into a
// production-tuned database with the benchmark's immediate indexes.  It is
// where an ingest profile comes from:
//
//	go test -run '^$' -bench IngestNight -benchtime 5x -cpuprofile cpu.prof .
//
// Outside the timed region it weighs the last loaded database per byte of
// catalog text: the live heap it pins after two collections (what skyperf's
// mem_bytes_per_user_byte divides) and, from StatsSnapshot, the heap pages,
// row directories, key indexes and secondary B-trees that make it up.  Only
// the last iteration forces those collections, so the collector's share of a
// profile is what loading costs it, as in skyperf's timed load.
func BenchmarkIngestNight(b *testing.B) {
	night := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 1000, RowsPerMB: 100, Seed: 7, ErrorRate: 0.002, RunID: 1, Files: 8,
	})
	texts := nightTexts(b, night)
	textBytes := 0
	for _, text := range texts {
		textBytes += len(text)
	}
	prof := tuning.ProductionLoading()
	rows := 0
	var held int64
	var footprint relstore.StatsSnapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		last := i == b.N-1
		var before int64
		if last {
			before = liveHeap()
		}
		db, err := tuning.OpenRepository(tuning.HTMIDPlusComposite, relstore.WithConfig(prof.DBConfig()))
		if err != nil {
			b.Fatal(err)
		}
		srv := sqlbatch.NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 7}), db, prof.ServerConfig(), sqlbatch.DefaultCostModel())
		b.StartTimer()

		files := make([]*catalog.File, len(texts))
		for j, text := range texts {
			recs, _ := catalog.ReadRecords(strings.NewReader(text))
			files[j] = &catalog.File{Name: night[j].Name, Records: recs, NominalBytes: night[j].NominalBytes, DataRows: len(recs)}
		}
		res, err := parallel.Run(srv, files, parallel.Config{Loaders: 2, Loader: core.Config{BatchSize: 40, ArraySize: 1000}})
		if err != nil {
			b.Fatal(err)
		}
		rows += res.Total.RowsRead

		b.StopTimer()
		if last {
			files = nil // the records go; what stays is the database
			held = liveHeap() - before
			footprint = db.StatsSnapshot()
			runtime.KeepAlive(srv)
		}
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	var pages, rowDirs, keyIndexes, trees int64
	for _, ts := range footprint.Tables {
		pages += ts.ResidentBytes - ts.RowDirBytes - ts.KeyIndexBytes
		rowDirs += ts.RowDirBytes
		keyIndexes += ts.KeyIndexBytes
	}
	for _, is := range footprint.Indexes {
		trees += is.ResidentBytes
	}
	perTextByte := func(n int64) float64 { return float64(n) / float64(textBytes) }
	b.ReportMetric(perTextByte(held), "heap/textB")
	b.ReportMetric(perTextByte(pages), "pages/textB")
	b.ReportMetric(perTextByte(rowDirs), "rowdirs/textB")
	b.ReportMetric(perTextByte(keyIndexes), "keyidx/textB")
	b.ReportMetric(perTextByte(trees), "btrees/textB")
}

// BenchmarkApplyWriters measures the engine's batch apply alone, on
// BenchmarkIngestNight's night: each file is transformed through an array
// set (array size 1000) into the 40-row InsertBatch calls a loader makes,
// before the timer starts, and the calls are applied with one transaction
// per file into a production-tuned database with immediate htmid+composite
// indexes.  A row that violates a constraint is skipped, as a loader skips
// it.  It compares one writer, two writers into one database (files split
// even/odd) and two writers into two databases, which share nothing:
//
//	go test -run '^$' -bench ApplyWriters -benchtime 5x .
func BenchmarkApplyWriters(b *testing.B) {
	night := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 1000, RowsPerMB: 100, Seed: 7, ErrorRate: 0.002, RunID: 1, Files: 8,
	})
	schema := catalog.NewSchema()
	files := make([][]*arrayset.Array, len(night))
	for i, f := range night {
		files[i] = batchesOf(b, schema, f)
	}
	prof := tuning.ProductionLoading()
	open := func() *relstore.DB {
		db, err := tuning.OpenRepository(tuning.HTMIDPlusComposite, relstore.WithConfig(prof.DBConfig()))
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	for _, c := range []struct {
		name     string
		writers  int
		separate bool // one database per writer
	}{
		{"OneWriter", 1, false},
		{"TwoWritersOneDB", 2, false},
		{"TwoWritersTwoDBs", 2, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			rows := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dbs := []*relstore.DB{open()}
				if c.separate {
					dbs = append(dbs, open())
				}
				b.StartTimer()
				applied := make([]int, c.writers)
				var wg sync.WaitGroup
				for w := 0; w < c.writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						db := dbs[min(w, len(dbs)-1)]
						for j := w; j < len(files); j += c.writers {
							n, err := applyFile(db, files[j])
							if err != nil {
								b.Error(err)
								return
							}
							applied[w] += n
						}
					}(w)
				}
				wg.Wait()
				for _, n := range applied {
					rows += n
				}
			}
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// batchesOf returns the InsertBatch calls a loader at array size 1000 and
// batch size 40 makes for file f: each flush cycle's arrays in flush order,
// cut into 40-row batches.  Records that do not transform are dropped.
func batchesOf(b *testing.B, schema *relstore.Schema, f *catalog.File) []*arrayset.Array {
	tr := catalog.NewTransformer(schema)
	set, err := arrayset.New(schema, arrayset.Config{ArraySize: 1000})
	if err != nil {
		b.Fatal(err)
	}
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
			continue
		}
		full, _, err := set.Add(row.Table, row.Columns, row.Values, rec.Line)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			flush()
		}
	}
	flush()
	return out
}

// applyFile applies one file's batches in one transaction, skipping each row
// that violates a constraint, and returns the rows inserted.
func applyFile(db *relstore.DB, batches []*arrayset.Array) (int, error) {
	txn, err := db.Begin()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, arr := range batches {
		for rows := arr.Rows; len(rows) > 0; {
			rep, err := txn.InsertBatch(arr.Table, arr.Columns, rows)
			n += rep.RowsInserted
			if err == nil {
				break
			}
			if !relstore.IsConstraintViolation(err) {
				return n, err
			}
			rows = rows[rep.FailedIndex+1:]
		}
	}
	_, err = txn.Commit()
	return n, err
}

// BenchmarkFleetNight is the timed region of skyperf's shard-scatter load on
// the wall clock: the same 100k-row night as catalog text (clean, as that
// workload's is), catalog.ReadRecords on every file, then
// Coordinator.LoadFiles into three fresh agents on loopback TCP.  allocs/op
// counts the whole process: coordinator, transport and agents.
//
//	go test -run '^$' -bench FleetNight -benchtime 5x -memprofile mem.prof .
func BenchmarkFleetNight(b *testing.B) {
	night := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 1000, RowsPerMB: 100, Seed: 7, RunID: 1, Files: 8,
	})
	texts := nightTexts(b, night)
	pm, err := shard.PartitionFromFiles(night, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := shard.DefaultAgentConfig()
	cfg.Profile.Indexes = tuning.HTMIDPlusComposite
	var rows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 7})
		servers := make([]*shard.AgentServer, pm.Shards())
		clients := make([]shard.Client, pm.Shards())
		for s := range servers {
			agent, err := shard.NewAgent(sched, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if servers[s], err = shard.ServeAgent(agent, sched, "127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			if clients[s], err = shard.DialShard(servers[s].Addr().String()); err != nil {
				b.Fatal(err)
			}
		}
		co, err := shard.New(sched, pm, clients, shard.Config{})
		if err != nil {
			b.Fatal(err)
		}
		sched.RunInline("hello", func(w exec.Worker) { err = co.Hello(w) })
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		files := make([]*catalog.File, len(texts))
		for j, text := range texts {
			recs, _ := catalog.ReadRecords(strings.NewReader(text))
			files[j] = &catalog.File{Name: night[j].Name, Records: recs, RABase: night[j].RABase, DecBase: night[j].DecBase,
				NominalBytes: night[j].NominalBytes, DataRows: len(recs)}
		}
		var rep shard.LoadReport
		sched.RunInline("load", func(w exec.Worker) { rep, err = co.LoadFiles(w, files) })
		if err != nil || rep.RowsSkipped != 0 {
			b.Fatalf("fleet load: %v, %d rows skipped", err, rep.RowsSkipped)
		}
		rows += rep.RowsLoaded

		b.StopTimer()
		co.Close()
		for _, srv := range servers {
			srv.Close()
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkDurableCommit is the log pipeline on its own: two committers on a
// WAL-backed database, each filling 25-batch transactions of observations
// (the shape of an ingest-durable loader between two commit points) and
// committing the way core.Loader does — start the commit, fill the next
// transaction, retire the commit when the next one starts.  One iteration is
// one commit.  Beside commits/s it reports what the committers paid for
// durability: fsyncs per commit (below 1 when a flush served a neighbour's
// marker too) and the time per commit spent waiting for the log.
func BenchmarkDurableCommit(b *testing.B) {
	const committers, batches, batchRows = 2, 25, 40
	db, err := relstore.Open(catalog.NewSchema(), relstore.WithWALDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	seed, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	if err := catalog.SeedReference(seed, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	cols := []string{"obs_id", "run_id", "telescope_id", "mjd_start", "ra_center", "dec_center", "airmass", "filter_set", "exposure_s"}
	commit := func(w, txns int) error {
		rows := make([][]relstore.Value, batchRows)
		next := int64(w+1) << 40
		var pending *relstore.PendingCommit
		for j := 0; j < txns; j++ {
			txn, err := db.Begin()
			if err != nil {
				return err
			}
			for k := 0; k < batches; k++ {
				for i := range rows {
					next++
					rows[i] = []relstore.Value{relstore.Int(next), relstore.Int(1), relstore.Int(1), relstore.Float(53600.5),
						relstore.Float(120.0), relstore.Float(10.0), relstore.Float(1.2), relstore.Str("R"), relstore.Float(140.0)}
				}
				if _, err := txn.InsertBatch(catalog.TObservations, cols, rows); err != nil {
					return err
				}
			}
			if pending != nil {
				if _, err := pending.Wait(); err != nil {
					return err
				}
			}
			if pending, err = txn.CommitStart(); err != nil {
				return err
			}
		}
		if pending != nil {
			_, err = pending.Wait()
		}
		return err
	}

	before := db.WAL().Stats()
	b.ResetTimer()
	errs := make(chan error, committers)
	for w := 0; w < committers; w++ {
		txns := b.N / committers
		if w < b.N%committers {
			txns++
		}
		go func(w int) { errs <- commit(w, txns) }(w)
	}
	for w := 0; w < committers; w++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := db.WAL().Stats()
	n := float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "commits/s")
	b.ReportMetric(float64(after.DurableSyncs-before.DurableSyncs)/n, "fsyncs/commit")
	b.ReportMetric(float64(after.CommitWaitNs-before.CommitWaitNs)/n, "wait-ns/commit")
}

// BenchmarkDESEventThroughput measures raw simulation kernel throughput
// (events per second of host time).
func BenchmarkDESEventThroughput(b *testing.B) {
	sched := exec.NewDES(1)
	sched.Spawn("ticker", func(w exec.Worker) {
		for i := 0; i < b.N; i++ {
			w.Sleep(1)
		}
	})
	b.ResetTimer()
	sched.Run()
}
