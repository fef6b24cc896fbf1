// End-to-end integration tests exercising the whole pipeline the way the
// command-line tools do: generate catalog files, serialize them to disk, read
// them back, load them in parallel into a freshly seeded repository, and
// validate the result with queries and integrity checks.
package skyloader_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/experiments"
	"skyloader/internal/htm"
	"skyloader/internal/loadconfig"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// newRepo builds a seeded repository and its simulated server.
func newRepo(t *testing.T, seed int64, policy tuning.IndexPolicy) *sqlbatch.Server {
	t.Helper()
	kernel := des.NewKernel(seed)
	db, err := relstore.Open(catalog.NewSchema(), relstore.WithConfig(relstore.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tuning.ApplyIndexPolicy(db, policy); err != nil {
		t.Fatal(err)
	}
	return sqlbatch.NewServer(kernel, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

// TestEndToEndThroughFiles writes generated catalog files to disk, reads them
// back (as cmd/skyload does), loads them with three parallel loaders, and
// checks row counts, integrity and query results.
func TestEndToEndThroughFiles(t *testing.T) {
	dir := t.TempDir()
	night := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 30, RowsPerMB: 60, Seed: 41, ErrorRate: 0.01, RunID: 1, Files: 6,
	})

	// Serialize and re-read every file.
	var files []*catalog.File
	wantRows := 0
	for _, f := range night {
		path := filepath.Join(dir, f.Name)
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteTo(out); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}

		in, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, parseErrs := catalog.ReadRecords(in)
		in.Close()
		if len(parseErrs) != 0 {
			t.Fatalf("%s: parse errors: %v", path, parseErrs)
		}
		if len(recs) != f.DataRows {
			t.Fatalf("%s: %d records after round trip, want %d", path, len(recs), f.DataRows)
		}
		wantRows += len(recs)
		files = append(files, &catalog.File{
			Name:         path,
			Records:      recs,
			NominalBytes: f.NominalBytes,
			DataRows:     len(recs),
		})
	}

	srv := newRepo(t, 41, tuning.HTMIDOnly)
	res, err := parallel.Run(srv, files, parallel.Config{
		Loaders:    3,
		Assignment: parallel.Dynamic,
		Loader:     core.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.RowsRead != wantRows {
		t.Fatalf("rows read = %d, want %d", res.Total.RowsRead, wantRows)
	}
	if res.Total.RowsLoaded+res.Total.RowsSkipped+res.Total.ParseErrors != wantRows {
		t.Fatalf("row accounting: %+v", res.Total)
	}

	db := srv.DB()
	if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans: %d", orphans)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}

	// The htmid index kept during loading answers a positional query.
	ts := db.Schema().Table(catalog.TObjects)
	idx := ts.ColumnIndex("htmid")
	var someHTMID relstore.Value
	_ = db.Scan(catalog.TObjects, func(r relstore.Row) bool {
		someHTMID = r[idx]
		return false
	})
	if someHTMID.IsNull() {
		t.Fatal("no object carries an htmid")
	}
	if _, err := htm.Name(someHTMID.Int()); err != nil {
		t.Fatalf("stored htmid invalid: %v", err)
	}
	rows, _, err := db.SelectEqualIndexed(catalog.TObjects, tuning.HTMIDIndexName, []relstore.Value{someHTMID})
	if err != nil || len(rows) == 0 {
		t.Fatalf("indexed lookup failed: %d rows, err=%v", len(rows), err)
	}
}

// TestEndToEndCampaignConfig drives the same pipeline through a JSON campaign
// configuration, as `skyload -config` does.
func TestEndToEndCampaignConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.json")
	doc := `{
		"batch_size": 25,
		"array_size": 500,
		"loaders": 2,
		"assignment": "static",
		"index_policy": "none",
		"record_provenance": true
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	campaign, err := loadconfig.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	srv := newRepo(t, 7, campaign.IndexPolicyValue())
	files := []*catalog.File{
		catalog.Generate(catalog.GenSpec{SizeMB: 5, RowsPerMB: 60, Seed: 70, RunID: 1, IDBase: 1_000_000, ErrorRate: 0.02}),
		catalog.Generate(catalog.GenSpec{SizeMB: 5, RowsPerMB: 60, Seed: 71, RunID: 1, IDBase: 2_000_000}),
	}
	res, err := parallel.Run(srv, files, campaign.ClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.RowsLoaded == 0 {
		t.Fatal("campaign load produced nothing")
	}
	// Provenance was requested through the config file.
	if n, _ := srv.DB().Count(catalog.TLoadRuns); n != 2 {
		t.Fatalf("load_runs = %d, want one per file", n)
	}
	if res.Total.RowsSkipped > 0 {
		if n, _ := srv.DB().Count(catalog.TLoadErrors); int(n) != res.Total.RowsSkipped {
			t.Fatalf("load_errors = %d, want %d", n, res.Total.RowsSkipped)
		}
	}
	if orphans, _ := srv.DB().VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans: %d", orphans)
	}
}

// TestExperimentsVerify runs the harness's own end-to-end verification, the
// same check exposed as `skybench -verify`.
func TestExperimentsVerify(t *testing.T) {
	if err := experiments.Verify(experiments.Config{Quick: true, RowsPerMB: 30, Seed: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicReplay loads the same night twice with the same seeds and
// expects identical virtual timings and row counts — the property that makes
// every experiment in EXPERIMENTS.md reproducible.
func TestDeterministicReplay(t *testing.T) {
	run := func() (int, int64, int64) {
		srv := newRepo(t, 99, tuning.NoIndexes)
		files := catalog.GenerateNight(catalog.NightSpec{
			TotalMB: 20, RowsPerMB: 60, Seed: 99, ErrorRate: 0.01, RunID: 1, Files: 5,
		})
		res, err := parallel.Run(srv, files, parallel.Config{
			Loaders: 3, Assignment: parallel.Dynamic, Loader: core.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := srv.DB().Count(catalog.TObjects)
		return res.Total.RowsLoaded, int64(res.WallTime), rows
	}
	l1, w1, o1 := run()
	l2, w2, o2 := run()
	if l1 != l2 || w1 != w2 || o1 != o2 {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)", l1, w1, o1, l2, w2, o2)
	}
}

// TestResidentBytesCeiling loads a generated 20k-row night and holds the
// engine to its footprint: the bytes the tables report holding (page data,
// slot and row directories, key-index slots) per nominal stored byte, and
// the live heap the loaded database actually pins, stay under stated
// ceilings.  Closed pages in page-local narrow layouts under a run-encoded
// row directory, key indexes of 8-byte row-id slots grown a quarter at a time
// and a packed-node htmid B-tree measure 0.73 and 0.83 here, and the ceilings
// are those plus 5 % (1.47 and 1.58 while every closed page kept 8-byte slots
// and a slot directory; 1.68 and 1.77 with one directory entry per row id and
// doubling key indexes; 1.88 while the B-tree was entry structs and arenas;
// the same pages under Go-map key indexes that stored every key a second
// time: 1.98 and 2.56; the same night held as 40-byte values behind per-row
// slices pinned 7.49 heap bytes per nominal byte).  A change that moves either
// ceiling up must say why.
func TestResidentBytesCeiling(t *testing.T) {
	const (
		residentCeiling = 0.77 // reported resident bytes / nominal bytes
		heapCeiling     = 0.88 // live heap held by the database / nominal bytes
	)
	night := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 200, RowsPerMB: 100, Seed: 17, ErrorRate: 0, RunID: 1, Files: 4,
	})
	tr := catalog.NewTransformer(catalog.NewSchema())
	var rows []catalog.TransformedRow
	for _, f := range night {
		for _, rec := range f.Records {
			row, err := tr.Transform(rec)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}

	before := liveHeap()
	db, err := relstore.Open(catalog.NewSchema(), relstore.WithConfig(tuning.ProductionLoading().DBConfig()))
	if err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 16); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if _, err := txn.Insert(row.Table, row.Columns, row.Values); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tuning.ApplyIndexPolicy(db, tuning.HTMIDOnly); err != nil {
		t.Fatal(err)
	}
	held := liveHeap() - before
	runtime.KeepAlive(rows) // in both measurements, so not in their difference

	var stored, nominal, resident int64
	for _, ts := range db.StatsSnapshot().Tables {
		stored += ts.Rows
		nominal += ts.NominalBytes
		resident += ts.ResidentBytes
	}
	if stored < 20_000 {
		t.Fatalf("night stored %d rows, want at least 20000", stored)
	}
	residentRatio := float64(resident) / float64(nominal)
	heapRatio := float64(held) / float64(nominal)
	t.Logf("%d rows, %d nominal bytes: resident %d (%.2f per nominal byte), live heap %d (%.2f)",
		stored, nominal, resident, residentRatio, held, heapRatio)
	if residentRatio > residentCeiling {
		t.Errorf("tables hold %.2f resident bytes per nominal byte, ceiling %.2f", residentRatio, residentCeiling)
	}
	if heapRatio > heapCeiling {
		t.Errorf("loaded database pins %.2f heap bytes per nominal byte, ceiling %.2f", heapRatio, heapCeiling)
	}
	// The accounting must not drift from the heap it describes: what the
	// tables report is most of what the database pins (the rest is B-tree
	// nodes and fixed overhead).
	if float64(resident) < 0.8*float64(held) {
		t.Errorf("tables report %d resident bytes but the database pins %d", resident, held)
	}
	runtime.KeepAlive(db)
}

// liveHeap forces two collections (sync.Pool contents survive one) and
// returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLoaderAllocsPerRow holds the loader path — transform, array-set,
// batch, apply with immediate indexes, commit — to its allocation budget: one
// loader on the realtime scheduler takes a generated 80k-row night through
// parallel.Run in under a quarter of an allocation per row read.  Rows are
// transformed into the loader's scratch and copied into array slabs that
// Recycle hands back, so what remains is per batch, per page and per cycle
// (0.18 here; 1.19 when Transform made a slice per row and every flush
// cycle re-made every table's row buffers).  The night is four files on one
// node, so the bytes ceiling holds the node to one loader for its whole run:
// 189 bytes per row here, 286 when every file built a loader and regrew the
// array-set's slabs from 256 values.
func TestLoaderAllocsPerRow(t *testing.T) {
	const (
		ceiling      = 0.25 // mallocs per row read
		bytesCeiling = 220  // bytes allocated per row read
	)
	night := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 800, RowsPerMB: 100, Seed: 23, ErrorRate: 0.002, RunID: 1, Files: 4,
	})
	prof := tuning.ProductionLoading()
	db, err := tuning.OpenRepository(tuning.HTMIDPlusComposite, relstore.WithConfig(prof.DBConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv := sqlbatch.NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 23}), db, prof.ServerConfig(), sqlbatch.DefaultCostModel())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := parallel.Run(srv, night, parallel.Config{Loaders: 1, Loader: core.Config{BatchSize: 40, ArraySize: 1000}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.RowsRead < 80_000 || res.Total.RowsLoaded < res.Total.RowsRead*9/10 {
		t.Fatalf("night read %d rows and loaded %d, want at least 80000 read and nine in ten loaded", res.Total.RowsRead, res.Total.RowsLoaded)
	}
	perRow := float64(after.Mallocs-before.Mallocs) / float64(res.Total.RowsRead)
	bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Total.RowsRead)
	t.Logf("%d rows read, %d loaded, %d flush cycles: %.3f mallocs and %.0f bytes allocated per row read",
		res.Total.RowsRead, res.Total.RowsLoaded, res.Total.FlushCycles, perRow, bytesPerRow)
	if perRow > ceiling {
		t.Errorf("%.3f mallocs per row read, ceiling %.2f", perRow, ceiling)
	}
	if bytesPerRow > bytesCeiling {
		t.Errorf("%.0f bytes allocated per row read, ceiling %d", bytesPerRow, bytesCeiling)
	}
}
