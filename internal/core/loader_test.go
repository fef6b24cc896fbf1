package core

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// testEnv builds a seeded repository database and a server for it on a DES
// scheduler.
func testEnv(t *testing.T) *sqlbatch.Server {
	t.Helper()
	db := relstore.MustOpen(catalog.NewSchema())
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return sqlbatch.NewServerOn(exec.NewDES(7), db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

// loadWith runs a loader with the given config over the file and returns its
// statistics.
func loadWith(t *testing.T, srv *sqlbatch.Server, file *catalog.File, cfg Config) Stats {
	t.Helper()
	var stats Stats
	srv.Scheduler().Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		loader, err := NewLoader(conn, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		stats, err = loader.LoadFiles([]*catalog.File{file})
		if err != nil {
			t.Error(err)
		}
	})
	srv.Scheduler().Run()
	return stats
}

func TestLoadCleanFile(t *testing.T) {
	srv := testEnv(t)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 3, Seed: 5, RunID: 1, IDBase: 1000})
	stats := loadWith(t, srv, file, DefaultConfig())

	if stats.RowsRead != file.DataRows {
		t.Fatalf("RowsRead = %d, want %d", stats.RowsRead, file.DataRows)
	}
	if stats.ParseErrors != 0 || stats.RowsSkipped != 0 {
		t.Fatalf("clean file produced errors: %+v", stats)
	}
	if stats.RowsLoaded != file.DataRows {
		t.Fatalf("RowsLoaded = %d, want %d", stats.RowsLoaded, file.DataRows)
	}
	if stats.Elapsed <= 0 || stats.NominalBytes <= 0 {
		t.Fatalf("timing missing: %+v", stats)
	}
	if stats.Commits != 1 {
		t.Fatalf("Commits = %d, want 1 (end of file)", stats.Commits)
	}

	db := srv.DB()
	for table, want := range file.RowsByTable {
		got, _ := db.Count(table)
		if got != int64(want) {
			t.Errorf("table %s: %d rows, want %d", table, got, want)
		}
	}
	if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans after load: %d", orphans)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
	// Every loaded object has an htmid and unit-sphere coordinates.
	bad := 0
	_ = db.Scan(catalog.TObjects, func(r relstore.Row) bool {
		ts := db.Schema().Table(catalog.TObjects)
		if r[ts.ColumnIndex("htmid")].IsNull() {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d objects missing htmid", bad)
	}
}

func TestLoadFileWithErrorsSkipsOnlyBadRows(t *testing.T) {
	srv := testEnv(t)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 4, Seed: 11, RunID: 1, IDBase: 1000, ErrorRate: 0.05})
	if file.TotalInjectedErrors() == 0 {
		t.Fatal("generator injected no errors")
	}
	stats := loadWith(t, srv, file, DefaultConfig())

	if stats.RowsLoaded+stats.RowsSkipped+stats.ParseErrors != stats.RowsRead {
		t.Fatalf("row accounting broken: %+v", stats)
	}
	if stats.RowsSkipped == 0 && stats.ParseErrors == 0 {
		t.Fatal("no rows skipped despite injected errors")
	}
	// Injected corruptions should roughly match skipped+parse errors; orphan
	// references can cascade (children of a skipped parent also fail), so
	// allow slack above, and duplicate-key corruption of a row whose original
	// also appears keeps one copy, so allow slack below.
	bad := stats.RowsSkipped + stats.ParseErrors
	if bad < file.TotalInjectedErrors()/3 {
		t.Fatalf("skipped %d rows for %d injected errors", bad, file.TotalInjectedErrors())
	}
	db := srv.DB()
	if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans after load: %d", orphans)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
	total, _ := db.Count(catalog.TObjects)
	if total == 0 {
		t.Fatal("no objects loaded")
	}
	for _, skip := range stats.Skipped {
		if skip.Table == "" || skip.Reason == "" || skip.File == "" {
			t.Fatalf("incomplete skip record: %+v", skip)
		}
	}
}

// TestBatchRowErrorRecovery reproduces Example 1 of the paper: an error part
// way through an array must cause exactly that row to be skipped while every
// other row is loaded, with the batch repacked after the failure.
func TestBatchRowErrorRecovery(t *testing.T) {
	srv := testEnv(t)

	// Build a file by hand: 1 observation, 1 ccd, 1 frame and 100 objects
	// where object #45 duplicates the primary key of object #3.
	recs := []catalog.Record{
		{Tag: catalog.TagOBS, Fields: []string{"1", "1", "1", "53600.1", "120.0", "10.0", "1.2", "R", "140"}},
		{Tag: catalog.TagCCD, Fields: []string{"10", "1", "5", "5", "R", "120.1", "10.1", "2.1", "4.5"}},
		{Tag: catalog.TagFRM, Fields: []string{"100", "10", "0", "53600.2", "145.0", "1.4", "900", "23.1"}},
	}
	for i := 1; i <= 100; i++ {
		id := int64(1000 + i)
		if i == 45 {
			id = 1003 // duplicate of object #3
		}
		recs = append(recs, catalog.Record{Tag: catalog.TagOBJ, Fields: []string{
			i2s(id), "100", "120.2", "10.2", "18.5", "0.02", "1.4", "0.1", "0"}})
	}
	file := &catalog.File{
		Name:         "handmade.cat",
		Records:      recs,
		NominalBytes: 1 << 20,
		DataRows:     len(recs),
		RowsByTable:  map[string]int{},
	}

	cfg := DefaultConfig()
	cfg.BatchSize = 40
	cfg.ArraySize = 1000
	stats := loadWith(t, srv, file, cfg)

	if stats.RowsSkipped != 1 {
		t.Fatalf("RowsSkipped = %d, want exactly 1", stats.RowsSkipped)
	}
	if stats.RowsLoaded != len(recs)-1 {
		t.Fatalf("RowsLoaded = %d, want %d", stats.RowsLoaded, len(recs)-1)
	}
	n, _ := srv.DB().Count(catalog.TObjects)
	if n != 99 {
		t.Fatalf("objects = %d, want 99", n)
	}
	if len(stats.Skipped) != 1 || stats.Skipped[0].Table != catalog.TObjects {
		t.Fatalf("skip record: %+v", stats.Skipped)
	}
	if !strings.Contains(stats.Skipped[0].Reason, "PRIMARY KEY") {
		t.Fatalf("skip reason: %q", stats.Skipped[0].Reason)
	}
	// The error cost one extra database call (the broken batch is split into
	// the part before the error and the repacked remainder).
	perfect := 0
	for _, rows := range map[string]int{"obs": 1, "ccd": 1, "frm": 1, "obj": 100} {
		perfect += (rows + cfg.BatchSize - 1) / cfg.BatchSize
	}
	if stats.DBCalls != perfect+1 {
		t.Fatalf("DBCalls = %d, want %d (+1 for the repacked batch)", stats.DBCalls, perfect+1)
	}
}

func i2s(v int64) string { return strconv.FormatInt(v, 10) }

// TestNonFiniteFieldIsARejectedRow loads objects whose magnitude or position
// is NaN or infinite into a repository that keeps the (ra, dec, mag)
// composite index, maintained per batch and suspended until Seal.  Each such
// row is a transform error, skipped and counted like any malformed field;
// none reaches the index, whose key encoder panics on a NaN (the range
// checks let one through until they were written to fail on it).
func TestNonFiniteFieldIsARejectedRow(t *testing.T) {
	bad := map[int]struct{ field int }{5: {4}, 9: {2}, 13: {4}, 17: {3}} // OBJ fields: 2 ra, 3 dec, 4 mag
	values := []string{"NaN", "NaN", "-Inf", "+Inf"}
	recs := []catalog.Record{
		{Tag: catalog.TagOBS, Fields: []string{"1", "1", "1", "53600.1", "120.0", "10.0", "1.2", "R", "140"}},
		{Tag: catalog.TagCCD, Fields: []string{"10", "1", "5", "5", "R", "120.1", "10.1", "2.1", "4.5"}},
		{Tag: catalog.TagFRM, Fields: []string{"100", "10", "0", "53600.2", "145.0", "1.4", "900", "23.1"}},
	}
	for i, v := 1, 0; i <= 20; i++ {
		ra := strconv.FormatFloat(120.2+float64(i)/1000, 'f', 3, 64) // a key of its own in each index
		fields := []string{i2s(int64(1000 + i)), "100", ra, "10.2", "18.5", "0.02", "1.4", "0.1", "0"}
		if b, ok := bad[i]; ok {
			fields[b.field] = values[v]
			v++
		}
		recs = append(recs, catalog.Record{Tag: catalog.TagOBJ, Fields: fields, Line: 3 + i})
	}
	for _, policy := range []relstore.IndexPolicy{relstore.IndexImmediate, relstore.IndexDeferred} {
		db, err := tuning.OpenRepository(tuning.HTMIDPlusComposite, relstore.WithIndexPolicy(policy))
		if err != nil {
			t.Fatal(err)
		}
		if policy == relstore.IndexDeferred {
			if err := db.BeginLoad(); err != nil {
				t.Fatal(err)
			}
		}
		srv := sqlbatch.NewServerOn(exec.NewDES(7), db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
		file := &catalog.File{Name: "nonfinite.cat", Records: recs, NominalBytes: 1 << 20, DataRows: len(recs), RowsByTable: map[string]int{}}
		stats := loadWith(t, srv, file, DefaultConfig())
		if policy == relstore.IndexDeferred {
			if _, err := db.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if stats.ParseErrors != len(bad) || stats.RowsSkipped != 0 || stats.RowsLoaded != len(recs)-len(bad) {
			t.Fatalf("%v: %d rejected, %d skipped, %d loaded; want %d, 0, %d",
				policy, stats.ParseErrors, stats.RowsSkipped, stats.RowsLoaded, len(bad), len(recs)-len(bad))
		}
		if n, _ := db.Count(catalog.TObjects); n != 20-int64(len(bad)) {
			t.Fatalf("%v: %d objects stored, want %d", policy, n, 20-len(bad))
		}
		for _, ix := range db.AllIndexes() {
			if !ix.Ready() || ix.Tree().Len() != 20-len(bad) {
				t.Fatalf("%v: index %s after the load: ready %v, %d keys", policy, ix.Name, ix.Ready(), ix.Tree().Len())
			}
		}
	}
}

func TestCommitEveryBatches(t *testing.T) {
	srv := testEnv(t)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 2, Seed: 9, RunID: 1, IDBase: 1000})
	cfg := DefaultConfig()
	cfg.CommitEveryBatches = 2
	stats := loadWith(t, srv, file, cfg)
	if stats.Commits < 3 {
		t.Fatalf("Commits = %d, want several", stats.Commits)
	}
	if stats.RowsLoaded != file.DataRows {
		t.Fatalf("RowsLoaded = %d, want %d", stats.RowsLoaded, file.DataRows)
	}
	if n, _ := srv.DB().Count(catalog.TObjects); n == 0 {
		t.Fatal("no objects committed")
	}
}

func TestProvenanceRecording(t *testing.T) {
	srv := testEnv(t)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 2, Seed: 13, RunID: 1, IDBase: 1000, ErrorRate: 0.05})
	cfg := DefaultConfig()
	cfg.RecordProvenance = true
	cfg.LoaderNode = 3
	stats := loadWith(t, srv, file, cfg)
	runs, _ := srv.DB().Count(catalog.TLoadRuns)
	if runs != 1 {
		t.Fatalf("load_runs = %d, want 1", runs)
	}
	errRows, _ := srv.DB().Count(catalog.TLoadErrors)
	if int(errRows) != stats.RowsSkipped {
		t.Fatalf("load_errors = %d, want %d", errRows, stats.RowsSkipped)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{RowsRead: 10, RowsLoaded: 8, RowsSkipped: 2, NominalBytes: 100, Elapsed: 5,
		RowsLoadedByTable: map[string]int{"x": 8}, SkippedByTable: map[string]int{"x": 2}}
	b := Stats{RowsRead: 5, RowsLoaded: 5, NominalBytes: 50, Elapsed: 9,
		RowsLoadedByTable: map[string]int{"x": 3, "y": 2}}
	a.Merge(b)
	if a.RowsRead != 15 || a.RowsLoaded != 13 || a.NominalBytes != 150 {
		t.Fatalf("merge totals: %+v", a)
	}
	if a.Elapsed != 9 {
		t.Fatalf("merge should keep the max elapsed, got %v", a.Elapsed)
	}
	if a.RowsLoadedByTable["x"] != 11 || a.RowsLoadedByTable["y"] != 2 {
		t.Fatalf("per-table merge: %v", a.RowsLoadedByTable)
	}
	var zero Stats
	zero.Merge(b)
	if zero.RowsLoaded != 5 || zero.RowsLoadedByTable["x"] != 3 {
		t.Fatalf("merge into zero value: %+v", zero)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BatchSize != 40 || cfg.ArraySize != 1000 {
		t.Fatalf("defaults: %+v", cfg)
	}
	d := DefaultConfig()
	if d.BatchSize != 40 || d.ArraySize != 1000 {
		t.Fatalf("DefaultConfig: %+v", d)
	}
}

// TestRowAccountingProperty: for arbitrary (small) error rates and batch
// sizes, every input row is either loaded, skipped by the database, or
// rejected by the client-side transform — each exactly once — and the
// repository never contains an orphan.
func TestRowAccountingProperty(t *testing.T) {
	f := func(seed int64, errPct, batchRaw uint8) bool {
		errorRate := float64(errPct%20) / 100.0
		batch := int(batchRaw%60) + 5
		srv := testEnvQuiet()
		file := catalog.Generate(catalog.GenSpec{
			SizeMB: 1.5, Seed: seed, RunID: 1, IDBase: 1000, ErrorRate: errorRate,
		})
		cfg := DefaultConfig()
		cfg.BatchSize = batch
		var stats Stats
		var loadErr error
		srv.Scheduler().Spawn("loader", func(w exec.Worker) {
			conn := srv.ConnectWorker(w)
			defer conn.Close()
			loader, err := NewLoader(conn, cfg)
			if err != nil {
				loadErr = err
				return
			}
			stats, loadErr = loader.LoadFiles([]*catalog.File{file})
		})
		srv.Scheduler().Run()
		if loadErr != nil {
			return false
		}
		if stats.RowsLoaded+stats.RowsSkipped+stats.ParseErrors != stats.RowsRead {
			return false
		}
		if stats.RowsRead != file.DataRows {
			return false
		}
		loaded := int64(0)
		for _, table := range catalog.CatalogTables() {
			n, _ := srv.DB().Count(table)
			loaded += n
		}
		if loaded != int64(stats.RowsLoaded) {
			return false
		}
		orphans, _ := srv.DB().VerifyIntegrity()
		return orphans == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// testEnvQuiet is testEnv without the testing.T plumbing, for property tests.
func testEnvQuiet() *sqlbatch.Server {
	sched := exec.NewDES(7)
	db := relstore.MustOpen(catalog.NewSchema())
	txn, _ := db.Begin()
	_ = catalog.SeedReference(txn, 8)
	_, _ = txn.Commit()
	return sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

// TestRebindServesTheNextConnection: a loader moved to a second connection
// loads the next file through it with statistics that start over and
// provenance ids that do not; and between files its row scratch holds no
// value of the file it finished, so keeping a loader does not pin a file's
// text (the array-set clears what it recycles: arrayset.TestRecycleReusesBuffers).
func TestRebindServesTheNextConnection(t *testing.T) {
	srv := testEnv(t)
	first := catalog.Generate(catalog.GenSpec{Name: "first.cat", SizeMB: 3, Seed: 5, ErrorRate: 0.02, RunID: 1, IDBase: 1000})
	second := catalog.Generate(catalog.GenSpec{Name: "second.cat", SizeMB: 2, Seed: 6, RunID: 1, IDBase: 500_000})
	cfg := DefaultConfig()
	cfg.RecordProvenance = true
	var loader *Loader
	var firstStats Stats
	load := func(f *catalog.File) {
		srv.Scheduler().Spawn("loader-"+f.Name, func(w exec.Worker) {
			conn := srv.ConnectWorker(w)
			defer conn.Close()
			if loader == nil {
				var err error
				if loader, err = NewLoader(conn, cfg); err != nil {
					t.Error(err)
					return
				}
			} else {
				loader.Rebind(conn)
			}
			if err := loader.LoadFile(f); err != nil {
				t.Error(err)
			}
		})
		srv.Scheduler().Run()
		if t.Failed() {
			t.FailNow()
		}
		for _, v := range loader.rowScratch[:cap(loader.rowScratch)] {
			if v != (relstore.Value{}) {
				t.Fatalf("after %s the row scratch still holds %v", f.Name, v)
			}
		}
	}
	load(first)
	firstStats = loader.Stats()
	runID := loader.nextLoadRunID
	load(second)

	stats := loader.Stats()
	if stats.Files != 1 || stats.RowsRead != second.DataRows || stats.RowsLoaded != second.DataRows || stats.Commits != 1 || len(stats.Skipped) != 0 {
		t.Errorf("after Rebind the statistics are not the second file's alone: %+v (the first file's: %d read, %d skipped)",
			stats, firstStats.RowsRead, firstStats.RowsSkipped)
	}
	if firstStats.RowsSkipped == 0 || loader.nextLoadRunID != runID+1 {
		t.Errorf("first file skipped %d rows; load run id went %d -> %d, want one more", firstStats.RowsSkipped, runID, loader.nextLoadRunID)
	}
	if n, _ := srv.DB().Count(catalog.TLoadRuns); n != 2 {
		t.Errorf("%d load_runs rows, want one per file", n)
	}
}
