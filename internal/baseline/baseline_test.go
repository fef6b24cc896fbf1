package baseline

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

func testEnv(t *testing.T) *sqlbatch.Server {
	t.Helper()
	sched := exec.NewDES(3)
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
	return sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

func TestNonBulkLoadsEverything(t *testing.T) {
	srv := testEnv(t)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 2, Seed: 4, RunID: 1, IDBase: 500})
	var stats core.Stats
	srv.Scheduler().Spawn("nonbulk", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		l := NewNonBulkLoader(conn, NonBulkConfig{})
		var err error
		stats, err = l.LoadFiles([]*catalog.File{file})
		if err != nil {
			t.Error(err)
		}
	})
	srv.Scheduler().Run()
	if stats.RowsLoaded != file.DataRows || stats.RowsSkipped != 0 {
		t.Fatalf("stats: %+v (want %d loaded)", stats, file.DataRows)
	}
	if stats.DBCalls != file.DataRows {
		t.Fatalf("DBCalls = %d, want one per row (%d)", stats.DBCalls, file.DataRows)
	}
	if stats.Commits != 1 || stats.Elapsed <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if orphans, _ := srv.DB().VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans: %d", orphans)
	}
}

func TestNonBulkSkipsBadRowsAndCommitsPeriodically(t *testing.T) {
	srv := testEnv(t)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 2, Seed: 6, RunID: 1, IDBase: 500, ErrorRate: 0.08})
	var stats core.Stats
	srv.Scheduler().Spawn("nonbulk", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		l := NewNonBulkLoader(conn, NonBulkConfig{CommitEveryRows: 25})
		var err error
		stats, err = l.LoadFiles([]*catalog.File{file})
		if err != nil {
			t.Error(err)
		}
	})
	srv.Scheduler().Run()
	if stats.RowsLoaded+stats.RowsSkipped+stats.ParseErrors != stats.RowsRead {
		t.Fatalf("accounting: %+v", stats)
	}
	if stats.RowsSkipped == 0 && stats.ParseErrors == 0 {
		t.Fatal("expected some bad rows")
	}
	if stats.Commits < 5 {
		t.Fatalf("Commits = %d, want frequent commits", stats.Commits)
	}
	if orphans, _ := srv.DB().VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans: %d", orphans)
	}
}

func TestNonBulkMatchesBulkContents(t *testing.T) {
	file := catalog.Generate(catalog.GenSpec{SizeMB: 2, Seed: 8, RunID: 1, IDBase: 500, ErrorRate: 0.03})

	// Load with the bulk loader.
	srvBulk := testEnv(t)
	var bulkStats core.Stats
	srvBulk.Scheduler().Spawn("bulk", func(w exec.Worker) {
		conn := srvBulk.ConnectWorker(w)
		defer conn.Close()
		l, err := core.NewLoader(conn, core.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		bulkStats, err = l.LoadFiles([]*catalog.File{file})
		if err != nil {
			t.Error(err)
		}
	})
	srvBulk.Scheduler().Run()

	// Load with the non-bulk loader.
	srvNB := testEnv(t)
	var nbStats core.Stats
	srvNB.Scheduler().Spawn("nonbulk", func(w exec.Worker) {
		conn := srvNB.ConnectWorker(w)
		defer conn.Close()
		l := NewNonBulkLoader(conn, NonBulkConfig{})
		var err error
		nbStats, err = l.LoadFiles([]*catalog.File{file})
		if err != nil {
			t.Error(err)
		}
	})
	srvNB.Scheduler().Run()

	// Both must load exactly the same rows into every table.
	if bulkStats.RowsLoaded != nbStats.RowsLoaded {
		t.Fatalf("bulk loaded %d rows, non-bulk %d", bulkStats.RowsLoaded, nbStats.RowsLoaded)
	}
	for _, l := range catalog.Layouts {
		table := l.Table
		a, _ := srvBulk.DB().Count(table)
		b, _ := srvNB.DB().Count(table)
		if a != b {
			t.Errorf("table %s: bulk %d rows, non-bulk %d", table, a, b)
		}
	}
	// And bulk must be much faster in virtual time (Figure 4).
	if nbStats.Elapsed < bulkStats.Elapsed*4 {
		t.Fatalf("bulk %v vs non-bulk %v: expected a large speedup", bulkStats.Elapsed, nbStats.Elapsed)
	}
}

func TestTwoPhaseLoadsEverything(t *testing.T) {
	srv := testEnv(t)
	file := catalog.Generate(catalog.GenSpec{SizeMB: 2, Seed: 14, RunID: 1, IDBase: 500, ErrorRate: 0.03})
	var stats core.Stats
	srv.Scheduler().Spawn("twophase", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		l, err := NewTwoPhaseLoader(conn)
		if err != nil {
			t.Error(err)
			return
		}
		stats, err = l.LoadFiles([]*catalog.File{file})
		if err != nil {
			t.Error(err)
		}
	})
	srv.Scheduler().Run()
	if stats.RowsLoaded == 0 {
		t.Fatal("nothing loaded")
	}
	if stats.RowsLoaded+stats.RowsSkipped+stats.ParseErrors != stats.RowsRead {
		t.Fatalf("accounting: %+v", stats)
	}
	if orphans, _ := srv.DB().VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans after publish: %d", orphans)
	}
	if err := srv.DB().VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
	if n, _ := srv.DB().Count(catalog.TObjects); n == 0 {
		t.Fatal("no objects published")
	}
}

func TestTwoPhaseMatchesBulkRowCounts(t *testing.T) {
	file := catalog.Generate(catalog.GenSpec{SizeMB: 2, Seed: 15, RunID: 1, IDBase: 500})

	srvBulk := testEnv(t)
	srvBulk.Scheduler().Spawn("bulk", func(w exec.Worker) {
		conn := srvBulk.ConnectWorker(w)
		defer conn.Close()
		l, _ := core.NewLoader(conn, core.DefaultConfig())
		if _, err := l.LoadFiles([]*catalog.File{file}); err != nil {
			t.Error(err)
		}
	})
	srvBulk.Scheduler().Run()

	srvTP := testEnv(t)
	srvTP.Scheduler().Spawn("twophase", func(w exec.Worker) {
		conn := srvTP.ConnectWorker(w)
		defer conn.Close()
		l, _ := NewTwoPhaseLoader(conn)
		if _, err := l.LoadFiles([]*catalog.File{file}); err != nil {
			t.Error(err)
		}
	})
	srvTP.Scheduler().Run()

	for _, l := range catalog.Layouts {
		table := l.Table
		a, _ := srvBulk.DB().Count(table)
		b, _ := srvTP.DB().Count(table)
		if a != b {
			t.Errorf("table %s: bulk %d rows, two-phase %d", table, a, b)
		}
	}
}

func TestTwoPhaseChunking(t *testing.T) {
	srv := testEnv(t)
	files := []*catalog.File{
		catalog.Generate(catalog.GenSpec{SizeMB: 1, Seed: 20, RunID: 1, IDBase: 1_000_000}),
		catalog.Generate(catalog.GenSpec{SizeMB: 1, Seed: 21, RunID: 1, IDBase: 2_000_000}),
		catalog.Generate(catalog.GenSpec{SizeMB: 1, Seed: 22, RunID: 1, IDBase: 3_000_000}),
	}
	var stats core.Stats
	srv.Scheduler().Spawn("twophase", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		l, err := NewTwoPhaseLoader(conn)
		if err != nil {
			t.Error(err)
			return
		}
		l.taskDBMaxMB = 1.5 // force an intermediate publish
		stats, err = l.LoadFiles(files)
		if err != nil {
			t.Error(err)
		}
	})
	srv.Scheduler().Run()
	want := 0
	for _, f := range files {
		want += f.DataRows
	}
	if stats.RowsLoaded != want {
		t.Fatalf("RowsLoaded = %d, want %d", stats.RowsLoaded, want)
	}
	if stats.Commits < 2 {
		t.Fatalf("Commits = %d, want at least one intermediate publish", stats.Commits)
	}
}
