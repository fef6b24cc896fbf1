package core

import (
	"sync/atomic"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

// durableEnv builds a realtime server over a seeded repository database with
// a WAL directory.
func durableEnv(t *testing.T, opts ...relstore.Option) *sqlbatch.Server {
	t.Helper()
	db, err := relstore.Open(catalog.NewSchema(), append([]relstore.Option{relstore.WithWALDir(t.TempDir())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
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
	rt := exec.NewRealtime(exec.RealtimeConfig{Seed: 5})
	return sqlbatch.NewServerOn(rt, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

// spawnLoad starts one loader over file on the server's scheduler; the caller
// runs the scheduler.  stats and err are the loader's to write until then.
func spawnLoad(srv *sqlbatch.Server, file *catalog.File, cfg Config, stats *Stats, err *error) {
	srv.Scheduler().Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		var loader *Loader
		if loader, *err = NewLoader(conn, cfg); *err != nil {
			return
		}
		*stats, *err = loader.LoadFiles([]*catalog.File{file})
	})
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLoaderOverlapsOwnCommit parks the fsync of a loader's first
// CommitEveryBatches commit and requires the loader to keep going — the next
// transaction's five batches are applied while the commit is not durable —
// and then to stop at the next commit point, with exactly one commit pending:
// the second commit's marker is not appended before the first is
// acknowledged.  A loader that commits synchronously never applies a batch
// while its fsync is parked.
func TestLoaderOverlapsOwnCommit(t *testing.T) {
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	srv := durableEnv(t, relstore.WithFaultHook(func(p relstore.FaultPoint) error {
		if p == relstore.FPWALSync && armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
		return nil
	}))
	db := srv.DB()
	file := catalog.Generate(catalog.GenSpec{SizeMB: 1, Seed: 5, RunID: 1, IDBase: 1000})
	cfg := DefaultConfig()
	cfg.CommitEveryBatches = 5
	base := db.StatsSnapshot()

	var stats Stats
	var loadErr error
	armed.Store(true)
	spawnLoad(srv, file, cfg, &stats, &loadErr)
	done := make(chan struct{})
	go func() { srv.Scheduler().Run(); close(done) }()

	<-parked
	waitFor(t, "the second transaction's batches", func() bool { return srv.Stats().Calls >= 10 })
	// The loader is at its second commit point and must now be waiting for
	// the first commit; give it time to do anything else it would do.
	time.Sleep(50 * time.Millisecond)
	now := db.StatsSnapshot()
	if calls := srv.Stats().Calls; calls != 10 {
		t.Errorf("%d batches applied with the first commit parked, want 10 (5 + the next transaction's 5)", calls)
	}
	if got := now.WAL.Commits - base.WAL.Commits; got != 1 {
		t.Errorf("%d commit markers appended with the first commit parked, want 1: never two pending", got)
	}
	if got := now.DB.Transactions - base.DB.Transactions; got != 2 {
		t.Errorf("%d transactions begun, want 2", got)
	}
	if got := now.DB.Commits - base.DB.Commits; got != 0 {
		t.Errorf("%d commits settled before the parked fsync returned", got)
	}

	close(release)
	<-done
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	end := db.StatsSnapshot()
	if stats.RowsLoaded != file.DataRows || stats.Commits < 3 ||
		int64(stats.Commits) != end.DB.Commits-base.DB.Commits || int64(stats.Commits) != srv.Stats().Commits {
		t.Fatalf("loaded %d of %d rows; commits: loader %d, engine %d, server %d", stats.RowsLoaded, file.DataRows,
			stats.Commits, end.DB.Commits-base.DB.Commits, srv.Stats().Commits)
	}
	if end.WAL.CommitWaitNs == 0 {
		t.Error("CommitWaitNs is zero after a load that waited on a parked fsync")
	}
}

// TestPipelinedLoaderKeepsCheckpointing: a loader that is always one
// transaction ahead never offers a checkpoint a moment with no rows pending,
// so the commit that finds one due retires before the next Begin.  The count
// is the one the same bytes give through synchronous commits (relstore's
// TestAutoCheckpointKeepsQuietPoint compares the two); it is pinned here for
// the real loader.
func TestPipelinedLoaderKeepsCheckpointing(t *testing.T) {
	srv := durableEnv(t, relstore.WithCheckpointEvery(64<<10))
	file := catalog.Generate(catalog.GenSpec{SizeMB: 40, Seed: 5, RunID: 1, IDBase: 1000})
	cfg := DefaultConfig()
	cfg.CommitEveryBatches = 5
	var stats Stats
	var loadErr error
	spawnLoad(srv, file, cfg, &stats, &loadErr)
	srv.Scheduler().Run()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	ws := srv.DB().WAL().Stats()
	if ws.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d over %d log bytes, want 3", ws.Checkpoints, ws.DurableBytes)
	}
	if stats.RowsLoaded != file.DataRows {
		t.Fatalf("loaded %d of %d rows", stats.RowsLoaded, file.DataRows)
	}
}
