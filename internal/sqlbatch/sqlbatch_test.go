package sqlbatch

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
)

// newTestServer builds a DES server over a freshly seeded catalog database.
func newTestServer(t *testing.T, cfg ServerConfig) (exec.Scheduler, *Server) {
	t.Helper()
	sched := exec.NewDES(1)
	return sched, NewServerOn(sched, seededDB(t), cfg, DefaultCostModel())
}

// seededDB opens a catalog database with its reference tables seeded.
func seededDB(t *testing.T) *relstore.DB {
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
	return db
}

func obsValues(id int64) []relstore.Value {
	return []relstore.Value{relstore.Int(id), relstore.Int(1), relstore.Int(1), relstore.Float(53600.5), relstore.Float(120.0), relstore.Float(10.0), relstore.Float(1.2), relstore.Str("R"), relstore.Float(140.0)}
}

var obsColumns = []string{"obs_id", "run_id", "telescope_id", "mjd_start", "ra_center", "dec_center", "airmass", "filter_set", "exposure_s"}

func TestBatchInsertHappyPath(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	var res BatchResult
	var elapsed time.Duration
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		if err := conn.Begin(); err != nil {
			t.Error(err)
			return
		}
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		for i := int64(1); i <= 5; i++ {
			stmt.AddBatch(obsValues(i))
		}
		var err error
		res, err = stmt.ExecuteBatch()
		if err != nil {
			t.Error(err)
		}
		if err := conn.Commit(); err != nil {
			t.Error(err)
		}
		elapsed = w.Now()
	})
	sched.Run()
	if res.Err != nil || res.RowsInserted != 5 || res.FailedIndex != -1 {
		t.Fatalf("batch result: %+v", res)
	}
	if n, _ := srv.DB().Count(catalog.TObservations); n != 5 {
		t.Fatalf("observations = %d", n)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time charged")
	}
	st := srv.Stats()
	if st.Calls != 1 || st.RowsInserted != 5 || st.Commits != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

func TestBatchStopsAtFirstError(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	var res BatchResult
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		stmt.AddBatch(obsValues(1))
		stmt.AddBatch(obsValues(2))
		stmt.AddBatch(obsValues(1)) // duplicate primary key
		stmt.AddBatch(obsValues(3)) // must NOT be applied
		res, _ = stmt.ExecuteBatch()
		_ = conn.Commit()
	})
	sched.Run()
	if res.Err == nil || res.FailedIndex != 2 || res.RowsInserted != 2 {
		t.Fatalf("batch result: %+v", res)
	}
	if kind, _ := relstore.ViolationKind(res.Err); kind != relstore.KindPrimaryKey {
		t.Fatalf("violation kind: %v", res.Err)
	}
	// JDBC semantics: rows before the failure applied, the failing row and
	// everything after it discarded.
	n, _ := srv.DB().Count(catalog.TObservations)
	if n != 2 {
		t.Fatalf("observations = %d, want 2", n)
	}
}

func TestBatchRequiresTransactionAndRows(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		if _, err := stmt.ExecuteBatch(); !errors.Is(err, ErrBatchEmpty) {
			t.Errorf("empty batch: %v", err)
		}
		stmt.AddBatch(obsValues(1))
		if _, err := stmt.ExecuteBatch(); !errors.Is(err, ErrNoTransaction) {
			t.Errorf("no transaction: %v", err)
		}
		if err := conn.Commit(); !errors.Is(err, ErrNoTransaction) {
			t.Errorf("commit without txn: %v", err)
		}
		if err := conn.Begin(); err != nil {
			t.Error(err)
		}
		if err := conn.Begin(); err == nil {
			t.Error("double begin should fail")
		}
		_ = conn.Rollback()
	})
	sched.Run()
}

func TestRollbackDiscardsRows(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		stmt.AddBatch(obsValues(1))
		if _, err := stmt.ExecuteBatch(); err != nil {
			t.Error(err)
		}
		if err := conn.Rollback(); err != nil {
			t.Error(err)
		}
		// Close after rollback is a no-op.
		if err := conn.Close(); err != nil {
			t.Error(err)
		}
	})
	sched.Run()
	if n, _ := srv.DB().Count(catalog.TObservations); n != 0 {
		t.Fatalf("rollback left %d rows", n)
	}
	if srv.Stats().Rollbacks != 1 {
		t.Fatalf("rollbacks = %d", srv.Stats().Rollbacks)
	}
}

func TestCloseRollsBackActiveTransaction(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		if _, err := stmt.ExecuteSingle(obsValues(9)); err != nil {
			t.Error(err)
		}
		if err := conn.Close(); err != nil {
			t.Error(err)
		}
	})
	sched.Run()
	if n, _ := srv.DB().Count(catalog.TObservations); n != 0 {
		t.Fatalf("close did not roll back: %d rows", n)
	}
}

func TestExecuteSingle(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	var singleTime, batchTime time.Duration
	sched.Spawn("single", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		start := w.Now()
		for i := int64(1); i <= 40; i++ {
			if _, err := stmt.ExecuteSingle(obsValues(i)); err != nil {
				t.Error(err)
			}
		}
		singleTime = w.Now() - start
		_ = conn.Commit()
	})
	sched.Run()

	sched2, srv2 := newTestServer(t, ServerConfig{})
	sched2.Spawn("batch", func(w exec.Worker) {
		conn := srv2.ConnectWorker(w)
		defer conn.Close()
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		start := w.Now()
		for i := int64(1); i <= 40; i++ {
			stmt.AddBatch(obsValues(i))
		}
		if _, err := stmt.ExecuteBatch(); err != nil {
			t.Error(err)
		}
		batchTime = w.Now() - start
		_ = conn.Commit()
	})
	sched2.Run()

	if singleTime <= batchTime*4 {
		t.Fatalf("singleton inserts (%v) should be much slower than one batch (%v)", singleTime, batchTime)
	}
}

// TestTxnSlotQueueing: with one transaction slot, a second connection's Begin
// waits until the first connection commits — in virtual time under DES, as a
// real goroutine blocked in Begin under realtime.  The slots are the one limit
// on concurrent transactions; the engine admits any number.
func TestTxnSlotQueueing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched func() exec.Scheduler
		hold  func(exec.Worker)
	}{
		{"des", func() exec.Scheduler { return exec.NewDES(1) },
			func(w exec.Worker) { w.Sleep(10 * time.Second) }},
		// Worker.Sleep is a no-op on the wall clock, so the first connection
		// holds its slot with a real pause.
		{"realtime", func() exec.Scheduler { return exec.NewRealtime(exec.RealtimeConfig{Seed: 1}) },
			func(exec.Worker) { time.Sleep(10 * time.Millisecond) }},
	} {
		t.Run(tc.name, func(t *testing.T) { testTxnSlotQueueing(t, tc.sched(), tc.hold) })
	}
}

func testTxnSlotQueueing(t *testing.T, sched exec.Scheduler, hold func(exec.Worker)) {
	srv := NewServerOn(sched, seededDB(t), ServerConfig{TxnSlots: 1}, DefaultCostModel())
	var firstCommits, secondBegan atomic.Int64
	sched.Spawn("first", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		if err := conn.Begin(); err != nil {
			t.Error(err)
			return
		}
		// The second connection starts only once this one holds the slot.
		sched.Spawn("second", func(w exec.Worker) {
			conn := srv.ConnectWorker(w)
			defer conn.Close()
			if err := conn.Begin(); err != nil {
				t.Error(err)
				return
			}
			secondBegan.Store(int64(w.Now()))
			_ = conn.Commit()
		})
		hold(w)
		firstCommits.Store(int64(w.Now()))
		_ = conn.Commit()
	})
	sched.Run()
	if secondBegan.Load() < firstCommits.Load() {
		t.Fatalf("second transaction admitted at %v, before the first commits at %v",
			time.Duration(secondBegan.Load()), time.Duration(firstCommits.Load()))
	}
	if st := srv.DB().Stats(); st.Commits != 3 {
		t.Fatalf("engine commits = %d, want 3 (seed + both connections)", st.Commits)
	}
}

func TestIndexCostsChargedToIndexDisk(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	if _, err := srv.DB().CreateIndexWith(catalog.TObservations, "ix_obs_ra", []string{"ra_center"}, false, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		for i := int64(1); i <= 50; i++ {
			stmt.AddBatch(obsValues(i))
		}
		if _, err := stmt.ExecuteBatch(); err != nil {
			t.Error(err)
		}
		_ = conn.Commit()
	})
	sched.Run()
	if srv.Stats().IndexIOTime <= 0 {
		t.Fatal("index maintenance charged no index I/O time")
	}
}

func TestConnStats(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	var cs ConnStats
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		stmt.AddBatch(obsValues(1))
		stmt.AddBatch(obsValues(1)) // duplicate -> failure
		_, _ = stmt.ExecuteBatch()
		_ = conn.Commit()
		cs = conn.Stats()
	})
	sched.Run()
	if cs.Calls != 1 || cs.Batches != 1 || cs.RowsInserted != 1 || cs.RowsFailed != 1 || cs.Commits != 1 {
		t.Fatalf("conn stats: %+v", cs)
	}
}

func TestCostModelHelpers(t *testing.T) {
	m := DefaultCostModel()
	if m.NetworkTime(90_000_000) < 900*time.Millisecond {
		t.Fatalf("NetworkTime(90MB) = %v", m.NetworkTime(90_000_000))
	}
	if m.LogTime(0) != 0 || m.StagingTime(0) != 0 {
		t.Fatal("zero bytes should cost zero time")
	}
	var zero CostModel
	if zero.NetworkTime(1000) != 0 || zero.LogTime(1000) != 0 || zero.StagingTime(1000) != 0 {
		t.Fatal("zero-valued model should not divide by zero")
	}
	if m.StallThreshold < 1 || m.LockConflictProbPerWriter <= 0 {
		t.Fatal("contention defaults missing")
	}
}

func TestSharedRAIDConfiguration(t *testing.T) {
	sched := exec.NewDES(1)
	db := relstore.MustOpen(catalog.NewSchema())
	srv := NewServerOn(sched, db, ServerConfig{SeparateRAID: false}, DefaultCostModel())
	if srv.Config().SeparateRAID {
		t.Fatal("config not preserved")
	}
	// With a shared device, index and log I/O contend with data I/O; the
	// server must still work end to end.
	txn, _ := db.Begin()
	_ = catalog.SeedReference(txn, 4)
	_, _ = txn.Commit()
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		_ = conn.Begin()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		stmt.AddBatch(obsValues(1))
		if _, err := stmt.ExecuteBatch(); err != nil {
			t.Error(err)
		}
		_ = conn.Commit()
	})
	sched.Run()
	if n, _ := db.Count(catalog.TObservations); n != 1 {
		t.Fatalf("rows = %d", n)
	}
}

func TestServerStatsString(t *testing.T) {
	s := ServerStats{Calls: 3, RowsInserted: 10}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

// TestConnSealLifecycle exercises the load lifecycle around a connection: the
// policy travels with the server (relstore options), Server.BeginLoad
// suspends the deferred index, and Server.Seal after the connection's commit
// rebuilds the index and charges virtual time to the worker.
func TestConnSealLifecycle(t *testing.T) {
	sched := exec.NewDES(3)
	db := relstore.MustOpen(catalog.NewSchema(), relstore.WithIndexPolicy(relstore.IndexDeferred))
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
	if _, err := db.CreateIndexWith(catalog.TObservations, "ix_obs_run", []string{"run_id"}, false, relstore.IndexDeferred); err != nil {
		t.Fatal(err)
	}
	srv := NewServerOn(sched, db, ServerConfig{}, DefaultCostModel())

	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		if err := srv.BeginLoad(); err != nil {
			t.Error(err)
			return
		}
		ix := db.Table(catalog.TObservations).Index("ix_obs_run")
		if ix.Ready() {
			t.Error("deferred index still ready after BeginLoad")
		}
		if err := conn.Begin(); err != nil {
			t.Error(err)
			return
		}
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		for i := int64(1); i <= 10; i++ {
			stmt.AddBatch(obsValues(i))
		}
		if _, err := stmt.ExecuteBatch(); err != nil {
			t.Error(err)
		}
		if err := conn.Commit(); err != nil {
			t.Error(err)
		}
		before := w.Now()
		rep, err := srv.Seal(w)
		if err != nil {
			t.Error(err)
			return
		}
		if len(rep.Indexes) != 1 || rep.RowsStreamed != 10 {
			t.Errorf("SealReport = %+v, want 1 index over 10 rows", rep)
		}
		if w.Now() <= before {
			t.Error("Seal charged no virtual time")
		}
		if !ix.Ready() || ix.Tree().Len() == 0 {
			t.Error("index not rebuilt by Seal")
		}
	})
	sched.Run()
	st := srv.Stats()
	if st.Seals != 1 || st.SealTime <= 0 {
		t.Fatalf("server stats Seals=%d SealTime=%s, want one charged seal", st.Seals, st.SealTime)
	}
}
