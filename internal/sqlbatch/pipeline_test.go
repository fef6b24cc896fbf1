package sqlbatch

import (
	"errors"
	"sync/atomic"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
)

// durableServer builds a realtime server over a seeded catalog database with
// a WAL directory.
func durableServer(t *testing.T, cfg ServerConfig, opts ...relstore.Option) *Server {
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
	return NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 5}), db, cfg, DefaultCostModel())
}

// onWorker runs fn on a realtime worker of the server and waits for it.
func onWorker(srv *Server, fn func(conn *Conn)) {
	srv.Scheduler().Spawn("loader", func(w exec.Worker) { fn(srv.ConnectWorker(w)) })
	srv.Scheduler().Run()
}

func insertObs(t *testing.T, conn *Conn, id int64) {
	t.Helper()
	res, err := conn.Prepare(catalog.TObservations, obsColumns).ExecuteBatchRows([][]relstore.Value{obsValues(id)})
	if err != nil || res.Err != nil {
		t.Errorf("insert observation %d: %v %v", id, err, res.Err)
	}
}

// TestCommitStartWithoutLogIsCommit: on a database with no durable log (every
// DES run) CommitStart has nothing to overlap and is Commit: counted, charged
// and its slot freed before it returns, so the virtual-time figures cannot
// tell the two apart.
func TestCommitStartWithoutLogIsCommit(t *testing.T) {
	var elapsed [2]int64
	for i, start := range []bool{false, true} {
		sched, srv := newTestServer(t, ServerConfig{})
		sched.Spawn("loader", func(w exec.Worker) {
			conn := srv.ConnectWorker(w)
			if err := conn.Begin(); err != nil {
				t.Error(err)
				return
			}
			insertObs(t, conn, 1)
			commit := conn.Commit
			if start {
				commit = conn.CommitStart
			}
			if err := commit(); err != nil {
				t.Error(err)
			}
			if conn.pending != nil || conn.InTransaction() || conn.Stats().Commits != 1 || srv.txnSlots.InUse() != 0 {
				t.Errorf("after commit (start=%v): pending=%v commits=%d slots=%d", start, conn.pending != nil, conn.Stats().Commits, srv.txnSlots.InUse())
			}
			elapsed[i] = int64(w.Now())
		})
		sched.Run()
		if srv.Stats().Commits != 1 {
			t.Fatalf("server commits = %d", srv.Stats().Commits)
		}
	}
	if elapsed[0] != elapsed[1] || elapsed[0] == 0 {
		t.Fatalf("virtual time: Commit %d, CommitStart %d", elapsed[0], elapsed[1])
	}
}

// TestPipelinedConnHoldsOneSlotAndOnePending walks a connection through
// commit k started, k+1 begun, k+1 started: the connection never holds more
// than one slot or one pending commit, commits are counted when they retire,
// Rollback and Close retire first, and a retired connection leaves the
// server free to seal.
func TestPipelinedConnHoldsOneSlotAndOnePending(t *testing.T) {
	srv := durableServer(t, ServerConfig{TxnSlots: 1})
	onWorker(srv, func(conn *Conn) {
		check := func(when string, pending bool, commits int64, slots int) {
			t.Helper()
			if (conn.pending != nil) != pending || conn.Stats().Commits != commits || srv.txnSlots.InUse() != slots {
				t.Errorf("%s: pending=%v commits=%d slots=%d, want %v %d %d", when,
					conn.pending != nil, conn.Stats().Commits, srv.txnSlots.InUse(), pending, commits, slots)
			}
		}
		if err := conn.Begin(); err != nil {
			t.Error(err)
			return
		}
		insertObs(t, conn, 1)
		if err := conn.CommitStart(); err != nil {
			t.Error(err)
		}
		check("commit 1 started", true, 0, 1)
		// With TxnSlots 1 a second slot would never come: the pending commit's
		// passes to the next transaction.
		if err := conn.Begin(); err != nil {
			t.Error(err)
		}
		check("transaction 2 begun", true, 0, 1)
		insertObs(t, conn, 2)
		if err := conn.CommitStart(); err != nil {
			t.Error(err)
		}
		check("commit 2 started", true, 1, 1)
		if err := conn.Retire(); err != nil {
			t.Error(err)
		}
		if _, err := srv.Seal(conn.Worker()); err != nil {
			t.Error(err)
		}
		check("sealed", false, 2, 0)

		if err := conn.Begin(); err != nil {
			t.Error(err)
		}
		insertObs(t, conn, 3)
		if err := conn.CommitStart(); err != nil {
			t.Error(err)
		}
		if err := conn.Begin(); err != nil {
			t.Error(err)
		}
		insertObs(t, conn, 4)
		if err := conn.Rollback(); err != nil {
			t.Error(err)
		}
		check("rolled back behind a pending commit", false, 3, 0)

		if err := conn.Begin(); err != nil {
			t.Error(err)
		}
		insertObs(t, conn, 5)
		if err := conn.CommitStart(); err != nil {
			t.Error(err)
		}
		if err := conn.Close(); err != nil {
			t.Error(err)
		}
		check("closed", false, 4, 0)
	})
	if n, _ := srv.DB().Count(catalog.TObservations); n != 4 {
		t.Fatalf("observations = %d, want 4 (1, 2, 3, 5)", n)
	}
	if st := srv.Stats(); st.Commits != 4 || st.Rollbacks != 1 {
		t.Fatalf("server commits=%d rollbacks=%d", st.Commits, st.Rollbacks)
	}
}

// TestFailedLogIsNotASkippedRow: a log device that has failed makes the call
// itself fail — a loader must not take it for a constraint violation and
// skip its way through the rest of the night.
func TestFailedLogIsNotASkippedRow(t *testing.T) {
	injected := errors.New("injected fsync failure")
	var armed atomic.Bool
	srv := durableServer(t, ServerConfig{}, relstore.WithFaultHook(func(p relstore.FaultPoint) error {
		if p == relstore.FPWALSync && armed.Load() {
			return injected
		}
		return nil
	}))
	onWorker(srv, func(conn *Conn) {
		if err := conn.Begin(); err != nil {
			t.Error(err)
			return
		}
		insertObs(t, conn, 1)
		armed.Store(true)
		if err := conn.CommitStart(); err != nil {
			t.Error(err)
		}
		if err := conn.Begin(); err != nil {
			t.Error(err)
		}
		if err := conn.Retire(); !errors.Is(err, injected) {
			t.Errorf("Retire over a failed fsync: %v", err)
		}
		res, err := conn.Prepare(catalog.TObservations, obsColumns).ExecuteBatchRows([][]relstore.Value{obsValues(2)})
		if !errors.Is(err, injected) {
			t.Errorf("ExecuteBatchRows on a failed log: err=%v res.Err=%v", err, res.Err)
		}
		if err := conn.CommitStart(); !errors.Is(err, injected) {
			t.Errorf("CommitStart on a failed log: %v", err)
		}
		if conn.InTransaction() || conn.pending != nil || srv.txnSlots.InUse() != 0 || conn.Stats().Commits != 0 {
			t.Errorf("after the failure: inTxn=%v pending=%v slots=%d commits=%d",
				conn.InTransaction(), conn.pending != nil, srv.txnSlots.InUse(), conn.Stats().Commits)
		}
	})
	if err := srv.DB().Close(); !errors.Is(err, injected) {
		t.Fatalf("Close: %v", err)
	}
}
