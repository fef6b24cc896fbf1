package sqlbatch

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/des"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
)

// redoByteTime is what one redo byte costs under redoCost: the log device
// writes 512 bytes a second, so LogTime(n) is exactly n of these and the
// server's LogIOTime reads back, byte for byte, the redo it charged.
const redoByteTime = time.Second / 512

// redoCost prices nothing but the redo log.
func redoCost() CostModel { return CostModel{LogBytesPerSecond: 512} }

// redoLedger follows a server's redo model: the tail it holds and the bytes
// it has charged to its log device (every call's records plus every commit's
// forced bytes).
type redoLedger struct {
	t       *testing.T
	srv     *Server
	tail    int64
	charged int64
}

func newRedoLedger(t *testing.T, srv *Server) *redoLedger {
	srv.cost = redoCost()
	return &redoLedger{t: t, srv: srv}
}

// call records an insert call that appended n redo bytes.
func (l *redoLedger) call(n int64) { l.tail += n; l.charged += n }

// commit records a commit: it forces the tail plus the marker.
func (l *redoLedger) commit() { l.charged += l.tail + 48; l.tail = 0 }

func (l *redoLedger) check(when string) {
	l.t.Helper()
	tail, charged := l.srv.redo.Load(), int64(l.srv.Stats().LogIOTime/redoByteTime)
	if tail != l.tail || charged != l.charged {
		l.t.Errorf("%s: tail %d, charged %d; want %d, %d", when, tail, charged, l.tail, l.charged)
	}
}

// payload is the row and index-entry bytes an insert call reported.
func payload(res BatchResult) int64 {
	return int64(res.Report.RowBytes + res.Report.IndexEntryBytes)
}

// TestRedoPerRowAndCommit pins the per-row path's byte counts on the DES
// scheduler: one record of payload+28 per stored row, none for a rejected
// row, a commit forces the tail plus a 48-byte marker and empties it, and a
// rollback leaves its bytes in the tail for the next commit to force.
func TestRedoPerRowAndCommit(t *testing.T) {
	k, srv := newTestServer(t, ServerConfig{})
	l := newRedoLedger(t, srv)
	k.Spawn("loader", func(p *des.Proc) {
		conn := srv.Connect(p)
		defer conn.Close()
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		if err := conn.Begin(); err != nil {
			t.Error(err)
			return
		}
		res, _ := stmt.ExecuteSingle(obsValues(1))
		if payload(res) == 0 {
			t.Errorf("a stored row reported no payload: %+v", res.Report)
		}
		l.call(payload(res) + 28)
		l.check("one row")

		for id := int64(2); id <= 4; id++ {
			stmt.AddBatch(obsValues(id))
		}
		res, _ = stmt.ExecuteBatch()
		l.call(payload(res) + 3*28) // DES applies a batch row by row
		l.check("three rows, one call")

		if res, _ = stmt.ExecuteSingle(obsValues(1)); res.Err == nil {
			t.Error("duplicate row accepted")
		}
		l.check("rejected row")

		if err := conn.Commit(); err != nil {
			t.Error(err)
		}
		l.commit()
		l.check("commit")

		_ = conn.Begin()
		res, _ = stmt.ExecuteSingle(obsValues(10))
		l.call(payload(res) + 28)
		if err := conn.Rollback(); err != nil {
			t.Error(err)
		}
		l.check("rollback")

		_ = conn.Begin()
		if err := conn.Commit(); err != nil {
			t.Error(err)
		}
		l.commit()
		l.check("empty commit after a rollback")
	})
	k.Run()
}

// TestRedoBatchRecords pins the batch-apply path's group record on the wall
// clock: a batch of n stored rows adds payload+28+4n once, a batch that
// stores a prefix pays for the prefix, and a batch that stores nothing adds
// nothing.
func TestRedoBatchRecords(t *testing.T) {
	srv := NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 3}), seededDB(t), ServerConfig{}, DefaultCostModel())
	l := newRedoLedger(t, srv)
	onWorker(srv, func(conn *Conn) {
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		_ = conn.Begin()
		rows := [][]relstore.Value{obsValues(1), obsValues(2), obsValues(3), obsValues(4), obsValues(5)}
		res, _ := stmt.ExecuteBatchRows(rows)
		if res.RowsInserted != 5 {
			t.Errorf("batch stored %d of 5 rows", res.RowsInserted)
		}
		l.call(payload(res) + 28 + 4*5)
		l.check("batch of 5")

		res, _ = stmt.ExecuteBatchRows([][]relstore.Value{obsValues(6), obsValues(1), obsValues(7)})
		if res.RowsInserted != 1 {
			t.Errorf("batch with a duplicate second row stored %d rows, want 1", res.RowsInserted)
		}
		l.call(payload(res) + 28 + 4)
		l.check("prefix of 1")

		if res, _ = stmt.ExecuteBatchRows([][]relstore.Value{obsValues(1), obsValues(8)}); res.RowsInserted != 0 {
			t.Errorf("batch with a duplicate first row stored %d rows", res.RowsInserted)
		}
		if _, err := stmt.ExecuteBatchRows(nil); !errors.Is(err, ErrBatchEmpty) {
			t.Errorf("empty batch: %v", err)
		}
		l.check("batches that store nothing")

		_ = conn.Commit()
		l.commit()
		l.check("commit")
	})
}

// TestRedoPipelinedCommit: a commit started with CommitStart forces the tail
// as it stood then, so what the connection writes before the commit retires
// is the next commit's; and a started commit whose log fails returns its
// bytes to the tail, as a rolled-back transaction's stay there.
func TestRedoPipelinedCommit(t *testing.T) {
	injected := errors.New("injected fsync failure")
	var armed atomic.Bool
	srv := durableServer(t, ServerConfig{}, relstore.WithFaultHook(func(p relstore.FaultPoint) error {
		if p == relstore.FPWALSync && armed.Load() {
			return injected
		}
		return nil
	}))
	l := newRedoLedger(t, srv)
	onWorker(srv, func(conn *Conn) {
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		_ = conn.Begin()
		res, _ := stmt.ExecuteSingle(obsValues(1))
		l.call(payload(res) + 28)
		if err := conn.CommitStart(); err != nil || conn.pending == nil {
			t.Errorf("CommitStart: %v, pending %v", err, conn.pending != nil)
		}
		first := l.tail
		l.tail = 0
		l.check("commit 1 started")

		_ = conn.Begin()
		res, _ = stmt.ExecuteSingle(obsValues(2))
		l.call(payload(res) + 28)
		if err := conn.Retire(); err != nil {
			t.Error(err)
		}
		l.charged += first + 48
		l.check("commit 1 retired behind transaction 2")

		if err := conn.Commit(); err != nil {
			t.Error(err)
		}
		l.commit()
		l.check("commit 2")

		_ = conn.Begin()
		res, _ = stmt.ExecuteSingle(obsValues(3))
		l.call(payload(res) + 28)
		armed.Store(true)
		if err := conn.CommitStart(); err != nil {
			t.Error(err)
		}
		if err := conn.Retire(); !errors.Is(err, injected) {
			t.Errorf("Retire over a failed fsync: %v", err)
		}
		l.check("failed commit")
	})
}

// TestConcurrentRedoTailAccountsEveryByte runs four wall-clock connections
// against one server, mixing per-row calls, batches, commits, pipelined
// commits and rollbacks: with the tail one atomic shared by all of them, the
// bytes the commits forced plus the final tail must equal the bytes every
// call appended plus a marker per commit.
func TestConcurrentRedoTailAccountsEveryByte(t *testing.T) {
	srv := NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 3}), seededDB(t), ServerConfig{}, DefaultCostModel())
	srv.cost = redoCost()
	const conns, txns, callsPerTxn = 4, 12, 5
	var appended atomic.Int64
	for c := 0; c < conns; c++ {
		next := int64(c) * 1000
		srv.Scheduler().Spawn(fmt.Sprintf("loader-%d", c), func(w exec.Worker) {
			conn := srv.ConnectWorker(w)
			defer conn.Close()
			stmt := conn.Prepare(catalog.TObservations, obsColumns)
			for j := 0; j < txns; j++ {
				if err := conn.Begin(); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < callsPerTxn; i++ {
					n := 1 + (c+i)%4
					for r := 0; r < n; r++ {
						next++
						stmt.AddBatch(obsValues(next))
					}
					res, err := stmt.ExecuteBatch()
					if err != nil || res.RowsInserted != n {
						t.Errorf("call of %d rows: %d stored, %v %v", n, res.RowsInserted, err, res.Err)
					}
					slots := 0
					if n > 1 {
						slots = n
					}
					appended.Add(payload(res) + 28 + 4*int64(slots))
				}
				var err error
				switch (c + j) % 3 {
				case 0:
					err = conn.Commit()
				case 1:
					err = conn.CommitStart()
				default:
					err = conn.Rollback()
				}
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
	srv.Scheduler().Run()
	st := srv.Stats()
	forced := int64(st.LogIOTime/redoByteTime) - appended.Load()
	if st.Commits == 0 || st.Rollbacks == 0 {
		t.Fatalf("commits %d, rollbacks %d: the mix did not run", st.Commits, st.Rollbacks)
	}
	if got, want := forced+srv.redo.Load(), appended.Load()+48*st.Commits; got != want {
		t.Fatalf("forced %d + tail %d = %d, want appended %d + 48 × %d commits = %d",
			forced, srv.redo.Load(), got, appended.Load(), st.Commits, want)
	}
}
