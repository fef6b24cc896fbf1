package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file tests the log pipeline: records encoded outside the device,
// appends that never wait for an fsync, flushes beside the appenders, and a
// commit in two halves (Txn.CommitStart / PendingCommit.Wait).

// miniLoader drives one loader's worth of transactions the way core.Loader
// does at its CommitEveryBatches points.  Transaction j of loader w inserts
// frame w*1000+j+1 and batches*batchRows objects of it, then commits:
// synchronously, or pipelined — retire commit j-1, start commit j, fill j+1.
type miniLoader struct {
	db                       *DB
	w, txns, batches, rowsPB int
	pipelined                bool

	// retired counts the commits acknowledged so far (Commit or Wait returned
	// nil); the transactions are acknowledged in order, so it names a prefix.
	retired atomic.Int64
}

func (l *miniLoader) frameID(j int) int64 { return int64(l.w*1000 + j + 1) }

func (l *miniLoader) run() error {
	var pending *PendingCommit
	retire := func() error {
		if pending == nil {
			return nil
		}
		_, err := pending.Wait()
		pending = nil
		if err == nil {
			l.retired.Add(1)
		}
		return err
	}
	for j := 0; j < l.txns; j++ {
		txn, err := l.db.BeginBlocking()
		if err != nil {
			return err
		}
		f := l.frameID(j)
		if _, err := txn.InsertBatch("frames", []string{"frame_id", "exposure"}, [][]Value{{Int(f), Float(1.5)}}); err != nil {
			return err
		}
		for b := 0; b < l.batches; b++ {
			rows := make([][]Value, l.rowsPB)
			for i := range rows {
				rows[i] = []Value{Int(f*10000 + int64(b*l.rowsPB+i)), Int(f), Float(float64(10 + i%20))}
			}
			if _, err := txn.InsertBatch("objects", []string{"object_id", "frame_id", "mag"}, rows); err != nil {
				return err
			}
		}
		if !l.pipelined {
			if _, err := txn.Commit(); err != nil {
				return err
			}
			l.retired.Add(1)
			continue
		}
		if err := retire(); err != nil {
			return err
		}
		if pending, err = txn.CommitStart(); err != nil {
			return err
		}
	}
	return retire()
}

// recoveredPrefix reports how many of the loader's transactions db holds and
// fails unless they are a prefix of its commit order, each one whole.
func (l *miniLoader) recoveredPrefix(t *testing.T, db *DB) int {
	t.Helper()
	n := 0
	for j := 0; j < l.txns; j++ {
		f := l.frameID(j)
		row, err := db.LookupByPK("frames", []Value{Int(f)})
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			continue
		}
		if n != j {
			t.Fatalf("loader %d: transaction %d recovered without transaction %d", l.w, j, n)
		}
		n++
		for _, id := range []int64{f * 10000, f*10000 + int64(l.batches*l.rowsPB) - 1} {
			if obj, err := db.LookupByPK("objects", []Value{Int(id)}); err != nil || obj == nil {
				t.Fatalf("loader %d: transaction %d recovered without object %d (err=%v)", l.w, j, id, err)
			}
		}
	}
	return n
}

// parkedSync is a fault hook that, once armed, parks the next FPWALSync until
// release is closed, announcing it on parked.
type parkedSync struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newParkedSync() *parkedSync {
	return &parkedSync{parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkedSync) hook(fp FaultPoint) error {
	if fp == FPWALSync && p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return nil
}

// TestAppendDoesNotWaitForFsync parks a commit's flush at FPWALSync — the
// flush lock held, the bytes not yet handed to the kernel — and requires that
// another transaction's InsertBatch completes meanwhile, and that a third
// transaction's commit, started behind the parked flush, is made durable by
// that one flush: one fsync for both markers.  On a device that is one mutex
// around encode + write + fsync the InsertBatch never returns.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	park := newParkedSync()
	db, _ := durableDB(t, WithFaultHook(park.hook))
	loadFramesObjects(t, db, 0, 1, 0)

	begin := func() *Txn {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return txn
	}
	t1, t2, t3 := begin(), begin(), begin()
	insertFrame(t, t1, 2)
	insertFrame(t, t3, 3)
	before := db.WAL().Stats()

	park.armed.Store(true)
	pc1, err := t1.CommitStart()
	if err != nil {
		t.Fatal(err)
	}
	<-park.parked

	appended := make(chan error, 1)
	go func() {
		_, err := t2.InsertBatch("objects", []string{"object_id", "frame_id", "mag"},
			[][]Value{{Int(11), Int(1), Float(12)}, {Int(12), Int(1), Float(13)}})
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("InsertBatch waits for another transaction's fsync")
	}
	pc3, err := t3.CommitStart()
	if err != nil {
		t.Fatal(err)
	}
	if pc1.Settled() || pc3.Settled() {
		t.Fatal("a commit settled before its marker was durable")
	}
	if n := db.Table("frames").pendingRows.Load(); n != 2 {
		t.Fatalf("pending frame rows = %d with two commits pending, want 2", n)
	}

	close(park.release)
	for _, pc := range []*PendingCommit{pc1, pc3} {
		if _, err := pc.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	after := db.WAL().Stats()
	if got := after.DurableSyncs - before.DurableSyncs; got != 1 {
		t.Fatalf("fsyncs for the two commits = %d, want 1", got)
	}
	if got := after.SharedFlushes - before.SharedFlushes; got != 1 {
		t.Fatalf("SharedFlushes grew by %d, want 1", got)
	}
	if after.CommitWaitNs <= before.CommitWaitNs {
		t.Fatal("CommitWaitNs did not grow across two waited commits")
	}
	if n := db.Table("frames").pendingRows.Load(); n != 0 {
		t.Fatalf("pending frame rows = %d after both commits settled", n)
	}
	if _, err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitStartWithoutDeviceIsCommit: with no durable log there is nothing
// to wait for, and CommitStart completes the commit before it returns.
func TestCommitStartWithoutDeviceIsCommit(t *testing.T) {
	db := newTestDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 1)
	pc, err := txn.CommitStart()
	if err != nil {
		t.Fatal(err)
	}
	if !pc.Settled() || txn.Active() || db.Stats().Commits != 1 || db.Table("frames").pendingRows.Load() != 0 {
		t.Fatalf("CommitStart without a device left the commit unsettled")
	}
	rep, err := pc.Wait()
	if err != nil || rep.UndoRecordsDiscarded != 1 {
		t.Fatalf("Wait = %+v, %v", rep, err)
	}
}

// TestPendingCommitRefusesWork: between CommitStart and Wait the transaction
// takes no more inserts and cannot be committed or rolled back again.
func TestPendingCommitRefusesWork(t *testing.T) {
	db, _ := durableDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 1)
	pc, err := txn.CommitStart()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("frames", []string{"frame_id"}, []Value{Int(2)}); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("Insert on a pending commit: %v", err)
	}
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("Commit on a pending commit: %v", err)
	}
	if err := txn.Rollback(); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("Rollback on a pending commit: %v", err)
	}
	if _, err := pc.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Wait(); err != nil {
		t.Fatalf("second Wait: %v", err)
	}
	if db.Stats().Commits != 1 {
		t.Fatalf("Commits = %d, want 1", db.Stats().Commits)
	}
}

// walFiles reads every segment file of dir.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	segs, err := listWALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(segs))
	for _, name := range segs {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = buf
	}
	return out
}

// TestPipelinedLogByteIdentical: one loader is one append order, so the
// segment files a pipelined loader leaves are the files the same input leaves
// through synchronous commits — same names, same bytes — with flushes coming
// from commits and from rotation.
func TestPipelinedLogByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"rotation", []Option{WithWALSegmentBytes(8 << 10)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var files [2]map[string][]byte
			for i, pipelined := range []bool{false, true} {
				db, dir := durableDB(t, tc.opts...)
				l := &miniLoader{db: db, txns: 12, batches: 3, rowsPB: 40, pipelined: pipelined}
				if err := l.run(); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				files[i] = walFiles(t, dir)
			}
			if len(files[0]) < 4 {
				t.Fatalf("only %d segments: rotation not exercised", len(files[0]))
			}
			if len(files[1]) != len(files[0]) {
				t.Fatalf("pipelined load left %d segments, synchronous %d", len(files[1]), len(files[0]))
			}
			for name, want := range files[0] {
				if got, ok := files[1][name]; !ok || !bytes.Equal(got, want) {
					t.Fatalf("segment %s differs between the synchronous and the pipelined load (present=%v)", name, ok)
				}
			}
		})
	}
}

// failingSync is a fault hook that counts FPWALSync — it fires once before
// each fsync — and returns errInjected at the failAt-th.
type failingSync struct {
	failAt int64
	syncs  atomic.Int64
}

var errInjected = errors.New("injected fsync failure")

func (f *failingSync) hook(fp FaultPoint) error {
	if fp == FPWALSync && f.syncs.Add(1) == f.failAt {
		return errInjected
	}
	return nil
}

// TestFailedSyncPoisonsDevice: an fsync failure — during an inline Commit and
// during a pipelined flush — reaches the waiter as an error, is kept, fails
// every later append and commit of every transaction without another fsync
// being attempted, is what Close returns, and leaves a directory that
// recovers to exactly the commits that were acknowledged.
func TestFailedSyncPoisonsDevice(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			fail := &failingSync{failAt: 4}
			db, dir := durableDB(t, WithFaultHook(fail.hook))
			bystander, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			l := &miniLoader{db: db, txns: 8, batches: 2, rowsPB: 10, pipelined: pipelined}
			err = l.run()
			if !errors.Is(err, errInjected) {
				t.Fatalf("load over a failing fsync returned %v", err)
			}
			acked := int(l.retired.Load())
			if acked != 3 {
				t.Fatalf("%d commits acknowledged before the 4th fsync failed, want 3", acked)
			}
			syncs := fail.syncs.Load()

			// The failed transaction was rolled back, in memory too.  (A
			// pipelined loader abandons the transaction it was filling when it
			// learned, and its pending commit if an append told it first.)
			if n := db.Table("frames").pendingRows.Load(); !pipelined && n != 0 {
				t.Fatalf("pending frame rows = %d after the failed commit", n)
			}

			// Every later use of the log fails with the same error.
			if _, err := bystander.InsertBatch("frames", []string{"frame_id"}, [][]Value{{Int(900)}}); !errors.Is(err, errInjected) {
				t.Fatalf("InsertBatch on a failed device: %v", err)
			}
			if _, err := bystander.Commit(); !errors.Is(err, errInjected) {
				t.Fatalf("Commit on a failed device: %v", err)
			}
			if bystander.Active() {
				t.Fatal("a commit the failed device refused left its transaction open")
			}
			other, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := other.CommitStart(); !errors.Is(err, errInjected) {
				t.Fatalf("CommitStart on a failed device: %v", err)
			}
			// (The pipelined loader's abandoned transaction keeps a checkpoint
			// busy before it reaches the device.)
			if err := db.Checkpoint(); !pipelined && !errors.Is(err, errInjected) {
				t.Fatalf("Checkpoint on a failed device: %v", err)
			}
			if err := db.Close(); !errors.Is(err, errInjected) {
				t.Fatalf("Close on a failed device: %v", err)
			}
			if got := fail.syncs.Load(); got != syncs {
				t.Fatalf("%d more fsyncs attempted on a failed device", got-syncs)
			}

			rec, _, err := Recover(testSchema(t), dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := l.recoveredPrefix(t, rec); got != acked {
				t.Fatalf("recovered %d transactions, %d were acknowledged", got, acked)
			}
			if row, _ := rec.LookupByPK("frames", []Value{Int(900)}); row != nil {
				t.Fatal("a row refused by the failed device was recovered")
			}
		})
	}
}

// killSwitch is a fault hook that simulates kill -9 at the at-th firing of
// one fault point: it panics there, and at every fault point reached
// afterwards on any goroutine — a dead process does nothing more.
type killSwitch struct {
	point FaultPoint
	at    int64
	n     atomic.Int64
	dead  atomic.Bool
}

func (k *killSwitch) hook(p FaultPoint) error {
	if k.dead.Load() {
		panic(errKilled{})
	}
	if p == k.point && k.n.Add(1) == k.at {
		k.dead.Store(true)
		panic(errKilled{})
	}
	return nil
}

// runKilled runs the loaders concurrently until the kill switch stops them
// (or they finish) and returns once every loader goroutine has unwound.
func runKilled(t *testing.T, loaders []*miniLoader) {
	t.Helper()
	var wg sync.WaitGroup
	for _, l := range loaders {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(errKilled); !ok {
						panic(r)
					}
				}
			}()
			// After the kill other loaders may see the device fail instead of
			// the hook panic; either way they stop.
			_ = l.run()
		}()
	}
	wg.Wait()
}

// TestCrashMatrixPipelined kills one and two pipelined loaders at every n-th
// log append and every n-th fsync — most of the fsyncs run on a flush
// goroutine while their loader fills its next transaction — abandons the
// handle, recovers, and requires: every commit retired before the kill is
// there; each loader's recovered transactions are a prefix of its commit
// order (k+1 never without k), each one whole; the recovered database is
// consistent; and a second recovery finds a clean log and the same rows.
func TestCrashMatrixPipelined(t *testing.T) {
	for _, nLoaders := range []int{1, 2} {
		for _, point := range []FaultPoint{FPWALAppend, FPWALSync} {
			t.Run(fmt.Sprintf("loaders=%d/%s", nLoaders, point), func(t *testing.T) {
				for at := int64(1); ; at++ {
					if !crashAndRecover(t, nLoaders, point, at) {
						if at < 5 {
							t.Fatalf("the load finished before kill point %d", at)
						}
						return
					}
				}
			})
		}
	}
}

// crashAndRecover runs one cell of the matrix and reports whether the kill
// fired (false: the load completed first, the sweep is past its end).
func crashAndRecover(t *testing.T, nLoaders int, point FaultPoint, at int64) bool {
	t.Helper()
	kill := &killSwitch{point: point, at: at}
	db, dir := durableDB(t, WithWALSegmentBytes(8<<10), WithFaultHook(kill.hook))
	loaders := make([]*miniLoader, nLoaders)
	for w := range loaders {
		loaders[w] = &miniLoader{db: db, w: w, txns: 6, batches: 3, rowsPB: 40, pipelined: true}
	}
	runKilled(t, loaders)
	fired := kill.dead.Load()

	rec, _, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatalf("%s #%d: recover: %v", point, at, err)
	}
	for _, l := range loaders {
		got, retired := l.recoveredPrefix(t, rec), int(l.retired.Load())
		if got < retired {
			t.Fatalf("%s #%d: loader %d had %d commits acknowledged, %d recovered", point, at, l.w, retired, got)
		}
		if !fired && got != l.txns {
			t.Fatalf("loader %d finished but %d of %d transactions recovered", l.w, got, l.txns)
		}
	}
	if err := rec.VerifyPrimaryKeys(); err != nil {
		t.Fatalf("%s #%d: %v", point, at, err)
	}
	if orphans, err := rec.VerifyIntegrity(); err != nil || orphans != 0 {
		t.Fatalf("%s #%d: orphans=%d err=%v", point, at, orphans, err)
	}
	rec2, rep2, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatalf("%s #%d: second recover: %v", point, at, err)
	}
	if rep2.TornTailRecords != 0 || rec2.TotalRows() != rec.TotalRows() {
		t.Fatalf("%s #%d: second recovery: torn=%d rows %d vs %d", point, at, rep2.TornTailRecords, rec2.TotalRows(), rec.TotalRows())
	}
	return fired
}

// TestKilledFlushReachesWaiter: a kill simulated on a flush goroutine is
// raised where the owner can recover it — in Wait — and the device the flush
// died in takes nothing more.
func TestKilledFlushReachesWaiter(t *testing.T) {
	kill := &killSwitch{point: FPWALSync, at: 2}
	db, _ := durableDB(t, WithFaultHook(kill.hook))
	loadFramesObjects(t, db, 0, 1, 0) // fsync 1
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 2)
	pc, err := txn.CommitStart() // fsync 2, on the flush goroutine
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := recover().(errKilled); !ok {
				t.Fatal("Wait did not raise the flush goroutine's kill")
			}
		}()
		_, _ = pc.Wait()
	}()
	if err := db.wal.dev.Load().poison(nil); !errors.Is(err, errWALFlushAborted) {
		t.Fatalf("device after a killed flush: %v", err)
	}
}

// TestAutoCheckpointKeepsQuietPoint: a commit started while an automatic
// checkpoint is due retires before CommitStart returns, so a pipelined loader
// takes exactly the checkpoints its synchronous twin takes (a checkpoint
// needs a moment with no rows pending, which a loader that is always one
// transaction ahead would never offer).
func TestAutoCheckpointKeepsQuietPoint(t *testing.T) {
	var taken [2]int64
	for i, pipelined := range []bool{false, true} {
		db, _ := durableDB(t, WithCheckpointEvery(16<<10))
		l := &miniLoader{db: db, txns: 20, batches: 3, rowsPB: 40, pipelined: pipelined}
		if err := l.run(); err != nil {
			t.Fatal(err)
		}
		taken[i] = db.WAL().Stats().Checkpoints
	}
	if taken[0] != 4 || taken[1] != taken[0] {
		t.Fatalf("checkpoints: synchronous %d, pipelined %d, want 4 and 4", taken[0], taken[1])
	}
}
