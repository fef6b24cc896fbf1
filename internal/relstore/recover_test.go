package relstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"skyloader/internal/frame"
)

// memWALDir is the log directory of a database on a memFS.
const memWALDir = "/wal"

// memDB opens a fresh durable database over a memFS.
func memDB(t *testing.T, disk *memFS, opts ...Option) *DB {
	t.Helper()
	db, err := Open(testSchema(t), append([]Option{WithWALDir(memWALDir), withFS(disk)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// durableDB opens a fresh durable database over a temp WAL dir.
func durableDB(t *testing.T, opts ...Option) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(testSchema(t), append([]Option{WithWALDir(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db, dir
}

// loadFramesObjects commits `frames` frame rows (ids base+1..base+frames) and
// `objs` object rows per frame, one transaction per frame.
func loadFramesObjects(t *testing.T, db *DB, base, frames, objs int64) {
	t.Helper()
	for f := base + 1; f <= base+frames; f++ {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		insertFrame(t, txn, f)
		for o := int64(0); o < objs; o++ {
			if err := insertObject(t, txn, f*1000+o, f, float64(10+o%20)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// assertSameState fails unless got matches want byte for byte: per-table row
// counts, every row's content and id (including tombstoned gaps), next row
// ids, stats row totals, and referential integrity.
func assertSameState(t *testing.T, want, got *DB) {
	t.Helper()
	wc, gc := want.RowCounts(), got.RowCounts()
	for name, n := range wc {
		if gc[name] != n {
			t.Fatalf("table %s: recovered %d rows, want %d", name, gc[name], n)
		}
	}
	if w, g := want.TotalRows(), got.TotalRows(); w != g {
		t.Fatalf("TotalRows: recovered %d, want %d", g, w)
	}
	ws, gs := want.StatsSnapshot(), got.StatsSnapshot()
	if ws.DB.RowsInserted != gs.DB.RowsInserted {
		t.Fatalf("RowsInserted: recovered %d, want %d", gs.DB.RowsInserted, ws.DB.RowsInserted)
	}
	for _, name := range want.Schema().TableNames() {
		wt, gt := want.Table(name), got.Table(name)
		wt.mu.RLock()
		gt.mu.RLock()
		wn, gn := wt.nextRow, gt.nextRow
		type idrow struct {
			id  int64
			enc string
		}
		var wrows []idrow
		wt.scanRowsByID(func(id int64, r RowView) {
			wrows = append(wrows, idrow{id, EncodeKey(r.Row())})
		})
		var mismatch string
		for _, wr := range wrows {
			gr, ok := gt.viewLocked(wr.id)
			if !ok {
				mismatch = fmt.Sprintf("row %d missing after recovery", wr.id)
				break
			}
			if EncodeKey(gr.Row()) != wr.enc {
				mismatch = fmt.Sprintf("row %d differs after recovery", wr.id)
				break
			}
		}
		gt.mu.RUnlock()
		wt.mu.RUnlock()
		if wn != gn {
			t.Fatalf("table %s: nextRow recovered %d, want %d", name, gn, wn)
		}
		if mismatch != "" {
			t.Fatalf("table %s: %s", name, mismatch)
		}
	}
	if orphans, err := got.VerifyIntegrity(); err != nil || orphans != 0 {
		t.Fatalf("recovered integrity: orphans=%d err=%v", orphans, err)
	}
	if err := got.VerifyPrimaryKeys(); err != nil {
		t.Fatalf("recovered primary keys: %v", err)
	}
}

func TestRecoverRoundTrip(t *testing.T) {
	db, dir := durableDB(t)
	loadFramesObjects(t, db, 0, 5, 40)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, db, got)
	if rep.ReplayedRows != 5+5*40 {
		t.Fatalf("ReplayedRows = %d, want %d", rep.ReplayedRows, 5+5*40)
	}
	if rep.TornTailRecords != 0 || rep.DiscardedTxns != 0 {
		t.Fatalf("unexpected torn/discarded: %+v", rep)
	}
	ws := got.WAL().Stats()
	if !ws.Durable || ws.ReplayRows != rep.ReplayedRows || ws.ReplayRecords != rep.ReplayedRecords {
		t.Fatalf("WALStats replay counters not surfaced: %+v", ws)
	}

	// The recovered database accepts and persists new transactions.
	loadFramesObjects(t, got, 5, 1, 1)
	if got.Table("frames").RowCount() != 6 {
		t.Fatalf("post-recovery insert failed")
	}
}

func TestRecoverDiscardsUncommittedTail(t *testing.T) {
	db, dir := durableDB(t)
	loadFramesObjects(t, db, 0, 2, 10)

	// An in-flight transaction whose rows hit the log (forced by an explicit
	// device sync) but whose commit marker never does.
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 99)
	if _, err := db.wal.dev.Load().flush(math.MaxInt64, false); err != nil { // rows durable, commit not
		t.Fatal(err)
	}
	// Crash here: no Commit, no Close.

	got, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiscardedTxns != 1 {
		t.Fatalf("DiscardedTxns = %d, want 1", rep.DiscardedTxns)
	}
	if n := got.Table("frames").RowCount(); n != 2 {
		t.Fatalf("frames = %d, want 2 (uncommitted row must be discarded)", n)
	}

	// The resumed database must not let a new transaction's commit marker
	// resurrect the dead transaction's rows: new txn ids start above every id
	// seen in the log.
	loadFramesObjects(t, got, 10, 1, 0)
	got2, _, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := got2.Table("frames").RowCount(); n != 3 {
		t.Fatalf("after resume+recover frames = %d, want 3", n)
	}
}

// TestRecoverCorruptMidLogFails: damage that is not the tail of the newest
// segment must fail recovery loudly, not be silently skipped — rotation seals
// every earlier segment with a flush+fsync, so nothing there can be torn.
func TestRecoverCorruptMidLogFails(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(buf []byte) []byte
	}{
		{"byte flip", func(buf []byte) []byte { buf[len(buf)/2] ^= 0xff; return buf }},
		{"zero-filled tail", func(buf []byte) []byte { return append(buf, make([]byte, 4096)...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, dir := durableDB(t)
			loadFramesObjects(t, db, 0, 2, 50)
			// Force a rotation so at least two segments exist.
			if _, _, err := db.wal.dev.Load().rotateForCheckpoint(); err != nil {
				t.Fatal(err)
			}
			loadFramesObjects(t, db, 10, 1, 0)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			l, _ := listLogDir(osFS{}, dir)
			if len(l.segs) < 2 {
				t.Fatalf("expected >=2 segments, got %d", len(l.segs))
			}
			first := filepath.Join(dir, walSegName(l.segs[0]))
			buf, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(first, tc.damage(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Recover(testSchema(t), dir); !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("Recover over mid-log damage: got %v, want ErrWALCorrupt", err)
			}
		})
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	// A segment Remove that fails leaves the pre-checkpoint segments on disk,
	// so the test can prove replay skips them rather than merely observing
	// that a healthy checkpoint already deleted them.
	disk := newMemFS()
	var failRemove atomic.Bool
	disk.fail = func(op memOp) error {
		if op.kind == "remove" && strings.HasSuffix(op.path, walSegSuffix) && failRemove.Load() {
			return syscall.EIO
		}
		return nil
	}
	db := memDB(t, disk, WithWALSegmentBytes(8<<10))
	loadFramesObjects(t, db, 0, 4, 30)
	failRemove.Store(true)
	if err := db.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Checkpoint over a failing segment Remove: %v", err)
	}
	failRemove.Store(false)
	loadFramesObjects(t, db, 10, 2, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got, rep, err := Recover(testSchema(t), memWALDir, withFS(disk))
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, db, got)
	if rep.CheckpointSeq == 0 || rep.CheckpointRows != 4+4*30 {
		t.Fatalf("checkpoint not used: %+v", rep)
	}
	// Replay applies only post-checkpoint records...
	if rep.ReplayedRows != 2+2*10 {
		t.Fatalf("ReplayedRows = %d, want %d (post-checkpoint only)", rep.ReplayedRows, 2+2*10)
	}
	// ...and never opens the stale pre-checkpoint segments at all.
	if rep.SegmentsSkipped == 0 {
		t.Fatalf("stale pre-checkpoint segments were scanned: %+v", rep)
	}
}

func TestCheckpointDeletesDeadSegments(t *testing.T) {
	db, dir := durableDB(t, WithWALSegmentBytes(4<<10))
	loadFramesObjects(t, db, 0, 6, 40)
	before, _ := listLogDir(osFS{}, dir)
	if len(before.segs) < 3 {
		t.Fatalf("want >=3 segments before checkpoint, got %d", len(before.segs))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := listLogDir(osFS{}, dir)
	if len(after.segs) != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1 (the fresh one)", len(after.segs))
	}
	ws := db.WAL().Stats()
	if ws.Checkpoints != 1 || ws.SegmentsDeleted == 0 {
		t.Fatalf("checkpoint counters: %+v", ws)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	db, dir := durableDB(t, WithWALSegmentBytes(4<<10), WithCheckpointEvery(16<<10))
	loadFramesObjects(t, db, 0, 8, 60)
	if ws := db.WAL().Stats(); ws.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint fired: %+v", ws)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, db, got)
}

func TestCheckpointBusyWithPendingRows(t *testing.T) {
	db, _ := durableDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 1)
	if err := db.Checkpoint(); !errors.Is(err, ErrCheckpointBusy) {
		t.Fatalf("Checkpoint with pending rows: %v, want ErrCheckpointBusy", err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after settle: %v", err)
	}
}

func TestRecoverPreservesRollbackIDGaps(t *testing.T) {
	build := func(db *DB) {
		loadFramesObjects(t, db, 0, 2, 3)
		// Punch an id gap: a rolled-back transaction consumed object ids.
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for o := int64(0); o < 4; o++ {
			if err := insertObject(t, txn, 5000+o, 1, 12); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Rollback(); err != nil {
			t.Fatal(err)
		}
		loadFramesObjects(t, db, 10, 1, 2) // allocate ids after the gap
	}
	ref, err := Open(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	build(ref)

	db, dir := durableDB(t)
	build(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, db, got)

	// Resumed inserts must allocate the same ids the uninterrupted engine
	// would (nextRow preserved across the gap).
	loadFramesObjects(t, ref, 20, 1, 1)
	loadFramesObjects(t, got, 20, 1, 1)
	assertSameState(t, ref, got)
}

func TestRecoverRollbackGapBeforeCheckpoint(t *testing.T) {
	db, dir := durableDB(t)
	loadFramesObjects(t, db, 0, 1, 2)
	txn, _ := db.Begin()
	for o := int64(0); o < 3; o++ {
		if err := insertObject(t, txn, 7000+o, 1, 12); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, db, got)
}

func TestRecoverBatchPath(t *testing.T) {
	run := func(db *DB) {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		insertFrame(t, txn, 1)
		rows := make([][]Value, 0, 500)
		for i := int64(0); i < 500; i++ {
			rows = append(rows, []Value{Int(i), Int(1), Float(float64(i % 30))})
		}
		rep, err := txn.InsertBatch("objects", []string{"object_id", "frame_id", "mag"}, rows)
		if err != nil || rep.RowsInserted != 500 {
			t.Fatalf("InsertBatch: %v %+v", err, rep)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// chunk is the run length: the whole batch, or batchYieldRows with a
	// yield forced at every boundary.
	for _, chunk := range []int{0, batchYieldRows} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			db, dir := durableDB(t)
			if chunk > 0 {
				forceBatchYields(db)
			}
			run(db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			got, rep, err := Recover(testSchema(t), dir)
			if err != nil {
				t.Fatal(err)
			}
			assertSameState(t, db, got)
			if rep.ReplayedRows != 501 {
				t.Fatalf("ReplayedRows = %d, want 501", rep.ReplayedRows)
			}
		})
	}
}

// TestRecoverConcurrentCommitters checks that an acknowledged commit is
// durable on its own: four goroutines commit concurrently, the handle is then
// abandoned without Close (whose fsync would otherwise cover for a commit
// that returned early), and recovery must find every frame.
func TestRecoverConcurrentCommitters(t *testing.T) {
	db, dir := durableDB(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := int64(0); f < 10; f++ {
				txn, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				insertFrame(t, txn, int64(w)*100+f+1)
				if _, err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every Commit returned, so each marker was fsynced by its own commit:
	// the process could die here.  No Close.
	got, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiscardedTxns != 0 {
		t.Fatalf("acknowledged commits discarded: %+v", rep)
	}
	if n := got.Table("frames").RowCount(); n != 40 {
		t.Fatalf("frames = %d, want 40", n)
	}
}

// TestInsertLogInIDOrder: concurrent writers' one-row inserts into one table
// land in the log in row-id order, because each run's record is appended
// under the table lock that handed out its ids.  A log written so replays
// without storeRun's out-of-order case.
func TestInsertLogInIDOrder(t *testing.T) {
	const writers, rows = 4, 3000
	db, dir := durableDB(t)
	var wg sync.WaitGroup
	for w := int64(0); w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			txn, err := db.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			for i := int64(0); i < rows; i++ {
				if _, err := txn.Insert("frames", []string{"frame_id", "exposure"}, []Value{Int(w*rows + i), Float(145)}); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := txn.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := listLogDir(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	last := map[uint32]int64{}
	records, inversions := 0, 0
	for _, first := range l.segs {
		name := walSegName(first)
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for len(buf) > 0 {
			payload, rest, st := frame.Next(buf)
			if st != frame.OK {
				t.Fatalf("segment %s: frame status %v with %d bytes left", name, st, len(buf))
			}
			buf = rest
			rec, err := decodeWALRecord(payload, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			if rec.typ != walRecInsert {
				continue
			}
			records++
			if prev, ok := last[rec.tableID]; ok && rec.firstID < prev {
				inversions++
			}
			last[rec.tableID] = rec.firstID
		}
	}
	if records != writers*rows {
		t.Fatalf("%d insert records, want one per row: %d", records, writers*rows)
	}
	if inversions != 0 {
		t.Fatalf("%d of %d insert records start below the record before them in their table", inversions, records)
	}
}

func TestStartRecoverGatesReadiness(t *testing.T) {
	db, dir := durableDB(t)
	loadFramesObjects(t, db, 0, 3, 30)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Throttle replay so the recovering window is observable.
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	h, err := StartRecover(testSchema(t), dir, WithFaultHook(func(p FaultPoint) error {
		if p == FPReplay {
			once.Do(func() { close(started); <-gate })
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if h.DB().Ready() {
		t.Fatal("Ready() true during replay")
	}
	if _, err := h.DB().Begin(); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Begin during replay: %v, want ErrRecovering", err)
	}
	// Replay stores rows in no secondary index, so index DDL waits for it.
	if _, err := h.DB().CreateIndexWith("objects", "ix_mag", []string{"mag"}, false, IndexImmediate); !errors.Is(err, ErrRecovering) {
		t.Fatalf("CreateIndexWith during replay: %v, want ErrRecovering", err)
	}
	if err := h.DB().DropIndex("objects", "ix_mag"); !errors.Is(err, ErrRecovering) {
		t.Fatalf("DropIndex during replay: %v, want ErrRecovering", err)
	}
	close(gate)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if !h.DB().Ready() {
		t.Fatal("Ready() false after replay")
	}
	if _, err := h.DB().Begin(); err != nil {
		t.Fatalf("Begin after replay: %v", err)
	}
	ix, err := h.DB().CreateIndexWith("objects", "ix_mag", []string{"mag"}, false, IndexImmediate)
	if err != nil {
		t.Fatalf("CreateIndexWith after replay: %v", err)
	}
	if n := ix.Tree().Len(); n == 0 {
		t.Fatal("index created after replay holds no recovered row")
	}
	if err := h.DB().DropIndex("objects", "ix_mag"); err != nil {
		t.Fatalf("DropIndex after replay: %v", err)
	}
	if st := h.DB().Stats(); st.IndexDDLFailures != 2 || st.IndexesCreated != 1 || st.IndexesDropped != 1 {
		t.Fatalf("DDL counters: %d failed, %d created, %d dropped; want 2, 1, 1",
			st.IndexDDLFailures, st.IndexesCreated, st.IndexesDropped)
	}
}

func TestOpenRefusesExistingWALDir(t *testing.T) {
	db, dir := durableDB(t)
	loadFramesObjects(t, db, 0, 1, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testSchema(t), WithWALDir(dir)); err == nil {
		t.Fatal("Open over an existing WAL dir must fail (use Recover)")
	}
}

// TestRecoverLargeBatchSplitsRecords proves the append path enforces the
// record payload limit: with the limit shrunk to a few hundred bytes, one
// InsertBatch must split into many insert records — each under the limit the
// frame reader enforces — and recovery must still reproduce the batch exactly.
// Before chunking, an oversized batch wrote one unreadable frame and the log
// became unrecoverable.
func TestRecoverLargeBatchSplitsRecords(t *testing.T) {
	old := walInsertRecordLimit
	walInsertRecordLimit = 256
	defer func() { walInsertRecordLimit = old }()

	db, dir := durableDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 1)
	rows := make([][]Value, 200)
	for i := range rows {
		rows[i] = []Value{Int(int64(i + 1)), Int(1), Float(float64(10 + i%20))}
	}
	if rep, err := txn.InsertBatch("objects", []string{"object_id", "frame_id", "mag"}, rows); err != nil {
		t.Fatalf("InsertBatch: %v %+v", err, rep)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	// One unchunked log would hold at most 3 records (frame insert, batch
	// insert, commit); the split batch must have produced far more, with the
	// full row set intact.
	if rep.ReplayedRecords <= 3 {
		t.Fatalf("ReplayedRecords = %d, want > 3 (batch must split under the record limit)", rep.ReplayedRecords)
	}
	if rep.ReplayedRows != 1+200 {
		t.Fatalf("ReplayedRows = %d, want %d", rep.ReplayedRows, 1+200)
	}
	assertSameState(t, db, got)
}

// TestRecoverTruncateSyncFails: recovery makes its truncation of a torn tail
// durable before it goes on, or fails.  With the Sync after the truncate
// returning EIO, Recover returns the error; a later Recover on the healthy
// disk, and one after a power loss there, reach the state a recovery that met
// no fault reaches.
func TestRecoverTruncateSyncFails(t *testing.T) {
	disk := newMemFS()
	loadFramesObjects(t, memDB(t, disk), 0, 3, 5)
	torn := disk.killed()
	seg := filepath.Join(memWALDir, walSegName(0))
	f := torn.names[seg]
	f.data = f.data[:len(f.data)-3] // the third transaction's commit marker, torn
	f.synced = len(f.data)
	want, rep, err := Recover(testSchema(t), memWALDir, withFS(torn.killed()))
	if err != nil || rep.TornTailRecords != 1 {
		t.Fatalf("recovery with no fault: torn tails %d, %v", rep.TornTailRecords, err)
	}

	torn.fail = func(op memOp) error {
		if op.kind == "sync" && op.path == seg {
			return syscall.EIO
		}
		return nil
	}
	if _, _, err := Recover(testSchema(t), memWALDir, withFS(torn)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Recover over a failing truncate sync: %v, want EIO", err)
	}
	torn.fail = nil
	disks := []*memFS{torn.killed()}
	for seed := int64(0); seed < 4; seed++ {
		disks = append(disks, torn.crash(seed, tailNone))
	}
	for i, d := range disks {
		got, _, err := Recover(testSchema(t), memWALDir, withFS(d))
		if err != nil {
			t.Fatalf("disk %d: %v", i, err)
		}
		if stateDigest(got) != stateDigest(want) {
			t.Fatalf("disk %d: recovered state differs from the recovery with no fault", i)
		}
	}
}

// TestRecoverAllocsPerRow holds recovery to its allocation budget: a
// fixed-seed directory on the memory disk — a checkpoint of 24,000 rows and a
// log of 12,000 more, rolled-back batches punching id gaps into both — is
// recovered in a fiftieth of an allocation per row.  Rows are decoded into
// one reused buffer, one checkpoint frame or log record at a time, and packed
// into the heap's pages, so what remains is per page, per file read and per
// growth of a directory or key index (0.0187 and 86 bytes a row here, 0.0197
// under -race).  Decoding every checkpoint row into a []Value of its own, and
// every log record into a fresh []Row, cost 1.02 allocations and 306 bytes a
// row.
func TestRecoverAllocsPerRow(t *testing.T) {
	const (
		ceiling      = 0.021 // mallocs per recovered row
		bytesCeiling = 90    // bytes allocated per recovered row
	)
	disk := newMemFS()
	db := memDB(t, disk, WithWALSegmentBytes(1<<20))
	rng := rand.New(rand.NewSource(58))
	objCols, fngCols := []string{"object_id", "frame_id", "mag"}, []string{"finger_id", "object_id", "flux"}
	load := func(frames int64) {
		for f := int64(0); f < frames; f++ {
			txn, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			frame := db.Table("frames").nextRow + 1
			insertFrame(t, txn, frame)
			var objs, fngs [][]Value
			for o := int64(0); o < 100; o++ {
				obj := frame*1000 + o
				objs = append(objs, []Value{Int(obj), Int(frame), Float(float64(rng.Intn(4000)) / 100)})
				fngs = append(fngs, []Value{Int(2 * obj), Int(obj), Float(rng.Float64())}, []Value{Int(2*obj + 1), Int(obj), Null})
			}
			if _, err := txn.InsertBatch("objects", objCols, objs); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.InsertBatch("fingers", fngCols, fngs); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(10) == 0 {
				err = txn.Rollback()
			} else {
				_, err = txn.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	load(88)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load(44)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, rep, err := Recover(testSchema(t), memWALDir, withFS(disk))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, db, got)
	rows := rep.CheckpointRows + rep.ReplayedRows
	if rep.CheckpointRows < 20_000 || rep.ReplayedRows < 10_000 {
		t.Fatalf("recovered %d checkpoint and %d log rows, want at least 20000 and 10000", rep.CheckpointRows, rep.ReplayedRows)
	}
	perRow := float64(after.Mallocs-before.Mallocs) / float64(rows)
	bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
	t.Logf("%d checkpoint and %d log rows: %.4f mallocs and %.0f bytes allocated per recovered row",
		rep.CheckpointRows, rep.ReplayedRows, perRow, bytesPerRow)
	if perRow > ceiling {
		t.Errorf("%.4f mallocs per recovered row, ceiling %.3f", perRow, ceiling)
	}
	if bytesPerRow > bytesCeiling {
		t.Errorf("%.0f bytes allocated per recovered row, ceiling %d", bytesPerRow, bytesCeiling)
	}
}
