package relstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"skyloader/internal/frame"
)

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

func TestRecoverToleratesTornTail(t *testing.T) {
	db, dir := durableDB(t)
	loadFramesObjects(t, db, 0, 3, 5)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the newest segment mid-record, as a crash during a buffered write
	// would.  The last record on disk is the third transaction's commit
	// marker, so tearing it discards that whole transaction.
	segs, err := listWALSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	got, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTailRecords != 1 || rep.TornTailBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", rep)
	}
	if ws := got.WAL().Stats(); ws.ReplayTornTail != 1 {
		t.Fatalf("ReplayTornTail = %d, want 1", ws.ReplayTornTail)
	}
	if n := got.Table("frames").RowCount(); n != 2 {
		t.Fatalf("frames = %d, want 2 after torn-tail discard", n)
	}

	// A second recovery sees a clean (truncated) log and the same state.
	got2, rep2, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TornTailRecords != 0 {
		t.Fatalf("tail still torn after truncation: %+v", rep2)
	}
	if got2.TotalRows() != got.TotalRows() {
		t.Fatalf("second recovery diverged: %d vs %d", got2.TotalRows(), got.TotalRows())
	}
}

// TestRecoverZeroFilledTail: a crash between write and fsync leaves, on common
// filesystems, a file extended with zeros.  CRC32 of an empty payload is zero,
// so eight zero bytes are a frame that "checks out" unless the empty payload
// itself is refused — no writer emits one.  The zeros after the last
// acknowledged commit are a torn tail: truncated, and nothing acknowledged is
// lost.
func TestRecoverZeroFilledTail(t *testing.T) {
	db, dir := durableDB(t)
	loadFramesObjects(t, db, 0, 3, 5)
	// Crash here: every commit above was acknowledged (fsynced); no Close.

	segs, err := listWALSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatalf("zero-filled tail not treated as torn: %v", err)
	}
	if rep.TornTailRecords != 1 || rep.TornTailBytes != 4096 {
		t.Fatalf("torn tail = %d records / %d bytes, want 1 / 4096", rep.TornTailRecords, rep.TornTailBytes)
	}
	assertSameState(t, db, got)

	got2, rep2, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TornTailRecords != 0 {
		t.Fatalf("tail still torn after truncation: %+v", rep2)
	}
	assertSameState(t, db, got2)
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
			segs, _ := listWALSegments(dir)
			if len(segs) < 2 {
				t.Fatalf("expected >=2 segments, got %d", len(segs))
			}
			first := filepath.Join(dir, segs[0])
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
	// Injected truncate failure leaves the pre-checkpoint segments on disk, so
	// the test can prove replay skips them rather than merely observing that a
	// healthy checkpoint already deleted them.
	var failTruncate atomic.Bool
	hook := func(p FaultPoint) error {
		if p == FPCheckpointTruncate && failTruncate.Load() {
			return errors.New("injected truncate failure")
		}
		return nil
	}
	db, dir := durableDB(t, WithWALSegmentBytes(8<<10), WithFaultHook(hook))
	loadFramesObjects(t, db, 0, 4, 30)
	failTruncate.Store(true)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint ignored injected truncate failure")
	}
	failTruncate.Store(false)
	loadFramesObjects(t, db, 10, 2, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	got, rep, err := Recover(testSchema(t), dir)
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
	before, _ := listWALSegments(dir)
	if len(before) < 3 {
		t.Fatalf("want >=3 segments before checkpoint, got %d", len(before))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := listWALSegments(dir)
	if len(after) != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1 (the fresh one)", len(after))
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
// without replayOneLocked's out-of-order case.
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

	segs, err := listWALSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := map[uint32]int64{}
	records, inversions := 0, 0
	for _, name := range segs {
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
			rec, err := decodeWALRecord(payload, false, nil)
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

// errKilled is the sentinel the kill-simulating fault hooks panic with.
type errKilled struct{}

// TestCrashRecoverStress kills a concurrent durable load at a random append
// via a fault-point panic, recovers, and verifies every acknowledged commit
// survived.  Run with -race in CI.
func TestCrashRecoverStress(t *testing.T) {
	const workers = 4
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		killAfter := int64(20 + rng.Intn(300))
		var appends atomic.Int64
		db, err := Open(testSchema(t), WithWALDir(dir), WithWALSegmentBytes(8<<10),
			WithFaultHook(func(p FaultPoint) error {
				if p == FPWALAppend && appends.Add(1) >= killAfter {
					panic(errKilled{})
				}
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}

		// acked[w] records the frame ids whose Commit returned before the kill.
		acked := make([][]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
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
				for f := int64(0); f < 200; f++ {
					id := int64(w)*10000 + f + 1
					txn, err := db.Begin()
					if err != nil {
						return
					}
					if _, err := txn.Insert("frames", []string{"frame_id", "exposure"},
						[]Value{Int(id), Float(1.5)}); err != nil {
						_ = txn.Rollback()
						continue
					}
					if _, err := txn.Commit(); err != nil {
						return
					}
					acked[w] = append(acked[w], id)
				}
			}()
		}
		wg.Wait()
		if appends.Load() < killAfter {
			t.Fatalf("round %d: kill never fired (%d appends)", round, appends.Load())
		}

		got, _, err := Recover(testSchema(t), dir)
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		for w := range acked {
			for _, id := range acked[w] {
				row, err := got.LookupByPK("frames", []Value{Int(id)})
				if err != nil || row == nil {
					t.Fatalf("round %d: acknowledged frame %d lost (err=%v)", round, id, err)
				}
			}
		}
		if err := got.VerifyPrimaryKeys(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if orphans, err := got.VerifyIntegrity(); err != nil || orphans != 0 {
			t.Fatalf("round %d: orphans=%d err=%v", round, orphans, err)
		}
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
