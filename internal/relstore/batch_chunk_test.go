package relstore

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// forceBatchYields makes every InsertBatch into db yield at each
// batchYieldRows boundary, as if a reader were queued on every table for the
// rest of the test: it raises the tables' waiting-reader counts and never
// lowers them.
func forceBatchYields(db *DB) {
	for _, t := range db.tables {
		t.waitingReaders.Add(1)
	}
}

// TestInsertBatchChunkedMatchesMonolithic is the yielding-batch property
// test: a database whose batches yield at every batchYieldRows boundary
// (batches that end before, on and after a boundary, and failures that land
// before, on and after one) must leave table state, epochs, pending counters
// and index iteration byte-identical to one whose batches never yield —
// through successful batches, mid-batch failures, commits and mid-batch
// rollbacks.
func TestInsertBatchChunkedMatchesMonolithic(t *testing.T) {
	cols := []string{"object_id", "frame_id", "mag"}
	rng := rand.New(rand.NewSource(4016))
	// Sizes around the boundaries first, then random ones up to six runs.
	edgeSizes := []int{1, batchYieldRows - 1, batchYieldRows, batchYieldRows + 1, 2 * batchYieldRows, 3*batchYieldRows + 1}
	for trial := 0; trial < 72; trial++ {
		mono := batchPropertyDB(t)
		chk := batchPropertyDB(t)
		forceBatchYields(chk)
		base := int64(trial * 1000)
		nextMono, nextChk := base, base

		monoTxn, err := mono.Begin()
		if err != nil {
			t.Fatal(err)
		}
		chkTxn, err := chk.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for bi, batches := 0, 1+rng.Intn(4); bi < batches; bi++ {
			size := 1 + rng.Intn(6*batchYieldRows)
			if trial < len(edgeSizes) {
				size = edgeSizes[trial]
			}
			// One bad row in forty: most batches get past the first boundary
			// and a fair share fail somewhere inside a later run.
			seed := rng.Int63()
			rowsM := randomObjectBatchRate(rand.New(rand.NewSource(seed)), base, &nextMono, size, 200)
			rowsC := randomObjectBatchRate(rand.New(rand.NewSource(seed)), base, &nextChk, size, 200)

			mr, mErr := monoTxn.InsertBatch("objects", cols, rowsM)
			cr, cErr := chkTxn.InsertBatch("objects", cols, rowsC)
			if mr.RowsInserted != cr.RowsInserted || mr.FailedIndex != cr.FailedIndex || (mErr == nil) != (cErr == nil) {
				t.Fatalf("trial %d batch %d: monolithic (ins=%d idx=%d err=%v) vs yielding (ins=%d idx=%d err=%v)",
					trial, bi, mr.RowsInserted, mr.FailedIndex, mErr, cr.RowsInserted, cr.FailedIndex, cErr)
			}
			if mErr != nil && mErr.Error() != cErr.Error() {
				t.Fatalf("trial %d batch %d: violations diverge: %v vs %v", trial, bi, mErr, cErr)
			}
			// The yielding side closed a run at every boundary it crossed and
			// the other side never did.
			wantRuns := (cr.RowsInserted + batchYieldRows - 1) / batchYieldRows
			if mr.Report.UndoRecords > 1 || cr.Report.UndoRecords != wantRuns {
				t.Fatalf("trial %d batch %d (%d rows): undo ranges monolithic %d yielding %d, want <=1 and %d",
					trial, bi, cr.RowsInserted, mr.Report.UndoRecords, cr.Report.UndoRecords, wantRuns)
			}
			if ms, cs := engineState(t, mono), engineState(t, chk); ms != cs {
				t.Fatalf("trial %d batch %d: mid-txn state diverges:\n--- monolithic ---\n%s--- yielding ---\n%s",
					trial, bi, ms, cs)
			}
		}

		// Mid-batch rollback is the interesting finish: the yielding side
		// recorded one undo range per run and must unwind them all.
		if trial%2 == 0 {
			if err := monoTxn.Rollback(); err != nil {
				t.Fatal(err)
			}
			if err := chkTxn.Rollback(); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := monoTxn.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := chkTxn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if ms, cs := engineState(t, mono), engineState(t, chk); ms != cs {
			t.Fatalf("trial %d: settled state diverges:\n--- monolithic ---\n%s--- yielding ---\n%s", trial, ms, cs)
		}
		if ms, cs := statsFingerprint(mono), statsFingerprint(chk); ms != cs {
			t.Fatalf("trial %d: stats diverge:\n--- monolithic ---\n%s--- yielding ---\n%s", trial, ms, cs)
		}
		if err := chk.VerifyPrimaryKeys(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if y := mono.Stats().BatchYields; y != 0 {
			t.Fatalf("trial %d: %d yields with no reader waiting", trial, y)
		}
	}
}

// TestInsertBatchChunkBoundaryVisibility race-stresses the reader-facing
// contract of a yielding batch with real readers: the table write lock
// covers each run, so a concurrent reader may observe the table between runs
// but never inside one — every observed row count is a whole multiple of
// batchYieldRows.  And SnapshotRead keeps its stability contract: a read it
// reports stable saw no uncommitted rows, i.e. only whole committed batches.
func TestInsertBatchChunkBoundaryVisibility(t *testing.T) {
	const (
		batchSize  = 16 * batchYieldRows
		minBatches = 30
		maxBatches = 3000 // keep loading until some batch has yielded
		readers    = 4
	)
	db := batchPropertyDB(t)
	cols := []string{"object_id", "frame_id", "mag"}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var n int64
				epochBefore := db.TableEpoch("objects")
				_, stable, err := db.SnapshotRead("objects", func() error {
					n = 0
					return db.ScanRef("objects", func(RowView) bool {
						n++
						return true
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
				if n%batchYieldRows != 0 {
					t.Errorf("reader saw %d rows: not a whole-run multiple of %d", n, batchYieldRows)
					return
				}
				if stable {
					// A stable snapshot saw no uncommitted rows; with one
					// writer committing whole batches, the count at the
					// observed epoch is a whole number of batches.  Guard with
					// the pre-read epoch: if a commit landed between the scan
					// and the epoch re-check, stability would have been false.
					if n%batchSize != 0 && db.TableEpoch("objects") == epochBefore {
						t.Errorf("stable snapshot saw %d rows: not a whole-batch multiple of %d", n, batchSize)
						return
					}
				}
			}
		}()
	}

	batches := 0
	for ; batches < maxBatches && (batches < minBatches || db.Stats().BatchYields == 0); batches++ {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, batchSize)
		for i := range rows {
			id := int64(batches*batchSize + i + 1)
			rows[i] = []Value{Int(id), Int(id % 8), Float(float64(id % 30))}
		}
		br, err := txn.InsertBatch("objects", cols, rows)
		if err != nil || br.RowsInserted != batchSize {
			t.Fatalf("batch %d: %+v err=%v", batches, br, err)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d batches, %d yields", batches, db.Stats().BatchYields)
	if n, _ := db.Count("objects"); n != int64(batches*batchSize) {
		t.Fatalf("final count = %d, want %d", n, batches*batchSize)
	}
}

// TestBatchYieldsOnlyToWaitingReaders pins the trigger: a batch is one lock
// hold, one undo range and one log record unless a reader is queued on its
// table; a queued reader is admitted within batchYieldRows rows; and a loader
// queued on a foreign-key parent is not a reader.
func TestBatchYieldsOnlyToWaitingReaders(t *testing.T) {
	cols := []string{"object_id", "frame_id", "mag"}
	objectRows := func(first, n int64) [][]Value {
		rows := make([][]Value, n)
		for i := range rows {
			id := first + int64(i)
			rows[i] = []Value{Int(id), Int(1), Float(float64(id % 30))}
		}
		return rows
	}
	// held spins until someone write-holds (or is queued to write-hold) tb.
	held := func(tb *Table) {
		for tb.mu.TryRLock() {
			tb.mu.RUnlock()
			runtime.Gosched()
		}
	}

	t.Run("no reader", func(t *testing.T) {
		db, _ := durableDB(t)
		dev := db.wal.dev.Load()
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		insertFrame(t, txn, 1)
		rng := rand.New(rand.NewSource(25))
		next := int64(0)
		for b := 0; b < 20; b++ {
			n := int64(1 + rng.Intn(200))
			dev.mu.Lock()
			before := dev.nextLSN
			dev.mu.Unlock()
			br, err := txn.InsertBatch("objects", cols, objectRows(next, n))
			if err != nil {
				t.Fatal(err)
			}
			next += n
			dev.mu.Lock()
			records := dev.nextLSN - before
			dev.mu.Unlock()
			if br.Report.UndoRecords != 1 || records != 1 {
				t.Fatalf("batch of %d rows: %d undo ranges, %d log records, want 1 and 1", n, br.Report.UndoRecords, records)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if y := db.Stats().BatchYields; y != 0 {
			t.Fatalf("BatchYields = %d with no reader", y)
		}
	})

	t.Run("parked reader", func(t *testing.T) {
		db := MustOpen(testSchema(t))
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		insertFrame(t, txn, 1)
		frames, objects := db.tables["frames"], db.tables["objects"]

		// Park the batch at the top of its first run: it holds the objects
		// write lock and waits for its parent, which the test holds.
		frames.mu.Lock()
		var br BatchReport
		var batchErr error
		loaded := make(chan struct{})
		go func() {
			defer close(loaded)
			br, batchErr = txn.InsertBatch("objects", cols, objectRows(0, 100))
		}()
		held(objects)

		seen := make(chan int, 1)
		go func() {
			n := 0
			if err := db.ScanRef("objects", func(RowView) bool { n++; return true }); err != nil {
				t.Error(err)
			}
			seen <- n
		}()
		for objects.waitingReaders.Load() == 0 {
			runtime.Gosched()
		}
		if n := frames.waitingReaders.Load(); n != 0 {
			t.Errorf("the batch waiting on its foreign-key parent counts as %d waiting readers", n)
		}
		frames.mu.Unlock()

		// The reader queued before the first row; it gets the table at the
		// first boundary and the rest of the batch is one more run.
		if n := <-seen; n != batchYieldRows {
			t.Errorf("parked reader saw %d rows, want %d", n, batchYieldRows)
		}
		<-loaded
		if batchErr != nil || br.RowsInserted != 100 {
			t.Fatalf("InsertBatch: %+v err=%v", br, batchErr)
		}
		if y := db.Stats().BatchYields; y != 1 || br.Report.UndoRecords != 2 {
			t.Errorf("BatchYields = %d, undo ranges = %d, want 1 and 2", y, br.Report.UndoRecords)
		}
		if err := txn.Rollback(); err != nil {
			t.Fatal(err)
		}
		if n, _ := db.Count("objects"); n != 0 {
			t.Fatalf("%d objects left after rolling back both runs", n)
		}
	})

	t.Run("loader behind a parent", func(t *testing.T) {
		db := MustOpen(testSchema(t))
		seed, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		insertFrame(t, seed, 1)
		if _, err := seed.InsertBatch("objects", cols, objectRows(0, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		frames, objects, fingers := db.tables["frames"], db.tables["objects"], db.tables["fingers"]

		// An objects batch parked on frames, and behind it a fingers batch
		// parked on objects: the second is a loader queued on the table the
		// first is about to fill.
		frames.mu.Lock()
		var wg sync.WaitGroup
		load := func(table string, cols []string, rows [][]Value) {
			defer wg.Done()
			txn, err := db.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if br, err := txn.InsertBatch(table, cols, rows); err != nil || br.RowsInserted != len(rows) {
				t.Errorf("InsertBatch(%s): %+v err=%v", table, br, err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Error(err)
			}
		}
		wg.Add(2)
		go load("objects", cols, objectRows(100, 100))
		held(objects)
		fingerRows := make([][]Value, 40)
		for i := range fingerRows {
			fingerRows[i] = []Value{Int(int64(i)), Int(int64(i % 10)), Float(float64(i))}
		}
		go load("fingers", []string{"finger_id", "object_id", "flux"}, fingerRows)
		held(fingers)
		for i := 0; i < 100; i++ {
			runtime.Gosched()
			if n := objects.waitingReaders.Load(); n != 0 {
				t.Fatalf("a loader queued on its foreign-key parent counts as %d waiting readers", n)
			}
		}
		frames.mu.Unlock()
		wg.Wait()
		if y := db.Stats().BatchYields; y != 0 {
			t.Fatalf("BatchYields = %d: a batch yielded to a loader", y)
		}
	})
}
