package relstore

import (
	"math/rand"
	"sync"
	"testing"
)

// TestInsertBatchChunkedMatchesMonolithic is the chunked-lock property test:
// for a sweep of chunk sizes (including 1, sizes that do and do not divide
// the batch, and sizes larger than any batch) the chunked apply path must
// leave table state, epochs, pending counters and index iteration
// byte-identical to the monolithic single-hold path — through successful
// batches, mid-batch failures, commits and mid-batch rollbacks.
func TestInsertBatchChunkedMatchesMonolithic(t *testing.T) {
	cols := []string{"object_id", "frame_id", "mag"}
	for _, chunk := range []int{1, 2, 3, 7, 16, 1000} {
		rng := rand.New(rand.NewSource(int64(4000 + chunk)))
		for trial := 0; trial < 12; trial++ {
			mono := batchPropertyDB(t)
			chk := batchPropertyDB(t, WithBatchLockChunk(chunk))
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
				size := 1 + rng.Intn(50)
				seed := rng.Int63()
				rowsM := randomObjectBatch(rand.New(rand.NewSource(seed)), base, &nextMono, size)
				rowsC := randomObjectBatch(rand.New(rand.NewSource(seed)), base, &nextChk, size)

				mr, mErr := monoTxn.InsertBatch("objects", cols, rowsM)
				cr, cErr := chkTxn.InsertBatch("objects", cols, rowsC)
				if mr.RowsInserted != cr.RowsInserted || mr.FailedIndex != cr.FailedIndex || (mErr == nil) != (cErr == nil) {
					t.Fatalf("chunk %d trial %d batch %d: monolithic (ins=%d idx=%d err=%v) vs chunked (ins=%d idx=%d err=%v)",
						chunk, trial, bi, mr.RowsInserted, mr.FailedIndex, mErr, cr.RowsInserted, cr.FailedIndex, cErr)
				}
				if ms, cs := engineState(t, mono), engineState(t, chk); ms != cs {
					t.Fatalf("chunk %d trial %d batch %d: mid-txn state diverges:\n--- monolithic ---\n%s--- chunked ---\n%s",
						chunk, trial, bi, ms, cs)
				}
			}

			// Mid-batch rollback is the interesting finish: chunked mode
			// recorded one undo range per chunk and must unwind them all.
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
				t.Fatalf("chunk %d trial %d: settled state diverges:\n--- monolithic ---\n%s--- chunked ---\n%s",
					chunk, trial, ms, cs)
			}
			if ms, cs := statsFingerprint(mono), statsFingerprint(chk); ms != cs {
				t.Fatalf("chunk %d trial %d: stats diverge:\n--- monolithic ---\n%s--- chunked ---\n%s",
					chunk, trial, ms, cs)
			}
			if err := chk.VerifyPrimaryKeys(); err != nil {
				t.Fatalf("chunk %d trial %d: %v", chunk, trial, err)
			}
		}
	}
}

// TestInsertBatchChunkBoundaryVisibility race-stresses the reader-facing
// contract of chunked locking: the table write lock covers each chunk, so a
// concurrent reader may observe the table between chunks but never inside
// one — every observed row count is a whole multiple of the chunk size.  And
// SnapshotRead keeps its stability contract: a read it reports stable saw no
// uncommitted rows, i.e. only whole committed batches.
func TestInsertBatchChunkBoundaryVisibility(t *testing.T) {
	const (
		chunk     = 20
		batchSize = 60 // chunk divides batchSize: three holds per batch
		batches   = 30
		readers   = 4
	)
	db := batchPropertyDB(t, WithBatchLockChunk(chunk))
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
				if n%chunk != 0 {
					t.Errorf("reader saw %d rows: not a whole-chunk multiple of %d", n, chunk)
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

	for b := 0; b < batches; b++ {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, batchSize)
		for i := range rows {
			id := int64(b*batchSize + i + 1)
			rows[i] = []Value{Int(id), Int(id % 8), Float(float64(id % 30))}
		}
		br, err := txn.InsertBatch("objects", cols, rows)
		if err != nil || br.RowsInserted != batchSize {
			t.Fatalf("batch %d: %+v err=%v", b, br, err)
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
	if n, _ := db.Count("objects"); n != batches*batchSize {
		t.Fatalf("final count = %d, want %d", n, batches*batchSize)
	}
}
