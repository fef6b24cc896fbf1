package relstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentInsertSharedTables is the race-stress test of the concurrent
// write path: many goroutines run their own transactions against the same
// tables (including parent/child foreign-key probes), with interleaved
// commits and rollbacks.  Run under -race this exercises the per-table locks,
// the pooled per-goroutine scratch buffers, the lock manager and the WAL; the
// assertions pin row counts, primary-key consistency and referential
// integrity afterwards.
func TestConcurrentInsertSharedTables(t *testing.T) {
	const (
		writers      = 8
		txnsPerGor   = 6
		rowsPerTxn   = 50
		rollbackEach = 3 // every 3rd transaction rolls back
	)
	db, err := Open(testSchema(t), WithMaxConcurrentTxns(writers))
	if err != nil {
		t.Fatal(err)
	}
	// Shared parent rows for the foreign-key probes.
	setup, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(1); f <= 4; f++ {
		if _, err := setup.Insert("frames", []string{"frame_id", "exposure"}, []Value{Int(f), Float(1.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var committedObjects int64
	var mu sync.Mutex
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tx := 0; tx < txnsPerGor; tx++ {
				txn, err := db.BeginBlocking()
				if err != nil {
					t.Errorf("writer %d: begin: %v", g, err)
					return
				}
				base := int64(g)*1_000_000 + int64(tx)*10_000
				inserted := int64(0)
				for r := int64(0); r < rowsPerTxn; r++ {
					id := base + r
					if _, err := txn.Insert("objects",
						[]string{"object_id", "frame_id", "mag"},
						[]Value{Int(id), Int(id%4 + 1), Float(float64(id%40) + 0.25)}); err != nil {
						t.Errorf("writer %d: insert object %d: %v", g, id, err)
						_ = txn.Rollback()
						return
					}
					inserted++
					// A child row referencing the object inserted in the same
					// transaction (dirty-read FK probe across tables).
					if r%5 == 0 {
						if _, err := txn.Insert("fingers",
							[]string{"finger_id", "object_id", "flux"},
							[]Value{Int(id), Int(id), Float(float64(r))}); err != nil {
							t.Errorf("writer %d: insert finger %d: %v", g, id, err)
						}
					}
					// Duplicate-PK attempts must fail cleanly, never corrupt.
					if r == 10 {
						if _, err := txn.Insert("objects",
							[]string{"object_id", "frame_id", "mag"},
							[]Value{Int(base), Int(1), Float(1)}); err == nil {
							t.Errorf("writer %d: duplicate PK accepted", g)
						}
					}
				}
				if tx%rollbackEach == rollbackEach-1 {
					if err := txn.Rollback(); err != nil {
						t.Errorf("writer %d: rollback: %v", g, err)
					}
				} else {
					if _, err := txn.Commit(); err != nil {
						t.Errorf("writer %d: commit: %v", g, err)
					}
					mu.Lock()
					committedObjects += inserted
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	objs := db.Table("objects").RowCount()
	if objs != committedObjects {
		t.Errorf("objects rows = %d, want %d committed", objs, committedObjects)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Errorf("primary keys inconsistent after concurrent load: %v", err)
	}
	if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
		t.Errorf("%d orphaned rows after concurrent load", orphans)
	}
	st := db.Stats()
	if st.RowsInserted != db.TotalRows() {
		t.Errorf("stats RowsInserted = %d, want %d live rows", st.RowsInserted, db.TotalRows())
	}
	if st.Transactions == 0 || st.Commits == 0 || st.Rollbacks == 0 {
		t.Errorf("expected nonzero txn/commit/rollback counters, got %+v", st)
	}
}

// TestConcurrentReadersAndWriters mixes scans, indexed lookups and aggregate
// queries with a writer on the same table; run under -race it guards the
// reader/writer lock discipline of the query layer.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db, err := Open(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("objects", "ix_mag", []string{"mag"}, false); err != nil {
		t.Fatal(err)
	}
	seed, _ := db.Begin()
	if _, err := seed.Insert("frames", []string{"frame_id"}, []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		txn, err := db.Begin()
		if err != nil {
			t.Errorf("begin: %v", err)
			return
		}
		for i := int64(0); i < 5000; i++ {
			if _, err := txn.Insert("objects",
				[]string{"object_id", "frame_id", "mag"},
				[]Value{Int(i), Int(1), Float(float64(i % 40))}); err != nil {
				t.Errorf("insert: %v", err)
				break
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int64(0)
				_ = db.ScanRef("objects", func(RowView) bool { n++; return true })
				if _, err := db.Aggregate("objects", "mag"); err != nil {
					t.Errorf("aggregate: %v", err)
					return
				}
				if _, _, err := db.SelectEqualIndexed("objects", "ix_mag", []Value{Float(7)}); err != nil {
					t.Errorf("indexed select: %v", err)
					return
				}
				if _, err := db.LookupByPK("objects", []Value{Int(n / 2)}); err != nil {
					t.Errorf("pk lookup: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.Table("objects").RowCount(); got != 5000 {
		t.Fatalf("objects rows = %d, want 5000", got)
	}
}

// TestScratchPoolReuse sanity-checks that scratches cycle through the pool
// without cross-transaction contamination of encoded keys.
func TestScratchPoolReuse(t *testing.T) {
	db, err := Open(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Insert("frames", []string{"frame_id"}, []Value{Int(i)}); err != nil {
			t.Fatalf("insert frame %d: %v", i, err)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	row, err := db.LookupByPK("frames", []Value{Int(25)})
	if err != nil || row == nil {
		t.Fatalf("LookupByPK(25) = %v, %v", row, err)
	}
	if got := db.Table("frames").RowCount(); got != 50 {
		t.Fatalf("frames rows = %d, want 50", got)
	}
}

// BenchmarkConcurrentInsert measures the concurrent insert path at several
// writer counts; with GOMAXPROCS > 1 it shows how far the per-table lock
// sharding lets disjoint-table writers scale.
func BenchmarkConcurrentInsert(b *testing.B) {
	for _, writers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			db, err := Open(testSchema(b), WithMaxConcurrentTxns(writers))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/writers + 1
			for g := 0; g < writers; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					txn, err := db.BeginBlocking()
					if err != nil {
						b.Error(err)
						return
					}
					base := int64(g) * 1_000_000_000
					for i := 0; i < per; i++ {
						if _, err := txn.Insert("frames", []string{"frame_id"},
							[]Value{Int(base + int64(i))}); err != nil {
							b.Error(err)
							break
						}
					}
					if _, err := txn.Commit(); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}
