package sqlbatch

import (
	"fmt"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
)

// span is the report of an insert call that wrote pages first..last.
func span(first, last int) relstore.OpReport {
	return relstore.OpReport{RowsInserted: 1, FirstPage: first, LastPage: last}
}

// cacheCounts reads the model's counters under its lock.
func cacheCounts(c *dataCache) (hits, misses, flushes int64, resident int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.flushes, c.lru.Len()
}

func TestDataCacheLRU(t *testing.T) {
	c := newDataCache(3)
	if m, _ := c.write("t", span(1, 1)); m != 1 {
		t.Fatal("first touch should miss")
	}
	c.write("t", span(2, 3))
	if m, _ := c.write("t", relstore.OpReport{FirstPage: 9, LastPage: 9}); m != 0 {
		t.Fatal("a call that inserted no row touched a page")
	}
	if m, _ := c.write("t", span(1, 1)); m != 0 {
		t.Fatal("page 1 should still be resident")
	}
	// A fourth page evicts page 2, the least recently used.
	c.write("t", span(4, 4))
	if m, _ := c.write("t", span(2, 2)); m != 1 {
		t.Fatal("page 2 should have been evicted")
	}
	if m, _ := c.write("u", span(1, 1)); m != 1 {
		t.Fatal("pages are per table")
	}
	if hits, misses, _, resident := cacheCounts(c); hits != 1 || misses != 6 || resident != 3 {
		t.Fatalf("hits=%d misses=%d resident=%d, want 1, 6, 3", hits, misses, resident)
	}
}

func TestDataCacheDirtyTrackingAndFlush(t *testing.T) {
	c := newDataCache(100)
	c.write("t", span(1, 1))
	c.write("t", span(1, 2)) // page 1 stays one dirty page
	if c.dirtySinceFlush != 2 {
		t.Fatalf("dirtySinceFlush = %d, want 2", c.dirtySinceFlush)
	}
	written, scanned := c.flush()
	if written != 2 || scanned != 100 {
		t.Fatalf("flush wrote %d and scanned %d, want 2 and the capacity 100", written, scanned)
	}
	if written, _ := c.flush(); written != 0 || c.dirtySinceFlush != 0 {
		t.Fatalf("second flush wrote %d, dirty counter %d", written, c.dirtySinceFlush)
	}
	// The writer runs on its own once dirtyFlushPages pages are dirty, and
	// re-dirtying a clean resident page counts again.
	if _, scanned := c.write("t", span(1, dirtyFlushPages-1)); scanned != 0 {
		t.Fatal("writer ran below the threshold")
	}
	if _, scanned := c.write("t", span(dirtyFlushPages, dirtyFlushPages)); scanned != 100 {
		t.Fatalf("writer at the threshold scanned %d, want 100", scanned)
	}
	if _, _, flushes, _ := cacheCounts(c); flushes != 3 {
		t.Fatalf("flushes = %d, want 3", flushes)
	}
}

func TestDataCacheMinimumCapacity(t *testing.T) {
	if c := newDataCache(0); c.capacity != 1 {
		t.Fatalf("capacity = %d, want 1", c.capacity)
	}
	if srv := NewServerOn(exec.NewDES(1), relstore.MustOpen(catalog.NewSchema()), ServerConfig{}, DefaultCostModel()); srv.cache.capacity != 2048 || srv.Config().CachePages != 2048 {
		t.Fatalf("default cache = %d pages, config %d, want 2048", srv.cache.capacity, srv.Config().CachePages)
	}
}

// TestCacheAccounting drives 2,000 rows through a DES connection: every page
// the engine reports reaches the server's model, repeated rows on a page hit,
// and the commit runs the database writer (18 pages stay below the dirty
// threshold).
func TestCacheAccounting(t *testing.T) {
	sched, srv := newTestServer(t, ServerConfig{})
	sched.Spawn("loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		if err := conn.Begin(); err != nil {
			t.Error(err)
			return
		}
		stmt := conn.Prepare(catalog.TObservations, obsColumns)
		for id := int64(1); id <= 2000; id++ {
			stmt.AddBatch(obsValues(id))
			if id%40 == 0 {
				if _, err := stmt.ExecuteBatch(); err != nil {
					t.Error(err)
				}
			}
		}
		if err := conn.Commit(); err != nil {
			t.Error(err)
		}
	})
	sched.Run()
	pages := srv.DB().Table(catalog.TObservations).PageCount()
	hits, misses, flushes, _ := cacheCounts(srv.cache)
	if misses != int64(pages) || hits != 2000-int64(pages) {
		t.Fatalf("misses=%d hits=%d, want one miss per page (%d) and a hit for every other row", misses, hits, pages)
	}
	if flushes != 1 {
		t.Fatalf("flushes = %d, want the commit's", flushes)
	}
}

// TestConcurrentConnsShareDataCache runs four realtime connections against
// one server: under -race the model's mutex is the only thing between them,
// and every page the engine wrote reaches the model exactly once as a miss.
func TestConcurrentConnsShareDataCache(t *testing.T) {
	srv := NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 3}), seededDB(t), ServerConfig{}, DefaultCostModel())
	const conns, rowsPerConn = 4, 400
	for c := 0; c < conns; c++ {
		base := int64(c) * rowsPerConn
		srv.Scheduler().Spawn(fmt.Sprintf("loader-%d", c), func(w exec.Worker) {
			conn := srv.ConnectWorker(w)
			defer conn.Close()
			if err := conn.Begin(); err != nil {
				t.Error(err)
				return
			}
			stmt := conn.Prepare(catalog.TObservations, obsColumns)
			for id := base + 1; id <= base+rowsPerConn; id++ {
				stmt.AddBatch(obsValues(id))
				if id%20 == 0 {
					if _, err := stmt.ExecuteBatch(); err != nil {
						t.Error(err)
					}
				}
			}
			if err := conn.Commit(); err != nil {
				t.Error(err)
			}
		})
	}
	srv.Scheduler().Run()
	if n, _ := srv.DB().Count(catalog.TObservations); n != conns*rowsPerConn {
		t.Fatalf("observations = %d, want %d", n, conns*rowsPerConn)
	}
	pages := srv.DB().Table(catalog.TObservations).PageCount()
	if _, misses, flushes, _ := cacheCounts(srv.cache); misses != int64(pages) || flushes < conns {
		t.Fatalf("misses=%d flushes=%d, want one miss per page (%d) and a flush per commit", misses, flushes, pages)
	}
}
