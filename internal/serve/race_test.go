package serve

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// TestRaceCacheNeverServesUncommittedRows is the mixed-scenario stress test:
// concurrent loader transactions (half of which roll back) race query
// workers that share one epoch-invalidated cache.  The invariant under
// go test -race: a cache hit never returns a row of a rolled-back
// transaction, and never a row of a transaction that had not committed when
// the entry was stored.
//
// Every entry also carries a body, and hits race the commits: the body of a
// hit must be its own result's (the same ids), computed at an epoch no older
// than the table's epoch when the lookup began — so a body stored by a Put
// whose epoch had already gone stale is never served.  Half the readers go
// through Server.ExecuteBody instead, whose answers must carry their own
// result's body whether they hit or miss.
//
// Rolled-back rows are the detector for both halves: every writer transaction
// is equally likely to roll back, so if results computed over in-flight rows
// ever entered the cache, roughly half of those leaked rows would belong to
// transactions that subsequently rolled back — and any such id in a hit is
// flagged.  (A plain uncached read MAY see uncommitted rows; that is the
// engine's documented dirty-read behaviour and exactly why only
// SnapshotRead-stable results are cacheable.)
func TestRaceCacheNeverServesUncommittedRows(t *testing.T) {
	db := relstore.MustOpen(catalog.NewSchema())
	setup, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(setup, 4); err != nil {
		t.Fatal(err)
	}
	ins := func(table string, cols []string, vals []relstore.Value) {
		if _, err := setup.Insert(table, cols, vals); err != nil {
			t.Fatalf("insert into %s: %v", table, err)
		}
	}
	ins(catalog.TObservations,
		[]string{"obs_id", "telescope_id", "mjd_start", "ra_center", "dec_center", "airmass", "filter_set"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Float(53600), relstore.Float(120),
			relstore.Float(-30), relstore.Float(1.2), relstore.Str("r")})
	ins(catalog.TCCDColumns,
		[]string{"ccd_col_id", "obs_id", "ccd_id", "ccd_number", "filter", "ra_center", "dec_center"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Int(1), relstore.Int(1),
			relstore.Str("r"), relstore.Float(120), relstore.Float(-30)})
	ins(catalog.TCCDFrames,
		[]string{"frame_id", "ccd_col_id", "frame_number", "mjd_start", "exposure_s"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Int(1), relstore.Float(53600.1), relstore.Float(140)})
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tuning.ApplyIndexPolicy(db, tuning.HTMIDOnly); err != nil {
		t.Fatal(err)
	}

	const (
		writers  = 4
		txnsEach = 60
		perTxn   = 8
	)

	// rolledBack records ids whose transaction rolled back; committed records
	// ids whose transaction committed.  Both only ever grow, and entries are
	// added AFTER the outcome settles, so membership in rolledBack proves the
	// row must never appear in a cached (committed-snapshot) result.
	var mu sync.Mutex
	rolledBack := make(map[int64]bool)
	committed := make(map[int64]bool)

	cache := NewCache(4, 64)
	cone := queries.Cone{RA: 120.01, Dec: -30.01, RadiusDeg: 5} // covers every inserted object
	var wg, writing sync.WaitGroup

	for wr := 0; wr < writers; wr++ {
		wr := wr
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < txnsEach; i++ {
				// A pause between transactions leaves windows with none in
				// flight, where reads are stable and the cache fills.
				time.Sleep(time.Duration(wr+1) * 300 * time.Microsecond)
				txn, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				base := int64(1_000_000*(wr+1) + i*perTxn)
				for j := int64(0); j < perTxn; j++ {
					insertObject(t, txn, base+j)
				}
				if i%2 == 1 {
					if err := txn.Rollback(); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for j := int64(0); j < perTxn; j++ {
						rolledBack[base+j] = true
					}
					mu.Unlock()
				} else {
					if _, err := txn.Commit(); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					for j := int64(0); j < perTxn; j++ {
						committed[base+j] = true
					}
					mu.Unlock()
				}
			}
		}()
	}

	// noRolledBack flags any object of res from a rolled-back transaction.
	noRolledBack := func(what string, res queries.Result) {
		mu.Lock()
		defer mu.Unlock()
		for _, obj := range res.Objects {
			if rolledBack[obj.ObjectID] {
				t.Errorf("%s served object %d from a rolled-back transaction", what, obj.ObjectID)
			}
		}
	}

	const readers = 4
	var hits, stalePuts atomic.Int64
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sig := cone.Signature()
			for i := 0; i < 400; i++ {
				time.Sleep(200 * time.Microsecond) // leave the writers CPU
				before := db.TableEpoch(cone.Table())
				if res, body, ok := cache.Get(db, sig); ok {
					after := db.TableEpoch(cone.Table())
					epoch, _, _ := strings.Cut(string(body), " ")
					e, err := strconv.ParseInt(epoch, 10, 64)
					if err != nil || e < before || e > after {
						t.Errorf("hit in epochs [%d, %d] served a body from epoch %q", before, after, epoch)
					} else if want := bodyOf(e, res); !bytes.Equal(body, want) {
						t.Errorf("hit served body %q with a result whose body is %q", body, want)
					}
					noRolledBack("cache hit", res)
					hits.Add(1)
					continue
				}
				var res queries.Result
				epoch, stable, err := db.SnapshotRead(cone.Table(), func() error {
					r, err := cone.Run(db)
					res = r
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
				if stable {
					// Every row of a stable snapshot must already be settled
					// as committed — never rolled back, never still pending.
					noRolledBack("stable snapshot", res)
					if i%4 == 0 {
						// Give a commit the chance to make this Put stale.
						for spin := 0; spin < 1000 && db.TableEpoch(cone.Table()) == epoch; spin++ {
							runtime.Gosched()
						}
					}
					if !cache.Put(db, sig, cone.Table(), epoch, res, bodyOf(epoch, res)) {
						stalePuts.Add(1)
					}
				}
			}
		}()
	}

	server := NewServer(exec.NewRealtime(exec.RealtimeConfig{Seed: 3}), db, Config{Workers: 2, QueueDepth: 1000})
	idsBody := func(dst []byte, res queries.Result) ([]byte, error) { return append(dst, bodyOf(0, res)...), nil }
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inline := server.Scheduler().(exec.InlineRunner)
			for i := 0; i < 200; i++ {
				time.Sleep(200 * time.Microsecond)
				inline.RunInline("race-reader", func(w exec.Worker) {
					res, body, outcome, err := server.ExecuteBody(w, cone, nil, []byte("prefix"), idsBody)
					if err != nil || (outcome != OutcomeServed && outcome != OutcomeCacheHit) {
						t.Errorf("ExecuteBody: %v, %v", outcome, err)
						return
					}
					if want := append([]byte("prefix"), bodyOf(0, res)...); !bytes.Equal(body, want) {
						t.Errorf("%v answer carries body %q, its result's is %q", outcome, body, want)
					}
					if outcome == OutcomeCacheHit {
						noRolledBack("server cache hit", res)
					}
				})
			}
		}()
	}

	writing.Wait()
	wg.Wait()
	t.Logf("%d hits; %d Puts refused as stale", hits.Load(), stalePuts.Load())

	// Quiesced: a fresh stable read must now see exactly the committed ids.
	var final queries.Result
	_, stable, err := db.SnapshotRead(cone.Table(), func() error {
		r, err := cone.Run(db)
		final = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("quiesced database not stable")
	}
	got := make(map[int64]bool, len(final.Objects))
	for _, obj := range final.Objects {
		got[obj.ObjectID] = true
		if rolledBack[obj.ObjectID] {
			t.Fatalf("rolled-back object %d visible after quiesce", obj.ObjectID)
		}
	}
	for id := range committed {
		if !got[id] {
			t.Fatalf("committed object %d missing from final snapshot", id)
		}
	}
	// And the cache, if it still holds the entry, must agree with the final
	// state or refuse to serve.
	if res, _, ok := cache.Get(db, cone.Signature()); ok {
		if len(res.Objects) != len(final.Objects) {
			t.Fatalf("surviving cache entry has %d objects, current committed state has %d",
				len(res.Objects), len(final.Objects))
		}
	}
}

// bodyOf is the race test's response body for a result computed at epoch:
// the epoch, then the object ids.
func bodyOf(epoch int64, res queries.Result) []byte {
	b := strconv.AppendInt(nil, epoch, 10)
	for _, obj := range res.Objects {
		b = strconv.AppendInt(append(b, ' '), obj.ObjectID, 10)
	}
	return b
}

// TestRaceMixedRunRealtime runs the full mixed scenario (parallel bulk load +
// query serving through one Server) on the realtime engine; under -race this
// exercises every lock edge between the loader path, the epoch counters, the
// cache shards and the histograms.
func TestRaceMixedRunRealtime(t *testing.T) {
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 17})
	env := newServeEnv(t, sched, tuning.HTMIDOnly, Config{Workers: 4, QueueDepth: 100_000})
	files := testFiles(6, 10, 17)
	trace := testTrace(500, 19)
	res, err := RunMixed(env.load, files, parallel.Config{
		Loaders: 4,
		Loader:  core.Config{BatchSize: 40, ArraySize: 1000},
	}, env.server, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.Total.RowsLoaded == 0 || res.Serve.Served == 0 {
		t.Fatalf("mixed realtime run degenerate: loaded %d, served %d",
			res.Load.Total.RowsLoaded, res.Serve.Served)
	}
	if orphans, _ := env.db.VerifyIntegrity(); orphans != 0 {
		t.Fatalf("%d orphaned rows after mixed run", orphans)
	}
}
