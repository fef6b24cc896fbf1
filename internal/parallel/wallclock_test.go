package parallel

import (
	"fmt"
	"testing"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

// wallclockServer builds a server on the realtime scheduler: loaders will be
// real goroutines sharing one relstore engine.
func wallclockServer(tb testing.TB) *sqlbatch.Server {
	tb.Helper()
	db := relstore.MustOpen(catalog.NewSchema())
	txn, err := db.Begin()
	if err != nil {
		tb.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 8); err != nil {
		tb.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
	rt := exec.NewRealtime(exec.RealtimeConfig{Seed: 5})
	return sqlbatch.NewServerOn(rt, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

// TestWallclockClusterLoad runs a whole night through the realtime scheduler
// with several concurrent loader goroutines and checks the same invariants
// the DES cluster tests check: complete row accounting, no duplicated files,
// referential integrity.  Under -race this is the end-to-end concurrency
// test of the whole stack (parallel → sqlbatch → relstore).
func TestWallclockClusterLoad(t *testing.T) {
	srv := wallclockServer(t)
	files := testNight(20, 8)
	res, err := Run(srv, files, Config{Loaders: 4, Assignment: Dynamic, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Files != len(files) {
		t.Fatalf("loaded %d files, want %d", res.Total.Files, len(files))
	}
	if res.Total.RowsLoaded+res.Total.RowsSkipped+res.Total.ParseErrors != totalRows(files) {
		t.Fatalf("row accounting: %+v vs %d generated", res.Total, totalRows(files))
	}
	loaded := map[string]bool{}
	for _, n := range res.Nodes {
		if n.Err != nil {
			t.Errorf("node %d error: %v", n.Node, n.Err)
		}
		for _, f := range n.FilesDone {
			if loaded[f] {
				t.Errorf("file %s loaded twice", f)
			}
			loaded[f] = true
		}
	}
	if len(loaded) != len(files) {
		t.Fatalf("distinct files loaded = %d, want %d", len(loaded), len(files))
	}
	if res.WallTime <= 0 {
		t.Fatalf("wall time not measured: %v", res.WallTime)
	}
	if orphans, _ := srv.DB().VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans after wallclock load: %d", orphans)
	}
	if err := srv.DB().VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
}

// TestWallclockMatchesDESContents loads the same night in both execution
// modes and compares the final repository contents table by table: the
// engine must converge to the same state no matter which scheduler ran the
// cluster.
func TestWallclockMatchesDESContents(t *testing.T) {
	files := testNight(12, 6)

	sim := testServer(t)
	simRes, err := Run(sim, files, Config{Loaders: 3, Assignment: Dynamic, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rt := wallclockServer(t)
	rtRes, err := Run(rt, files, Config{Loaders: 3, Assignment: Dynamic, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}

	if simRes.Total.RowsLoaded != rtRes.Total.RowsLoaded {
		t.Fatalf("DES loaded %d rows, wallclock %d", simRes.Total.RowsLoaded, rtRes.Total.RowsLoaded)
	}
	for _, l := range catalog.Layouts {
		table := l.Table
		a, _ := sim.DB().Count(table)
		b, _ := rt.DB().Count(table)
		if a != b {
			t.Errorf("table %s: DES %d rows, wallclock %d", table, a, b)
		}
	}
}

// TestWallclockNonBulk exercises the singleton-insert baseline under real
// concurrency (one database call per row stresses the per-call locking far
// harder than batched mode).
func TestWallclockNonBulk(t *testing.T) {
	srv := wallclockServer(t)
	files := testNight(4, 3)
	res, err := Run(srv, files, Config{Loaders: 3, Assignment: Dynamic, Loader: core.DefaultConfig(), NonBulk: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.RowsLoaded == 0 {
		t.Fatal("wallclock non-bulk cluster loaded nothing")
	}
	if orphans, _ := srv.DB().VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans: %d", orphans)
	}
}

// BenchmarkParallelLoadWallclock measures real elapsed time for the same
// night at 1/2/4/8 loader goroutines.  On a multi-core host the 4-loader
// point should come in well under half the single-loader time (the §5.3
// scaling claim, now measured on real hardware rather than predicted); on a
// single-core host it degenerates to ~1× and measures locking overhead.
// The measured figure is parallel.speedup in a traced `make perf` run.
func BenchmarkParallelLoadWallclock(b *testing.B) {
	for _, loaders := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("loaders=%d", loaders), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv := wallclockServer(b)
				files := catalog.GenerateNight(catalog.NightSpec{
					TotalMB: 60, Seed: 11, RowsPerMB: 60, ErrorRate: 0.002, RunID: 1, Files: 16,
				})
				cfg := Config{Loaders: loaders, Assignment: Dynamic, Loader: core.DefaultConfig()}
				b.StartTimer()
				res, err := Run(srv, files, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Total.RowsLoaded == 0 {
					b.Fatal("nothing loaded")
				}
			}
		})
	}
}

// TestWallclockPipelinedCommitsAtAdmissionLimits: N loaders, each pipelining
// its CommitEveryBatches commits (a started commit plus the transaction being
// filled: two engine transactions per loader), against exactly N server
// transaction slots.  A pending commit holds no slot of its own, so the load
// completes — if it held one, every loader would end up waiting for a slot
// only another waiting loader can free.  Under -race this is also the concurrency test of the log pipeline
// beneath real loaders.
func TestWallclockPipelinedCommitsAtAdmissionLimits(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("loaders=%d", n), func(t *testing.T) {
			db, err := relstore.Open(catalog.NewSchema(), relstore.WithWALDir(t.TempDir()))
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
			srvCfg := sqlbatch.DefaultServerConfig()
			srvCfg.TxnSlots = n
			srv := sqlbatch.NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 5}), db, srvCfg, sqlbatch.DefaultCostModel())

			files := testNight(20, 8)
			loader := core.DefaultConfig()
			loader.CommitEveryBatches = 3
			type outcome struct {
				res Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := Run(srv, files, Config{Loaders: n, Assignment: Dynamic, Loader: loader})
				done <- outcome{res, err}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("the load did not complete: loaders are waiting on each other's pending commits")
			}
			if out.err != nil {
				t.Fatal(out.err)
			}
			for _, node := range out.res.Nodes {
				if node.Err != nil {
					t.Errorf("node %d: %v", node.Node, node.Err)
				}
			}
			total := out.res.Total
			if total.RowsLoaded+total.RowsSkipped+total.ParseErrors != totalRows(files) {
				t.Fatalf("row accounting: %+v vs %d generated", total, totalRows(files))
			}
			if got := db.Stats().Commits - 1; got != int64(total.Commits) || total.Commits < 3*n {
				t.Fatalf("engine settled %d loader commits, loaders retired %d", got, total.Commits)
			}
			if st := db.Stats(); st.Transactions != st.Commits+st.Rollbacks {
				t.Fatalf("%d transactions begun, %d committed, %d rolled back", st.Transactions, st.Commits, st.Rollbacks)
			}
			if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
				t.Fatalf("orphans: %d", orphans)
			}
			if err := db.VerifyPrimaryKeys(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
