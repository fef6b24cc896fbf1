package parallel

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
)

func testServer(t *testing.T) *sqlbatch.Server {
	t.Helper()
	sched := exec.NewDES(5)
	db := relstore.MustOpen(catalog.NewSchema())
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
	return sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

func testNight(totalMB float64, files int) []*catalog.File {
	return catalog.GenerateNight(catalog.NightSpec{
		TotalMB: totalMB, Seed: 77, RowsPerMB: 60, ErrorRate: 0.01, RunID: 1, Files: files,
	})
}

func totalRows(files []*catalog.File) int {
	n := 0
	for _, f := range files {
		n += f.DataRows
	}
	return n
}

func TestParallelLoadsWholeNight(t *testing.T) {
	srv := testServer(t)
	files := testNight(30, 8)
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
	if res.WallTime <= 0 || res.ThroughputMBps <= 0 {
		t.Fatalf("timing: %+v", res)
	}
	// Every node got at least one file under dynamic assignment of 8 files
	// to 4 nodes.
	for _, n := range res.Nodes {
		if len(n.FilesDone) == 0 {
			t.Errorf("node %d loaded no files", n.Node)
		}
		if n.Err != nil {
			t.Errorf("node %d error: %v", n.Node, n.Err)
		}
	}
	if orphans, _ := srv.DB().VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans after parallel load: %d", orphans)
	}
	if err := srv.DB().VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
	if res.Server.RowsInserted == 0 {
		t.Fatal("server stats not captured")
	}
}

func TestParallelMatchesSequentialContents(t *testing.T) {
	files := testNight(20, 6)

	seq := testServer(t)
	seqRes, err := Run(seq, files, Config{Loaders: 1, Assignment: Dynamic, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	par := testServer(t)
	parRes, err := Run(par, files, Config{Loaders: 5, Assignment: Dynamic, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}

	if seqRes.Total.RowsLoaded != parRes.Total.RowsLoaded {
		t.Fatalf("sequential loaded %d rows, parallel %d", seqRes.Total.RowsLoaded, parRes.Total.RowsLoaded)
	}
	for _, table := range catalog.CatalogTables() {
		a, _ := seq.DB().Count(table)
		b, _ := par.DB().Count(table)
		if a != b {
			t.Errorf("table %s: sequential %d, parallel %d", table, a, b)
		}
	}
	// Parallelism must reduce the makespan substantially.
	if parRes.WallTime*2 > seqRes.WallTime {
		t.Fatalf("parallel wall time %v not much better than sequential %v", parRes.WallTime, seqRes.WallTime)
	}
}

func TestStaticAssignmentCoversAllFiles(t *testing.T) {
	srv := testServer(t)
	files := testNight(20, 7)
	res, err := Run(srv, files, Config{Loaders: 3, Assignment: Static, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Files != len(files) {
		t.Fatalf("loaded %d files, want %d", res.Total.Files, len(files))
	}
	loaded := map[string]bool{}
	for _, n := range res.Nodes {
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
}

func TestDynamicBeatsStaticOnSkewedNight(t *testing.T) {
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 40, Seed: 99, RowsPerMB: 60, RunID: 1, Files: 10, Skew: 3,
	})
	dyn := testServer(t)
	dynRes, err := Run(dyn, files, Config{Loaders: 4, Assignment: Dynamic, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	st := testServer(t)
	stRes, err := Run(st, files, Config{Loaders: 4, Assignment: Static, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if dynRes.WallTime >= stRes.WallTime {
		t.Fatalf("dynamic (%v) should beat static (%v) on a skewed night", dynRes.WallTime, stRes.WallTime)
	}
}

func TestNonBulkClusterMode(t *testing.T) {
	srv := testServer(t)
	files := testNight(6, 3)
	res, err := Run(srv, files, Config{Loaders: 2, Assignment: Dynamic, Loader: core.DefaultConfig(), NonBulk: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.RowsLoaded == 0 {
		t.Fatal("non-bulk cluster loaded nothing")
	}
	if res.Total.Batches != 0 {
		t.Fatalf("non-bulk mode should not report batches, got %d", res.Total.Batches)
	}
	if res.Total.DBCalls < res.Total.RowsLoaded {
		t.Fatalf("non-bulk mode should use one call per row: calls=%d rows=%d", res.Total.DBCalls, res.Total.RowsLoaded)
	}
}

func TestRunValidation(t *testing.T) {
	srv := testServer(t)
	if _, err := Run(srv, nil, Config{Loaders: 2}); err == nil {
		t.Fatal("empty file list should error")
	}
	// Zero loaders defaults to one.
	files := testNight(3, 2)
	res, err := Run(srv, files, Config{Loaders: 0, Loader: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1", len(res.Nodes))
	}
}

func TestAssignmentString(t *testing.T) {
	if Dynamic.String() != "dynamic" || Static.String() != "static" {
		t.Fatal("Assignment.String broken")
	}
}

// TestProvenanceAcrossFiles loads eight files on two nodes with provenance on:
// every file leaves its load_runs row and every skipped row its load_errors
// row, which takes provenance ids that keep counting from one file of a node
// to the next (a loader per file restarted them and the engine rejected the
// duplicates, silently), in ranges the nodes do not share.
func TestProvenanceAcrossFiles(t *testing.T) {
	srv := testServer(t)
	files := testNight(30, 8)
	cfg := core.DefaultConfig()
	cfg.RecordProvenance = true
	res, err := Run(srv, files, Config{Loaders: 2, Loader: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.RowsSkipped == 0 || len(res.Nodes[0].FilesDone) < 2 || len(res.Nodes[1].FilesDone) < 2 {
		t.Fatalf("want skipped rows and several files per node: %d skipped, files %v and %v",
			res.Total.RowsSkipped, res.Nodes[0].FilesDone, res.Nodes[1].FilesDone)
	}
	db := srv.DB()
	if runs := db.Table(catalog.TLoadRuns).RowCount(); runs != int64(len(files)) {
		t.Errorf("%d load_runs rows for %d files", runs, len(files))
	}
	if errs := db.Table(catalog.TLoadErrors).RowCount(); errs != int64(res.Total.RowsSkipped) {
		t.Errorf("%d load_errors rows for %d skipped rows", errs, res.Total.RowsSkipped)
	}
	if err := db.ScanRef(catalog.TLoadRuns, func(r relstore.RowView) bool {
		if id, node := r.Value(0).Int(), r.Value(2).Int(); id/1_000_000 != node+1 {
			t.Errorf("load run %d recorded by node %d is outside the node's id range", id, node)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.ScanRef(catalog.TLoadErrors, func(r relstore.RowView) bool {
		if id, run := r.Value(0).Int(), r.Value(1).Int(); id/10_000_000 != run/1_000_000 {
			t.Errorf("load error %d names load run %d of another node", id, run)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}
