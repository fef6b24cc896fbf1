package relstore_test

import (
	"fmt"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// TestKeyIndexGuards pins, on the fixed-seed 20k-row night the root package's
// TestResidentBytesCeiling loads, what the row-id key index claims in
// numbers that repeat exactly: its bytes per key, how far keys sit from their
// home slots, and that a probe for an absent key — every insert of a clean
// load makes one per key index — reads no stored row.  Nothing here is counted
// on the hot path; the geometry is computed from the slot tags.
func TestKeyIndexGuards(t *testing.T) {
	const (
		bytesPerKeyCeiling   = 13.4 // slot bytes per stored key, all tables
		meanDisplacementCeil = 1.5
		maxDisplacementCeil  = 64 // 9 here: runs are kept in tag order, so no key waits behind a whole run
		absentProbesPerTable = 1000
	)
	db := loadGuardNight(t, tuning.NoIndexes, relstore.IndexImmediate)
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}

	var all relstore.KeyIndexGeometry
	var keyBytes int64
	probes, compares := 0, 0
	for _, ts := range db.StatsSnapshot().Tables {
		tbl := db.Table(ts.Name)
		g := tbl.KeyIndexGeometry()
		if int64(g.Slots)*8 != ts.KeyIndexBytes {
			t.Errorf("%s: %d slots but KeyIndexBytes %d", ts.Name, g.Slots, ts.KeyIndexBytes)
		}
		if want := int(ts.Rows) * (1 + len(tbl.Schema().Uniques)); g.Keys != want {
			t.Errorf("%s: %d keys held, want %d", ts.Name, g.Keys, want)
		}
		all.Keys += g.Keys
		all.DisplacementSum += g.DisplacementSum
		all.DisplacementMax = max(all.DisplacementMax, g.DisplacementMax)
		keyBytes += ts.KeyIndexBytes
		// Every catalog primary key is one integer column; ids this large
		// are never generated.
		for i := 0; i < absentProbesPerTable; i++ {
			compares += tbl.AbsentKeyRowCompares([]relstore.Value{relstore.Int(1<<40 + int64(i)*7919)})
			probes++
		}
	}
	if all.Keys < 20_000 {
		t.Fatalf("night stored %d keys, want at least 20000", all.Keys)
	}
	perKey := float64(keyBytes) / float64(all.Keys)
	mean := float64(all.DisplacementSum) / float64(all.Keys)
	t.Logf("%d keys: %.2f slot bytes per key, displacement mean %.3f max %d, %d row compares in %d absent probes",
		all.Keys, perKey, mean, all.DisplacementMax, compares, probes)
	if perKey > bytesPerKeyCeiling {
		t.Errorf("key indexes hold %.2f bytes per key, ceiling %.1f", perKey, bytesPerKeyCeiling)
	}
	if mean > meanDisplacementCeil || all.DisplacementMax > maxDisplacementCeil {
		t.Errorf("displacement mean %.3f max %d, ceilings %.1f and %d", mean, all.DisplacementMax, meanDisplacementCeil, maxDisplacementCeil)
	}
	if compares*1000 > probes {
		t.Errorf("%d row compares in %d absent-key probes, ceiling 1 per 1000", compares, probes)
	}
}

// guardNight is the guards' fixed-seed 20k-row night.
func guardNight() []*catalog.File {
	return catalog.GenerateNight(catalog.NightSpec{
		TotalMB: 200, RowsPerMB: 100, Seed: 17, ErrorRate: 0, RunID: 1, Files: 4,
	})
}

// rowDirTotals checks every table's row directory against its stats and,
// for a database no replay stored ids out of order in, against one run per
// page; it sums the geometry over the database.
func rowDirTotals(t *testing.T, db *relstore.DB, runPerPage bool) (all relstore.RowDirGeometry, bytes int64) {
	t.Helper()
	for _, ts := range db.StatsSnapshot().Tables {
		tbl := db.Table(ts.Name)
		g := tbl.RowDirGeometry()
		if int64(g.RunCap)*16 != ts.RowDirBytes || g.Runs != ts.RowDirRuns || int64(g.LiveRows) != ts.Rows {
			t.Errorf("%s: directory %+v, stats say %d bytes, %d runs, %d rows", ts.Name, g, ts.RowDirBytes, ts.RowDirRuns, ts.Rows)
		}
		if runPerPage && g.Runs > tbl.PageCount()+8 {
			t.Errorf("%s: %d runs for %d pages", ts.Name, g.Runs, tbl.PageCount())
		}
		all.Runs += g.Runs
		all.LiveRows += g.LiveRows
		all.Probes += g.Probes
		bytes += ts.RowDirBytes
	}
	return all, bytes
}

// TestRowDirGuards pins what the run-encoded row directory claims, on the
// same night: a quarter of a byte per row where one location per id held
// eight, one run per page, and a get that tries two runs at most on average
// (find counts its tries; the helper sums them over every live id); that a
// rolled-back batch leaves the runs as they were and its ids unfindable; and
// that replaying the interleaved log of two loaders, alone or behind a
// checkpoint, ends with runs a twentieth of the rows and gets as cheap.
func TestRowDirGuards(t *testing.T) {
	const (
		bytesPerRowCeiling = 0.25
		probesPerGetCeil   = 2.0
	)
	db := loadGuardNight(t, tuning.NoIndexes, relstore.IndexImmediate)
	g, dirBytes := rowDirTotals(t, db, true)
	if g.LiveRows < 20_000 {
		t.Fatalf("night stored %d rows, want at least 20000", g.LiveRows)
	}
	perRow, perGet := float64(dirBytes)/float64(g.LiveRows), float64(g.Probes)/float64(g.LiveRows)
	t.Logf("%d rows: %d runs, %.3f directory bytes per row, %.2f runs tried per get", g.LiveRows, g.Runs, perRow, perGet)
	if perRow > bytesPerRowCeiling || perGet > probesPerGetCeil {
		t.Errorf("directory holds %.3f bytes per row and a get tries %.2f runs, ceilings %.2f and %.1f", perRow, perGet, bytesPerRowCeiling, probesPerGetCeil)
	}

	// A batch stored and rolled back: its ids stay inside the runs the insert
	// extended (the heap's rollback marks are the only trace), and none resolves.
	filters := db.Table(catalog.TFilters)
	cols := []string{"filter_id", "name", "wavelength_nm", "bandwidth_nm"}
	batch := make([][]relstore.Value, 40)
	for i := range batch {
		batch[i] = []relstore.Value{relstore.Int(int64(1000 + i)), relstore.Str(fmt.Sprint("x", i)), relstore.Float(500), relstore.Float(50)}
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.InsertBatch(catalog.TFilters, cols, batch); err != nil {
		t.Fatal(err)
	}
	stored := filters.RowDirGeometry()
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if after := filters.RowDirGeometry(); after.Runs != stored.Runs || after.LiveRows != stored.LiveRows-len(batch) {
		t.Errorf("rollback of %d rows took the directory from %+v to %+v", len(batch), stored, after)
	}
	for i := range batch {
		if row, err := db.LookupByPK(catalog.TFilters, batch[i][:1]); row != nil || err != nil {
			t.Errorf("rolled-back filter %d is still found", 1000+i)
		}
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}

	// Two loaders on one log, the process gone without a Close, Recover —
	// from the log alone, and from a checkpoint taken half way plus the log
	// behind it.  A get on the recovered database tries no more runs than on
	// the loaded one.
	for _, checkpointed := range []bool{false, true} {
		dir := t.TempDir()
		durable, err := tuning.OpenRepository(tuning.NoIndexes, relstore.WithWALDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		srv := sqlbatch.NewServerOn(exec.NewRealtime(exec.RealtimeConfig{Seed: 5}), durable, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
		loader := core.DefaultConfig()
		loader.CommitEveryBatches = 3
		night, loaded := guardNight(), 0
		for _, files := range [][]*catalog.File{night[:2], night[2:]} {
			res, err := parallel.Run(srv, files, parallel.Config{Loaders: 2, Assignment: parallel.Dynamic, Loader: loader})
			if err != nil {
				t.Fatal(err)
			}
			if loaded += res.Total.RowsLoaded; checkpointed && loaded == res.Total.RowsLoaded {
				if err := durable.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		recovered, rep, err := relstore.Recover(catalog.NewSchema(), dir)
		if err != nil {
			t.Fatal(err)
		}
		defer recovered.Close()
		rg, _ := rowDirTotals(t, recovered, false)
		perGet := float64(rg.Probes) / float64(rg.LiveRows)
		t.Logf("recovered %d rows (%d from a checkpoint, %d replayed) of a two-loader log: %d runs, %.2f runs tried per get",
			rg.LiveRows, rep.CheckpointRows, rep.ReplayedRows, rg.Runs, perGet)
		if rg.LiveRows < loaded || rg.Runs > rg.LiveRows/20 || perGet > probesPerGetCeil {
			t.Errorf("recovered %d of %d loaded rows in %d runs (ceiling rows/20), %.2f runs tried per get (ceiling %.1f)",
				rg.LiveRows, loaded, rg.Runs, perGet, probesPerGetCeil)
		}
		if checkpointed != (rep.CheckpointRows > 0) || rep.ReplayedRows == 0 {
			t.Errorf("checkpointed %v: %d rows from a checkpoint, %d replayed", checkpointed, rep.CheckpointRows, rep.ReplayedRows)
		}
		if err := recovered.VerifyPrimaryKeys(); err != nil {
			t.Fatal(err)
		}
		if orphans, err := recovered.VerifyIntegrity(); err != nil || orphans != 0 {
			t.Fatalf("recovered database: %d orphans, %v", orphans, err)
		}
	}
}

// loadGuardNight loads the guards' fixed-seed 20k-row night, row by row in one
// transaction, into a production-profile database that maintains the given
// secondary indexes under the given policy (a deferred policy loads inside
// BeginLoad/Seal).
func loadGuardNight(t *testing.T, indexes tuning.IndexPolicy, build relstore.IndexPolicy) *relstore.DB {
	t.Helper()
	night := guardNight()
	schema := catalog.NewSchema()
	tr := catalog.NewTransformer(schema)
	db, err := relstore.Open(schema, relstore.WithConfig(tuning.ProductionLoading().DBConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := tuning.ApplyIndexPolicyWith(db, indexes, build); err != nil {
		t.Fatal(err)
	}
	if build == relstore.IndexDeferred {
		if err := db.BeginLoad(); err != nil {
			t.Fatal(err)
		}
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 16); err != nil {
		t.Fatal(err)
	}
	for _, f := range night {
		for _, rec := range f.Records {
			row, err := tr.Transform(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Insert(row.Table, row.Columns, row.Values); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestBTreeGuards pins what the packed B-tree nodes claim, on the same night:
// the bytes each secondary index holds per entry — grown by per-row inserts
// (nodes between half and all full) and bulk-built by Seal (nodes full) — and
// that a sorted batch allocates nodes, never per key.  The counts come from
// the trees' own accounting, which CheckInvariants ties to a walk.
func TestBTreeGuards(t *testing.T) {
	ceilings := map[relstore.IndexPolicy]map[string]float64{
		relstore.IndexImmediate: {tuning.HTMIDIndexName: 36, tuning.CompositeIndexName: 64},
		relstore.IndexDeferred:  {tuning.HTMIDIndexName: 24, tuning.CompositeIndexName: 44},
	}
	for build, ceiling := range ceilings {
		db := loadGuardNight(t, tuning.HTMIDPlusComposite, build)
		stats := db.StatsSnapshot().Indexes
		if len(stats) != len(ceiling) {
			t.Fatalf("%d index stats, want %d", len(stats), len(ceiling))
		}
		for _, st := range stats {
			tree := db.Table(st.Table).Index(st.Name).Tree()
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", st.Name, err)
			}
			if tree.Len() < 2_000 || st.ResidentBytes != tree.ResidentBytes() {
				t.Fatalf("%s: %d entries, snapshot says %d resident bytes and the tree %d", st.Name, tree.Len(), st.ResidentBytes, tree.ResidentBytes())
			}
			perEntry := float64(st.ResidentBytes) / float64(tree.Len())
			t.Logf("%v %s: %d entries in %d nodes, %.1f resident bytes per entry (%d key bytes of %d reserved)",
				build, st.Name, tree.Len(), tree.NodeCount(), perEntry, st.KeyBytes, st.ArenaBytes)
			if perEntry > ceiling[st.Name] {
				t.Errorf("%v %s holds %.1f bytes per entry, ceiling %.0f", build, st.Name, perEntry, ceiling[st.Name])
			}
		}
	}

	const batch = 1000
	keys, ids := make([][]byte, batch), make([]int64, batch)
	for i := range keys {
		keys[i], ids[i] = relstore.EncodeOrderedKey([]relstore.Value{relstore.Int(int64(i) * 3)}), int64(i)
	}
	nodes := 0
	allocs := testing.AllocsPerRun(20, func() {
		tree := relstore.NewBTree(32)
		tree.InsertSorted(keys, ids)
		nodes = tree.NodeCount()
	})
	// A node is its header, its slots, its key bytes and, above the leaves,
	// its children; the tree is one more.
	if budget := float64(4*nodes + 1); allocs > budget {
		t.Errorf("a sorted %d-key batch allocates %.0f times for %d nodes, budget %.0f", batch, allocs, nodes, budget)
	}
}
