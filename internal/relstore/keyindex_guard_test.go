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
// TestResidentBytesCeiling loads, what the key indexes claim in numbers that
// repeat exactly: their bytes per key (keys of one or two integer columns
// loaded in step with their row ids in runs: the primary keys and the
// composite uniques uq_fng and uq_apr), how far tag-slot keys sit from their
// home slots, that a probe the runs answer reads no stored row — every
// primary key and every composite key the night stored in a run is found, at
// its row id, with the row directory taken away — and that neither does a
// probe for an absent key, which every insert of a clean load makes once per
// key index.  Nothing here is counted on the hot path; the geometry is
// computed from the runs and tags.
func TestKeyIndexGuards(t *testing.T) {
	const (
		bytesPerKeyCeiling   = 0.123 // run and slot bytes per stored key, all tables (0.1171 measured)
		meanDisplacementCeil = 1.5
		maxDisplacementCeil  = 64 // 9 here: probe runs are kept in tag order, so no key waits behind a whole run
		absentProbesPerTable = 1000
		// loneKeys are the primary keys fewer than runOpen keys arrive in
		// step with, so no run holds: the one telescope and instrument, each
		// of the four files' observation and sky region, and the two
		// parameters of each observation.
		loneKeys = 18
	)
	db := loadGuardNight(t, tuning.NoIndexes, relstore.IndexImmediate)
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}

	// The composite uniques of two integer columns, per index: keys held,
	// keys in runs, keys found with the row directory taken away.
	type compositeKeys struct{ keys, inRuns, rowFree int }
	composite := map[string]*compositeKeys{"uq_fng": {}, "uq_apr": {}}
	var all relstore.KeyIndexGeometry
	var keyBytes int64
	probes, compares, present, rowFree := 0, 0, 0, 0
	for _, ts := range db.StatsSnapshot().Tables {
		tbl := db.Table(ts.Name)
		g := tbl.KeyIndexGeometry()
		if int64(g.Slots)*8+int64(g.RunCap)*relstore.KeyRunBytes != ts.KeyIndexBytes || g.Runs != ts.KeyRuns {
			t.Errorf("%s: %d slots and %d runs (room for %d), but KeyIndexBytes %d and KeyRuns %d", ts.Name, g.Slots, g.Runs, g.RunCap, ts.KeyIndexBytes, ts.KeyRuns)
		}
		if want := int(ts.Rows) * (1 + len(tbl.Schema().Uniques)); g.Keys != want {
			t.Errorf("%s: %d keys held, want %d", ts.Name, g.Keys, want)
		}
		all.Keys += g.Keys
		all.Tagged += g.Tagged
		all.Runs += g.Runs
		all.DisplacementSum += g.DisplacementSum
		all.DisplacementMax = max(all.DisplacementMax, g.DisplacementMax)
		keyBytes += ts.KeyIndexBytes
		// Every catalog primary key is one integer column; ids this large
		// are never generated.
		for i := 0; i < absentProbesPerTable; i++ {
			compares += tbl.AbsentKeyRowCompares([]relstore.Value{relstore.Int(1<<40 + int64(i)*7919)})
			probes++
		}
		var keys, pairs []relstore.Value
		schema := tbl.Schema()
		pk := schema.ColumnIndex(schema.PrimaryKey[0])
		var pair []int
		for _, u := range schema.Uniques {
			if composite[u.Name] != nil {
				pair = []int{schema.ColumnIndex(u.Columns[0]), schema.ColumnIndex(u.Columns[1])}
			}
		}
		if err := db.Scan(ts.Name, func(r relstore.Row) bool {
			keys = append(keys, r[pk])
			if pair != nil {
				pairs = append(pairs, r[pair[0]], r[pair[1]])
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			present++
			if tbl.PresentKeyReadsNoRow("", []relstore.Value{key}) {
				rowFree++
			}
		}
		for _, u := range schema.Uniques {
			c := composite[u.Name]
			if c == nil {
				continue
			}
			c.keys, c.inRuns = tbl.KeyIndexInRuns(u.Name)
			for i := 0; i < len(pairs); i += 2 {
				if tbl.PresentKeyReadsNoRow(u.Name, pairs[i:i+2]) {
					c.rowFree++
				}
			}
		}
	}
	for name, c := range composite {
		t.Logf("%s: %d keys, %d in runs, %d found with no row", name, c.keys, c.inRuns, c.rowFree)
		if c.keys < 500 || 100*(c.keys-c.inRuns) > c.keys || c.rowFree != c.inRuns {
			t.Errorf("%s: %d of %d keys in runs (want all but 1 %%), %d found with the row directory taken away (want every key in a run)",
				name, c.inRuns, c.keys, c.rowFree)
		}
	}
	if all.Keys < 20_000 {
		t.Fatalf("night stored %d keys, want at least 20000", all.Keys)
	}
	perKey := float64(keyBytes) / float64(all.Keys)
	mean := float64(all.DisplacementSum) / float64(max(all.Tagged, 1))
	t.Logf("%d keys, %d of them in %d runs: %.4f bytes per key; tag-slot displacement mean %.3f max %d; "+
		"%d of %d present primary keys found with no row, %d row compares in %d absent probes",
		all.Keys, all.Keys-all.Tagged, all.Runs, perKey, mean, all.DisplacementMax, rowFree, present, compares, probes)
	if perKey > bytesPerKeyCeiling {
		t.Errorf("key indexes hold %.2f bytes per key, ceiling %.1f", perKey, bytesPerKeyCeiling)
	}
	if mean > meanDisplacementCeil || all.DisplacementMax > maxDisplacementCeil {
		t.Errorf("displacement mean %.3f max %d, ceilings %.1f and %d", mean, all.DisplacementMax, meanDisplacementCeil, maxDisplacementCeil)
	}
	if present < 20_000 || present-rowFree > loneKeys {
		t.Errorf("%d of %d present primary keys found with the row directory taken away, want all but %d", rowFree, present, loneKeys)
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

// keyIndexTotals sums the key indexes' bytes and runs over the database.
func keyIndexTotals(db *relstore.DB) (bytes int64, runs int) {
	for _, ts := range db.StatsSnapshot().Tables {
		bytes += ts.KeyIndexBytes
		runs += ts.KeyRuns
	}
	return bytes, runs
}

// TestRowDirGuards pins what the run-encoded row directory claims, on the
// same night: a quarter of a byte per row where one location per id held
// eight, one run per page, and a get that tries two runs at most on average
// (find counts its tries; the helper sums them over every live id); that a
// rolled-back batch leaves the runs as they were and its ids unfindable; and
// that replaying the interleaved log of two loaders, alone or behind a
// checkpoint, ends with runs a twentieth of the rows, gets as cheap and key
// indexes within a tenth of the loaded ones' bytes and runs.
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
		// The key indexes come back as small as the load left them: the same
		// keys in runs — composite keys too — and no tag table sized for
		// every recovered key: at most a tenth more bytes, runs within a
		// twentieth.
		loadedBytes, loadedRuns := keyIndexTotals(durable)
		keyBytes, keyRuns := keyIndexTotals(recovered)
		t.Logf("key indexes: loaded %d bytes in %d runs, recovered %d bytes in %d runs", loadedBytes, loadedRuns, keyBytes, keyRuns)
		if 10*keyBytes > 11*loadedBytes || 20*max(keyRuns-loadedRuns, loadedRuns-keyRuns) > loadedRuns {
			t.Errorf("recovered key indexes hold %d bytes in %d runs, loaded %d in %d: over 1.1 times the bytes or 5 %% apart in runs", keyBytes, keyRuns, loadedBytes, loadedRuns)
		}
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
// (nodes between half and all full, each sized to the entries it holds) and
// bulk-built by Seal (nodes full) — and that a sorted batch allocates nodes,
// never per key.  The counts come from the trees' own accounting, which
// CheckInvariants ties to a walk.  The ceilings are the measured values plus
// 5 %: 20.52 and 39.23 bytes grown, 18.70 and 36.70 bulk-built (27.9 and 53.9
// grown while every node reserved 2*degree-1 entries, under ceilings of 36
// and 64; 24 and 44 bulk-built).
func TestBTreeGuards(t *testing.T) {
	ceilings := map[relstore.IndexPolicy]map[string]float64{
		relstore.IndexImmediate: {tuning.HTMIDIndexName: 21.5, tuning.CompositeIndexName: 41.2},
		relstore.IndexDeferred:  {tuning.HTMIDIndexName: 19.6, tuning.CompositeIndexName: 38.5},
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
			t.Logf("%v %s: %d entries in %d nodes, %.2f resident bytes per entry (%d key bytes of %d reserved)",
				build, st.Name, tree.Len(), tree.NodeCount(), perEntry, st.KeyBytes, st.ArenaBytes)
			if perEntry > ceiling[st.Name] {
				t.Errorf("%v %s holds %.2f bytes per entry, ceiling %.1f", build, st.Name, perEntry, ceiling[st.Name])
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
