package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// dumpTree renders a B-tree's full contents — key order and per-key row-id
// order — as one string, so "identical iteration order and lookups" reduces
// to string equality.
func dumpTree(tr *BTree) string {
	var b strings.Builder
	tr.AscendRange(nil, nil, func(key []byte, ids []int64) bool {
		vals, err := DecodeOrderedKey(key)
		if err != nil {
			fmt.Fprintf(&b, "<bad key %x: %v>", key, err)
			return false
		}
		b.WriteString(EncodeKey(vals))
		for _, id := range ids {
			fmt.Fprintf(&b, " %d", id)
		}
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// dumpIndexes renders every index of a table, by index name.
func dumpIndexes(t *Table) map[string]string {
	out := make(map[string]string)
	for _, ix := range t.Indexes() {
		out[ix.Name] = dumpTree(ix.tree)
	}
	return out
}

// TestBuildFromSortedInvariants bulk-builds trees of many sizes and degrees
// and checks structural invariants plus exact agreement with an Insert-built
// reference tree.
func TestBuildFromSortedInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, degree := range []int{2, 3, 4, 8, 32} {
		for _, n := range []int{0, 1, 2, 3, 5, 7, 15, 63, 64, 100, 1000} {
			keys := make([][]byte, 0, n)
			ids := make([]int64, 0, n)
			// Ascending keys with duplicate runs; ids ascend with position.
			k := int64(0)
			for i := 0; i < n; i++ {
				if i > 0 && r.Intn(3) > 0 {
					k += int64(r.Intn(3)) // 0 = duplicate of previous key
				} else if i > 0 {
					k += 1 + int64(r.Intn(5))
				}
				keys = append(keys, intKey(k))
				ids = append(ids, int64(i))
			}
			built := NewBTree(degree)
			st := built.BuildFromSorted(keys, ids)
			if err := built.CheckInvariants(); err != nil {
				t.Fatalf("degree %d n %d: invariants: %v", degree, n, err)
			}
			ref := NewBTree(degree)
			for i := range keys {
				ref.Insert(keys[i], ids[i])
			}
			if got, want := dumpTree(built), dumpTree(ref); got != want {
				t.Fatalf("degree %d n %d: contents diverge from Insert reference", degree, n)
			}
			if built.Len() != ref.Len() {
				t.Fatalf("degree %d n %d: Len = %d, want %d", degree, n, built.Len(), ref.Len())
			}
			if st.Rows != n || st.Entries != built.Len() || st.Height != built.Height() || st.NodesBuilt != built.NodeCount() {
				t.Fatalf("degree %d n %d: stats %+v inconsistent with tree (len=%d h=%d nodes=%d)",
					degree, n, st, built.Len(), built.Height(), built.NodeCount())
			}
			// Lookups agree for present and absent keys.
			for probe := int64(-1); probe <= k+1; probe++ {
				gotIDs, _ := built.Search(intKey(probe))
				wantIDs, _ := ref.Search(intKey(probe))
				if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
					t.Fatalf("degree %d n %d: Search(%d) = %v, want %v", degree, n, probe, gotIDs, wantIDs)
				}
			}
		}
	}
}

// sealTestIndexes creates the Figure-8-shaped index pair on the objects
// table: a single-integer index and a float-leading composite.
func sealTestIndexes(t *testing.T, db *DB, policy IndexPolicy) {
	t.Helper()
	if _, err := db.CreateIndexWith("objects", "ix_frame", []string{"frame_id"}, false, policy); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexWith("objects", "ix_magframe", []string{"mag", "frame_id"}, false, policy); err != nil {
		t.Fatal(err)
	}
}

// runSealWorkload drives one scripted load against db: batches of objects
// rows (some via InsertBatch, some row-at-a-time), with the transaction of
// every third step rolled back.  Returns nothing; the workload is fully
// deterministic for a given seed.
func runSealWorkload(t *testing.T, db *DB, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for f := int64(1); f <= 4; f++ {
		insertFrame(t, txn, f)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	nextID := int64(1)
	for step := 0; step < 12; step++ {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if step%2 == 0 {
			rows := make([][]Value, 0, 40)
			for i := 0; i < 40; i++ {
				rows = append(rows, []Value{Int(nextID), Int(1 + r.Int63n(4)), Float(float64(r.Intn(120)) / 4)})
				nextID++
			}
			if _, err := txn.InsertBatch("objects", []string{"object_id", "frame_id", "mag"}, rows); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		} else {
			for i := 0; i < 15; i++ {
				if err := insertObject(t, txn, nextID, 1+r.Int63n(4), float64(r.Intn(120))/4); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				nextID++
			}
		}
		if step%3 == 2 {
			if err := txn.Rollback(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealMatchesImmediate is the tentpole property: a deferred-policy load
// (BeginLoad → ingest → Seal) leaves every index identical — iteration order
// and lookups — to an immediate-policy run of the same workload, including
// workloads with mid-load rollbacks.
func TestSealMatchesImmediate(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		imm := MustOpen(testSchema(t), WithBTreeDegree(3))
		sealTestIndexes(t, imm, IndexImmediate)
		runSealWorkload(t, imm, seed)

		def := MustOpen(testSchema(t), WithBTreeDegree(3), WithIndexPolicy(IndexDeferred))
		sealTestIndexes(t, def, IndexDeferred)
		if err := def.BeginLoad(); err != nil {
			t.Fatal(err)
		}
		for _, ix := range def.Table("objects").Indexes() {
			if ix.Ready() {
				t.Fatalf("index %s ready during load phase", ix.Name)
			}
		}
		runSealWorkload(t, def, seed)
		rep, err := def.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Indexes) != 2 || !rep.Sealed() {
			t.Fatalf("SealReport covers %d indexes, want 2", len(rep.Indexes))
		}

		immDump := dumpIndexes(imm.Table("objects"))
		defDump := dumpIndexes(def.Table("objects"))
		for name, want := range immDump {
			if got := defDump[name]; got != want {
				t.Fatalf("seed %d: sealed index %s diverges from immediate policy", seed, name)
			}
		}
		for _, ix := range def.Table("objects").Indexes() {
			if !ix.Ready() {
				t.Fatalf("index %s not ready after Seal", ix.Name)
			}
			if err := ix.Tree().CheckInvariants(); err != nil {
				t.Fatalf("seed %d: sealed index %s: %v", seed, ix.Name, err)
			}
		}

		// Normal maintenance must resume after Seal: load more rows into both
		// and require the indexes to stay identical.
		runPostSealInserts(t, imm)
		runPostSealInserts(t, def)
		immDump = dumpIndexes(imm.Table("objects"))
		defDump = dumpIndexes(def.Table("objects"))
		for name, want := range immDump {
			if got := defDump[name]; got != want {
				t.Fatalf("seed %d: index %s diverges after post-seal inserts", seed, name)
			}
		}
	}
}

func runPostSealInserts(t *testing.T, db *DB) {
	t.Helper()
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(90001); i <= 90040; i++ {
		if err := insertObject(t, txn, i, 1+(i%4), float64(i%100)/4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSealAfterRollback is the satellite case in isolation: one batch rolled
// back in the middle of a deferred-policy load must leave Seal's indexes
// byte-identical to an immediate-policy run that applied only the surviving
// rows.
func TestSealAfterRollback(t *testing.T) {
	surviving := [][]Value{}
	rolledBack := [][]Value{}
	for i := int64(1); i <= 100; i++ {
		row := []Value{Int(i), Int(1), Float(float64(i%17) / 2)}
		if i > 40 && i <= 60 {
			rolledBack = append(rolledBack, row)
		} else {
			surviving = append(surviving, row)
		}
	}
	cols := []string{"object_id", "frame_id", "mag"}

	// Both databases run the identical workload — surviving prefix committed,
	// middle batch rolled back, surviving suffix committed — so row ids (which
	// are allocation order, including ids burned by the rollback) line up; the
	// deferred run wraps it in BeginLoad/Seal.
	runWorkload := func(db *DB) {
		txn, _ := db.Begin()
		insertFrame(t, txn, 1)
		if _, err := txn.InsertBatch("objects", cols, surviving[:40]); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		bad, _ := db.Begin()
		if _, err := bad.InsertBatch("objects", cols, rolledBack); err != nil {
			t.Fatal(err)
		}
		if err := bad.Rollback(); err != nil {
			t.Fatal(err)
		}
		txn, _ = db.Begin()
		if _, err := txn.InsertBatch("objects", cols, surviving[40:]); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	imm := MustOpen(testSchema(t), WithBTreeDegree(2))
	sealTestIndexes(t, imm, IndexImmediate)
	runWorkload(imm)

	def := MustOpen(testSchema(t), WithBTreeDegree(2))
	sealTestIndexes(t, def, IndexDeferred)
	if err := def.BeginLoad(); err != nil {
		t.Fatal(err)
	}
	runWorkload(def)
	if _, err := def.Seal(); err != nil {
		t.Fatal(err)
	}

	immDump := dumpIndexes(imm.Table("objects"))
	defDump := dumpIndexes(def.Table("objects"))
	for name, want := range immDump {
		if got := defDump[name]; got != want {
			t.Fatalf("sealed index %s differs from immediate over surviving rows:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
	if err := def.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateIndexBackfillMatchesMaintained: an index created after the load —
// a load whose rollbacks left id gaps, so heap positions and row ids disagree
// — iterates (key, row ids) exactly like one maintained from the first row,
// and keeps doing so when inserts continue on the bulk-built tree.
func TestCreateIndexBackfillMatchesMaintained(t *testing.T) {
	maintained := MustOpen(testSchema(t), WithBTreeDegree(2))
	sealTestIndexes(t, maintained, IndexImmediate)
	runSealWorkload(t, maintained, 5)

	backfilled := MustOpen(testSchema(t), WithBTreeDegree(2))
	runSealWorkload(t, backfilled, 5)
	if objs := backfilled.Table("objects"); objs.nextRow == objs.RowCount() {
		t.Fatal("workload left no id gaps; the test no longer covers them")
	}
	sealTestIndexes(t, backfilled, IndexImmediate)

	check := func(when string) {
		t.Helper()
		want := dumpIndexes(maintained.Table("objects"))
		got := dumpIndexes(backfilled.Table("objects"))
		for name := range want {
			if got[name] != want[name] {
				t.Fatalf("%s: index %s differs from the maintained one:\ngot:\n%s\nwant:\n%s", when, name, got[name], want[name])
			}
		}
		for _, ix := range backfilled.Table("objects").Indexes() {
			if err := ix.tree.CheckInvariants(); err != nil {
				t.Fatalf("%s: index %s: %v", when, ix.Name, err)
			}
		}
	}
	check("after backfill")
	runPostSealInserts(t, maintained)
	runPostSealInserts(t, backfilled)
	check("after further inserts")
}

// TestLoadLifecycle covers the state machine: double BeginLoad fails, Seal is
// idempotent, InLoadPhase tracks the window, and a deferred index created
// mid-load starts suspended and is populated by Seal.
func TestLoadLifecycle(t *testing.T) {
	db := MustOpen(testSchema(t))
	if db.InLoadPhase() {
		t.Fatal("load phase open at creation")
	}
	if err := db.BeginLoad(); err != nil {
		t.Fatal(err)
	}
	if err := db.BeginLoad(); !errors.Is(err, ErrLoadPhaseActive) {
		t.Fatalf("second BeginLoad = %v, want ErrLoadPhaseActive", err)
	}
	if !db.InLoadPhase() {
		t.Fatal("InLoadPhase false after BeginLoad")
	}

	// A deferred index created mid-load starts suspended even though rows
	// already exist; Seal backfills it.
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	for i := int64(1); i <= 10; i++ {
		if err := insertObject(t, txn, i, 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndexWith("objects", "ix_mag", []string{"mag"}, false, IndexDeferred)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Ready() {
		t.Fatal("deferred index created mid-load is ready")
	}
	if ix.Tree().Len() != 0 {
		t.Fatal("deferred index created mid-load was backfilled")
	}
	rep, err := db.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsStreamed != 10 || len(rep.Indexes) != 1 {
		t.Fatalf("SealReport = %+v, want 10 rows over 1 index", rep)
	}
	if db.InLoadPhase() {
		t.Fatal("load phase still open after Seal")
	}
	if !ix.Ready() || ix.Tree().Len() != 10 {
		t.Fatalf("sealed index not populated: ready=%v len=%d", ix.Ready(), ix.Tree().Len())
	}

	// Idempotent: sealing again rebuilds nothing.
	rep, err = db.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sealed() {
		t.Fatalf("second Seal rebuilt %d indexes, want 0", len(rep.Indexes))
	}

	// Outside a load phase a deferred-policy index behaves immediately.
	txn, _ = db.Begin()
	if err := insertObject(t, txn, 11, 1, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if ix.Tree().Len() != 11 {
		t.Fatalf("post-seal insert not maintained: len=%d, want 11", ix.Tree().Len())
	}
}

// TestIndexDDLStatsSymmetry pins the satellite fix: CreateIndex and DropIndex
// update DBStats symmetrically on success and on every error path, and both
// return typed errors.
func TestIndexDDLStatsSymmetry(t *testing.T) {
	db := MustOpen(testSchema(t))
	if _, err := db.CreateIndex("objects", "ix_mag", []string{"mag"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("objects", "ix_mag", []string{"mag"}, false); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("duplicate create = %v, want ErrIndexExists", err)
	}
	if _, err := db.CreateIndex("nope", "ix", []string{"mag"}, false); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("unknown table create = %v, want ErrNoSuchTable", err)
	}
	if _, err := db.CreateIndex("objects", "ix_bad", []string{"missing"}, false); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("unknown column create = %v, want ErrNoSuchColumn", err)
	}
	if err := db.DropIndex("nope", "ix_mag"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("unknown table drop = %v, want ErrNoSuchTable", err)
	}
	if err := db.DropIndex("objects", "ix_gone"); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("unknown index drop = %v, want ErrNoSuchIndex", err)
	}
	if err := db.DropIndex("objects", "ix_mag"); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.IndexesCreated != 1 || st.IndexesDropped != 1 {
		t.Fatalf("IndexesCreated/Dropped = %d/%d, want 1/1", st.IndexesCreated, st.IndexesDropped)
	}
	if st.IndexDDLFailures != 5 {
		t.Fatalf("IndexDDLFailures = %d, want 5", st.IndexDDLFailures)
	}
	// Unknown-table violations are recorded for create AND drop (the old code
	// recorded neither on drop).
	if got := st.ConstraintViolations[KindUnknownTable]; got != 2 {
		t.Fatalf("unknown-table violations = %d, want 2", got)
	}
}
