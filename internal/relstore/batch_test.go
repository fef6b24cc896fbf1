package relstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// perRowApply mirrors the sqlbatch server's per-row batch loop: rows are
// applied in order, each as a one-row batch (Txn.Insert), until the first
// failure, which is reported with its index.  It is the semantic reference a
// multi-row InsertBatch is tested against: the rows that batch shares a lock
// hold, an undo record, a log record and a sorted index pass with must behave
// as if each had its own.
func perRowApply(txn *Txn, table string, cols []string, rows [][]Value) (inserted, failedIdx int, err error) {
	for i, r := range rows {
		if _, e := txn.Insert(table, cols, r); e != nil {
			return i, i, e
		}
	}
	return len(rows), -1, nil
}

// engineState renders the full logical state of a database as a string:
// every table's rows in heap order, every secondary index's (key, row ids)
// pairs in key order, and the per-table epoch/pending counters.  Two
// databases that loaded the same data through different physical paths must
// render identically (B-tree *shape* may differ with insertion order; logical
// content may not).
func engineState(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	for _, name := range db.Schema().TableNames() {
		tbl := db.Table(name)
		fmt.Fprintf(&b, "table %s rows=%d epoch=%d pending=%d\n",
			name, tbl.RowCount(), tbl.CommitEpoch(), tbl.UncommittedRows())
		if err := db.ScanRef(name, func(r RowView) bool {
			for c := 0; c < r.Len(); c++ {
				b.WriteString(formatValue(r.Value(c)))
				b.WriteByte('|')
			}
			b.WriteByte('\n')
			return true
		}); err != nil {
			t.Fatalf("ScanRef(%s): %v", name, err)
		}
		for _, ix := range tbl.Indexes() {
			fmt.Fprintf(&b, "index %s len=%d\n", ix.Name, ix.Tree().Len())
			ix.Tree().AscendRange(nil, nil, func(key []byte, ids []int64) bool {
				vals, err := DecodeOrderedKey(key)
				if err != nil {
					fmt.Fprintf(&b, "<bad key %x: %v>\n", key, err)
					return false
				}
				b.WriteString(EncodeKey(vals))
				fmt.Fprintf(&b, " -> %v\n", ids)
				return true
			})
		}
	}
	return b.String()
}

// statsFingerprint renders the engine counters that must match between the
// per-row and batch paths.  IndexSplits legitimately differs and is
// excluded: B-tree shape depends on insertion order.
func statsFingerprint(db *DB) string {
	st := db.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "ins=%d rej=%d txns=%d commits=%d rollbacks=%d pages=%d\n",
		st.RowsInserted, st.RowsRejected, st.Transactions, st.Commits, st.Rollbacks, st.PagesAllocated)
	for k := KindPrimaryKey; k <= KindUnknownTable; k++ {
		if n := st.ConstraintViolations[k]; n != 0 {
			fmt.Fprintf(&b, "viol[%s]=%d\n", k, n)
		}
	}
	return b.String()
}

// batchPropertyDB builds the shared test schema with a float secondary index
// on objects.mag (duplicate-heavy) and seeds a handful of frames rows for
// foreign keys to point at.
func batchPropertyDB(t *testing.T, extra ...Option) *DB {
	t.Helper()
	return batchPropertyDBOn(t, testSchema(t), extra...)
}

// keyShapes are the primary-key shapes of objects the insert-path properties
// run over.
var keyShapes = []struct{ name string }{
	{"int"},       // object_id INTEGER
	{"composite"}, // (object_id, frame_id)
	{"string"},    // object_id VARCHAR
}

// keyShapeSchema is testSchema's frames and objects tables with the objects
// primary key in the named shape.  Rows keep arriving as (Int id, Int frame,
// Float mag); the string shape coerces the id to text.
func keyShapeSchema(t testing.TB, shape string) *Schema {
	t.Helper()
	objects := &TableSchema{
		Name: "objects",
		Columns: []Column{
			{Name: "object_id", Type: TypeInt},
			{Name: "frame_id", Type: TypeInt},
			{Name: "mag", Type: TypeFloat},
		},
		PrimaryKey: []string{"object_id"},
		ForeignKeys: []ForeignKey{
			{Name: "fk_obj_frame", Columns: []string{"frame_id"}, RefTable: "frames", RefColumns: []string{"frame_id"}},
		},
		Checks: []CheckConstraint{{Name: "ck_mag", Column: "mag", Min: fp(0), Max: fp(40)}},
	}
	switch shape {
	case "composite":
		objects.PrimaryKey = []string{"object_id", "frame_id"}
	case "string":
		objects.Columns[0].Type = TypeString
	}
	s, err := NewSchema(&TableSchema{
		Name: "frames",
		Columns: []Column{
			{Name: "frame_id", Type: TypeInt},
			{Name: "exposure", Type: TypeFloat, Nullable: true},
		},
		PrimaryKey: []string{"frame_id"},
	}, objects)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func batchPropertyDBOn(t *testing.T, schema *Schema, extra ...Option) *DB {
	t.Helper()
	opts := append([]Option{withBTreeDegree(3)}, extra...)
	db := MustOpen(schema, opts...)
	// ix_mag has a float key, ix_frame an integer one (both duplicate-heavy)
	// and ix_frame_mag is a composite: one encoded-key sort serves all three.
	if _, err := db.CreateIndexWith("objects", "ix_mag", []string{"mag"}, false, IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexWith("objects", "ix_frame", []string{"frame_id"}, false, IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexWith("objects", "ix_frame_mag", []string{"frame_id", "mag"}, false, IndexImmediate); err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"frame_id", "exposure"}
	for f := int64(0); f < 8; f++ {
		if _, err := txn.Insert("frames", cols, []Value{Int(f), Float(30)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// randomObjectBatch generates a batch of objects rows seeded with the failure
// modes the loader sees in the wild: duplicate primary keys (against both
// already-committed rows and earlier rows of the same batch), dangling
// foreign keys, out-of-range check values, NULL primary keys and uncoercible
// values.
func randomObjectBatch(rng *rand.Rand, base int64, nextID *int64, size int) [][]Value {
	return randomObjectBatchRate(rng, base, nextID, size, 12)
}

// randomObjectBatchRate is randomObjectBatch with five bad rows in every
// oneIn instead of five in twelve, for batches meant to get somewhere.
func randomObjectBatchRate(rng *rand.Rand, base int64, nextID *int64, size, oneIn int) [][]Value {
	rows := make([][]Value, 0, size)
	for i := 0; i < size; i++ {
		id := *nextID
		*nextID++
		frame := Int(rng.Int63n(8))
		mag := Float(float64(rng.Intn(16))) // few distinct values -> duplicate index keys
		row := []Value{Int(id), frame, mag}
		switch rng.Intn(oneIn) {
		case 0: // duplicate PK: reuse an id handed out earlier this trial
			// (it may sit in a committed row, earlier in this same batch, or
			// in a row that was never applied — all three must agree with the
			// per-row loop).
			row[0] = Int(base + rng.Int63n(id-base+1))
		case 1: // dangling FK
			row[1] = Int(999 + rng.Int63n(10))
		case 2: // check violation (mag outside [0,40])
			row[2] = Float(41 + float64(rng.Intn(5)))
		case 3: // NULL primary key
			row[0] = Null
		case 4: // uncoercible value (type failure during the build phase)
			row[2] = Str("not-a-float")
		}
		rows = append(rows, row)
	}
	return rows
}

// TestInsertBatchMatchesPerRow is the batch-apply property test: for many
// random batches containing duplicate-PK, FK-violating, check-violating,
// NULL-PK and type-error rows, InsertBatch must produce exactly the table
// state, FailedIndex, violation kind and epoch/pending counters of the
// reference run of one-row batches — across mid-transaction checks, commits
// and rollbacks.  The same batches also run through a database whose batches
// yield at every boundary (forceBatchYields), which must be indistinguishable
// from the one-hold path at every observation point.  It runs once per primary-key shape, so
// integer, composite and string keys answer the same duplicate, NULL-key and
// rollback cases.
func TestInsertBatchMatchesPerRow(t *testing.T) {
	for _, shape := range keyShapes {
		t.Run(shape.name, func(t *testing.T) {
			insertBatchMatchesPerRow(t, keyShapeSchema(t, shape.name))
		})
	}
}

func insertBatchMatchesPerRow(t *testing.T, schema *Schema) {
	rng := rand.New(rand.NewSource(20051112))
	cols := []string{"object_id", "frame_id", "mag"}

	for trial := 0; trial < 60; trial++ {
		ref := batchPropertyDBOn(t, schema) // per-row reference
		got := batchPropertyDBOn(t, schema) // batch-apply path
		chk := batchPropertyDBOn(t, schema) // batch apply yielding at every boundary
		forceBatchYields(chk)
		base := int64(trial * 1000)
		nextRef, nextGot, nextChk := base, base, base

		refTxn, err := ref.Begin()
		if err != nil {
			t.Fatal(err)
		}
		gotTxn, err := got.Begin()
		if err != nil {
			t.Fatal(err)
		}
		chkTxn, err := chk.Begin()
		if err != nil {
			t.Fatal(err)
		}

		batches := 1 + rng.Intn(4)
		for bi := 0; bi < batches; bi++ {
			size := 1 + rng.Intn(50)
			seed := rng.Int63()
			// Generate the identical batch for every engine.
			rows := randomObjectBatch(rand.New(rand.NewSource(seed)), base, &nextRef, size)
			rows2 := randomObjectBatch(rand.New(rand.NewSource(seed)), base, &nextGot, size)
			rows3 := randomObjectBatch(rand.New(rand.NewSource(seed)), base, &nextChk, size)

			refIns, refIdx, refErr := perRowApply(refTxn, "objects", cols, rows)
			br, gotErr := gotTxn.InsertBatch("objects", cols, rows2)
			cr, chkErr := chkTxn.InsertBatch("objects", cols, rows3)

			if refIns != br.RowsInserted || refIdx != br.FailedIndex {
				t.Fatalf("trial %d batch %d: per-row (ins=%d idx=%d) vs batch (ins=%d idx=%d)",
					trial, bi, refIns, refIdx, br.RowsInserted, br.FailedIndex)
			}
			if refIns != cr.RowsInserted || refIdx != cr.FailedIndex {
				t.Fatalf("trial %d batch %d: per-row (ins=%d idx=%d) vs chunked (ins=%d idx=%d)",
					trial, bi, refIns, refIdx, cr.RowsInserted, cr.FailedIndex)
			}
			if (refErr == nil) != (gotErr == nil) || (refErr == nil) != (chkErr == nil) {
				t.Fatalf("trial %d batch %d: errors diverge: %v vs %v vs %v", trial, bi, refErr, gotErr, chkErr)
			}
			if refErr != nil {
				rk, _ := ViolationKind(refErr)
				gk, _ := ViolationKind(gotErr)
				ck, _ := ViolationKind(chkErr)
				if rk != gk || rk != ck {
					t.Fatalf("trial %d batch %d: violation kinds diverge: %s vs %s vs %s (%v vs %v vs %v)",
						trial, bi, rk, gk, ck, refErr, gotErr, chkErr)
				}
				if refErr.Error() != gotErr.Error() || refErr.Error() != chkErr.Error() {
					t.Fatalf("trial %d batch %d: violation text diverges:\n%v\n%v\n%v", trial, bi, refErr, gotErr, chkErr)
				}
			}
			// Mid-transaction: rows applied so far and pending counters agree.
			rs := engineState(t, ref)
			if gs := engineState(t, got); rs != gs {
				t.Fatalf("trial %d batch %d: mid-txn state diverges:\n--- per-row ---\n%s--- batch ---\n%s", trial, bi, rs, gs)
			}
			if cs := engineState(t, chk); rs != cs {
				t.Fatalf("trial %d batch %d: mid-txn state diverges:\n--- per-row ---\n%s--- chunked ---\n%s", trial, bi, rs, cs)
			}
		}

		// Finish all three the same way and compare the settled state.
		if rng.Intn(3) == 0 {
			for _, txn := range []*Txn{refTxn, gotTxn, chkTxn} {
				if err := txn.Rollback(); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, txn := range []*Txn{refTxn, gotTxn, chkTxn} {
				if _, err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		rs := engineState(t, ref)
		if gs := engineState(t, got); rs != gs {
			t.Fatalf("trial %d: settled state diverges:\n--- per-row ---\n%s--- batch ---\n%s", trial, rs, gs)
		}
		if cs := engineState(t, chk); rs != cs {
			t.Fatalf("trial %d: settled state diverges:\n--- per-row ---\n%s--- chunked ---\n%s", trial, rs, cs)
		}
		rf := statsFingerprint(ref)
		if gf := statsFingerprint(got); rf != gf {
			t.Fatalf("trial %d: stats diverge:\n--- per-row ---\n%s--- batch ---\n%s", trial, rf, gf)
		}
		if cf := statsFingerprint(chk); rf != cf {
			t.Fatalf("trial %d: stats diverge:\n--- per-row ---\n%s--- chunked ---\n%s", trial, rf, cf)
		}
		for _, db := range []*DB{ref, got, chk} {
			if err := db.VerifyPrimaryKeys(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestInsertBatchSelfReferentialFK checks the intra-batch foreign-key
// semantics on a self-referential table: a child may reference a parent
// stored earlier in the same batch (the per-row loop would have stored it
// already), while a reference to a parent that only appears later in the
// batch fails at exactly the referencing row.
func TestInsertBatchSelfReferentialFK(t *testing.T) {
	schema, err := NewSchema(&TableSchema{
		Name: "nodes",
		Columns: []Column{
			{Name: "node_id", Type: TypeInt},
			{Name: "parent_id", Type: TypeInt, Nullable: true},
		},
		PrimaryKey: []string{"node_id"},
		ForeignKeys: []ForeignKey{
			{Name: "fk_parent", Columns: []string{"parent_id"}, RefTable: "nodes", RefColumns: []string{"node_id"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"node_id", "parent_id"}

	// Forward references (parent earlier in the batch) succeed.
	db := MustOpen(schema)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	br, err := txn.InsertBatch("nodes", cols, [][]Value{
		{Int(1), Null},
		{Int(2), Int(1)},
		{Int(3), Int(2)},
	})
	if err != nil || br.RowsInserted != 3 || br.FailedIndex != -1 {
		t.Fatalf("forward-reference batch: ins=%d idx=%d err=%v", br.RowsInserted, br.FailedIndex, err)
	}

	// A backward reference (parent later in the batch) fails at that row,
	// leaving the prefix applied — same as the per-row loop.
	br, err = txn.InsertBatch("nodes", cols, [][]Value{
		{Int(10), Int(1)},
		{Int(11), Int(12)}, // parent 12 arrives only at index 2
		{Int(12), Null},
	})
	if err == nil || br.FailedIndex != 1 || br.RowsInserted != 1 {
		t.Fatalf("backward-reference batch: ins=%d idx=%d err=%v", br.RowsInserted, br.FailedIndex, err)
	}
	if k, _ := ViolationKind(err); k != KindForeignKey {
		t.Fatalf("violation kind = %s, want FOREIGN KEY", k)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("nodes"); n != 4 {
		t.Fatalf("nodes rows = %d, want 4", n)
	}
}

// TestInsertBatchEdgeCases covers the degenerate inputs: empty batches,
// unknown tables, inactive transactions and arity mismatches.
func TestInsertBatchEdgeCases(t *testing.T) {
	db := batchPropertyDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"object_id", "frame_id", "mag"}

	br, err := txn.InsertBatch("objects", cols, nil)
	if err != nil || br.FailedIndex != -1 || br.RowsInserted != 0 {
		t.Fatalf("empty batch: %+v err=%v", br, err)
	}

	br, err = txn.InsertBatch("missing", cols, [][]Value{{Int(1), Int(0), Float(1)}})
	if err == nil || br.FailedIndex != 0 {
		t.Fatalf("unknown table: %+v err=%v", br, err)
	}
	if k, _ := ViolationKind(err); k != KindUnknownTable {
		t.Fatalf("violation kind = %s, want UNKNOWN TABLE", k)
	}

	// Unknown column: nothing applied, failure at row 0 (the per-row loop
	// fails every row on its first attempt).
	br, err = txn.InsertBatch("objects", []string{"object_id", "nope"}, [][]Value{{Int(1), Int(0)}})
	if err == nil || br.FailedIndex != 0 || br.RowsInserted != 0 {
		t.Fatalf("unknown column: %+v err=%v", br, err)
	}

	// Arity mismatch on row 1: row 0 applied, failure index exact.
	br, err = txn.InsertBatch("objects", cols, [][]Value{
		{Int(500000), Int(1), Float(10)},
		{Int(500001), Int(1)},
	})
	if err == nil || br.FailedIndex != 1 || br.RowsInserted != 1 {
		t.Fatalf("arity mismatch: %+v err=%v", br, err)
	}

	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if br, err = txn.InsertBatch("objects", cols, [][]Value{{Int(9), Int(0), Float(1)}}); err != ErrTxnNotActive {
		t.Fatalf("inactive txn: %+v err=%v", br, err)
	}
}

// TestInsertBatchNullIndexKeys covers NULL keys in a batch: a nullable
// integer column index must store NULLs sorting before every non-NULL key,
// identically to per-row insertion.
func TestInsertBatchNullIndexKeys(t *testing.T) {
	schema, err := NewSchema(&TableSchema{
		Name: "pts",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "grade", Type: TypeInt, Nullable: true},
		},
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := MustOpen(schema, withBTreeDegree(2))
	got := MustOpen(schema, withBTreeDegree(2))
	for _, db := range []*DB{ref, got} {
		if _, err := db.CreateIndexWith("pts", "ix_grade", []string{"grade"}, false, IndexImmediate); err != nil {
			t.Fatal(err)
		}
	}
	cols := []string{"id", "grade"}
	rows := make([][]Value, 40)
	for i := range rows {
		g := Value(Int(int64(i % 5)))
		if i%7 == 0 {
			g = Null
		}
		rows[i] = []Value{Int(int64(i)), g}
	}
	refTxn, _ := ref.Begin()
	gotTxn, _ := got.Begin()
	if ins, _, err := perRowApply(refTxn, "pts", cols, rows); err != nil || ins != len(rows) {
		t.Fatalf("per-row: ins=%d err=%v", ins, err)
	}
	if br, err := gotTxn.InsertBatch("pts", cols, rows); err != nil || br.RowsInserted != len(rows) {
		t.Fatalf("batch: %+v err=%v", br, err)
	}
	if _, err := refTxn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := gotTxn.Commit(); err != nil {
		t.Fatal(err)
	}
	if rs, gs := engineState(t, ref), engineState(t, got); rs != gs {
		t.Fatalf("state diverges with NULL index keys:\n--- per-row ---\n%s--- batch ---\n%s", rs, gs)
	}
}

// TestInsertBatchGroupWAL checks that a successful batch writes exactly one
// durable insert record covering all of its rows: the log of a transaction of
// one frame row and a 25-row batch holds three records.
func TestInsertBatchGroupWAL(t *testing.T) {
	db, dir := durableDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 1)
	rows := make([][]Value, 25)
	for i := range rows {
		rows[i] = []Value{Int(int64(1000 + i)), Int(1), Float(float64(i % 7))}
	}
	if br, err := txn.InsertBatch("objects", []string{"object_id", "frame_id", "mag"}, rows); err != nil || br.RowsInserted != len(rows) {
		t.Fatalf("batch failed: %+v err=%v", br, err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayedRecords != 3 || rep.ReplayedRows != 1+int64(len(rows)) {
		t.Fatalf("replayed %d records, %d rows; want 3 (frame, batch, commit) and %d", rep.ReplayedRecords, rep.ReplayedRows, 1+len(rows))
	}
}
