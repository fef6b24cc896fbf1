package relstore

import (
	"testing"
)

// TestAppendKeyZeroAlloc pins the zero-allocation property of the
// scratch-buffer key encoding: once the buffer has capacity, encoding a
// composite key must not touch the heap.
func TestAppendKeyZeroAlloc(t *testing.T) {
	key := []Value{Int(123456789), Float(53600.5), Str("R"), Bool(true), Null}
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendKey(buf[:0], key)
		if len(buf) == 0 {
			t.Fatal("empty encoding")
		}
	})
	if allocs != 0 {
		t.Errorf("AppendKey allocates %.1f times per key, want 0", allocs)
	}
}

// TestInsertAllocBudget pins the allocation budget of the row path so the
// zero-allocation work cannot silently rot: in steady state a Txn.Insert — a
// one-row batch through coercion, the foreign-key probe, the checks, the heap,
// the key indexes and a secondary index — allocates nothing per row.  The
// row is packed into the page's bytes and its keys (an integer primary key
// and a composite unique constraint here) are row-id slots, not stored
// strings.  Key indexes that kept an encoded string per composite key paid 1
// per insert on the same table, the []Value pages before them 3, the
// boxed-interface rows ~14.
func TestInsertAllocBudget(t *testing.T) {
	const warm, runs = 4096, 4096
	db := fingersDB(t, (warm+1+runs)/64+1)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// The values are the caller's and are reused: Insert keeps no reference
	// to them.
	row := make([]Value, len(fingerCols))
	var id int64
	insert := func() {
		fingerRow(row, id, 64)
		if _, err := txn.Insert("fingers", fingerCols, row); err != nil {
			t.Fatal(err)
		}
		id++
	}
	// Warm the table and the transaction's scratch so steady-state growth is
	// amortized.
	for id < warm {
		insert()
	}
	allocs := testing.AllocsPerRun(runs, insert)
	// AllocsPerRun reports the integral average, so the amortized growth (a
	// page's exact-size copy when it closes, slot-table, directory and undo
	// log doubling: tens of allocations over the 4096 rows) rounds to zero and
	// anything per-row does not.
	if allocs != 0 {
		t.Errorf("Txn.Insert allocates %.0f times per row, want 0", allocs)
	}
}

// TestTxnAllocBudget pins what a transaction costs beyond its rows.  On a warm
// database with no WAL directory, Begin + a one-row InsertBatch + Commit
// allocate 3: the Txn, its undo log's first record and the table list
// settleEpochs builds at commit.  Admission is a set insert.  A
// per-transaction map of row locks by table, with its bucket, made it 9; the
// batch's column buffers taken from the heap and an errors.As on every
// success made it 6.
func TestTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("Begin leases pooled scratch, which -race drops at random")
	}
	db, err := Open(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"frame_id", "exposure"}
	rows := [][]Value{{Int(0), Float(1.5)}}
	var id int64
	cycle := func() {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		rows[0][0] = Int(id)
		id++
		if _, err := txn.InsertBatch("frames", cols, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 3 {
		t.Errorf("Begin + one-row InsertBatch + Commit allocates %.0f times, budget 3", allocs)
	}
}

// TestInsertRollbackArenaStable pins the rollback cost of encoded-key
// indexes.  Rolling back a transaction tombstones its index entries in
// place; re-inserting the same keys afterwards must re-use the tombstoned
// entries — appending row ids into retained capacity — rather than copying
// fresh keys into the arena.  The test drives insert+rollback cycles over a
// fixed key set and requires (a) the tree's arena footprint to stop growing
// after the first cycle (no leak) and (b) a steady-state allocation budget
// per cycle that leaves no room for per-key arena or entry churn.
func TestInsertRollbackArenaStable(t *testing.T) {
	db, err := Open(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("frames", "ix_exposure", []string{"exposure"}, false); err != nil {
		t.Fatal(err)
	}
	const rows = 64
	cycle := func() {
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := txn.Insert("frames", []string{"frame_id", "exposure"},
				[]Value{Int(int64(i)), Float(float64(i % 8))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // first cycle pays for the 8 distinct keys and id slices
	tree := db.Table("frames").Index("ix_exposure").Tree()
	keyBytes, arenaBytes := tree.KeyBytes(), tree.ArenaBytes()
	allocs := testing.AllocsPerRun(50, cycle)
	if kb, ab := tree.KeyBytes(), tree.ArenaBytes(); kb != keyBytes || ab != arenaBytes {
		t.Errorf("arena grew across rollback cycles: KeyBytes %d -> %d, ArenaBytes %d -> %d",
			keyBytes, kb, arenaBytes, ab)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Undo bookkeeping and txn setup legitimately allocate per cycle (12
	// measured); rows (built in the scratch, packed into the page) and
	// hash-index keys (row-id slots) do not allocate at all, and the B-tree
	// side must not.  Anything near 1/row would mean rows, keys or index
	// entries are being copied again.
	budget := 0.25 * rows
	if allocs > budget {
		t.Errorf("insert+rollback cycle allocates %.1f (%.2f/row), budget %.0f", allocs, allocs/rows, budget)
	}
}
