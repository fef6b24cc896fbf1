package relstore

import (
	"sync"
	"testing"
)

// epochSchema is a minimal two-table schema for epoch tests.
func epochSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		&TableSchema{
			Name:       "parents",
			Columns:    []Column{{Name: "id", Type: TypeInt}},
			PrimaryKey: []string{"id"},
		},
		&TableSchema{
			Name:       "children",
			Columns:    []Column{{Name: "id", Type: TypeInt}, {Name: "parent_id", Type: TypeInt}},
			PrimaryKey: []string{"id"},
			ForeignKeys: []ForeignKey{
				{Name: "fk_child_parent", Columns: []string{"parent_id"}, RefTable: "parents", RefColumns: []string{"id"}},
			},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCommitEpochAdvancesPerTouchedTable(t *testing.T) {
	db := MustOpen(epochSchema(t))

	if e := db.TableEpoch("parents"); e != 0 {
		t.Fatalf("fresh table epoch = %d, want 0", e)
	}

	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("parents", []string{"id"}, []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("parents", []string{"id"}, []Value{Int(2)}); err != nil {
		t.Fatal(err)
	}

	// Mid-transaction: rows are visible but uncommitted.
	if _, clean := db.ReadStamp("parents"); clean {
		t.Fatal("table with in-flight rows reported clean")
	}
	if e := db.TableEpoch("parents"); e != 0 {
		t.Fatalf("epoch advanced before commit: %d", e)
	}
	if n := db.Table("parents").UncommittedRows(); n != 2 {
		t.Fatalf("UncommittedRows = %d, want 2", n)
	}

	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if e := db.TableEpoch("parents"); e != 1 {
		t.Fatalf("epoch after commit = %d, want 1", e)
	}
	if e := db.TableEpoch("children"); e != 0 {
		t.Fatalf("untouched table epoch = %d, want 0", e)
	}
	epoch, clean := db.ReadStamp("parents")
	if !clean || epoch != 1 {
		t.Fatalf("ReadStamp after commit = (%d, %v), want (1, true)", epoch, clean)
	}
}

func TestRollbackBumpsEpoch(t *testing.T) {
	db := MustOpen(epochSchema(t))
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("parents", []string{"id"}, []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	// The row was transiently visible, so any result computed meanwhile must
	// be invalidated: the epoch moves even though the table is back to its
	// original contents.
	if e := db.TableEpoch("parents"); e != 1 {
		t.Fatalf("epoch after rollback = %d, want 1", e)
	}
	if _, clean := db.ReadStamp("parents"); !clean {
		t.Fatal("table dirty after rollback settled")
	}
}

func TestFailedInsertLeavesTableClean(t *testing.T) {
	db := MustOpen(epochSchema(t))
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Orphan child: the foreign-key check fails before storage.
	if _, err := txn.Insert("children", []string{"id", "parent_id"}, []Value{Int(1), Int(99)}); err == nil {
		t.Fatal("orphan insert succeeded")
	}
	if _, clean := db.ReadStamp("children"); !clean {
		t.Fatal("failed insert left the pending count raised")
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if e := db.TableEpoch("children"); e != 0 {
		t.Fatalf("epoch moved for a table that never stored a row: %d", e)
	}
}

func TestSnapshotReadStability(t *testing.T) {
	db := MustOpen(epochSchema(t))
	txn, _ := db.Begin()
	if _, err := txn.Insert("parents", []string{"id"}, []Value{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Quiescent table: stable.
	epoch, stable, err := db.SnapshotRead("parents", func() error { return nil })
	if err != nil || !stable || epoch != 1 {
		t.Fatalf("quiescent SnapshotRead = (%d, %v, %v), want (1, true, nil)", epoch, stable, err)
	}

	// A commit landing inside the read window must mark it unstable.
	_, stable, err = db.SnapshotRead("parents", func() error {
		inner, err := db.Begin()
		if err != nil {
			return err
		}
		if _, err := inner.Insert("parents", []string{"id"}, []Value{Int(2)}); err != nil {
			return err
		}
		_, err = inner.Commit()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stable {
		t.Fatal("SnapshotRead reported stable across a concurrent commit")
	}

	// An in-flight writer spanning the read window must mark it unstable.
	writer, _ := db.Begin()
	if _, err := writer.Insert("parents", []string{"id"}, []Value{Int(3)}); err != nil {
		t.Fatal(err)
	}
	_, stable, _ = db.SnapshotRead("parents", func() error { return nil })
	if stable {
		t.Fatal("SnapshotRead reported stable while uncommitted rows were visible")
	}
	if _, err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadConcurrent hammers SnapshotRead against concurrent writers:
// whenever a read reports stable, the row count it saw must equal a committed
// transaction boundary (a multiple of the per-transaction batch).
func TestSnapshotReadConcurrent(t *testing.T) {
	db := MustOpen(epochSchema(t))
	const (
		writers  = 4
		txnsEach = 50
		batch    = 5
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	for wr := 0; wr < writers; wr++ {
		wr := wr
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < txnsEach; i++ {
				txn, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < batch; j++ {
					id := int64(wr*1_000_000 + i*batch + j)
					if _, err := txn.Insert("parents", []string{"id"}, []Value{Int(id)}); err != nil {
						t.Error(err)
						_ = txn.Rollback()
						return
					}
				}
				if i%3 == 2 {
					_ = txn.Rollback()
				} else if _, err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var n int64
			_, stable, err := db.SnapshotRead("parents", func() error {
				c, err := db.Count("parents")
				n = c
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
			if stable && n%batch != 0 {
				t.Errorf("stable snapshot saw %d rows, not a committed transaction boundary", n)
				return
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
}
