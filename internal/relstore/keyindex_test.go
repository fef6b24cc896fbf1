package relstore

import (
	"strings"
	"testing"
)

// TestKeyIndexRepresentation pins which shapes take the integer
// representation: one INTEGER or TIMESTAMP column that cannot hold NULL.
func TestKeyIndexRepresentation(t *testing.T) {
	schema := &TableSchema{Name: "t", Columns: []Column{
		{Name: "i", Type: TypeInt},
		{Name: "ni", Type: TypeInt, Nullable: true},
		{Name: "ts", Type: TypeTime},
		{Name: "s", Type: TypeString},
		{Name: "f", Type: TypeFloat},
		{Name: "b", Type: TypeBool},
	}}
	for _, c := range []struct {
		cols    []int
		notNull bool
		encoded bool
	}{
		{[]int{0}, true, false},
		{[]int{2}, true, false},
		{[]int{1}, true, false}, // a primary key: NULL is rejected before the probe
		{[]int{1}, false, true}, // a unique constraint over a nullable column
		{[]int{0, 2}, true, true},
		{[]int{3}, true, true},
		{[]int{4}, true, true},
		{[]int{5}, true, true},
	} {
		if got := newKeyIndex(schema, c.cols, c.notNull).encoded(); got != c.encoded {
			t.Errorf("columns %v notNull %v: encoded = %v, want %v", c.cols, c.notNull, got, c.encoded)
		}
	}
}

// TestKeyShapesRollbackAndLookup runs the rollback, lookup and duplicate
// cases of the insert paths once per primary-key shape: the per-row and the
// batch path agree, a rolled-back key can be inserted again, and the
// re-derived primary-key index matches the heap throughout.
func TestKeyShapesRollbackAndLookup(t *testing.T) {
	cols := []string{"object_id", "frame_id", "mag"}
	obj := func(id, frame int64) []Value { return []Value{Int(id), Int(frame), Float(20)} }
	for _, shape := range keyShapes {
		t.Run(shape.name, func(t *testing.T) {
			db := batchPropertyDBOn(t, keyShapeSchema(t, shape.name))
			tbl := db.Table("objects")
			// The key of (id, frame) as LookupByPK takes it in this shape.
			key := func(id, frame int64) []Value {
				switch shape.name {
				case "composite":
					return []Value{Int(id), Int(frame)}
				case "string":
					v, _ := Coerce(Int(id), TypeString)
					return []Value{v}
				}
				return []Value{Int(id)}
			}
			verify := func(rows int) {
				t.Helper()
				if err := db.VerifyPrimaryKeys(); err != nil {
					t.Fatal(err)
				}
				if n := tbl.RowCount(); n != int64(rows) || tbl.pk.len() != rows {
					t.Fatalf("%d rows, %d keys, want %d of each", n, tbl.pk.len(), rows)
				}
			}

			// Committed rows through both paths.
			txn, _ := db.Begin()
			if _, err := txn.Insert("objects", cols, obj(1, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.InsertBatch("objects", cols, [][]Value{obj(2, 2), obj(3, 3)}); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			verify(3)

			// Duplicates: against a committed row on the per-row path, and
			// inside one batch on the batch path — with the same violation.
			txn, _ = db.Begin()
			_, rowErr := txn.Insert("objects", cols, obj(2, 2))
			br, batchErr := txn.InsertBatch("objects", cols, [][]Value{obj(10, 1), obj(11, 1), obj(10, 1), obj(12, 1)})
			if br.RowsInserted != 2 || br.FailedIndex != 2 {
				t.Fatalf("intra-batch duplicate: inserted %d, failed at %d, want 2 and 2", br.RowsInserted, br.FailedIndex)
			}
			for _, err := range []error{rowErr, batchErr} {
				if k, _ := ViolationKind(err); k != KindPrimaryKey || !strings.Contains(err.Error(), "duplicate key ") {
					t.Fatalf("duplicate key reported as %v", err)
				}
			}

			// NULL in the primary key is rejected on both paths, in the key's
			// first column and (composite) its second.
			nullRows := [][]Value{{Null, Int(1), Float(20)}}
			if shape.name == "composite" {
				nullRows = append(nullRows, []Value{Int(50), Null, Float(20)})
			}
			for _, row := range nullRows {
				_, rowErr := txn.Insert("objects", cols, row)
				_, batchErr := txn.InsertBatch("objects", cols, [][]Value{row})
				for _, err := range []error{rowErr, batchErr} {
					if k, _ := ViolationKind(err); k != KindNotNull {
						t.Fatalf("NULL primary key %v reported as %v", row, err)
					}
				}
			}
			verify(5)

			// Rollback removes the uncommitted keys and only those.
			if err := txn.Rollback(); err != nil {
				t.Fatal(err)
			}
			verify(3)
			for id := int64(1); id <= 3; id++ {
				if row, err := db.LookupByPK("objects", key(id, id)); err != nil || row == nil || row[1].I != id {
					t.Fatalf("LookupByPK(%d) after rollback: row %v err %v", id, row, err)
				}
			}
			for _, k := range [][]Value{key(10, 1), key(11, 1), {Null}, {Float(1)}, {Int(1), Int(1), Int(1)}} {
				if row, err := db.LookupByPK("objects", k); err != nil || row != nil {
					t.Fatalf("LookupByPK(%v): row %v err %v, want no row", k, row, err)
				}
			}

			// The rolled-back keys are free again.
			txn, _ = db.Begin()
			if _, err := txn.InsertBatch("objects", cols, [][]Value{obj(10, 1), obj(11, 1)}); err != nil {
				t.Fatalf("reinsert after rollback: %v", err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			verify(5)
		})
	}
}

// TestUniqueOverNullableColumn: a unique constraint over a nullable integer
// column stays in the encoded representation, where NULL is a key like any
// other — two NULLs collide, as they always have in this engine.
func TestUniqueOverNullableColumn(t *testing.T) {
	schema, err := NewSchema(&TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "serial", Type: TypeInt, Nullable: true},
			{Name: "tag", Type: TypeInt},
		},
		PrimaryKey: []string{"id"},
		Uniques: []UniqueConstraint{
			{Name: "uq_serial", Columns: []string{"serial"}},
			{Name: "uq_tag", Columns: []string{"tag"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(schema)
	tbl := db.Table("t")
	if !tbl.uniques[0].encoded() || tbl.uniques[1].encoded() {
		t.Fatalf("uq_serial encoded %v, uq_tag encoded %v; want true and false", tbl.uniques[0].encoded(), tbl.uniques[1].encoded())
	}
	cols := []string{"id", "serial", "tag"}
	txn, _ := db.Begin()
	const accepted ConstraintKind = -1
	for _, c := range []struct {
		row  []Value
		want ConstraintKind
	}{
		{[]Value{Int(1), Int(7), Int(100)}, accepted},
		{[]Value{Int(2), Null, Int(101)}, accepted},
		{[]Value{Int(3), Int(7), Int(102)}, KindUnique}, // uq_serial
		{[]Value{Int(4), Null, Int(103)}, KindUnique},   // uq_serial: NULL collides
		{[]Value{Int(5), Int(8), Int(100)}, KindUnique}, // uq_tag, integer representation
		{[]Value{Int(6), Int(9), Null}, KindNotNull},    // tag is NOT NULL
		{[]Value{Int(7), Int(10), Int(104)}, accepted},
	} {
		_, rowErr := txn.Insert("t", cols, c.row)
		if c.want == accepted {
			if rowErr != nil {
				t.Fatalf("Insert %v: %v", c.row, rowErr)
			}
			continue
		}
		if k, ok := ViolationKind(rowErr); !ok || k != c.want {
			t.Fatalf("Insert %v: %v, want a %s violation", c.row, rowErr, c.want)
		}
		// The batch path rejects the same row the same way.
		_, batchErr := txn.InsertBatch("t", cols, [][]Value{c.row})
		if batchErr == nil || batchErr.Error() != rowErr.Error() {
			t.Fatalf("InsertBatch %v: %v, per-row path said %v", c.row, batchErr, rowErr)
		}
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tbl.pk.len() != 0 || tbl.uniques[0].len() != 0 || tbl.uniques[1].len() != 0 || tbl.uniques[0].strBytes != 0 {
		t.Fatalf("rollback left keys behind: pk %d uq_serial %d (%d bytes) uq_tag %d",
			tbl.pk.len(), tbl.uniques[0].len(), tbl.uniques[0].strBytes, tbl.uniques[1].len())
	}
}
