package relstore

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// allKindColumns is one column of every type, twice, so a row has more than
// eight columns and the NULL bitmap spans two bytes.
func allKindColumns() []Column {
	var cols []Column
	for rep := 0; rep < 2; rep++ {
		for _, typ := range []ColType{TypeInt, TypeFloat, TypeString, TypeTime, TypeBool} {
			cols = append(cols, Column{Name: typ.String() + string(rune('a'+rep)), Type: typ, Nullable: true})
		}
	}
	return cols
}

// edgeValues are the payloads the codec must carry unchanged, per type.
var edgeValues = map[ColType][]Value{
	TypeInt:    {Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64)},
	TypeFloat:  {Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(math.SmallestNonzeroFloat64), Float(-math.MaxFloat64)},
	TypeString: {Str(""), Str("R"), Str("a\x00b"), Str(strings.Repeat("multi-KB ", 700))},
	TypeTime:   {Time(time.Unix(0, 0)), {Kind: KindTime, I: math.MinInt64}, {Kind: KindTime, I: math.MaxInt64}},
	TypeBool:   {Bool(false), Bool(true)},
}

// sameValue is Value equality with floats compared by bits (NaN == NaN,
// -0 != +0).
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func randomRow(rng *rand.Rand, cols []Column) Row {
	row := make(Row, len(cols))
	for i, c := range cols {
		if rng.Intn(4) == 0 {
			continue // NULL
		}
		edges := edgeValues[c.Type]
		if rng.Intn(2) == 0 {
			row[i] = edges[rng.Intn(len(edges))]
			continue
		}
		switch c.Type {
		case TypeInt:
			row[i] = Int(rng.Int63() - rng.Int63())
		case TypeFloat:
			row[i] = Float(rng.NormFloat64() * 1e6)
		case TypeString:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			row[i] = Str(string(b))
		case TypeTime:
			row[i] = Value{Kind: KindTime, I: rng.Int63()}
		case TypeBool:
			row[i] = Bool(rng.Intn(2) == 0)
		}
	}
	return row
}

// checkView compares every getter of a view with the row it was packed from.
func checkView(t *testing.T, v RowView, want Row) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("view has %d columns, row %d", v.Len(), len(want))
	}
	got := v.Row()
	for c, w := range want {
		if v.IsNull(c) != w.IsNull() {
			t.Fatalf("column %d: IsNull = %v, stored %+v", c, v.IsNull(c), w)
		}
		if !sameValue(v.Value(c), w) || !sameValue(v.val(c), w) || !sameValue(got[c], w) {
			t.Fatalf("column %d: Value %+v, val %+v, Row %+v, stored %+v", c, v.Value(c), v.val(c), got[c], w)
		}
		switch w.Kind {
		case KindInt, KindTime, KindBool:
			if v.Int(c) != w.I {
				t.Fatalf("column %d: Int = %d, stored %d", c, v.Int(c), w.I)
			}
		case KindFloat:
			if math.Float64bits(v.Float(c)) != math.Float64bits(w.F) {
				t.Fatalf("column %d: Float = %v, stored %v", c, v.Float(c), w.F)
			}
		case KindNull:
			if v.Int(c) != 0 || v.Float(c) != 0 {
				t.Fatalf("column %d: NULL reads Int %d Float %v, want zeros", c, v.Int(c), v.Float(c))
			}
		}
	}
	if rowSizeOfView(v) != RowSize(want) {
		t.Fatalf("nominal size of view %d, of row %d", rowSizeOfView(v), RowSize(want))
	}
}

// TestPackedRowRoundTrip is the codec's property test: any row of canonical
// kinds — NULL in any position, every edge payload — reads back unchanged
// through every getter, and the validating decoder accepts what pack wrote.
func TestPackedRowRoundTrip(t *testing.T) {
	cols := allKindColumns()
	lay := newRowLayout(cols)
	rng := rand.New(rand.NewSource(13))

	var rows []Row
	rows = append(rows, make(Row, len(cols))) // all NULL
	for c := range cols {                     // NULL in each position, edges elsewhere
		for e := 0; e < 8; e++ {
			row := make(Row, len(cols))
			for i, col := range cols {
				if i != c {
					edges := edgeValues[col.Type]
					row[i] = edges[e%len(edges)]
				}
			}
			rows = append(rows, row)
		}
	}
	for i := 0; i < 2000; i++ {
		rows = append(rows, randomRow(rng, cols))
	}

	// Records are packed back to back into one buffer, as a page holds them.
	var buf []byte
	var starts []int
	for _, row := range rows {
		starts = append(starts, len(buf))
		buf = lay.pack(buf, row)
	}
	starts = append(starts, len(buf))
	for i, row := range rows {
		v, err := lay.view(buf[starts[i]:starts[i+1]])
		if err != nil {
			t.Fatalf("row %d: view rejects a packed record: %v", i, err)
		}
		checkView(t, v, row)
	}
}

// TestPackRejectsForeignKind: a value of another kind than its column is a
// bug upstream of the heap and must not be stored as if it fitted.
func TestPackRejectsForeignKind(t *testing.T) {
	lay := newRowLayout([]Column{{Name: "n", Type: TypeInt}})
	defer func() {
		if recover() == nil {
			t.Fatal("pack stored a string in an integer column")
		}
	}()
	lay.pack(nil, Row{Str("7")})
}

// TestHeapStoreViews drives the heap across page boundaries and rollback
// tombstones: every location keeps reading its own row, deleted rows vanish
// from view and scan, and the nominal accounting follows.
func TestHeapStoreViews(t *testing.T) {
	cols := allKindColumns()
	h := newHeapStore(newRowLayout(cols))
	rng := rand.New(rand.NewSource(29))
	var rows []Row
	var locs []rowLoc
	var bytes int64
	for i := 0; i < 600; i++ {
		row := randomRow(rng, cols)
		loc, _, rb := h.append(row)
		if rb != RowSize(row) {
			t.Fatalf("append reports %d bytes, RowSize %d", rb, RowSize(row))
		}
		rows, locs, bytes = append(rows, row), append(locs, loc), bytes+int64(rb)
	}
	if h.pageCount() < 3 {
		t.Fatalf("only %d pages; the test needs closed and open pages", h.pageCount())
	}
	dead := map[int]bool{}
	for i := 0; i < len(rows); i += 7 {
		h.markDeleted(locs[i])
		h.markDeleted(locs[i]) // idempotent
		dead[i] = true
		bytes -= int64(RowSize(rows[i]))
	}
	if h.rowCount != int64(len(rows)-len(dead)) || h.bytes != bytes {
		t.Fatalf("rowCount %d bytes %d, want %d and %d", h.rowCount, h.bytes, len(rows)-len(dead), bytes)
	}
	for i, loc := range locs {
		v, ok := h.view(loc)
		if ok == dead[i] {
			t.Fatalf("row %d: view ok = %v, deleted = %v", i, ok, dead[i])
		}
		if ok {
			checkView(t, v, rows[i])
		}
	}
	next := 0
	h.scanLoc(func(loc rowLoc, v RowView) bool {
		for dead[next] {
			next++
		}
		if loc != locs[next] {
			t.Fatalf("scan visits %+v, want row %d at %+v", loc, next, locs[next])
		}
		checkView(t, v, rows[next])
		next++
		return true
	})
	if _, ok := h.view(rowLoc{page: uint32(len(h.pages))}); ok {
		t.Fatal("a location past the last page resolves to a row")
	}
	if got := h.residentBytes(); got < h.bytes/2 || got > 2*h.bytes {
		t.Fatalf("resident bytes %d for %d nominal bytes", got, h.bytes)
	}
}

// FuzzRowViewDecode: the validating decoder is total — arbitrary bytes either
// fail to validate or yield a view whose every getter stays in bounds and
// whose materialised row packs and reads back to the same values.
func FuzzRowViewDecode(f *testing.F) {
	cols := allKindColumns()
	lay := newRowLayout(cols)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(lay.pack(nil, randomRow(rng, cols)))
	}
	f.Add([]byte{})
	f.Add(make([]byte, lay.fixed))
	f.Fuzz(func(t *testing.T, rec []byte) {
		v, err := lay.view(rec)
		if err != nil {
			return
		}
		row := v.Row()
		for c := range cols {
			_, _, _ = v.Int(c), v.Float(c), v.IsNull(c)
			if !sameValue(v.Value(c), row[c]) {
				t.Fatalf("column %d: Value %+v, Row %+v", c, v.Value(c), row[c])
			}
		}
		again, err := lay.view(lay.pack(nil, row))
		if err != nil {
			t.Fatalf("repacked row does not validate: %v", err)
		}
		checkView(t, again, row)
	})
}

// TestScanRefViewEqualsLookupByPK: the view a scan hands out and the row
// LookupByPK materialises for the same key agree column for column.
func TestScanRefViewEqualsLookupByPK(t *testing.T) {
	cols := append([]Column{{Name: "id", Type: TypeInt}}, allKindColumns()...)
	schema, err := NewSchema(&TableSchema{Name: "things", Columns: cols, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(schema)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	names := schema.Table("things").ColumnNames()
	const n = 500
	for id := int64(0); id < n; id++ {
		row := append(Row{Int(id)}, randomRow(rng, cols[1:])...)
		if id%2 == 0 {
			_, err = txn.Insert("things", names, row)
		} else {
			_, err = txn.InsertBatch("things", names, [][]Value{row})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = db.ScanRef("things", func(v RowView) bool {
		seen++
		// The scan holds the table's read lock; a second read lock is safe
		// with no writer queued.
		row, err := db.LookupByPK("things", []Value{v.Value(0)})
		if err != nil || row == nil {
			t.Fatalf("LookupByPK(%d): row %v err %v", v.Int(0), row, err)
		}
		checkView(t, v, row)
		return true
	})
	if err != nil || seen != n {
		t.Fatalf("scan visited %d rows, err %v", seen, err)
	}
}
