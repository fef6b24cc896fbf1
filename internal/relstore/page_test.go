package relstore

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"
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
func checkView(t testing.TB, v RowView, want Row) {
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

// heapCase is one table shape the heap tests drive: its columns and how row
// i of a stream is drawn.
type heapCase struct {
	name  string
	cols  []Column
	row   func(rng *rand.Rand, i int) Row
	check func(t testing.TB, h *heapStore) // what the case's pages must show, if anything
}

func heapCases() []heapCase {
	withStrings := allKindColumns()
	var stringFree []Column
	for _, c := range withStrings {
		if c.Type != TypeString {
			stringFree = append(stringFree, c)
		}
	}
	return []heapCase{
		{name: "strings", cols: withStrings, row: func(rng *rand.Rand, _ int) Row { return randomRow(rng, withStrings) }},
		{name: "string-free", cols: stringFree, row: func(rng *rand.Rand, _ int) Row { return randomRow(rng, stringFree) }},
		{name: "precision floats", cols: precisionCols, row: precisionRow, check: precisionEncodings},
	}
}

// precisionCols is a string-free table whose floats declare precisions as the
// catalog's do, beside a float without one, a column no row fills and a
// column every row fills alike.
var precisionCols = []Column{
	{Name: "id", Type: TypeInt},
	{Name: "span", Type: TypeInt, Nullable: true},
	{Name: "ra", Type: TypeFloat, Precision: 6},
	{Name: "mag", Type: TypeFloat, Nullable: true, Precision: 3},
	{Name: "cx", Type: TypeFloat, Nullable: true, Precision: 8},
	{Name: "flux", Type: TypeFloat, Precision: 2},
	{Name: "raw", Type: TypeFloat, Nullable: true},
	{Name: "unset", Type: TypeInt, Nullable: true},
	{Name: "const", Type: TypeBool},
	{Name: "at", Type: TypeTime, Nullable: true},
}

// awkwardFloats are values no scale carries exactly: -0, NaN, the
// infinities, a value off every column's precision, one past 2^52 once
// scaled, and one that rounds to -0.
var awkwardFloats = []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.123456789, 1 << 60, -3e-9}

// precisionRow draws row i of precisionCols: floats rounded to their
// column's places, an awkward one about once a page per column, and the int64
// extremes in rows 250 and 251.
func precisionRow(rng *rand.Rand, i int) Row {
	row := make(Row, len(precisionCols))
	row[0] = Int(int64(i))
	switch {
	case i == 250:
		row[1] = Int(math.MinInt64)
	case i == 251:
		row[1] = Int(math.MaxInt64)
	case rng.Intn(3) > 0:
		row[1] = Int(rng.Int63n(1<<20) - 1<<19)
	}
	for c := 2; c <= 6; c++ {
		col := precisionCols[c]
		if col.Nullable && rng.Intn(5) == 0 {
			continue
		}
		x := rng.NormFloat64() * 100
		if col.Precision > 0 {
			x = RoundTo(x, col.Precision)
		}
		if rng.Intn(150) == 0 {
			x = awkwardFloats[rng.Intn(len(awkwardFloats))]
		}
		row[c] = Float(x)
	}
	row[8] = Bool(true)
	if rng.Intn(2) == 0 {
		row[9] = Value{Kind: KindTime, I: 1_100_000_000_000_000_000 + rng.Int63n(1e12)}
	}
	return row
}

// precisionEncodings checks that the closed pages of the precision case show
// what it is for: scaled floats, a precision column fallen back to its raw
// slot, width-0 columns, and the int64 extremes on one page at width 8.
func precisionEncodings(t testing.TB, h *heapStore) {
	var scaled, raw, constant, extremes int
	for _, p := range h.pages[:len(h.pages)-1] {
		for c, cs := range p.lay.cols {
			switch {
			case h.places[c] != 0 && cs.scale != 0:
				scaled++
			case h.places[c] != 0:
				raw++
			}
			if cs.width == 0 {
				constant++
			}
			if c == 1 && cs.width == 8 && cs.base == math.MinInt64 {
				extremes++
			}
		}
	}
	if scaled == 0 || raw == 0 || constant == 0 || extremes == 0 {
		t.Fatalf("closed pages hold %d scaled and %d raw precision columns, %d of width 0, %d spanning int64", scaled, raw, constant, extremes)
	}
}

// checkHeap holds the heap to the rows appended to it — rows[i] at locs[i],
// removed by a rollback where dead[i]: every location reads its own row or,
// removed, none; a scan visits the live ones in order; the counts follow; and
// the pages keep their rules — a closed page of a table without a string
// column has no offs and a layout of its own, every other page keeps the
// table's wide layout — with residentBytes what they hold.
func checkHeap(t testing.TB, h *heapStore, rows []Row, locs []rowLoc, dead map[int]bool) {
	t.Helper()
	var bytes int64
	for i, loc := range locs {
		v, ok := h.view(loc)
		if ok == dead[i] {
			t.Fatalf("row %d at %+v: view ok = %v, deleted = %v", i, loc, ok, dead[i])
		}
		if ok {
			checkView(t, v, rows[i])
			bytes += int64(RowSize(rows[i]))
		}
	}
	if h.rowCount != int64(len(rows)-len(dead)) || h.bytes != bytes {
		t.Fatalf("rowCount %d bytes %d, want %d and %d", h.rowCount, h.bytes, len(rows)-len(dead), bytes)
	}
	checkScan(t, h, rows, locs, dead)
	if _, ok := h.view(rowLoc{page: uint32(len(h.pages))}); ok {
		t.Fatal("a location past the last page resolves to a row")
	}

	held := int64(cap(h.wdata)) + 4*int64(cap(h.woffs)) + int64(cap(h.pages))*int64(unsafe.Sizeof(page{}))
	for i := range h.pages {
		p := &h.pages[i]
		closed := i < len(h.pages)-1
		if own := closed && !h.varlen; own == (p.lay == h.lay) || (p.offs == nil) == h.varlen {
			t.Fatalf("page %d of %d (strings: %v): own layout %v, %d offs", i, len(h.pages), h.varlen, p.lay != h.lay, len(p.offs))
		}
		if p.offs == nil && len(p.data)%p.lay.fixed != 0 {
			t.Fatalf("page %d: %d bytes of %d-byte records", i, len(p.data), p.lay.fixed)
		}
		if _, ok := h.view(rowLoc{page: uint32(i), slot: uint32(p.rows())}); ok {
			t.Fatalf("page %d: the slot past its %d records resolves to a row", i, p.rows())
		}
		if closed {
			held += int64(cap(p.data)) + 4*int64(cap(p.offs))
		}
		if p.lay != h.lay {
			held += int64(unsafe.Sizeof(rowLayout{})) + int64(cap(p.lay.cols))*int64(unsafe.Sizeof(colSlot{}))
		}
	}
	if got := h.residentBytes(); got != held {
		t.Fatalf("resident bytes %d, the pages hold %d", got, held)
	}
}

// checkScan checks that a scan of the heap visits the live rows in order and
// reads each back column for column.
func checkScan(t testing.TB, h *heapStore, rows []Row, locs []rowLoc, dead map[int]bool) {
	t.Helper()
	next := 0
	h.scanLoc(func(loc rowLoc, v RowView) bool {
		for dead[next] {
			next++
		}
		if next >= len(locs) || loc != locs[next] {
			t.Fatalf("scan visits %+v, want row %d of %d", loc, next, len(locs))
		}
		for c, w := range rows[next] {
			if got := v.val(c); !sameValue(got, w) {
				t.Fatalf("scan: row %d column %d reads %+v, stored %+v", next, c, got, w)
			}
		}
		next++
		return true
	})
	for next < len(rows) && dead[next] {
		next++
	}
	if next != len(rows) {
		t.Fatalf("scan stopped before row %d of %d", next, len(rows))
	}
}

// TestHeapStoreViews drives the heap of each layout across page boundaries
// and rollback tombstones on closed pages and on the open one: every location
// keeps reading its own row, deleted rows vanish from view and scan, and the
// nominal and resident accounting follow.
func TestHeapStoreViews(t *testing.T) {
	for _, c := range heapCases() {
		t.Run(c.name, func(t *testing.T) {
			h := newHeapStore(c.cols)
			rng := rand.New(rand.NewSource(29))
			var rows []Row
			var locs []rowLoc
			for i := 0; i < 1500; i++ {
				row := c.row(rng, i)
				loc, _, rb := h.append(row)
				if rb != RowSize(row) {
					t.Fatalf("append reports %d bytes, RowSize %d", rb, RowSize(row))
				}
				rows, locs = append(rows, row), append(locs, loc)
			}
			if h.pageCount() < 3 {
				t.Fatalf("only %d pages; the test needs closed and open pages", h.pageCount())
			}
			dead := map[int]bool{len(rows) - 1: true}
			for i := 0; i < len(rows); i += 7 {
				dead[i] = true
			}
			for i := range dead {
				h.markDeleted(locs[i])
				h.markDeleted(locs[i]) // idempotent
			}
			checkHeap(t, h, rows, locs, dead)
			if c.check != nil {
				c.check(t, h)
			}
		})
	}
}

// TestNarrowDeltaWidths closes one page per span at the edges of each delta
// width and reads both ends of the span back off the closed page.
func TestNarrowDeltaWidths(t *testing.T) {
	for _, c := range []struct {
		span  uint64
		width uint8
	}{
		{0, 0}, {1, 1}, {math.MaxUint8, 1}, {math.MaxUint8 + 1, 2}, {math.MaxUint16, 2}, {math.MaxUint16 + 1, 4},
		{math.MaxUint32, 4}, {math.MaxUint32 + 1, 8}, {math.MaxUint64, 8},
	} {
		h := newHeapStore([]Column{{Name: "n", Type: TypeInt}})
		lo := -1 - int64(c.span/2)
		ends := []int64{lo, int64(uint64(lo) + c.span)}
		var locs []rowLoc
		for i := 0; h.pageCount() < 2; i++ {
			loc, _, _ := h.append(Row{Int(ends[min(i, 1)])})
			locs = append(locs, loc)
		}
		if got := h.pages[0].lay.cols[0]; got.width != c.width || got.base != lo {
			t.Errorf("span %d: width %d base %d, want %d and %d", c.span, got.width, got.base, c.width, lo)
		}
		for i, want := range ends {
			if v, ok := h.view(locs[i]); !ok || v.Int(0) != want {
				t.Errorf("span %d: row %d reads %d, stored %d", c.span, i, v.Int(0), want)
			}
		}
	}
}

// runHeapPages drives a heap of the layout the stream's first value picks
// through bursts of appends, rollbacks, views and scans, checked against the
// rows it was given (floats compared by bits).
func runHeapPages(t testing.TB, data []byte) {
	o := &opStream{data: data}
	cases := heapCases()
	c := cases[o.next(len(cases))]
	h := newHeapStore(c.cols)
	var rows []Row
	var locs []rowLoc
	dead := map[int]bool{}
	for !o.done() {
		switch op := o.next(10); {
		case op < 4: // a burst of appends drawn from a stream-chosen seed
			rng := rand.New(rand.NewSource(int64(o.next(1 << 16))))
			for n := 1 + o.next(32); n > 0; n-- {
				row := c.row(rng, len(rows))
				loc, _, _ := h.append(row)
				rows, locs = append(rows, row), append(locs, loc)
			}
		case op < 6: // rollback of a stored row, recent ones likelier
			if len(rows) > 0 {
				i := len(rows) - 1 - o.next(min(len(rows), 1<<15))
				h.markDeleted(locs[i])
				dead[i] = true
			}
		case op < 9: // view
			if len(rows) > 0 {
				i := len(rows) - 1 - o.next(min(len(rows), 1<<15))
				v, ok := h.view(locs[i])
				if ok == dead[i] {
					t.Fatalf("row %d: view ok = %v, deleted = %v", i, ok, dead[i])
				}
				if ok {
					checkView(t, v, rows[i])
				}
			}
		default:
			checkScan(t, h, rows, locs, dead)
		}
	}
	checkHeap(t, h, rows, locs, dead)
}

// FuzzHeapPages is runHeapPages over fuzzer-chosen operation streams; the
// seed corpus (testdata/fuzz/FuzzHeapPages) holds a random stream per layout.
func FuzzHeapPages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runHeapPages(t, data) })
}

// FuzzRowViewDecode: the validating decoder is total — arbitrary bytes either
// fail to validate or yield a view whose every getter stays in bounds and
// whose materialised row packs and reads back to the same values.  Every
// input is decoded under each of rowViewLayouts; the seed corpus
// (testdata/fuzz/FuzzRowViewDecode) holds records cut from their pages.
func FuzzRowViewDecode(f *testing.F) {
	layouts := rowViewLayouts()
	all := layouts[0].wide
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(all.pack(nil, randomRow(rng, allKindColumns())))
	}
	f.Add([]byte{})
	f.Add(make([]byte, all.fixed))
	f.Fuzz(func(t *testing.T, rec []byte) {
		for _, l := range layouts {
			v, err := l.lay.view(rec)
			if err != nil {
				continue
			}
			row := v.Row()
			for c := range row {
				_, _, _ = v.Int(c), v.Float(c), v.IsNull(c)
				if !sameValue(v.Value(c), row[c]) {
					t.Fatalf("column %d: Value %+v, Row %+v", c, v.Value(c), row[c])
				}
			}
			again, err := l.wide.view(l.wide.pack(nil, row))
			if err != nil {
				t.Fatalf("repacked row does not validate: %v", err)
			}
			checkView(t, again, row)
		}
	})
}

// rowViewLayouts are the layouts FuzzRowViewDecode decodes under, each beside
// its table's wide layout: the wide layout of a table of every kind, and the
// narrow layouts of the first closed page of each string-free heap case
// (heapCases) filled from seed 5 — deltas of every width, and scaled floats.
func rowViewLayouts() []struct{ lay, wide *rowLayout } {
	cases := heapCases()
	all := newRowLayout(cases[0].cols)
	out := []struct{ lay, wide *rowLayout }{{all, all}}
	for _, c := range cases[1:] {
		h := newHeapStore(c.cols)
		rng := rand.New(rand.NewSource(5))
		for i := 0; h.pageCount() < 2; i++ {
			h.append(c.row(rng, i))
		}
		out = append(out, struct{ lay, wide *rowLayout }{h.pages[0].lay, h.lay})
	}
	return out
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
