package relstore

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
		v, err := lay.view(string(buf[starts[i]:starts[i+1]]), 0)
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
		{name: "bit widths", cols: widthCols, row: widthRow, check: widthEncodings},
		{name: "constant", cols: precisionCols[2:6], row: func(*rand.Rand, int) Row { return Row{Float(1.5), Float(-2.25), Float(0), Float(7)} }, check: constEncodings},
		{name: "two clusters", cols: clusterCols, row: clusterRow, check: clusterEncodings},
	}
}

// clusterCols is a string-free table whose columns part in two clusters on
// every closed page, as two loaders interleaving 40-row batches of two files
// leave them: ids, the same with NULLs, a scaled float, clusters 2^57 apart,
// the int64 extremes, now and then a one-row upper cluster, and, beside
// them, a column spread evenly, which a split would not narrow.
var clusterCols = []Column{
	{Name: "id", Type: TypeInt},
	{Name: "ref", Type: TypeInt},
	{Name: "opt", Type: TypeInt, Nullable: true},
	{Name: "mag", Type: TypeFloat, Precision: 3},
	{Name: "far", Type: TypeInt},
	{Name: "ends", Type: TypeInt},
	{Name: "lone", Type: TypeInt},
	{Name: "even", Type: TypeInt},
}

// clusterRow draws row i of clusterCols from file i/40 % 2.
func clusterRow(rng *rand.Rand, i int) Row {
	file := int64(i / 40 % 2)
	ref := file*1_000_000_000 + int64(i)
	row := Row{Int(int64(i)), Int(ref), Int(ref + rng.Int63n(1000)), Float(RoundTo(float64(file)*5000+rng.NormFloat64(), 3)),
		Int(file<<57 + rng.Int63n(1<<20)), Int(math.MinInt64), Int(rng.Int63n(1000)), Int(rng.Int63n(1 << 30))}
	if rng.Intn(9) == 0 {
		row[2] = Null
	}
	if file == 1 {
		row[5] = Int(math.MaxInt64)
	}
	if rng.Intn(150) == 0 {
		row[6] = Int(1 << 40)
	}
	return row
}

// clusterEncodings checks that every closed page of the two-clusters case
// splits the columns drawn to split — ref to 8 bits, opt with NULLs, mag scaled,
// far across 2^57, the extremes to one bit — and keeps even whole, and that
// some page splits lone with one row above its midpoint.
func clusterEncodings(t testing.TB, h *heapStore) {
	lone := 0
	for _, p := range h.pages[:len(h.pages)-1] {
		cs := p.lay.cols
		if !cs[1].split() || cs[1].width > 8 || !cs[2].split() || !cs[2].nulls || !cs[3].split() || cs[3].scale == 0 ||
			!cs[4].split() || cs[4].width > 21 || !cs[5].split() || cs[5].width != 1 || cs[7].split() {
			t.Fatalf("closed page of %d rows: columns %+v", p.rows(), cs)
		}
		above := 0
		for k := 0; k < p.rows(); k++ {
			if rowAt(&p, k).Int(6) == 1<<40 {
				above++
			}
		}
		if above == 1 && cs[6].split() {
			lone++
		}
	}
	if lone == 0 {
		t.Fatal("no closed page splits lone with a one-row upper cluster")
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
// field, width-0 columns, and the int64 extremes on one page at width 64.
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
			if c == 1 && cs.width == 64 && cs.base == math.MinInt64 {
				extremes++
			}
		}
	}
	if scaled == 0 || raw == 0 || constant == 0 || extremes == 0 {
		t.Fatalf("closed pages hold %d scaled and %d raw precision columns, %d of width 0, %d spanning int64", scaled, raw, constant, extremes)
	}
}

// widthCols is a string-free table whose columns, on every closed page, need
// streams of 56, 57 (rounded up to 64, which a split at the midpoint brings
// down to 56) and 64 bits, hold negative values,
// a constant, NULL only, NULL about once a page, and precision floats that
// fall back now and then.
var widthCols = []Column{
	{Name: "id", Type: TypeInt},
	{Name: "w56", Type: TypeInt},
	{Name: "w57", Type: TypeInt},
	{Name: "w64", Type: TypeInt},
	{Name: "neg", Type: TypeInt},
	{Name: "konst", Type: TypeInt},
	{Name: "none", Type: TypeInt, Nullable: true},
	{Name: "once", Type: TypeTime, Nullable: true},
	{Name: "mag", Type: TypeFloat, Nullable: true, Precision: 3},
}

// widthRow draws row i of widthCols.  Every 20 rows carry each wide column's
// extremes, so every page does: w56 spans 2^56 - 1, w57 2^56 and w64 the
// whole int64 range; once is NULL on one row in 60 and mag holds a float no
// scale carries on one in 40.
func widthRow(rng *rand.Rand, i int) Row {
	lo56, lo57 := int64(-1)<<55, int64(-3)<<54
	row := Row{Int(int64(i)), Int(lo56 + rng.Int63n(1<<56)), Int(lo57 + rng.Int63n(1<<56)), Int(rng.Int63() - rng.Int63()),
		Int(-1000 + rng.Int63n(100)), Int(-7), Null, Value{Kind: KindTime, I: 1_100_000_000_000_000_000 + int64(i)}, Float(RoundTo(rng.NormFloat64()*20, 3))}
	switch i % 20 {
	case 0:
		row[1], row[2], row[3] = Int(lo56), Int(lo57), Int(math.MinInt64)
	case 1:
		row[1], row[2], row[3] = Int(lo56+1<<56-1), Int(lo57+1<<56), Int(math.MaxInt64)
	}
	if i%60 == 7 {
		row[7] = Null
	}
	if i%40 == 3 {
		row[8] = Float(awkwardFloats[(i/40)%4]) // -0, NaN, ±Inf
	}
	return row
}

// widthEncodings checks the widths widthRow is drawn to give on every closed
// page, and that some page holds once with a single NULL and mag fallen back.
func widthEncodings(t testing.TB, h *heapStore) {
	one, fallen := 0, 0
	for _, p := range h.pages[:len(h.pages)-1] {
		cs := p.lay.cols
		if cs[1].width != 56 || cs[2].width != 56 || !cs[2].split() || cs[3].width != 64 || cs[3].split() || cs[3].base != math.MinInt64 || cs[4].base >= 0 ||
			cs[5].width != 0 || cs[5].nulls || cs[6].width != 0 || !cs[6].nulls {
			t.Fatalf("closed page of %d rows: columns %+v", p.rows(), cs)
		}
		nulls := 0
		for k := 0; k < p.rows(); k++ {
			if rowAt(&p, k).IsNull(7) {
				nulls++
			}
		}
		if nulls == 1 {
			one++
		}
		if cs[8].scale == 0 {
			fallen++
		}
	}
	if one == 0 || fallen == 0 {
		t.Fatalf("%d closed pages hold a single NULL, %d a fallen-back float", one, fallen)
	}
}

// constEncodings checks that the closed pages of a table whose every column is
// constant hold no data bytes.
func constEncodings(t testing.TB, h *heapStore) {
	for i, p := range h.pages[:len(h.pages)-1] {
		if p.dataBytes() != 0 {
			t.Fatalf("closed page %d of constant rows holds %d data bytes", i, p.dataBytes())
		}
	}
}

// rowAt returns the view of row k of page p, as heapStore.view does.
func rowAt(p *page, k int) RowView {
	if p.lay.wide() {
		return RowView{lay: p.lay, rec: p.record(k)}
	}
	return RowView{lay: p.lay, rec: alias(p.data), row: uint32(k)}
}

// checkStreams fails unless every column stream of the closed narrow page p
// is as narrow as the rule allows: base the least non-NULL value, width
// streamWidth of their span (64 for a float kept raw), NULL bits only where a
// row is NULL, and a split at the midpoint of the span if and only if one bit
// more than the wider cluster's span needs is narrower, with the offset width
// the least that holds both clusters.
func checkStreams(t testing.TB, p *page) {
	t.Helper()
	for c, cs := range p.lay.cols {
		var vals []int64
		nulls := false
		for k := 0; k < p.rows(); k++ {
			if v := rowAt(p, k); v.IsNull(c) {
				nulls = true
			} else {
				vals = append(vals, int64(cs.value(v.rec, v.row)))
			}
		}
		want := colSlot{off: cs.off, scale: cs.scale, nulls: nulls}
		raw := p.lay.kinds[c] == KindFloat && cs.scale == 0
		switch {
		case raw:
			want.width = 64
		case len(vals) > 0:
			want.base, want.width = slices.Min(vals), streamWidth(uint64(slices.Max(vals))-uint64(slices.Min(vals)))
		}
		want.ow = want.width
		if !raw && want.width > 1 {
			if ow := splitWidth(vals); ow+1 < want.width && ow+1 <= 56 {
				want.width, want.ow = ow+1, ow
			}
		}
		if cs != want {
			t.Fatalf("column %d of a %d-row page: %+v, its values need %+v", c, p.rows(), cs, want)
		}
	}
}

// splitWidth is the bits the wider of two clusters of vals needs, split at
// the midpoint of their span, each cluster's span taken from its own least
// value.
func splitWidth(vals []int64) uint8 {
	lo, hi := slices.Min(vals), slices.Max(vals)
	mid := lo + int64((uint64(hi)-uint64(lo))/2)
	var lower, upper []int64
	for _, v := range vals {
		if v <= mid {
			lower = append(lower, v)
		} else {
			upper = append(upper, v)
		}
	}
	span := func(c []int64) uint64 { return uint64(slices.Max(c)) - uint64(slices.Min(c)) }
	return uint8(bits.Len64(max(span(lower), span(upper))))
}

// checkHeap holds the heap to the rows appended to it — rows[i] at locs[i],
// removed by a rollback where dead[i]: every location reads its own row or,
// removed, none; a scan visits the live ones in order; the counts follow; and
// the pages keep their rules — a closed page of a table without a string
// column has no offs and a layout of its own whose streams pass checkStreams,
// every other page keeps the table's wide layout — with residentBytes what
// they hold.
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
		if p.lay.wide() && p.offs == nil && len(p.data)%int(p.lay.fixed) != 0 {
			t.Fatalf("page %d: %d bytes of %d-byte records", i, len(p.data), p.lay.fixed)
		}
		if !p.lay.wide() {
			checkStreams(t, p)
		}
		if _, ok := h.view(rowLoc{page: uint32(i), slot: uint32(p.rows())}); ok {
			t.Fatalf("page %d: the slot past its %d records resolves to a row", i, p.rows())
		}
		if closed {
			held += p.dataBytes() + 4*int64(cap(p.offs))
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

// TestNarrowDeltaWidths closes one page per span at the edges of the stream
// widths and reads both ends of the span back off the closed page.  The page
// holds the span's midpoint too, so no split is narrower than one base.
func TestNarrowDeltaWidths(t *testing.T) {
	for _, c := range []struct {
		span  uint64
		width uint8
	}{
		{0, 0}, {1, 1}, {math.MaxUint8, 8}, {math.MaxUint8 + 1, 9}, {1<<55 + 3, 56}, {1<<56 - 1, 56},
		{1 << 56, 64}, {1<<57 - 1, 64}, {math.MaxUint32 << 31, 64}, {math.MaxUint64, 64},
	} {
		h := newHeapStore([]Column{{Name: "n", Type: TypeInt}})
		lo := -1 - int64(c.span/2)
		ends := []int64{lo, int64(uint64(lo) + c.span/2), int64(uint64(lo) + c.span)}
		var locs []rowLoc
		for i := 0; h.pageCount() < 2; i++ {
			loc, _, _ := h.append(Row{Int(ends[min(i, 2)])})
			locs = append(locs, loc)
		}
		if got := h.pages[0].lay.cols[0]; got.width != c.width || got.split() || got.base != lo {
			t.Errorf("span %d: width %d base %d, want %d and %d", c.span, got.width, got.base, c.width, lo)
		}
		for i, want := range ends {
			if v, ok := h.view(locs[i]); !ok || v.Int(0) != want {
				t.Errorf("span %d: row %d reads %d, stored %d", c.span, i, v.Int(0), want)
			}
		}
	}
}

// TestNarrowSplitWidths closes one page per pair of clusters — the offsets
// offs from lo, taken in turn, and in one case a single row at lone — and
// checks the stream's widths against the split rule's edges: split when one
// cluster bit and the wider cluster's offsets fit fewer bits than the whole
// span, 56 at most (ow == width where it is not); every value reads back off
// the closed page.
func TestNarrowSplitWidths(t *testing.T) {
	for _, c := range []struct {
		name      string
		lo        int64
		offs      []uint64
		lone      uint64
		width, ow uint8
	}{
		{name: "two values", lo: 5, offs: []uint64{0, 2}, width: 1, ow: 0},
		{name: "two loaders' ids", lo: 100_000_001, offs: []uint64{0, 1e9, 39, 1e9 + 39}, width: 7, ow: 6},
		{name: "jump past 2^56", lo: -3, offs: []uint64{0, 1 << 57, 1000, 1<<57 + 7}, width: 11, ow: 10},
		{name: "one-row cluster", lo: 0, offs: []uint64{0, 1 << 20}, lone: 1 << 40, width: 22, ow: 21},
		{name: "int64 extremes", lo: math.MinInt64, offs: []uint64{0, math.MaxUint64}, width: 1, ow: 0},
		{name: "widest split", lo: 0, offs: []uint64{0, 1<<55 - 1, 1 << 62}, width: 56, ow: 55},
		{name: "57-bit clusters", lo: 0, offs: []uint64{0, 1<<56 - 1, 1 << 62}, width: 64, ow: 64},
		{name: "no gap", lo: 0, offs: []uint64{0, 1<<20 - 1, 1 << 20, 1<<21 - 1}, width: 21, ow: 21},
	} {
		h := newHeapStore([]Column{{Name: "n", Type: TypeInt}})
		var locs []rowLoc
		var stored []int64
		for i := 0; h.pageCount() < 2; i++ {
			off := c.offs[i%len(c.offs)]
			if c.lone != 0 && i == 7 {
				off = c.lone
			}
			v := int64(uint64(c.lo) + off)
			loc, _, _ := h.append(Row{Int(v)})
			locs, stored = append(locs, loc), append(stored, v)
		}
		if got := h.pages[0].lay.cols[0]; got.width != c.width || got.ow != c.ow || got.base != c.lo {
			t.Errorf("%s: width %d ow %d base %d, want %d, %d and %d", c.name, got.width, got.ow, got.base, c.width, c.ow, c.lo)
		}
		for i, want := range stored {
			if v, ok := h.view(locs[i]); !ok || v.Int(0) != want {
				t.Fatalf("%s: row %d reads %d, stored %d", c.name, i, v.Int(0), want)
			}
		}
		checkStreams(t, &h.pages[0])
	}
}

// TestSplitStreamNeedsItsJumpWord: the validating decoder refuses a narrow
// layout whose split stream starts in the page's first 8 bytes, where no jump
// word fits in front of it, and accepts the same page with the word there.
func TestSplitStreamNeedsItsJumpWord(t *testing.T) {
	h := newHeapStore([]Column{{Name: "n", Type: TypeInt}})
	for i := 0; h.pageCount() < 2; i++ {
		h.append(Row{Int(int64(i%2) << 40)})
	}
	p := &h.pages[0]
	if cs := p.lay.cols[0]; !cs.split() || cs.off != 8 {
		t.Fatalf("column %+v, want a split stream behind its jump word", cs)
	}
	if _, err := p.lay.view(alias(p.data), 1); err != nil {
		t.Fatalf("the heap's own page does not validate: %v", err)
	}
	bad := *p.lay
	bad.cols = slices.Clone(p.lay.cols)
	bad.cols[0].off = 7
	if _, err := bad.view(alias(p.data), 1); err == nil {
		t.Fatal("a split stream at byte 7 validates, its jump word before the page data")
	}
}

// TestPackedSizes pins the sizes the read paths depend on: a column slot is
// 16 bytes, the split's offset width riding in its padding, and a view 32,
// which the compiler keeps in registers.
func TestPackedSizes(t *testing.T) {
	if a, b := unsafe.Sizeof(colSlot{}), unsafe.Sizeof(RowView{}); a != 16 || b != 32 {
		t.Fatalf("colSlot is %d bytes and RowView %d, want 16 and 32", a, b)
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
// input is decoded under each of rowViewLayouts: under a wide layout as one
// record, under a narrow one as a little-endian u16 row followed by the
// page's data.  The seed corpus (testdata/fuzz/FuzzRowViewDecode,
// TestWriteHeapSeeds) holds records cut from wide pages and rows of narrow
// pages.
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
			data, at := rec, uint32(0)
			if !l.lay.wide() {
				if len(rec) < 2 {
					continue
				}
				data, at = rec[2:], uint32(binary.LittleEndian.Uint16(rec))
			}
			v, err := l.lay.view(string(data), at)
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
			again, err := l.wide.view(string(l.wide.pack(nil, row)), 0)
			if err != nil {
				t.Fatalf("repacked row does not validate: %v", err)
			}
			checkView(t, again, row)
		}
	})
}

// rowViewLayouts are the layouts FuzzRowViewDecode decodes under, each beside
// its table's wide layout: the wide layout of a table of every kind, and the
// narrow layout of the first closed page of each string-free heap case
// (heapCases) filled from seed 5 — streams of every width, NULL bits, scaled
// floats; firstPages returns those pages.
func rowViewLayouts() []struct{ lay, wide *rowLayout } {
	cases := heapCases()
	all := newRowLayout(cases[0].cols)
	out := []struct{ lay, wide *rowLayout }{{all, all}}
	for _, h := range firstPages()[1:] {
		out = append(out, struct{ lay, wide *rowLayout }{h.pages[0].lay, h.lay})
	}
	return out
}

// firstPages fills a heap of each heap case from seed 5 until its first page
// closes.
func firstPages() []*heapStore {
	var out []*heapStore
	for _, c := range heapCases() {
		h := newHeapStore(c.cols)
		rng := rand.New(rand.NewSource(5))
		for i := 0; h.pageCount() < 2; i++ {
			h.append(c.row(rng, i))
		}
		out = append(out, h)
	}
	return out
}

var writeHeapSeeds = flag.Bool("write-heap-seeds", false, "rewrite FuzzHeapPages's and FuzzRowViewDecode's seed corpora")

// TestWriteHeapSeeds rewrites testdata/fuzz/FuzzHeapPages — a random stream
// per heap case — and testdata/fuzz/FuzzRowViewDecode — the first and last
// records of the first closed page of the strings case, and the first and
// last rows of the first closed page of every other case, each with that
// page's data.
// Run it with -write-heap-seeds after changing the heap cases, the page
// format or either harness's input layout.
func TestWriteHeapSeeds(t *testing.T) {
	if !*writeHeapSeeds {
		t.Skip("run with -write-heap-seeds to rewrite the corpora")
	}
	write := func(target string, seeds map[string][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	name := func(c heapCase) string { return strings.ReplaceAll(c.name, " ", "-") }
	cases, pages := heapCases(), firstPages()
	streams, views := map[string][]byte{}, map[string][]byte{}
	rng := rand.New(rand.NewSource(43))
	for i, c := range cases {
		data := make([]byte, 2+2*(64+rng.Intn(192)))
		rng.Read(data)
		binary.LittleEndian.PutUint16(data, uint16(i))
		streams["random-"+name(c)] = data
		p := &pages[i].pages[0]
		for _, slot := range []int{0, p.rows() - 1} {
			key := fmt.Sprintf("closed-%s-%s-slot-%d", map[bool]string{true: "wide", false: "narrow"}[p.lay.wide()], name(c), slot)
			if p.lay.wide() {
				views[key] = []byte(rowAt(p, slot).rec)
			} else {
				views[key] = append(binary.LittleEndian.AppendUint16(nil, uint16(slot)), p.data...)
			}
		}
	}
	write("FuzzHeapPages", streams)
	write("FuzzRowViewDecode", views)
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
