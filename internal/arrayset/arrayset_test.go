package arrayset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
)

func newSet(t *testing.T, cfg Config) *ArraySet {
	t.Helper()
	s, err := New(catalog.NewSchema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func objRow(id int64) ([]string, []relstore.Value) {
	return []string{"object_id", "frame_id", "ra", "dec", "mag"},
		[]relstore.Value{relstore.Int(id), relstore.Int(1), relstore.Float(10.0), relstore.Float(10.0), relstore.Float(18.0)}
}

func TestAddCreatesArraysOnDemand(t *testing.T) {
	s := newSet(t, Config{ArraySize: 10})
	cols, vals := objRow(1)
	full, created, err := s.Add(catalog.TObjects, cols, vals, 1)
	if err != nil || full || !created {
		t.Fatalf("first add: full=%v created=%v err=%v", full, created, err)
	}
	_, created, _ = s.Add(catalog.TObjects, cols, vals, 2)
	if created {
		t.Fatal("second add should reuse the array")
	}
	if s.NumArrays() != 1 || s.Len() != 2 || s.ArraysCreated() != 1 {
		t.Fatalf("NumArrays=%d Len=%d Created=%d", s.NumArrays(), s.Len(), s.ArraysCreated())
	}
	arr := s.Array(catalog.TObjects)
	if arr == nil || arr.Len() != 2 || arr.Bytes() == 0 {
		t.Fatalf("array state: %+v", arr)
	}
	if arr.SourceLines[1] != 2 {
		t.Fatalf("source lines not tracked: %v", arr.SourceLines)
	}
}

func TestAddUnknownTable(t *testing.T) {
	s := newSet(t, Config{ArraySize: 10})
	if _, _, err := s.Add("not_a_table", []string{"x"}, []relstore.Value{relstore.Int(1)}, 1); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestFullThreshold(t *testing.T) {
	s := newSet(t, Config{ArraySize: 3, RowOverheadBytes: 100})
	cols, vals := objRow(1)
	for i := 0; i < 2; i++ {
		full, _, _ := s.Add(catalog.TObjects, cols, vals, i)
		if full {
			t.Fatalf("full reported at %d rows", i+1)
		}
	}
	full, _, _ := s.Add(catalog.TObjects, cols, vals, 3)
	if !full {
		t.Fatal("full not reported at threshold")
	}
	// MemoryBytes (the loader's paging-penalty input) counts every buffered
	// row's raw size plus the per-row overhead.
	if want := int64(3 * (relstore.RowSize(vals) + 100)); s.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", s.MemoryBytes(), want)
	}
}

func TestFlushOrderParentsFirst(t *testing.T) {
	s := newSet(t, Config{ArraySize: 100})
	// Add children before parents to prove the order comes from the schema,
	// not from insertion order.
	fngCols := []string{"finger_id", "object_id", "finger_number", "flux"}
	fngVals := []relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Int(1), relstore.Float(10.0)}
	s.Add(catalog.TObjectFingers, fngCols, fngVals, 1)
	cols, vals := objRow(1)
	s.Add(catalog.TObjects, cols, vals, 2)
	frmCols := []string{"frame_id", "ccd_col_id", "frame_number", "mjd_start", "exposure_s"}
	frmVals := []relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Int(0), relstore.Float(53000.0), relstore.Float(145.0)}
	s.Add(catalog.TCCDFrames, frmCols, frmVals, 3)

	order := s.FlushOrder()
	pos := map[string]int{}
	for i, t := range order {
		pos[t] = i
	}
	if !(pos[catalog.TCCDFrames] < pos[catalog.TObjects] && pos[catalog.TObjects] < pos[catalog.TObjectFingers]) {
		t.Fatalf("flush order %v violates parent-before-child", order)
	}
}

func TestDrainResetsAndCounts(t *testing.T) {
	s := newSet(t, Config{ArraySize: 10})
	cols, vals := objRow(1)
	s.Add(catalog.TObjects, cols, vals, 1)
	s.Add(catalog.TObjects, cols, vals, 2)
	arrays := s.Drain()
	if len(arrays) != 1 || arrays[0].Len() != 2 {
		t.Fatalf("drained %d arrays", len(arrays))
	}
	if s.Len() != 0 || s.NumArrays() != 0 || s.MemoryBytes() != 0 {
		t.Fatal("set not reset after drain")
	}
	if s.CyclesFlushed() != 1 {
		t.Fatalf("CyclesFlushed = %d", s.CyclesFlushed())
	}
	// Empty arrays are not returned.
	if got := s.Drain(); len(got) != 0 {
		t.Fatalf("drain of empty set returned %d arrays", len(got))
	}
	if s.ArraysCreated() != 1 {
		t.Fatalf("ArraysCreated = %d (should persist across cycles)", s.ArraysCreated())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(catalog.NewSchema(), Config{ArraySize: 0}); err == nil {
		t.Fatal("zero array size should be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad config")
		}
	}()
	MustNew(catalog.NewSchema(), Config{ArraySize: -1})
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ArraySize != 1000 {
		t.Fatalf("default array size = %d, want the paper's 1000", cfg.ArraySize)
	}
}

// TestFlushOrderIsTopologicalProperty adds rows for random subsets of tables
// and checks the flush order always respects every foreign-key edge.
func TestFlushOrderIsTopologicalProperty(t *testing.T) {
	schema := catalog.NewSchema()
	tables := schema.TableNames()
	f := func(seed int64, picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		if len(picks) > 60 {
			picks = picks[:60]
		}
		rng := rand.New(rand.NewSource(seed))
		s := MustNew(schema, Config{ArraySize: 1_000_000})
		for _, p := range picks {
			table := tables[int(p)%len(tables)]
			ts := schema.Table(table)
			cols := ts.ColumnNames()
			vals := make([]relstore.Value, len(cols))
			for i := range vals {
				vals[i] = relstore.Int(rng.Int63())
			}
			if _, _, err := s.Add(table, cols, vals, 0); err != nil {
				return false
			}
		}
		order := s.FlushOrder()
		pos := map[string]int{}
		for i, name := range order {
			pos[name] = i
		}
		for _, name := range order {
			for _, parent := range schema.Parents(name) {
				if pp, ok := pos[parent]; ok && pp >= pos[name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fillCycle adds n object rows and n/2 finger rows with ids from base and
// string payloads (so a stale or moved slab would show), and returns the rows
// it added per table for comparison.
func fillCycle(t *testing.T, s *ArraySet, base, n int) map[string][][]relstore.Value {
	t.Helper()
	want := map[string][][]relstore.Value{}
	add := func(table string, cols []string, vals []relstore.Value, line int) {
		want[table] = append(want[table], append([]relstore.Value(nil), vals...))
		if _, _, err := s.Add(table, cols, vals, line); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		id := int64(base + i)
		add(catalog.TObjects, []string{"object_id", "frame_id", "ra", "dec", "mag"},
			[]relstore.Value{relstore.Int(id), relstore.Int(1), relstore.Float(float64(id)), relstore.Null, relstore.Str(fmt.Sprint("obj", id))}, base+i)
		if i%2 == 0 {
			add(catalog.TObjectFingers, []string{"finger_id", "object_id", "flux"},
				[]relstore.Value{relstore.Int(id), relstore.Int(id), relstore.Str(fmt.Sprint("fng", id))}, base+i)
		}
	}
	return want
}

func checkArrays(t *testing.T, when string, arrays []*Array, want map[string][][]relstore.Value, base int) {
	t.Helper()
	if len(arrays) != len(want) {
		t.Fatalf("%s: %d arrays, want %d", when, len(arrays), len(want))
	}
	for _, arr := range arrays {
		rows := want[arr.Table]
		if len(arr.Rows) != len(rows) || len(arr.SourceLines) != len(rows) {
			t.Fatalf("%s: %s holds %d rows and %d lines, want %d", when, arr.Table, len(arr.Rows), len(arr.SourceLines), len(rows))
		}
		for i, row := range rows {
			if len(arr.Rows[i]) != len(row) || cap(arr.Rows[i]) != len(row) {
				t.Fatalf("%s: %s row %d has len %d cap %d, want both %d", when, arr.Table, i, len(arr.Rows[i]), cap(arr.Rows[i]), len(row))
			}
			for c := range row {
				if arr.Rows[i][c] != row[c] {
					t.Fatalf("%s: %s row %d column %d = %v, want %v", when, arr.Table, i, c, arr.Rows[i][c], row[c])
				}
			}
		}
		if arr.SourceLines[0] < base {
			t.Fatalf("%s: %s first source line %d, want at least %d", when, arr.Table, arr.SourceLines[0], base)
		}
	}
}

// TestDrainedArraysStayIntact: what Drain returns is the caller's.  Arrays
// that are never recycled (a replay that keeps every cycle, as skyperf's
// staged ingest does) are bit-for-bit what was added after ten more cycles
// through the same set.
func TestDrainedArraysStayIntact(t *testing.T) {
	s := newSet(t, Config{ArraySize: 10_000})
	type cycle struct {
		arrays []*Array
		want   map[string][][]relstore.Value
		base   int
	}
	var kept []cycle
	for c := 0; c <= 10; c++ {
		base := c * 10_000
		want := fillCycle(t, s, base, 300+37*c)
		kept = append(kept, cycle{s.Drain(), want, base})
	}
	for c, k := range kept {
		checkArrays(t, fmt.Sprintf("cycle %d after 10 more", c), k.arrays, k.want, k.base)
	}
}

// TestRecycleReusesBuffers: recycled arrays come back empty, hold none of
// the strings they buffered, and serve the table's next cycle from the same
// row buffer, line buffer and slab.
func TestRecycleReusesBuffers(t *testing.T) {
	s := newSet(t, Config{ArraySize: 10_000})
	fillCycle(t, s, 0, 400)
	first := s.Drain()
	type backing struct {
		arr  *Array
		rows *[]relstore.Value
		line *int
		slab *relstore.Value
	}
	var was []backing
	for _, arr := range first {
		was = append(was, backing{arr, &arr.Rows[0], &arr.SourceLines[0], &arr.slab[:1][0]})
	}
	s.Recycle(first)
	for _, arr := range first {
		if arr.Len() != 0 || len(arr.SourceLines) != 0 || len(arr.slab) != 0 || arr.Bytes() != 0 {
			t.Fatalf("%s recycled with %d rows, %d lines, %d slab values, %d bytes", arr.Table, arr.Len(), len(arr.SourceLines), len(arr.slab), arr.Bytes())
		}
		for _, row := range arr.Rows[:cap(arr.Rows)] {
			if row != nil {
				t.Fatalf("%s: recycled row buffer still references a slab", arr.Table)
			}
		}
		for _, v := range arr.slab[:cap(arr.slab)] {
			if v != relstore.Null {
				t.Fatalf("%s: recycled slab still holds %v", arr.Table, v)
			}
		}
	}
	if s.Len() != 0 || s.NumArrays() != 0 {
		t.Fatalf("set holds %d rows in %d arrays after Recycle", s.Len(), s.NumArrays())
	}

	// A cycle no larger than the one before fits the buffers as they are.
	want := fillCycle(t, s, 5000, 300)
	if got := s.ArraysCreated(); got != 2*len(first) {
		t.Fatalf("ArraysCreated = %d, want %d: a recycled array joining a cycle counts as one", got, 2*len(first))
	}
	second := s.Drain()
	checkArrays(t, "second cycle", second, want, 5000)
	for i, arr := range second {
		b := was[i]
		if arr != b.arr || &arr.Rows[0] != b.rows || &arr.SourceLines[0] != b.line || &arr.slab[:1][0] != b.slab {
			t.Fatalf("%s: second cycle did not reuse the recycled array and its buffers", arr.Table)
		}
	}
}

// TestSlabGrowthLeavesRows: a cycle that outgrows its slab several times
// moves no row already buffered.
func TestSlabGrowthLeavesRows(t *testing.T) {
	s := newSet(t, Config{ArraySize: 10_000})
	cols, vals := objRow(1)
	if _, _, err := s.Add(catalog.TObjects, cols, vals, 1); err != nil {
		t.Fatal(err)
	}
	arr := s.Array(catalog.TObjects)
	firstRow, firstSlab := &arr.Rows[0][0], cap(arr.slab)
	want := fillCycle(t, s, 100, 20*minSlabValues)
	if cap(arr.slab) < 4*firstSlab {
		t.Fatalf("slab capacity %d after %d values: it never grew from %d", cap(arr.slab), 20*minSlabValues*len(vals), firstSlab)
	}
	if &arr.Rows[0][0] != firstRow || arr.Rows[0][0] != vals[0] {
		t.Fatal("the first row moved or changed when the slab grew")
	}
	arrays := s.Drain()
	want[catalog.TObjects] = append([][]relstore.Value{vals}, want[catalog.TObjects]...)
	checkArrays(t, "grown cycle", arrays, want, 0)
}

// TestAddCopiesValues: the buffered row is a copy, so a caller that
// transforms every record into one scratch slice buffers distinct rows.
func TestAddCopiesValues(t *testing.T) {
	s := newSet(t, Config{ArraySize: 10})
	cols, scratch := objRow(1)
	s.Add(catalog.TObjects, cols, scratch, 1)
	scratch[0] = relstore.Int(2)
	s.Add(catalog.TObjects, cols, scratch, 2)
	scratch[0] = relstore.Str("overwritten")
	rows := s.Drain()[0].Rows
	if rows[0][0] != relstore.Int(1) || rows[1][0] != relstore.Int(2) {
		t.Fatalf("buffered ids %v and %v follow the caller's slice", rows[0][0], rows[1][0])
	}
	if cap(rows[0]) != len(rows[0]) {
		t.Fatalf("row has capacity %d beyond its %d values: an append would write into the next row", cap(rows[0]), len(rows[0]))
	}
}
