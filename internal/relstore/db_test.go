package relstore

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func insertFrame(t *testing.T, txn *Txn, id int64) {
	t.Helper()
	if _, err := txn.Insert("frames", []string{"frame_id", "exposure"}, []Value{Int(id), Float(145.0)}); err != nil {
		t.Fatalf("insert frame %d: %v", id, err)
	}
}

func insertObject(t *testing.T, txn *Txn, id, frame int64, mag float64) error {
	t.Helper()
	_, err := txn.Insert("objects", []string{"object_id", "frame_id", "mag"}, []Value{Int(id), Int(frame), Float(mag)})
	return err
}

// fingerCols is the column list of fingerRow.
var fingerCols = []string{"finger_id", "object_id", "flux"}

// fingersDB builds a database whose "fingers" table exercises every check and
// key path of a stored row — a foreign key, the primary key, a composite
// unique constraint and one secondary B-tree index — with one frame and
// objects 0..objects-1 committed for fingers to point at.
func fingersDB(tb testing.TB, objects int64) *DB {
	tb.Helper()
	db, err := Open(testSchema(tb))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateIndexWith("fingers", "ix_flux", []string{"flux"}, false, IndexImmediate); err != nil {
		tb.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := txn.Insert("frames", []string{"frame_id"}, []Value{Int(0)}); err != nil {
		tb.Fatal(err)
	}
	for o := int64(0); o < objects; o++ {
		if _, err := txn.Insert("objects", []string{"object_id", "frame_id", "mag"}, []Value{Int(o), Int(0), Float(20)}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// fingerRow fills vals with finger i: object i/spread and flux i%spread, so
// (object_id, flux) stays unique and each flux value holds every spread-th
// row.
func fingerRow(vals []Value, i, spread int64) {
	vals[0], vals[1], vals[2] = Int(i), Int(i/spread), Float(float64(i%spread))
}

func TestInsertAndQuery(t *testing.T) {
	db := newTestDB(t)
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	insertFrame(t, txn, 1)
	for i := int64(1); i <= 10; i++ {
		if err := insertObject(t, txn, i, 1, 15+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("objects"); n != 10 {
		t.Fatalf("Count = %d, want 10", n)
	}
	row, err := db.LookupByPK("objects", []Value{Int(3)})
	if err != nil || row == nil {
		t.Fatalf("LookupByPK failed: %v %v", row, err)
	}
	if row[2].Float() != 18 {
		t.Fatalf("mag = %v, want 18", row[2])
	}
	bright := 0
	err = db.Scan("objects", func(r Row) bool {
		if r[2].F > 20 {
			bright++
		}
		return true
	})
	if err != nil || bright != 5 {
		t.Fatalf("Scan found %d rows with mag > 20, want 5 (err=%v)", bright, err)
	}
	n, lo, hi := 0, 100.0, 0.0
	err = db.ScanRef("objects", func(v RowView) bool {
		n++
		lo, hi = min(lo, v.Float(2)), max(hi, v.Float(2))
		return true
	})
	if err != nil || n != 10 || lo != 16 || hi != 25 {
		t.Fatalf("ScanRef saw %d rows, mag %v..%v (err=%v)", n, lo, hi, err)
	}
	if orphans, _ := db.VerifyIntegrity(); orphans != 0 {
		t.Fatalf("orphans = %d", orphans)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
}

func TestConstraintViolations(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	if err := insertObject(t, txn, 1, 1, 20); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		fn   func() error
		kind ConstraintKind
	}{
		{"duplicate pk", func() error { return insertObject(t, txn, 1, 1, 21) }, KindPrimaryKey},
		{"missing parent", func() error { return insertObject(t, txn, 2, 99, 21) }, KindForeignKey},
		{"check violation", func() error { return insertObject(t, txn, 3, 1, 99) }, KindCheck},
		{"NaN against a range check", func() error { return insertObject(t, txn, 3, 1, math.NaN()) }, KindCheck},
		{"not null", func() error {
			_, err := txn.Insert("objects", []string{"object_id", "frame_id"}, []Value{Int(4), Int(1)})
			return err
		}, KindNotNull},
		{"type mismatch", func() error {
			_, err := txn.Insert("objects", []string{"object_id", "frame_id", "mag"}, []Value{Str("zzz"), Int(1), Float(20.0)})
			return err
		}, KindType},
		{"arity mismatch", func() error {
			_, err := txn.Insert("objects", []string{"object_id"}, []Value{Int(5), Int(1)})
			return err
		}, KindArity},
		{"unknown column", func() error {
			_, err := txn.Insert("objects", []string{"object_id", "frame_id", "nope"}, []Value{Int(6), Int(1), Float(1.0)})
			return err
		}, KindArity},
		{"unknown table", func() error {
			_, err := txn.Insert("nope", []string{"x"}, []Value{Int(1)})
			return err
		}, KindUnknownTable},
	}
	for _, c := range cases {
		err := c.fn()
		if err == nil {
			t.Errorf("%s: expected violation", c.name)
			continue
		}
		kind, ok := ViolationKind(err)
		if !ok || kind != c.kind {
			t.Errorf("%s: got kind %v (%v), want %v", c.name, kind, err, c.kind)
		}
		if !IsConstraintViolation(err) {
			t.Errorf("%s: IsConstraintViolation = false", c.name)
		}
	}

	// The failed inserts must not have stored anything.
	if n, _ := db.Count("objects"); n != 1 {
		t.Fatalf("object count = %d, want 1", n)
	}
	st := db.Stats()
	if st.RowsRejected == 0 || st.ConstraintViolations[KindPrimaryKey] != 1 {
		t.Fatalf("stats did not record violations: %+v", st)
	}
}

func TestUniqueConstraint(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	if err := insertObject(t, txn, 1, 1, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("fingers", []string{"finger_id", "object_id", "flux"}, []Value{Int(1), Int(1), Float(5.0)}); err != nil {
		t.Fatal(err)
	}
	_, err := txn.Insert("fingers", []string{"finger_id", "object_id", "flux"}, []Value{Int(2), Int(1), Float(5.0)})
	if kind, _ := ViolationKind(err); kind != KindUnique {
		t.Fatalf("expected unique violation, got %v", err)
	}
	// A different flux value is fine.
	if _, err := txn.Insert("fingers", []string{"finger_id", "object_id", "flux"}, []Value{Int(2), Int(1), Float(6.0)}); err != nil {
		t.Fatal(err)
	}
}

func TestNullForeignKeyAllowed(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	if err := insertObject(t, txn, 1, 1, 20); err != nil {
		t.Fatal(err)
	}
	// fingers.flux is nullable and part of a unique key; a NULL FK component
	// (object_id is NOT NULL here, so use flux NULL) exercises the nullable
	// path of unique handling instead.
	if _, err := txn.Insert("fingers", []string{"finger_id", "object_id"}, []Value{Int(1), Int(1)}); err != nil {
		t.Fatalf("nullable column insert failed: %v", err)
	}
}

func TestRollbackUndoesInserts(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	for i := int64(1); i <= 5; i++ {
		if err := insertObject(t, txn, i, 1, 20); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("objects"); n != 0 {
		t.Fatalf("rollback left %d objects", n)
	}
	if n, _ := db.Count("frames"); n != 0 {
		t.Fatalf("rollback left %d frames", n)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
	// The keys can be reinserted afterwards.
	txn2, _ := db.Begin()
	insertFrame(t, txn2, 1)
	if err := insertObject(t, txn2, 1, 1, 20); err != nil {
		t.Fatalf("reinsert after rollback failed: %v", err)
	}
	if _, err := txn2.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Rollbacks != 1 || db.Stats().Commits != 1 {
		t.Fatalf("stats: %+v", db.Stats())
	}
}

func TestTxnLifecycleErrors(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	if err := txn.Rollback(); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("rollback after commit: %v", err)
	}
	if _, err := txn.Insert("frames", []string{"frame_id"}, []Value{Int(1)}); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("insert after commit: %v", err)
	}
}

func TestSecondaryIndexes(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	for i := int64(1); i <= 100; i++ {
		if err := insertObject(t, txn, i, 1, float64(10+i%20)); err != nil {
			t.Fatal(err)
		}
	}
	// Create an index on a populated table (backfill).
	if _, err := db.CreateIndexWith("objects", "ix_mag", []string{"mag"}, false, IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexWith("objects", "ix_mag", []string{"mag"}, false, IndexImmediate); !errors.Is(err, ErrIndexExists) {
		t.Fatalf("duplicate index: %v", err)
	}
	mag15 := []Value{Float(15)}
	rows, err := db.RangeIndexed("objects", "ix_mag", mag15, mag15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("indexed lookup returned %d rows", len(rows))
	}
	ranged, err := db.RangeIndexed("objects", "ix_mag", []Value{Float(10)}, []Value{Float(12)}, 0)
	if err != nil || len(ranged) != 15 {
		t.Fatalf("RangeIndexed returned %d rows (err=%v)", len(ranged), err)
	}
	// New inserts maintain the index.
	if err := insertObject(t, txn, 200, 1, 15); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.RangeIndexed("objects", "ix_mag", mag15, mag15, 0)
	if len(rows) != 6 {
		t.Fatalf("index not maintained: %d rows", len(rows))
	}
	if got := len(db.Table("objects").Indexes()); got != 1 {
		t.Fatalf("Indexes = %d", got)
	}
	if err := db.DropIndex("objects", "ix_mag"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("objects", "ix_mag"); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("double drop: %v", err)
	}
	if _, err := db.RangeIndexed("objects", "ix_mag", mag15, mag15, 0); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatalf("query on dropped index: %v", err)
	}
}

func TestIndexCostReporting(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.CreateIndexWith("objects", "ix_mag", []string{"mag"}, false, IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexWith("objects", "ix_pair", []string{"mag", "frame_id"}, false, IndexImmediate); err != nil {
		t.Fatal(err)
	}
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	rep, err := txn.Insert("objects", []string{"object_id", "frame_id", "mag"}, []Value{Int(1), Int(1), Float(20.0)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IndexNodesVisited == 0 {
		t.Fatal("no index nodes visited reported")
	}
	if rep.IndexFloatColNodeVisits == 0 || rep.IndexIntColNodeVisits == 0 {
		t.Fatalf("per-type visits missing: %+v", rep)
	}
	if rep.RowBytes == 0 || rep.IndexEntryBytes == 0 || rep.RowsInserted != 1 || rep.ConstraintChecks == 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
}

func TestQueryErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Count("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("Count missing: %v", err)
	}
	if err := db.Scan("missing", nil); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("Scan missing: %v", err)
	}
	if _, err := db.RangeIndexed("missing", "ix_mag", nil, nil, 0); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("RangeIndexed missing: %v", err)
	}
}

// TestWALAccounting: with a WAL directory a commit counts once, as a commit
// and as a sync, and reaches the segment files — its bytes appended and an
// fsync issued.
func TestWALAccounting(t *testing.T) {
	db, _ := durableDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	if rep, err := txn.Commit(); err != nil || rep.UndoRecordsDiscarded != 1 {
		t.Fatalf("commit: %+v %v", rep, err)
	}
	st := db.WAL().Stats()
	if !st.Durable || st.Commits != 1 || st.Syncs != 1 || st.DurableBytes == 0 || st.DurableSyncs == 0 {
		t.Fatalf("WAL stats: %+v", st)
	}
}

// TestCacheAccounting pins the engine's half of the data-cache model, which
// lives in sqlbatch: every insert call reports the heap pages it wrote and
// the pages it opened, a rejected row reports none, and OpReport.Add carries
// both across calls — a count Add dropped would move every DES figure.
func TestCacheAccounting(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	cols := []string{"frame_id", "exposure"}
	var sum OpReport
	for i := int64(1); i <= 2000; i++ {
		rep, err := txn.Insert("frames", cols, []Value{Int(i), Float(145.0)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FirstPage != rep.LastPage || rep.LastPage < sum.LastPage {
			t.Fatalf("row %d wrote pages %d..%d after page %d", i, rep.FirstPage, rep.LastPage, sum.LastPage)
		}
		sum.Add(rep)
	}
	pages := db.Table("frames").PageCount()
	if pages < 2 || sum.FreshPages != pages || sum.FirstPage != 0 || sum.LastPage != pages-1 {
		t.Fatalf("2000 rows: fresh %d, pages %d..%d; the table has %d pages", sum.FreshPages, sum.FirstPage, sum.LastPage, pages)
	}
	if rep, err := txn.Insert("frames", cols, []Value{Int(1), Float(145.0)}); err == nil || rep.RowsInserted != 0 || rep.FreshPages != 0 {
		t.Fatalf("duplicate row: %+v, %v", rep, err)
	}
	rows := make([][]Value, 2000)
	for i := range rows {
		rows[i] = []Value{Int(int64(3000 + i)), Float(145.0)}
	}
	br, err := txn.InsertBatch("frames", cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	after := db.Table("frames").PageCount()
	if rep := br.Report; rep.FirstPage != pages-1 || rep.LastPage != after-1 || rep.FreshPages != after-pages {
		t.Fatalf("batch wrote pages %d..%d, %d fresh; want %d..%d, %d", rep.FirstPage, rep.LastPage, rep.FreshPages, pages-1, after-1, after-pages)
	}
}

// TestInsertRejectionNeverStoresProperty: for arbitrary object ids and mags,
// either the insert succeeds and the row is retrievable, or it fails and the
// row count is unchanged.
func TestInsertRejectionNeverStoresProperty(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	seen := map[int64]bool{}
	f := func(id int64, mag float64) bool {
		if id < 0 {
			id = -id
		}
		before, _ := db.Count("objects")
		err := insertObject(t, txn, id, 1, mag)
		after, _ := db.Count("objects")
		expectOK := !seen[id] && mag >= 0 && mag <= 40
		if expectOK {
			if err != nil {
				return false
			}
			seen[id] = true
			return after == before+1
		}
		return err != nil && after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalsAndRowCounts(t *testing.T) {
	db := newTestDB(t)
	txn, _ := db.Begin()
	insertFrame(t, txn, 1)
	insertFrame(t, txn, 2)
	if err := insertObject(t, txn, 1, 1, 20); err != nil {
		t.Fatal(err)
	}
	counts := db.RowCounts()
	if counts["frames"] != 2 || counts["objects"] != 1 || counts["fingers"] != 0 {
		t.Fatalf("RowCounts = %v", counts)
	}
	if db.TotalRows() != 3 {
		t.Fatalf("TotalRows = %d", db.TotalRows())
	}
}

// TestConfigSurface pins the exact field set of Config, so a new engine knob
// (or a removed one) is a visible decision rather than a quiet diff.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"WALDir", "CheckpointEveryBytes", "WALSegmentBytes",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		got = append(got, f.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("relstore.Config fields changed:\n got  %v\n want %v\n"+
			"update the Knob audit table in PERFORMANCE.md (who sets the field, and its measured verdict), then this list",
			got, want)
	}
}
