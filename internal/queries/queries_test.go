package queries

import (
	"math"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/htm"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// loadedRepo loads one synthetic catalog file into a fresh repository with
// the given index policy and returns the database.
func loadedRepo(t *testing.T, policy tuning.IndexPolicy) *relstore.DB {
	t.Helper()
	sched := exec.NewDES(2)
	db := relstore.MustOpen(catalog.NewSchema())
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tuning.ApplyIndexPolicyWith(db, policy, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	server := sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
	file := catalog.Generate(catalog.GenSpec{SizeMB: 6, RowsPerMB: 80, Seed: 33, RunID: 1, IDBase: 1000})
	sched.Spawn("loader", func(w exec.Worker) {
		conn := server.ConnectWorker(w)
		defer conn.Close()
		loader, err := core.NewLoader(conn, core.DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := loader.LoadFiles([]*catalog.File{file}); err != nil {
			t.Error(err)
		}
	})
	sched.Run()
	return db
}

// anyObject returns one loaded object for use as a query target.
func anyObject(t *testing.T, db *relstore.DB) Object {
	t.Helper()
	cols := newObjectCols(db.Schema().Table(catalog.TObjects))
	var obj Object
	found := false
	_ = db.ScanRef(catalog.TObjects, func(r relstore.RowView) bool {
		obj = cols.decode(r)
		found = true
		return false
	})
	if !found {
		t.Fatal("repository holds no objects")
	}
	return obj
}

func TestConeSearchWithIndex(t *testing.T) {
	db := loadedRepo(t, tuning.HTMIDOnly)
	target := anyObject(t, db)
	results, stats, err := coneSearch(db, target.RA, target.Dec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedIndex {
		t.Fatal("cone search did not use the htmid index")
	}
	if stats.TrixelsScanned == 0 {
		t.Fatal("no trixels scanned")
	}
	foundTarget := false
	for _, o := range results {
		if o.ObjectID == target.ObjectID {
			foundTarget = true
		}
		if d := angularDistanceDeg(htm.FromRaDec(target.RA, target.Dec), o.RA, o.Dec); d > 0.1+1e-9 {
			t.Fatalf("object %d at distance %v exceeds the radius", o.ObjectID, d)
		}
	}
	if !foundTarget {
		t.Fatal("cone search missed the object at its own centre")
	}
	if stats.RowsReturned != len(results) {
		t.Fatalf("stats.RowsReturned = %d, want %d", stats.RowsReturned, len(results))
	}
}

func TestConeSearchFullScanFallback(t *testing.T) {
	db := loadedRepo(t, tuning.NoIndexes)
	target := anyObject(t, db)
	results, stats, err := coneSearch(db, target.RA, target.Dec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UsedIndex {
		t.Fatal("no index exists, yet UsedIndex is true")
	}
	total, _ := db.Count(catalog.TObjects)
	if int64(stats.RowsExamined) != total {
		t.Fatalf("full scan examined %d rows, table has %d", stats.RowsExamined, total)
	}
	if len(results) == 0 {
		t.Fatal("fallback found nothing")
	}
}

func TestConeSearchIndexAndScanAgree(t *testing.T) {
	indexed := loadedRepo(t, tuning.HTMIDOnly)
	plain := loadedRepo(t, tuning.NoIndexes)
	target := anyObject(t, indexed)

	withIndex, _, err := coneSearch(indexed, target.RA, target.Dec, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	withScan, _, err := coneSearch(plain, target.RA, target.Dec, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// Both repositories hold the same data (same generator seed), so the two
	// strategies must agree.
	if len(withIndex) != len(withScan) {
		t.Fatalf("index found %d objects, scan found %d", len(withIndex), len(withScan))
	}
	ids := map[int64]bool{}
	for _, o := range withScan {
		ids[o.ObjectID] = true
	}
	for _, o := range withIndex {
		if !ids[o.ObjectID] {
			t.Fatalf("object %d returned by index search but not by scan", o.ObjectID)
		}
	}
}

func TestConeSearchValidation(t *testing.T) {
	db := loadedRepo(t, tuning.HTMIDOnly)
	if _, _, err := coneSearch(db, 10, 10, 0); err == nil {
		t.Fatal("zero radius should be rejected")
	}
	if _, _, err := coneSearch(db, 10, 10, -1); err == nil {
		t.Fatal("negative radius should be rejected")
	}
	if _, _, err := coneSearch(db, 10, 10, math.NaN()); err == nil {
		t.Fatal("NaN radius should be rejected")
	}
}

func TestObjectByID(t *testing.T) {
	db := loadedRepo(t, tuning.HTMIDOnly)
	target := anyObject(t, db)
	obj, err := objectByID(db, target.ObjectID)
	if err != nil || obj == nil {
		t.Fatalf("lookup failed: %v %v", obj, err)
	}
	if obj.RA != target.RA || obj.Mag != target.Mag {
		t.Fatalf("lookup returned a different object: %+v vs %+v", obj, target)
	}
	missing, err := objectByID(db, 999_999_999)
	if err != nil || missing != nil {
		t.Fatalf("missing id should return nil, got %+v (%v)", missing, err)
	}
}

func TestObjectsOnFrame(t *testing.T) {
	db := loadedRepo(t, tuning.HTMIDOnly)
	target := anyObject(t, db)
	objs, stats, err := objectsOnFrame(db, target.FrameID)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) == 0 {
		t.Fatal("frame has no objects")
	}
	for _, o := range objs {
		if o.FrameID != target.FrameID {
			t.Fatalf("object %d belongs to frame %d", o.ObjectID, o.FrameID)
		}
	}
	if stats.RowsReturned != len(objs) {
		t.Fatalf("stats mismatch: %+v", stats)
	}
}

// TestMagnitudeHistogram: at a coarse and at the finest width a request may
// ask for (bin=0.001 spreads the sky's 14-22 magnitudes over thousands of
// bins) the bins come back ascending, none is empty, and their counts sum to
// the objects whose magnitude is not NULL.
func TestMagnitudeHistogram(t *testing.T) {
	db := loadedRepo(t, tuning.HTMIDOnly)
	magIdx := db.Schema().Table(catalog.TObjects).ColumnIndex("mag")
	var withMag int64
	_ = db.ScanRef(catalog.TObjects, func(r relstore.RowView) bool {
		if !r.IsNull(magIdx) {
			withMag++
		}
		return true
	})
	for _, width := range []float64{1.0, 0.001} {
		bins, err := magnitudeHistogram(db, width)
		if err != nil {
			t.Fatal(err)
		}
		if len(bins) == 0 {
			t.Fatalf("bin=%v: no bins", width)
		}
		var total int64
		for i, b := range bins {
			if i > 0 && b.Low <= bins[i-1].Low {
				t.Fatalf("bin=%v: bins not ascending at %d: %+v after %+v", width, i, b, bins[i-1])
			}
			if math.Abs(b.High-b.Low-width) > width*1e-6 {
				t.Fatalf("bin=%v: bin width wrong: %+v", width, b)
			}
			if b.Count <= 0 {
				t.Fatalf("bin=%v: empty bin reported: %+v", width, b)
			}
			total += b.Count
		}
		if total != withMag {
			t.Fatalf("bin=%v: histogram counts %d objects, %d have a magnitude", width, total, withMag)
		}
	}
	if _, err := magnitudeHistogram(db, 0); err == nil {
		t.Fatal("zero bin width should be rejected")
	}
	if _, err := magnitudeHistogram(db, math.NaN()); err == nil {
		t.Fatal("NaN bin width should be rejected")
	}
}

func TestConeCoverDepth(t *testing.T) {
	if d := coneCoverDepth(45); d != 0 {
		t.Fatalf("depth for 45 deg = %d", d)
	}
	small := coneCoverDepth(0.01)
	large := coneCoverDepth(1.0)
	if small <= large {
		t.Fatalf("smaller radii should map to deeper trixels: %d vs %d", small, large)
	}
	if small > 20 {
		t.Fatalf("depth %d exceeds object depth", small)
	}
}
