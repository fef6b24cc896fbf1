package serve

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/htm"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
)

// testDB returns a catalog database with one committed object and the parent
// chain satisfied.
func testDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.MustOpen(catalog.NewSchema())
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := catalog.SeedReference(txn, 4); err != nil {
		t.Fatal(err)
	}
	ins := func(table string, cols []string, vals []relstore.Value) {
		t.Helper()
		if _, err := txn.Insert(table, cols, vals); err != nil {
			t.Fatalf("insert into %s: %v", table, err)
		}
	}
	ins(catalog.TObservations,
		[]string{"obs_id", "telescope_id", "mjd_start", "ra_center", "dec_center", "airmass", "filter_set"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Float(53600), relstore.Float(120),
			relstore.Float(-30), relstore.Float(1.2), relstore.Str("r")})
	ins(catalog.TCCDColumns,
		[]string{"ccd_col_id", "obs_id", "ccd_id", "ccd_number", "filter", "ra_center", "dec_center"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Int(1), relstore.Int(1),
			relstore.Str("r"), relstore.Float(120), relstore.Float(-30)})
	ins(catalog.TCCDFrames,
		[]string{"frame_id", "ccd_col_id", "frame_number", "mjd_start", "exposure_s"},
		[]relstore.Value{relstore.Int(1), relstore.Int(1), relstore.Int(1), relstore.Float(53600.1), relstore.Float(140)})
	insertObject(t, txn, 1)
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// insertObject inserts one object at a fixed position under the given id,
// with its real htmid so the indexed cone-search path finds it.
func insertObject(t testing.TB, txn *relstore.Txn, id int64) {
	t.Helper()
	const ra, dec = 120.01, -30.01
	v := htm.FromRaDec(ra, dec)
	if _, err := txn.Insert(catalog.TObjects,
		[]string{"object_id", "frame_id", "ra", "dec", "htmid", "cx", "cy", "cz", "mag"},
		[]relstore.Value{relstore.Int(id), relstore.Int(1), relstore.Float(ra), relstore.Float(dec),
			relstore.Int(htm.MustLookup(ra, dec, htm.DefaultDepth)),
			relstore.Float(v.X), relstore.Float(v.Y), relstore.Float(v.Z),
			relstore.Float(18)}); err != nil {
		t.Fatalf("insert object %d: %v", id, err)
	}
}

func lookupResult(n int64) queries.Result {
	return queries.Result{Objects: []queries.Object{{ObjectID: n}}}
}

func TestCacheHitAndEpochInvalidation(t *testing.T) {
	db := testDB(t)
	c := newCache(2, 8)
	table := catalog.TObjects

	epoch, clean := db.ReadStamp(table)
	if !clean {
		t.Fatal("settled database reported dirty")
	}
	if !c.Put(db, "k1", table, epoch, lookupResult(1), []byte("body-1")) {
		t.Fatal("Put refused a current epoch")
	}
	if res, body, ok := c.Get(db, "k1"); !ok || res.Objects[0].ObjectID != 1 || string(body) != "body-1" {
		t.Fatalf("Get after Put = (%+v, %q, %v)", res, body, ok)
	}
	if n := c.Stats().BodyBytes; n != 6 {
		t.Fatalf("BodyBytes = %d, want 6", n)
	}

	// A commit to the table supersedes the entry.
	txn, _ := db.Begin()
	insertObject(t, txn, 2)
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(db, "k1"); ok {
		t.Fatal("cache served a result from a superseded epoch")
	}
	st := c.Stats()
	if st.StaleHits != 1 {
		t.Fatalf("stale hits = %d, want 1", st.StaleHits)
	}
	if st.Entries != 0 || st.BodyBytes != 0 {
		t.Fatalf("stale entry not evicted: %d entries, %d body bytes", st.Entries, st.BodyBytes)
	}

	// Put with the outdated epoch must refuse, body and all.
	if c.Put(db, "k1", table, epoch, lookupResult(1), []byte("body-1")) {
		t.Fatal("Put accepted an outdated epoch")
	}
	if _, _, ok := c.Get(db, "k1"); ok || c.Stats().BodyBytes != 0 {
		t.Fatal("a refused Put left its entry or its body behind")
	}

	// A rollback also supersedes: rows were transiently visible.
	epoch2, _ := db.ReadStamp(table)
	if !c.Put(db, "k2", table, epoch2, lookupResult(2), nil) {
		t.Fatal("Put refused the fresh epoch")
	}
	txn2, _ := db.Begin()
	insertObject(t, txn2, 3)
	if err := txn2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(db, "k2"); ok {
		t.Fatal("cache served a result across a rollback")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	db := testDB(t)
	c := newCache(1, 2)
	table := catalog.TObjects
	epoch, _ := db.ReadStamp(table)

	c.Put(db, "a", table, epoch, lookupResult(1), []byte("a"))
	c.Put(db, "b", table, epoch, lookupResult(2), []byte("bb"))
	c.Get(db, "a") // refresh a: b is now the LRU victim
	c.Put(db, "c", table, epoch, lookupResult(3), []byte("cccc"))

	if _, _, ok := c.Get(db, "a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, _, ok := c.Get(db, "b"); ok {
		t.Fatal("LRU victim survived")
	}
	if _, _, ok := c.Get(db, "c"); !ok {
		t.Fatal("new entry missing")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// The victim's body left with it; an overwrite replaces a body's bytes.
	c.Put(db, "a", table, epoch, lookupResult(1), []byte("aaaaaaaa"))
	if n := c.Stats().BodyBytes; n != 12 {
		t.Fatalf("BodyBytes = %d, want 12 (a's 8 and c's 4)", n)
	}
}

func TestCacheHitRate(t *testing.T) {
	var st CacheStats
	if st.HitRate() != 0 {
		t.Fatal("empty stats hit rate not 0")
	}
	st = CacheStats{Hits: 3, Misses: 1, StaleHits: 1}
	if got := st.HitRate(); got != 0.6 {
		t.Fatalf("hit rate = %v, want 0.6", got)
	}
}
