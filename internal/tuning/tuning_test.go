package tuning

import (
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/relstore"
)

func newDB(t *testing.T) *relstore.DB {
	t.Helper()
	return relstore.MustOpen(catalog.NewSchema())
}

func indexNames(db *relstore.DB) []string {
	var names []string
	for _, ix := range db.Table(catalog.TObjects).Indexes() {
		names = append(names, ix.Name)
	}
	return names
}

func TestApplyIndexPolicies(t *testing.T) {
	db := newDB(t)
	if err := ApplyIndexPolicyWith(db, NoIndexes, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 0 {
		t.Fatalf("NoIndexes left %d indexes", n)
	}
	if err := ApplyIndexPolicyWith(db, HTMIDOnly, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	names := indexNames(db)
	if len(names) != 1 || names[0] != HTMIDIndexName {
		t.Fatalf("HTMIDOnly indexes = %v", names)
	}
	if err := ApplyIndexPolicyWith(db, HTMIDPlusComposite, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 2 {
		t.Fatalf("HTMIDPlusComposite indexes = %v", indexNames(db))
	}
	// Applying a policy twice is idempotent.
	if err := ApplyIndexPolicyWith(db, HTMIDPlusComposite, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 2 {
		t.Fatalf("idempotent apply broke indexes: %v", indexNames(db))
	}
	// Going back down drops the composite.
	if err := ApplyIndexPolicyWith(db, HTMIDOnly, relstore.IndexImmediate); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 1 {
		t.Fatalf("downgrade left %v", indexNames(db))
	}
	if err := ApplyIndexPolicyWith(db, IndexPolicy(42), relstore.IndexImmediate); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestIndexPolicyString(t *testing.T) {
	if NoIndexes.String() != "no-indexes" || HTMIDOnly.String() != "htmid-only" || HTMIDPlusComposite.String() != "htmid+composite" {
		t.Fatal("String names wrong")
	}
	if IndexPolicy(9).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

func TestProfiles(t *testing.T) {
	prod := ProductionLoading()
	if prod.Indexes != HTMIDOnly || prod.CommitEveryBatches != 0 || !prod.SeparateRAID {
		t.Fatalf("production profile: %+v", prod)
	}
	unt := Untuned()
	if unt.Indexes != HTMIDPlusComposite || unt.CommitEveryBatches == 0 || unt.SeparateRAID {
		t.Fatalf("untuned profile: %+v", unt)
	}
	qs := QueryServing()
	if qs.CachePages <= prod.CachePages {
		t.Fatalf("query-serving cache should be larger: %+v", qs)
	}
	if prod.ServerConfig().CachePages != prod.CachePages {
		t.Fatal("ServerConfig does not carry cache size")
	}
	if unt.ServerConfig().SeparateRAID {
		t.Fatal("ServerConfig does not carry RAID layout")
	}
	db := newDB(t)
	if err := ApplyIndexPolicyWith(db, prod.Indexes, prod.BuildPolicy()); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 1 {
		t.Fatalf("production indexes = %v", indexNames(db))
	}
}

func TestDeferredProfileAppliesEnginePolicy(t *testing.T) {
	prof := ProductionLoading()
	prof.Indexes = HTMIDPlusComposite
	prof.DeferredIndexBuild = true
	if prof.BuildPolicy() != relstore.IndexDeferred {
		t.Fatalf("BuildPolicy = %v, want deferred", prof.BuildPolicy())
	}
	db, err := prof.Open()
	if err != nil {
		t.Fatal(err)
	}
	if db.IndexPolicyDefault() != relstore.IndexDeferred {
		t.Fatalf("IndexPolicyDefault = %v, want deferred", db.IndexPolicyDefault())
	}
	checkDeferred(t, db, 2)
}

// checkDeferred asserts that db holds want indices, each ready outside a
// load phase and suspended inside one: maintained under IndexDeferred.
func checkDeferred(t *testing.T, db *relstore.DB, want int) {
	t.Helper()
	indexes := db.Table(catalog.TObjects).Indexes()
	if len(indexes) != want {
		t.Fatalf("indices = %v, want %d", indexNames(db), want)
	}
	for _, ix := range indexes {
		if !ix.Ready() {
			t.Fatalf("index %s not ready outside a load phase", ix.Name)
		}
	}
	if err := db.BeginLoad(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range indexes {
		if ix.Ready() {
			t.Fatalf("index %s still maintained in a load phase, want deferred", ix.Name)
		}
	}
}

func TestApplyIndexPolicyKeepsDDLStatsClean(t *testing.T) {
	db := newDB(t)
	for _, p := range []IndexPolicy{NoIndexes, HTMIDOnly, HTMIDPlusComposite, HTMIDOnly} {
		if err := ApplyIndexPolicyWith(db, p, relstore.IndexImmediate); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats(); st.IndexDDLFailures != 0 {
		t.Fatalf("IndexDDLFailures = %d after policy switches, want 0", st.IndexDDLFailures)
	}
}

// TestOpenRepository: the one constructor the tools share seeds the reference
// tables (32 observing runs) and creates the policy's indices under the
// database's default maintenance policy; Profile.Open is the same thing under
// a profile, with extra options winning over the profile's.
func TestOpenRepository(t *testing.T) {
	db, err := OpenRepository(HTMIDPlusComposite, relstore.WithIndexPolicy(relstore.IndexDeferred))
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Table(catalog.TObservingRuns).RowCount(); n != 32 {
		t.Fatalf("observing runs = %d, want 32", n)
	}
	if n := db.Table(catalog.TCCDs).RowCount(); n != catalog.NumCCDsPerInstrument {
		t.Fatalf("ccds = %d, want %d", n, catalog.NumCCDsPerInstrument)
	}
	checkDeferred(t, db, 2) // htmid + composite, under the database default

	prof, err := ProfileByName("prod")
	if err != nil || prof.Name != ProductionLoading().Name {
		t.Fatalf("ProfileByName(prod) = %+v, %v", prof, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile name accepted")
	}
	pdb, err := prof.Open(relstore.WithWALSegmentBytes(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if got := indexNames(pdb); len(got) != 1 || got[0] != HTMIDIndexName {
		t.Fatalf("production profile indices = %v", got)
	}
	if cfg := pdb.Config(); cfg != (relstore.Config{WALSegmentBytes: 1 << 20}) {
		t.Fatalf("config = %+v: want the profile's zero Config with the extra option's segment size", cfg)
	}
}
