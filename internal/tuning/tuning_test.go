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
	for _, ix := range db.AllIndexes() {
		names = append(names, ix.Name)
	}
	return names
}

func TestApplyIndexPolicies(t *testing.T) {
	db := newDB(t)
	if err := ApplyIndexPolicy(db, NoIndexes); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 0 {
		t.Fatalf("NoIndexes left %d indexes", n)
	}
	if err := ApplyIndexPolicy(db, HTMIDOnly); err != nil {
		t.Fatal(err)
	}
	names := indexNames(db)
	if len(names) != 1 || names[0] != HTMIDIndexName {
		t.Fatalf("HTMIDOnly indexes = %v", names)
	}
	if err := ApplyIndexPolicy(db, HTMIDPlusComposite); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 2 {
		t.Fatalf("HTMIDPlusComposite indexes = %v", indexNames(db))
	}
	// Applying a policy twice is idempotent.
	if err := ApplyIndexPolicy(db, HTMIDPlusComposite); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 2 {
		t.Fatalf("idempotent apply broke indexes: %v", indexNames(db))
	}
	// Going back down drops the composite.
	if err := ApplyIndexPolicy(db, HTMIDOnly); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 1 {
		t.Fatalf("downgrade left %v", indexNames(db))
	}
	if err := ApplyIndexPolicy(db, IndexPolicy(42)); err == nil {
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
	if err := prod.Apply(db); err != nil {
		t.Fatal(err)
	}
	if n := len(indexNames(db)); n != 1 {
		t.Fatalf("Apply(production) indexes = %v", indexNames(db))
	}
}

func TestDeferredProfileAppliesEnginePolicy(t *testing.T) {
	db := newDB(t)
	prof := ProductionLoading()
	prof.Indexes = HTMIDPlusComposite
	prof.DeferredIndexBuild = true
	if prof.BuildPolicy() != relstore.IndexDeferred {
		t.Fatalf("BuildPolicy = %v, want deferred", prof.BuildPolicy())
	}
	if err := prof.Apply(db); err != nil {
		t.Fatal(err)
	}
	for _, ix := range db.AllIndexes() {
		if ix.Policy() != relstore.IndexDeferred {
			t.Fatalf("index %s policy = %v, want deferred", ix.Name, ix.Policy())
		}
		if !ix.Ready() {
			t.Fatalf("index %s not ready outside a load phase", ix.Name)
		}
	}
	// Options() carries the same policy into Open: indexes created through
	// the default CreateIndex inherit it.
	db2 := relstore.MustOpen(catalog.NewSchema(), prof.Options()...)
	if _, err := db2.CreateIndex(catalog.TObjects, "ix_probe", []string{"htmid"}, false); err != nil {
		t.Fatal(err)
	}
	if got := db2.Table(catalog.TObjects).Index("ix_probe").Policy(); got != relstore.IndexDeferred {
		t.Fatalf("default-created index policy = %v, want deferred", got)
	}
}

func TestApplyIndexPolicyKeepsDDLStatsClean(t *testing.T) {
	db := newDB(t)
	for _, p := range []IndexPolicy{NoIndexes, HTMIDOnly, HTMIDPlusComposite, HTMIDOnly} {
		if err := ApplyIndexPolicy(db, p); err != nil {
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
	if got := indexNames(db); len(got) != 2 {
		t.Fatalf("indices = %v, want htmid + composite", got)
	}
	for _, ix := range db.AllIndexes() {
		if ix.Policy() != relstore.IndexDeferred {
			t.Fatalf("index %s policy = %v, want the database default (deferred)", ix.Name, ix.Policy())
		}
	}

	prof, err := ProfileByName("prod")
	if err != nil || prof.Name != ProductionLoading().Name {
		t.Fatalf("ProfileByName(prod) = %+v, %v", prof, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile name accepted")
	}
	pdb, err := prof.Open(relstore.WithBTreeDegree(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := indexNames(pdb); len(got) != 1 || got[0] != HTMIDIndexName {
		t.Fatalf("production profile indices = %v", got)
	}
	if cfg := pdb.Config(); cfg.MaxConcurrentTxns != prof.DBConfig().MaxConcurrentTxns || cfg.BTreeDegree != 16 {
		t.Fatalf("config = %+v: want the profile's transaction limit and the extra option's B-tree degree", cfg)
	}
}
