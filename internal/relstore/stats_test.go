package relstore

import (
	"testing"
)

// statsSchema builds a small single-table schema for snapshot tests.
func statsSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(&TableSchema{
		Name: "objects",
		Columns: []Column{
			{Name: "object_id", Type: TypeInt},
			{Name: "htmid", Type: TypeInt},
			{Name: "mag", Type: TypeFloat},
		},
		PrimaryKey: []string{"object_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStatsSnapshotUnifiesAccessors(t *testing.T) {
	db, err := Open(statsSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("objects", "ix_htmid", []string{"htmid"}, false); err != nil {
		t.Fatal(err)
	}
	txn, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		if _, err := txn.Insert("objects", []string{"object_id", "htmid", "mag"},
			[]Value{Int(i), Int(1000 + i), Float(14.5)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := db.StatsSnapshot()
	if direct := db.Stats(); snap.DB.RowsInserted != direct.RowsInserted ||
		snap.DB.Commits != direct.Commits ||
		snap.DB.IndexKeyBytes != direct.IndexKeyBytes {
		t.Fatalf("snapshot DB stats diverge from DB.Stats(): %+v vs %+v", snap.DB, direct)
	}
	if snap.WAL != db.WAL().Stats() {
		t.Errorf("snapshot WAL stats %+v != WAL().Stats() %+v", snap.WAL, db.WAL().Stats())
	}
	if snap.TotalRows != 50 {
		t.Errorf("TotalRows = %d, want 50", snap.TotalRows)
	}
	if len(snap.Indexes) != 1 {
		t.Fatalf("got %d index stats, want 1", len(snap.Indexes))
	}
	ix := snap.Indexes[0]
	if ix.Table != "objects" || ix.Name != "ix_htmid" || !ix.Ready || ix.Unique {
		t.Errorf("index stat = %+v", ix)
	}
	if ix.KeyBytes <= 0 || ix.ArenaBytes < ix.KeyBytes {
		t.Errorf("index memory accounting: key=%d arena=%d", ix.KeyBytes, ix.ArenaBytes)
	}
	if snap.DB.IndexKeyBytes != ix.KeyBytes || snap.DB.IndexArenaBytes != ix.ArenaBytes {
		t.Errorf("per-index bytes (%d/%d) disagree with DBStats aggregate (%d/%d)",
			ix.KeyBytes, ix.ArenaBytes, snap.DB.IndexKeyBytes, snap.DB.IndexArenaBytes)
	}
	if snap.Loading {
		t.Error("Loading true outside a load phase")
	}
}

func TestReadyGatedOnDeferredIndexes(t *testing.T) {
	db, err := Open(statsSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexWith("objects", "ix_htmid", []string{"htmid"}, false, IndexDeferred); err != nil {
		t.Fatal(err)
	}
	if !db.Ready() {
		t.Fatal("Ready() false before any load phase")
	}
	if err := db.BeginLoad(); err != nil {
		t.Fatal(err)
	}
	if db.Ready() {
		t.Error("Ready() true during a load phase with a suspended deferred index")
	}
	snap := db.StatsSnapshot()
	if !snap.Loading {
		t.Error("snapshot Loading false during load phase")
	}
	if len(snap.Indexes) != 1 || snap.Indexes[0].Ready {
		t.Errorf("suspended index reported ready: %+v", snap.Indexes)
	}
	if _, err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if !db.Ready() {
		t.Error("Ready() false after Seal")
	}
}
