package parallel

import (
	"fmt"
	"strings"
	"testing"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// testServerWithIndexes builds a DES server whose objects table carries the
// Figure 8 indices under the given build policy.
func testServerWithIndexes(t *testing.T, seed int64, build relstore.IndexPolicy) *sqlbatch.Server {
	t.Helper()
	sched := exec.NewDES(seed)
	db := relstore.MustOpen(catalog.NewSchema(), relstore.WithIndexPolicy(build))
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
	if err := tuning.ApplyIndexPolicyWith(db, tuning.HTMIDPlusComposite, build); err != nil {
		t.Fatal(err)
	}
	return sqlbatch.NewServerOn(sched, db, sqlbatch.DefaultServerConfig(), sqlbatch.DefaultCostModel())
}

// dumpIndex renders one index's full contents (key order and row-id order).
func dumpIndex(db *relstore.DB, table, index string) string {
	var b strings.Builder
	ix := db.Table(table).Index(index)
	if ix == nil {
		return "<missing>"
	}
	ix.Tree().AscendRange(nil, nil, func(key []byte, ids []int64) bool {
		vals, err := relstore.DecodeOrderedKey(key)
		if err != nil {
			fmt.Fprintf(&b, "<bad key %x: %v>", key, err)
			return false
		}
		b.WriteString(relstore.EncodeKey(vals))
		for _, id := range ids {
			fmt.Fprintf(&b, " %d", id)
		}
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// TestClusterSealAfterLoad drives the same DES cluster load twice — immediate
// maintenance versus deferred-with-Seal — and requires identical final index
// contents, a seal phase that actually ran (and is charged virtual time), and
// a deferred virtual load time no worse than the immediate one.
func TestClusterSealAfterLoad(t *testing.T) {
	files := testNight(20, 6)
	loaderCfg := core.Config{BatchSize: 40, ArraySize: 500}

	immSrv := testServerWithIndexes(t, 5, relstore.IndexImmediate)
	immRes, err := Run(immSrv, files, Config{Loaders: 3, Loader: loaderCfg})
	if err != nil {
		t.Fatal(err)
	}

	defSrv := testServerWithIndexes(t, 5, relstore.IndexDeferred)
	defRes, err := Run(defSrv, files, Config{Loaders: 3, Loader: loaderCfg, SealAfterLoad: true})
	if err != nil {
		t.Fatal(err)
	}

	if immRes.Total.RowsLoaded != defRes.Total.RowsLoaded {
		t.Fatalf("rows loaded diverge: %d vs %d", immRes.Total.RowsLoaded, defRes.Total.RowsLoaded)
	}
	if !defRes.Seal.Sealed() || len(defRes.Seal.Indexes) != 2 {
		t.Fatalf("deferred run sealed %d indexes, want 2", len(defRes.Seal.Indexes))
	}
	if defRes.SealTime <= 0 {
		t.Fatal("seal phase charged no virtual time")
	}
	if immRes.SealTime != 0 || immRes.Seal.Sealed() {
		t.Fatalf("immediate run reports a seal phase: %+v", immRes.SealTime)
	}
	if got := defSrv.Stats().Seals; got != 1 {
		t.Fatalf("server seals = %d, want 1", got)
	}
	if defSrv.Stats().SealTime <= 0 {
		t.Fatal("server seal time not charged")
	}

	for _, name := range []string{tuning.HTMIDIndexName, tuning.CompositeIndexName} {
		imm := dumpIndex(immSrv.DB(), catalog.TObjects, name)
		def := dumpIndex(defSrv.DB(), catalog.TObjects, name)
		if imm != def {
			t.Fatalf("index %s diverges between immediate and sealed deferred runs", name)
		}
		if !defSrv.DB().Table(catalog.TObjects).Index(name).Ready() {
			t.Fatalf("index %s not ready after SealPhase", name)
		}
	}

	// The whole point of the policy: deferring index maintenance must not
	// cost virtual load time overall (Figure 8's drop-and-rebuild win).
	if defRes.WallTime > immRes.WallTime {
		t.Fatalf("deferred load (%s incl. %s seal) slower than immediate (%s)",
			defRes.WallTime, defRes.SealTime, immRes.WallTime)
	}

	// Determinism: the deferred DES run replays byte-identically.
	defSrv2 := testServerWithIndexes(t, 5, relstore.IndexDeferred)
	defRes2, err := Run(defSrv2, files, Config{Loaders: 3, Loader: loaderCfg, SealAfterLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if defRes2.WallTime != defRes.WallTime || defRes2.SealTime != defRes.SealTime {
		t.Fatalf("deferred DES run not deterministic: %s/%s vs %s/%s",
			defRes2.WallTime, defRes2.SealTime, defRes.WallTime, defRes.SealTime)
	}
}
