package relstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stateDigest hashes every table's next row id and every live (id, row).
func stateDigest(db *DB) string {
	h := sha256.New()
	for _, name := range db.Schema().TableNames() {
		t := db.Table(name)
		t.mu.RLock()
		fmt.Fprintf(h, "%s next=%d\n", name, t.nextRow)
		t.scanRowsByID(func(id int64, r RowView) {
			fmt.Fprintf(h, "%d %s\n", id, EncodeKey(r.Row()))
		})
		t.mu.RUnlock()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRecoverParentWrittenDirectory is the on-disk compatibility fence: a WAL
// directory (one checkpoint, two segments, an uncommitted tail) written by the
// build that still had its own framing code recovers under this one to the
// state that build recorded.  See testdata/parent_wal/README.
func TestRecoverParentWrittenDirectory(t *testing.T) {
	const src = "testdata/parent_wal"
	want, err := os.ReadFile(filepath.Join(src, "DIGEST"))
	if err != nil {
		t.Fatal(err)
	}
	// Recover truncates and resumes the log, so it works on a copy.
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		_, seg := parseLogName(e.Name(), walSegPrefix, walSegSuffix)
		_, ckpt := parseLogName(e.Name(), ckptPrefix, ckptSuffix)
		if !seg && !ckpt {
			continue // README, DIGEST
		}
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db, rep, err := Recover(testSchema(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := stateDigest(db); got != strings.TrimSpace(string(want)) {
		t.Fatalf("recovered state digest %s, the writing build recorded %s", got, want)
	}
	if rep.CheckpointSeq != 1 || rep.CheckpointRows == 0 || rep.ReplayedRows == 0 ||
		rep.DiscardedTxns != 2 || rep.TornTailRecords != 0 {
		// Discarded: the post-checkpoint rollback and the uncommitted tail.
		t.Fatalf("fixture no longer exercises checkpoint + replay + discarded transactions: %+v", rep)
	}
	if orphans, err := db.VerifyIntegrity(); err != nil || orphans != 0 {
		t.Fatalf("recovered integrity: orphans=%d err=%v", orphans, err)
	}
}
