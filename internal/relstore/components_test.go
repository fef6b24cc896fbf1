package relstore

import (
	"testing"
)

// TestWAL pins what the log counts with no WAL directory: a commit and a
// sync for every commit started, through Commit or CommitStart, nothing for a
// rollback, and nothing durable.
func TestWAL(t *testing.T) {
	db := newTestDB(t)
	for id, start := range []bool{false, true} {
		txn, _ := db.Begin()
		insertFrame(t, txn, int64(id+1))
		var err error
		if start {
			var pc *PendingCommit
			if pc, err = txn.CommitStart(); err == nil {
				_, err = pc.Wait()
			}
		} else {
			_, err = txn.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	txn, _ := db.Begin()
	insertFrame(t, txn, 3)
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if st := db.WAL().Stats(); st != (WALStats{Commits: 2, Syncs: 2}) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLockManagerAdmission(t *testing.T) {
	m := NewLockManager(2)
	if err := m.Admit(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1); err == nil {
		t.Fatal("double admit should fail")
	}
	if err := m.Admit(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(3); err != ErrTooManyTransactions {
		t.Fatalf("expected ErrTooManyTransactions, got %v", err)
	}
	m.ReleaseAll(1)
	if err := m.Admit(3); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if m.ActiveTxns() != 2 {
		t.Fatalf("ActiveTxns = %d", m.ActiveTxns())
	}
	st := m.Stats()
	if st.AdmissionFull != 1 || st.MaxConcurrency != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHeapStorePaging(t *testing.T) {
	h := newHeapStore([]Column{{Name: "blob", Type: TypeString}})
	// Rows of ~1 KB should produce multiple 8 KB pages.
	big := make(Row, 1)
	big[0] = Str(string(make([]byte, 1000)))
	var newPages int
	for i := 0; i < 30; i++ {
		_, fresh, _ := h.append(big)
		if fresh {
			newPages++
		}
	}
	if h.pageCount() < 3 || newPages != h.pageCount() {
		t.Fatalf("pageCount = %d newPages = %d", h.pageCount(), newPages)
	}
	if h.rowCount != 30 {
		t.Fatalf("rowCount = %d", h.rowCount)
	}
	var visited int
	h.scan(func(r RowView) bool {
		if len(r.val(0).S) != 1000 {
			t.Fatalf("row %d: stored string of %d bytes, want 1000", visited, len(r.val(0).S))
		}
		visited++
		return true
	})
	if visited != 30 {
		t.Fatalf("scan visited %d", visited)
	}
}

func TestConstraintErrorMessage(t *testing.T) {
	err := &ConstraintError{Kind: KindCheck, Table: "objects", Constraint: "ck_mag", Column: "mag", Detail: "too big"}
	msg := err.Error()
	for _, want := range []string{"CHECK", "objects", "ck_mag", "mag", "too big"} {
		if !contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
	kinds := []ConstraintKind{KindPrimaryKey, KindForeignKey, KindUnique, KindCheck, KindNotNull, KindType, KindArity, KindUnknownTable}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
