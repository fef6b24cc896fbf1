package relstore

import (
	"testing"
)

func TestBufferCacheLRU(t *testing.T) {
	c := NewBufferCache(3)
	if c.Capacity() != 3 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
	miss, _ := c.Touch("t", 1, false)
	if !miss {
		t.Fatal("first touch should miss")
	}
	c.Touch("t", 2, false)
	c.Touch("t", 3, false)
	if miss, _ := c.Touch("t", 1, false); miss {
		t.Fatal("page 1 should still be resident")
	}
	// Insert a fourth page; page 2 (least recently used) should be evicted.
	_, evicted := c.Touch("t", 4, true)
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if miss, _ := c.Touch("t", 2, false); !miss {
		t.Fatal("page 2 should have been evicted")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestBufferCacheDirtyTrackingAndFlush(t *testing.T) {
	c := NewBufferCache(10)
	c.Touch("t", 1, true)
	c.Touch("t", 1, true) // same page stays one dirty unit
	c.Touch("t", 2, true)
	c.Touch("t", 3, false)
	if c.DirtySinceFlush() != 2 {
		t.Fatalf("DirtySinceFlush = %d, want 2", c.DirtySinceFlush())
	}
	written, scanned := c.FlushDirty()
	if written != 2 {
		t.Fatalf("written = %d, want 2", written)
	}
	if scanned != c.Capacity() {
		t.Fatalf("scanned = %d, want capacity %d", scanned, c.Capacity())
	}
	if c.DirtySinceFlush() != 0 {
		t.Fatal("dirty counter not reset")
	}
	written, _ = c.FlushDirty()
	if written != 0 {
		t.Fatalf("second flush wrote %d", written)
	}
	st := c.Stats()
	if st.Flushes != 2 || st.ScanWork != int64(2*c.Capacity()) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestBufferCacheMinimumCapacity(t *testing.T) {
	c := NewBufferCache(0)
	if c.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", c.Capacity())
	}
}

func TestWAL(t *testing.T) {
	w := NewWAL()
	n := w.AppendInsert(100)
	if n != 128 {
		t.Fatalf("AppendInsert returned %d, want 128", n)
	}
	w.AppendInsert(100)
	forced := w.AppendCommit()
	if forced != 256+48 {
		t.Fatalf("forced = %d, want 304", forced)
	}
	st := w.Stats()
	if st.Commits != 1 || st.Records != 3 || st.MaxUnsyncedBytes != 256 {
		t.Fatalf("stats: %+v", st)
	}
	// After a commit the unsynced counter restarts.
	w.AppendInsert(10)
	if got := w.AppendCommit(); got != 38+48 {
		t.Fatalf("second commit forced %d", got)
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

func TestLockManagerTableWriters(t *testing.T) {
	m := NewLockManager(0)
	_ = m.Admit(1)
	_ = m.Admit(2)
	other, err := m.LockRows(1, "objects", 10)
	if err != nil || other != 0 {
		t.Fatalf("first writer: other=%d err=%v", other, err)
	}
	other, err = m.LockRows(2, "objects", 5)
	if err != nil || other != 1 {
		t.Fatalf("second writer: other=%d err=%v", other, err)
	}
	if m.TableWriters("objects") != 2 {
		t.Fatalf("TableWriters = %d", m.TableWriters("objects"))
	}
	if _, err := m.LockRows(99, "objects", 1); err == nil {
		t.Fatal("lock by unadmitted txn should fail")
	}
	m.ReleaseAll(1)
	if m.TableWriters("objects") != 1 {
		t.Fatalf("after release TableWriters = %d", m.TableWriters("objects"))
	}
	m.ReleaseAll(2)
	if m.TableWriters("objects") != 0 {
		t.Fatal("writers not cleared")
	}
	if m.Stats().Conflicts != 1 {
		t.Fatalf("conflicts = %d", m.Stats().Conflicts)
	}
	// Releasing an unknown transaction is a no-op.
	m.ReleaseAll(12345)
}

func TestHeapStorePaging(t *testing.T) {
	h := newHeapStore(newRowLayout([]Column{{Name: "blob", Type: TypeString}}))
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
