package relstore

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestWALAppendAccounting checks the byte and record arithmetic of the three
// append paths against hand-computed values.
func TestWALAppendAccounting(t *testing.T) {
	w := NewWAL()

	if got := w.AppendInsert(100); got != 128 {
		t.Fatalf("AppendInsert(100) = %d, want 128 (payload+28 header)", got)
	}
	// A group of 5 rows: one 28-byte header, a 4-byte slot per row.
	if got := w.AppendInsertGroup(5, 500); got != 500+28+5*4 {
		t.Fatalf("AppendInsertGroup(5, 500) = %d, want %d", got, 500+28+5*4)
	}
	if got := w.AppendInsertGroup(0, 999); got != 0 {
		t.Fatalf("AppendInsertGroup(0, _) = %d, want 0 (empty group writes nothing)", got)
	}
	st := w.Stats()
	if st.Records != 2 {
		t.Fatalf("Records = %d, want 2 (one insert, one group)", st.Records)
	}
	if st.GroupRecords != 1 || st.GroupedRows != 5 {
		t.Fatalf("GroupRecords/GroupedRows = %d/%d, want 1/5", st.GroupRecords, st.GroupedRows)
	}
	wantBytes := int64(128 + 548)
	if st.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, wantBytes)
	}
	if st.MaxUnsyncedBytes != wantBytes {
		t.Fatalf("MaxUnsyncedBytes = %d, want %d (no sync yet)", st.MaxUnsyncedBytes, wantBytes)
	}

	forced := w.AppendCommit()
	if forced != wantBytes+48 {
		t.Fatalf("AppendCommit forced %d bytes, want %d", forced, wantBytes+48)
	}
	st = w.Stats()
	if st.Commits != 1 || st.Records != 3 {
		t.Fatalf("Commits/Records = %d/%d, want 1/3", st.Commits, st.Records)
	}
	if st.Syncs != 1 {
		t.Fatalf("Syncs = %d, want 1 (the commit's sync)", st.Syncs)
	}
	// The high-water mark survives the sync.
	if st.MaxUnsyncedBytes != wantBytes {
		t.Fatalf("MaxUnsyncedBytes = %d after sync, want %d", st.MaxUnsyncedBytes, wantBytes)
	}
}

// TestWALGroupEquivalentVolume checks that a group record for n rows carries
// the same payload as n per-row records while writing n-1 fewer headers'
// worth of overhead difference — the amortization the batch path relies on.
func TestWALGroupEquivalentVolume(t *testing.T) {
	const n, payloadPerRow = 40, 97
	perRow := NewWAL()
	grouped := NewWAL()
	var perRowBytes, groupBytes int
	for i := 0; i < n; i++ {
		perRowBytes += perRow.AppendInsert(payloadPerRow)
	}
	groupBytes = grouped.AppendInsertGroup(n, n*payloadPerRow)
	if groupBytes >= perRowBytes {
		t.Fatalf("group record (%d bytes) not smaller than %d per-row records (%d bytes)", groupBytes, n, perRowBytes)
	}
	if perRow.Stats().Records != n || grouped.Stats().Records != 1 {
		t.Fatalf("records = %d/%d, want %d/1", perRow.Stats().Records, grouped.Stats().Records, n)
	}
	// Payload volume is identical; only header overhead differs.
	saved := perRowBytes - groupBytes
	if want := (n-1)*28 - n*4; saved != want {
		t.Fatalf("group record saved %d bytes, want %d", saved, want)
	}
}

// TestWALConcurrentWriters hammers the log from concurrent writers mixing
// per-row appends, group appends and commits, then checks that every byte is
// accounted for and that MaxUnsyncedBytes behaved as a monotonic high-water
// mark throughout.  Run under -race this also exercises the mutex discipline.
func TestWALConcurrentWriters(t *testing.T) {
	const (
		writers       = 8
		appendsPer    = 300
		commitEvery   = 50
		payloadPerRow = 64
		groupEvery    = 3
		rowsPerGroup  = 16
	)
	w := NewWAL()
	var wg sync.WaitGroup
	var bytesWritten, commitMarkers, recordsWritten, groupsWritten, rowsGrouped atomic.Int64

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < appendsPer; i++ {
				if i%groupEvery == 0 {
					n := w.AppendInsertGroup(rowsPerGroup, rowsPerGroup*payloadPerRow)
					bytesWritten.Add(int64(n))
					groupsWritten.Add(1)
					rowsGrouped.Add(rowsPerGroup)
					recordsWritten.Add(1)
				} else {
					n := w.AppendInsert(payloadPerRow)
					bytesWritten.Add(int64(n))
					recordsWritten.Add(1)
				}
				if (seed+i)%commitEvery == 0 {
					w.AppendCommit()
					commitMarkers.Add(1)
					recordsWritten.Add(1)
				}
			}
		}(g)
	}

	// Poll MaxUnsyncedBytes while the writers run: it is a high-water mark
	// and must never decrease between observations, no matter how appends
	// and commit syncs interleave.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var lastMax int64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			if m := w.Stats().MaxUnsyncedBytes; m < lastMax {
				t.Fatalf("MaxUnsyncedBytes decreased %d -> %d", lastMax, m)
			} else {
				lastMax = m
			}
		}
	}

	st := w.Stats()
	wantBytes := bytesWritten.Load() + 48*commitMarkers.Load()
	if st.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, want %d (every append and commit marker accounted)", st.Bytes, wantBytes)
	}
	if st.Records != recordsWritten.Load() {
		t.Fatalf("Records = %d, want %d", st.Records, recordsWritten.Load())
	}
	if st.GroupRecords != groupsWritten.Load() || st.GroupedRows != rowsGrouped.Load() {
		t.Fatalf("GroupRecords/GroupedRows = %d/%d, want %d/%d",
			st.GroupRecords, st.GroupedRows, groupsWritten.Load(), rowsGrouped.Load())
	}
	if st.Commits != commitMarkers.Load() {
		t.Fatalf("Commits = %d, want %d", st.Commits, commitMarkers.Load())
	}
	// Commits are the only thing that syncs the log.
	if st.Syncs != commitMarkers.Load() {
		t.Fatalf("Syncs = %d, want %d (one per commit)", st.Syncs, commitMarkers.Load())
	}
	if st.MaxUnsyncedBytes < lastMax {
		t.Fatalf("final MaxUnsyncedBytes %d below observed %d", st.MaxUnsyncedBytes, lastMax)
	}
	// The mark can never exceed the total volume ever written.
	if st.MaxUnsyncedBytes > st.Bytes {
		t.Fatalf("MaxUnsyncedBytes %d exceeds total bytes %d", st.MaxUnsyncedBytes, st.Bytes)
	}
}
