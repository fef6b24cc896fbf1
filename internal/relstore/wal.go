package relstore

import (
	"sync"
	"sync/atomic"
)

// WAL is the redo log, in two halves.  The counters in this file are the cost
// model: they price redo volume and syncs for the virtual-time figures and for
// reasoning about the commit-frequency trade-off the paper describes in
// §4.5.2 (committing rarely avoids per-commit processing but lets redo/undo
// volume grow between commits), and they run for every database.  The durable
// half (dev, waldisk.go) exists only under WithWALDir: real segment files,
// real fsyncs, and the byte stream Recover replays.
//
// Like the single redo stream of the production database, the counter half is
// one shared structure: concurrent writers serialize on its mutex for the few
// nanoseconds of counter arithmetic.
type WAL struct {
	// dev is the durable half of the log (WithWALDir): the real byte stream
	// whose syncs are fsyncs.  nil (the default) keeps the WAL counters-only;
	// every durable call site is gated on the nil check, so the cost model and
	// its figures are untouched when durability is off.  Atomic because
	// StartRecover publishes the database (health probes, /metrics) before its
	// background replay installs the resumed device.
	dev atomic.Pointer[walDevice]

	mu             sync.Mutex
	records        int64
	groupRecords   int64
	groupedRows    int64
	bytes          int64
	commits        int64
	syncs          int64
	bytesSinceSync int64
	maxUnsynced    int64
}

// NewWAL returns an empty redo log.
func NewWAL() *WAL { return &WAL{} }

// AppendInsert records a redo entry of the given payload size and returns the
// number of log bytes written (payload plus a fixed record header).
func (w *WAL) AppendInsert(payloadBytes int) int {
	const header = 28
	n := payloadBytes + header
	w.mu.Lock()
	w.records++
	w.bytes += int64(n)
	w.advanceUnsyncedLocked(int64(n))
	w.mu.Unlock()
	return n
}

// advanceUnsyncedLocked grows the unsynced tail by n bytes and updates the
// high-water mark; w.mu must be held.
func (w *WAL) advanceUnsyncedLocked(n int64) {
	w.bytesSinceSync += n
	if w.bytesSinceSync > w.maxUnsynced {
		w.maxUnsynced = w.bytesSinceSync
	}
}

// AppendInsertGroup records one redo entry covering a group of n rows with the
// given total payload size and returns the number of log bytes written.  The
// group record carries the fixed record header once plus a small per-row slot
// entry, so a batch of n rows pays one mutex acquisition and one header where
// the row-at-a-time path pays n of each — the redo-volume analogue of the
// paper's batch-size amortization (§4.2).
func (w *WAL) AppendInsertGroup(n, payloadBytes int) int {
	if n <= 0 {
		return 0
	}
	const header = 28
	const slot = 4
	size := payloadBytes + header + n*slot
	w.mu.Lock()
	w.records++
	w.groupRecords++
	w.groupedRows += int64(n)
	w.bytes += int64(size)
	w.advanceUnsyncedLocked(int64(size))
	w.mu.Unlock()
	return size
}

// commitMarker is the size of a commit record in the redo stream.
const commitMarker = 48

// AppendCommit records a commit marker and a log sync; it returns the number
// of unsynced bytes that the sync had to force to disk.
func (w *WAL) AppendCommit() int64 {
	w.mu.Lock()
	w.records++
	w.bytes += commitMarker
	w.commits++
	w.syncs++
	forced := w.bytesSinceSync + commitMarker
	w.bytesSinceSync = 0
	w.mu.Unlock()
	return forced
}

// WALStats is a snapshot of redo-log counters.
type WALStats struct {
	Records      int64
	GroupRecords int64
	GroupedRows  int64
	Bytes        int64
	Commits      int64
	// Syncs is the number of log syncs the cost model counts: one per commit
	// (AppendCommit).
	Syncs int64
	// MaxUnsyncedBytes is the high-water mark of the redo bytes appended
	// since the last sync.
	MaxUnsyncedBytes int64

	// Durable-log counters, all zero unless the database was opened with
	// WithWALDir (Durable reports which).  DurableBytes and DurableSyncs count
	// framed bytes appended to and fsyncs issued against the segment files;
	// the Segments/Checkpoints counters track the checkpoint lifecycle; the
	// Replay counters describe the recovery that produced this database (set
	// once by Recover, including ReplayTornTail — the torn/corrupt trailing
	// records tolerated and discarded).
	Durable      bool
	DurableBytes int64
	DurableSyncs int64
	// CommitWaitNs sums the time committers spent waiting for their marker to
	// become durable (inside Commit, or blocked in PendingCommit.Wait);
	// SharedFlushes counts the commits that a flush they did not issue made
	// durable.  Together with DurableSyncs they answer "is this load waiting
	// on the log?".
	CommitWaitNs    int64
	SharedFlushes   int64
	SegmentsCreated int64
	SegmentsDeleted int64
	Checkpoints     int64
	ReplayRecords   int64
	ReplayRows      int64
	ReplayBytes     int64
	ReplayTornTail  int64
}

// Stats returns a snapshot of the log counters.
func (w *WAL) Stats() WALStats {
	ws := w.statsCounters()
	if dev := w.dev.Load(); dev != nil {
		dev.durableStats(&ws)
	}
	return ws
}

// statsCounters snapshots the counter half of the log under w.mu.
func (w *WAL) statsCounters() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Records:          w.records,
		GroupRecords:     w.groupRecords,
		GroupedRows:      w.groupedRows,
		Bytes:            w.bytes,
		Commits:          w.commits,
		Syncs:            w.syncs,
		MaxUnsyncedBytes: w.maxUnsynced,
	}
}
