package relstore

import "sync/atomic"

// WAL is the redo log.  Under WithWALDir it is the durable device (dev,
// waldisk.go): real segment files, real fsyncs, and the byte stream Recover
// replays.  Without one it is only a commit count.  The engine does not price
// redo volume: the §4.5.2 cost of committing often or rarely is the sqlbatch
// server's model, worked out from the reports the engine returns.
type WAL struct {
	// dev is the durable log; nil (the default) means there is none, and
	// every durable call site is gated on the nil check.  Atomic because
	// StartRecover publishes the database (health probes, /metrics) before
	// its background replay installs the resumed device.
	dev atomic.Pointer[walDevice]

	// commits counts commit markers, one per started commit.
	commits atomic.Int64
}

// WALStats is a snapshot of redo-log counters.
type WALStats struct {
	// Commits counts commit markers; Syncs is one per commit, as the paper's
	// database forced its log at every commit.
	Commits int64
	Syncs   int64

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
	n := w.commits.Load()
	ws := WALStats{Commits: n, Syncs: n}
	if dev := w.dev.Load(); dev != nil {
		dev.durableStats(&ws)
	}
	return ws
}
