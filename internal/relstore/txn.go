package relstore

import "time"

// Txn is a database transaction.  The loading workload is insert-only, so the
// undo log records inserted row ids; rollback removes them and commit simply
// truncates the undo and forces the redo log.
//
// A transaction is owned by one goroutine at a time; its methods are not safe
// for concurrent use on the same Txn.  Different transactions may run on
// different goroutines concurrently — that is the whole point of the
// wall-clock execution mode.
type Txn struct {
	db     *DB
	id     int64
	active bool

	// sc is the per-goroutine key/encoding scratch this transaction carries
	// through the insert path; it is leased from db.scratchPool at Begin and
	// returned when the transaction ends.
	sc *scratch

	undo []undoRecord

	rowsInserted int
}

// undoRecord covers a contiguous run of n row ids inserted into one table:
// one record per run of a batch (ids are allocated contiguously under the
// table lock), so the undo log grows per batch, not per row.
type undoRecord struct {
	table string
	rowID int64 // first id of the run
	n     int64
}

// Begin starts a new transaction.  The engine admits any number of them; the
// sqlbatch server's transaction slots are the one concurrency limit.
//
// Transaction ids are allocated monotonically from an atomic counter and are
// never reused, so two transactions can never share an id even across
// concurrent Begin calls.
func (db *DB) Begin() (*Txn, error) {
	if db.recovering.Load() {
		return nil, ErrRecovering
	}
	db.counters.transactions.Add(1)
	return &Txn{db: db, id: db.nextTxn.Add(1), active: true, sc: db.scratchPool.Get().(*scratch)}, nil
}

// end releases the transaction's scratch and marks it inactive.
func (t *Txn) end() {
	t.active = false
	t.undo = nil
	if t.sc != nil {
		t.db.scratchPool.Put(t.sc)
		t.sc = nil
	}
}

// ID returns the transaction id.
func (t *Txn) ID() int64 { return t.id }

// Active reports whether the transaction can still accept work.
func (t *Txn) Active() bool { return t.active }

// RowsInserted returns the number of rows inserted in this transaction since
// Begin.  Commit ends the transaction, so the count never spans a commit.
func (t *Txn) RowsInserted() int { return t.rowsInserted }

// recordInsertRange records n contiguous inserts starting at firstID.
func (t *Txn) recordInsertRange(table string, firstID, n int64) {
	if n <= 0 {
		return
	}
	t.undo = append(t.undo, undoRecord{table: table, rowID: firstID, n: n})
	t.rowsInserted += int(n)
}

// Insert validates and stores one row in the named table.  columns selects
// which attributes the values correspond to; unspecified columns are NULL.
// On a constraint violation nothing is stored and the violation is returned.
// It is a one-row InsertBatch.
func (t *Txn) Insert(table string, columns []string, values []Value) (OpReport, error) {
	if !t.active {
		return OpReport{}, ErrTxnNotActive
	}
	// The one-row batch lives on this frame: kept on the scratch, it would
	// make every caller's values escape.
	rows := [1][]Value{values}
	br, err := t.db.insertBatch(t, table, columns, rows[:])
	return br.Report, err
}

// CommitReport describes the physical work performed by a commit.
type CommitReport struct {
	// UndoRecordsDiscarded is the length of the undo log released.
	UndoRecordsDiscarded int
}

// Commit makes the transaction's inserts durable and ends the transaction.  It
// is CommitStart and Wait on the calling goroutine with the log flush run
// there too: no goroutine is started, and fault hooks fire — and panic — on
// the caller.
func (t *Txn) Commit() (CommitReport, error) {
	var pc PendingCommit
	if err := t.startCommit(&pc); err != nil {
		return CommitReport{}, err
	}
	pc.flush()
	return pc.Wait()
}

// CommitStart is the first half of a commit: it appends the commit marker to
// the durable log and starts making it durable beside the caller, who may
// begin and fill its next transaction meanwhile.  Nothing is acknowledged
// until Wait returns nil.  Until then the transaction accepts no more work
// but is otherwise exactly a transaction inside Commit: its rows stay pending
// (readers, SnapshotRead and Checkpoint treat them as uncommitted).
//
// The returned commit is already settled — Settled reports it, Wait returns
// at once — when there is nothing to overlap or overlapping would cost a
// checkpoint: without a durable log the commit completes here, exactly as
// Commit does; and when an automatic checkpoint is due the flush runs inline,
// so the checkpoint finds this caller with no rows pending.
//
// If the log device has failed, CommitStart (like Commit and Wait) returns
// its error and the transaction has been rolled back.
func (t *Txn) CommitStart() (*PendingCommit, error) {
	pc := new(PendingCommit)
	if err := t.startCommit(pc); err != nil {
		return nil, err
	}
	switch {
	case pc.dev == nil:
	case pc.dev.shouldCheckpoint(t.db.cfg.CheckpointEveryBytes):
		pc.flush()
		_, _ = pc.Wait() // kept in pc; the caller's Wait returns it again
	default:
		pc.done = make(chan struct{})
		go pc.flushAsync()
	}
	return pc, nil
}

// PendingCommit is a commit whose marker is appended and whose durability is
// being established.  It belongs to the goroutine that owns the transaction.
type PendingCommit struct {
	t *Txn
	// dev is nil without a durable log: the commit settled in CommitStart.
	dev *walDevice
	lsn int64 // the commit marker's LSN

	// done is closed when the flush goroutine has ended; nil when the flush
	// ran on the owner's goroutine.  The flush's results below are the
	// goroutine's until then.
	done   chan struct{}
	waited time.Duration // how long the owner waited for durability
	shared bool          // an earlier flush had covered the marker
	killed any           // a fault hook's panic, re-raised in Wait
	err    error

	settled bool
	rep     CommitReport
}

// startCommit appends the commit marker.  The durable marker goes in BEFORE
// anything settles epochs and pending counts: a checkpoint that observes no
// pending rows can then rely on every settled transaction's marker being
// below its LSN boundary.
func (t *Txn) startCommit(pc *PendingCommit) error {
	if !t.active {
		return ErrTxnNotActive
	}
	pc.t = t
	if dev := t.db.wal.dev.Load(); dev != nil {
		lsn, err := dev.logMarker(t.sc, walRecCommit, t.id)
		if err != nil {
			t.rollback()
			return err
		}
		pc.dev, pc.lsn = dev, lsn
		t.active = false
	}
	t.db.wal.commits.Add(1)
	if pc.dev == nil {
		pc.rep = t.finishCommit()
		pc.settled = true
	}
	return nil
}

// flush makes the marker durable on the calling goroutine.  waited is the
// owner's wait when this is the owner's goroutine; Wait replaces it with the
// time it blocked otherwise.
func (pc *PendingCommit) flush() {
	if pc.dev == nil {
		return
	}
	start := time.Now()
	pc.shared, pc.err = pc.dev.flush(pc.lsn, false)
	pc.waited = time.Since(start)
}

// flushAsync is flush on a goroutine of its own, which ends with the flush:
// nothing outlives the commit it serves and an abandoned database handle
// leaves nothing to stop.  A fault hook's panic (a simulated kill) must not
// take the process down from a goroutine nobody can recover on, so it is
// carried to Wait and raised there.
func (pc *PendingCommit) flushAsync() {
	defer close(pc.done)
	defer func() { pc.killed = recover() }()
	pc.flush()
}

// Settled reports whether the commit is already acknowledged (or failed) and
// settled, so that Wait will not block.
func (pc *PendingCommit) Settled() bool { return pc.settled }

// Wait is the second half of a commit: it returns once the commit marker is
// durable and the commit is settled — the rows committed for readers, an
// automatic checkpoint taken if one is due.  A nil error is the
// acknowledgement.  If the log could not be made durable the transaction is
// rolled back and the device's error returned; the device stays failed.  Wait
// may be called again and returns the same result.
func (pc *PendingCommit) Wait() (CommitReport, error) {
	if pc.settled {
		return pc.rep, pc.err
	}
	if pc.done != nil {
		start := time.Now()
		<-pc.done
		pc.waited = time.Since(start)
	}
	if pc.killed != nil {
		panic(pc.killed)
	}
	pc.settled = true
	pc.dev.commitWaitNs.Add(int64(pc.waited))
	if pc.shared {
		pc.dev.sharedFlushes.Add(1)
	}
	if pc.err != nil {
		pc.t.rollback()
		return CommitReport{}, pc.err
	}
	pc.rep = pc.t.finishCommit()
	pc.t.db.maybeAutoCheckpoint()
	return pc.rep, nil
}

// finishCommit performs the engine-side half of a commit — epoch settling and
// counters — once the commit marker is appended and, with a durable log, on
// disk.  It ends the transaction.
func (t *Txn) finishCommit() CommitReport {
	rep := CommitReport{UndoRecordsDiscarded: len(t.undo)}
	t.settleEpochs()
	t.db.counters.commits.Add(1)
	t.end()
	return rep
}

// settleEpochs advances the commit epoch of every table this transaction
// inserted into and returns the rows to the committed population.  The epoch
// bump happens before the pending count drops so a snapshot reader can never
// observe pendingRows == 0 at both ends of a scan with an unchanged epoch
// while this transaction's rows flipped from uncommitted to committed in
// between (see DB.SnapshotRead).
func (t *Txn) settleEpochs() {
	if len(t.undo) == 0 {
		return
	}
	// Count rows per distinct table; transactions touch a handful of tables,
	// so a linear scan over a small slice beats a map allocation.
	type touched struct {
		table *Table
		rows  int64
	}
	var touchedTables []touched
	for _, u := range t.undo {
		tbl := t.db.tables[u.table]
		if tbl == nil {
			continue
		}
		found := false
		for i := range touchedTables {
			if touchedTables[i].table == tbl {
				touchedTables[i].rows += u.n
				found = true
				break
			}
		}
		if !found {
			touchedTables = append(touchedTables, touched{table: tbl, rows: u.n})
		}
	}
	for _, tc := range touchedTables {
		tc.table.epoch.Add(1)
		tc.table.pendingRows.Add(-tc.rows)
	}
}

// Rollback undoes every insert performed by the transaction and ends it.
func (t *Txn) Rollback() error {
	if !t.active {
		return ErrTxnNotActive
	}
	t.rollback()
	return nil
}

// rollback is Rollback without the activity check, shared with the commit
// paths that end a transaction whose marker could not be made durable.
func (t *Txn) rollback() {
	// The rollback marker needs no sync: a transaction with neither marker on
	// disk is discarded by replay anyway, and one with only its inserts
	// durable is discarded the same way.  The marker exists so replay can
	// account rolled-back transactions explicitly — which is also why a
	// failed device's refusal to take it changes nothing.
	if dev := t.db.wal.dev.Load(); dev != nil {
		_, _ = dev.logMarker(t.sc, walRecRollback, t.id)
	}
	// Undo in reverse order so children are removed before parents and the
	// foreign-key invariant never observes an orphan (within a range record,
	// ids descend for the same reason: a self-referential batch stores
	// parents before the children that point at them).
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if tbl := t.db.tables[u.table]; tbl != nil {
			for id := u.rowID + u.n - 1; id >= u.rowID; id-- {
				tbl.deleteRow(t.sc, id)
				t.db.counters.rowsInserted.Add(-1)
			}
		}
	}
	t.settleEpochs()
	t.db.counters.rollbacks.Add(1)
	t.end()
}
