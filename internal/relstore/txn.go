package relstore

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
	batches      int
}

// undoRecord covers a contiguous run of n row ids inserted into one table.
// The per-row path appends n == 1 records; the batch path appends one record
// for the whole batch (ids are allocated contiguously under the table lock),
// so the undo log grows per batch, not per row.
type undoRecord struct {
	table string
	rowID int64 // first id of the run
	n     int64
}

// Begin starts a new transaction.  It returns ErrTooManyTransactions when the
// engine's concurrent-transaction limit is reached; the caller is expected to
// wait and retry (the sqlbatch server queues on a transaction-slot resource).
//
// Transaction ids are allocated monotonically from an atomic counter and are
// never reused: an id consumed by a failed admission is simply skipped, so
// two transactions can never share an id even across admission failures or
// concurrent Begin calls.
func (db *DB) Begin() (*Txn, error) {
	if db.recovering.Load() {
		return nil, ErrRecovering
	}
	id := db.nextTxn.Add(1)
	if err := db.locks.Admit(id); err != nil {
		return nil, err
	}
	return db.newTxn(id), nil
}

// BeginBlocking is Begin for real-concurrency callers: when the engine's
// concurrent-transaction limit is reached it blocks the calling goroutine
// until a slot frees up instead of returning ErrTooManyTransactions.  It must
// not be used from discrete-event simulation processes (blocking a DES
// process goroutine outside the kernel would stall the virtual clock).
func (db *DB) BeginBlocking() (*Txn, error) {
	if db.recovering.Load() {
		return nil, ErrRecovering
	}
	id := db.nextTxn.Add(1)
	if err := db.locks.AdmitWait(id); err != nil {
		return nil, err
	}
	return db.newTxn(id), nil
}

func (db *DB) newTxn(id int64) *Txn {
	db.counters.transactions.Add(1)
	return &Txn{db: db, id: id, active: true, sc: db.scratchPool.Get().(*scratch)}
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

// RowsInserted returns the number of rows inserted in this transaction so far
// (since Begin, including rows already made durable by an intermediate
// Commit-and-continue is not supported: commit ends the transaction).
func (t *Txn) RowsInserted() int { return t.rowsInserted }

func (t *Txn) recordInsert(table string, rowID int64) {
	t.undo = append(t.undo, undoRecord{table: table, rowID: rowID, n: 1})
	t.rowsInserted++
}

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
func (t *Txn) Insert(table string, columns []string, values []Value) (OpReport, error) {
	if !t.active {
		return OpReport{}, ErrTxnNotActive
	}
	return t.db.insert(t, table, columns, values)
}

// CommitReport describes the physical work performed by a commit.
type CommitReport struct {
	// LogBytesForced is the redo volume the commit had to sync.
	LogBytesForced int64
	// DirtyPagesWritten is the number of dirty cache pages flushed.
	DirtyPagesWritten int
	// CacheScanPages is the number of cached pages the database writer
	// scanned while flushing (proportional to cache size, §4.5.5).
	CacheScanPages int
	// UndoRecordsDiscarded is the length of the undo log released.
	UndoRecordsDiscarded int
}

// Commit makes the transaction's inserts durable and ends the transaction.
func (t *Txn) Commit() (CommitReport, error) {
	if !t.active {
		return CommitReport{}, ErrTxnNotActive
	}
	dev := t.db.wal.dev.Load()
	// The durable commit marker is appended BEFORE finishCommit settles epochs
	// and pending counts: a checkpoint that observes no pending rows can then
	// rely on every settled transaction's marker being below its LSN boundary.
	if dev != nil {
		dev.logMarker(walRecCommit, t.id)
	}
	forced := t.db.wal.AppendCommit()
	if dev != nil {
		// Commit acknowledgement means the marker is on disk.
		dev.sync()
	}
	rep := t.finishCommit(forced)
	if dev != nil {
		t.db.maybeAutoCheckpoint()
	}
	return rep, nil
}

// finishCommit performs the engine-side half of a commit — dirty-page flush,
// epoch settling, lock release, counters — after the caller has appended the
// commit marker.  It ends the transaction.
func (t *Txn) finishCommit(forced int64) CommitReport {
	written, scanned := t.db.cache.FlushDirty()
	rep := CommitReport{
		LogBytesForced:       forced,
		DirtyPagesWritten:    written,
		CacheScanPages:       scanned,
		UndoRecordsDiscarded: len(t.undo),
	}
	t.settleEpochs()
	t.db.locks.ReleaseAll(t.id)
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
	// The rollback marker needs no sync: a transaction with neither marker on
	// disk is discarded by replay anyway, and one with only its inserts
	// durable is discarded the same way.  The marker exists so replay can
	// account rolled-back transactions explicitly.
	if dev := t.db.wal.dev.Load(); dev != nil {
		dev.logMarker(walRecRollback, t.id)
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
	t.db.locks.ReleaseAll(t.id)
	t.db.counters.rollbacks.Add(1)
	t.end()
	return nil
}
