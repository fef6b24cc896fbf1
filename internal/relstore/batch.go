package relstore

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
)

// This file implements the engine's one insert path: a Txn.InsertBatch call
// applies a whole loader batch through the storage engine with per-batch
// instead of per-row synchronization, and Txn.Insert is the same call with a
// one-row batch.  The paper's core claim is that bulk loading wins by
// amortizing per-row costs across batches (§4.2): a table-lock round trip, a
// durable log append and a B-tree pass are paid once per batch:
//
//   - every row is coerced up front, before any lock is taken;
//   - the table's write lock is taken once for the whole batch, unless a
//     reader queues on it meanwhile: then the batch yields the table at the
//     next 16-row boundary and relocks (see insertBatchLocked);
//   - with a durable log, one insert record per run replaces n appends;
//   - secondary indexes are maintained by a sorted bulk merge: the batch's
//     keys are collected into pooled scratch slices, sorted, and inserted via
//     the leaf-aware BTree.InsertSorted sequential pass;
//   - the commit-epoch pending counter moves once per batch.
//
// Semantics are identical to calling Txn.Insert once per row (the property
// test in batch_test.go enforces this): rows are validated in order with JDBC
// first-failure semantics — rows before the failing row are applied and stay
// applied, the failing row and everything after it are not — and the same
// constraint is reported for the same failing row, including intra-batch
// duplicate keys and foreign keys satisfied by earlier rows of the same batch.
//
// The discrete-event cost model prices work per row — a redo record and a
// data-cache touch for each — so the sqlbatch server calls Txn.Insert once
// per row under the DES scheduler and hands wall-clock batches over whole
// (see sqlbatch.Server.execBatch).  Both reach the engine here.

// BatchReport describes the outcome of one InsertBatch call.
type BatchReport struct {
	// Report is the engine's physical-work report for the whole call.
	Report OpReport
	// RowsInserted is the number of rows applied (all of them when the error
	// is nil).
	RowsInserted int
	// FailedIndex is the zero-based index of the first failing row, or -1
	// when every row was applied.  Rows before FailedIndex are applied; the
	// failing row and all rows after it are not.
	FailedIndex int
}

// InsertBatch validates and stores a batch of rows in the named table with
// per-batch amortized locking, logging and index maintenance.  columns
// selects which attributes the values of every row correspond to;
// unspecified columns are NULL.  On a constraint violation the rows before
// the offender remain applied and the violation is returned together with
// the offender's index (JDBC batch-update semantics, matching a loop of
// Insert calls that stops at the first error).
func (t *Txn) InsertBatch(table string, columns []string, rows [][]Value) (BatchReport, error) {
	if !t.active {
		return BatchReport{FailedIndex: 0}, ErrTxnNotActive
	}
	return t.db.insertBatch(t, table, columns, rows)
}

// insertBatch validates and stores a batch of rows on behalf of txn.
func (db *DB) insertBatch(txn *Txn, tableName string, columns []string, rows [][]Value) (BatchReport, error) {
	res := BatchReport{FailedIndex: -1}
	if len(rows) == 0 {
		return res, nil
	}
	t, ok := db.tables[tableName]
	if !ok {
		db.counters.rowsRejected.Add(1)
		db.recordViolationKind(KindUnknownTable)
		res.FailedIndex = 0
		return res, &ConstraintError{Kind: KindUnknownTable, Table: tableName}
	}
	sc := txn.sc
	rep := &res.Report

	// Phase 1: coerce every row up front.  Coercion touches only the
	// immutable schema, so the whole batch is type-checked before any lock is
	// taken; a coercion failure at row i still lets rows 0..i-1 proceed.
	built, buildErr := t.buildRowsBatch(sc, columns, rows)

	// Phase 2: apply the coerced prefix under one table-lock hold.  The
	// pending count rises for the whole batch before any row becomes visible
	// and the unapplied remainder is returned afterwards, so ReadStamp's
	// pendingRows == 0 always implies "no uncommitted rows visible":
	// over-approximating the uncommitted-visibility window is safe, while
	// under-approximating it would let snapshot readers cache dirty reads.
	t.pendingRows.Add(int64(len(rows)))
	inserted, applyErr := t.insertBatchLocked(db, txn, built, rep)
	t.pendingRows.Add(-int64(len(rows) - inserted))

	// applyErr, when set, failed at row `inserted`; otherwise a phase-1
	// build error failed at row len(built) == inserted, with every built row
	// applied.  Either way the failing index is the first unapplied row.
	err := applyErr
	if err == nil {
		err = buildErr
	}
	res.RowsInserted = inserted
	if IsConstraintViolation(err) {
		// Anything else is the log device's failure: no row was at fault.
		res.FailedIndex = inserted
		db.recordViolation(err)
	}
	if inserted == 0 {
		return res, err
	}

	db.counters.rowsInserted.Add(int64(inserted))
	db.counters.indexSplits.Add(int64(rep.IndexSplits))
	return res, err
}

// buildRowsBatch resolves the column list once and coerces every row of the
// batch onto full schema-ordered rows.  The returned rows are carved out of
// the transaction scratch's arena: the heap packs them into its pages and the
// log encodes them before InsertBatch returns, so nothing keeps them and the
// next batch reuses the memory.  On error the returned prefix holds the rows
// built before the failure (its length is the failing index).
func (t *Table) buildRowsBatch(sc *scratch, columns []string, rows [][]Value) ([]Row, error) {
	ncols := len(t.schema.Columns)
	colIdxs, kinds := sc.columnBufs(len(columns))
	for i, col := range columns {
		idx := t.schema.ColumnIndex(col)
		if idx < 0 {
			// An unknown column fails every row, so the batch fails at row 0
			// with nothing applied.
			return nil, &ConstraintError{Kind: KindArity, Table: t.schema.Name, Column: col,
				Detail: "unknown column"}
		}
		colIdxs[i] = idx
		kinds[i] = canonicalKind(t.schema.Columns[idx].Type)
	}
	built := sc.batchRows(len(rows))
	arena := sc.batchArena(len(rows) * ncols)
	for _, vals := range rows {
		if len(vals) != len(columns) {
			return built, &ConstraintError{Kind: KindArity, Table: t.schema.Name,
				Detail: fmt.Sprintf("%d columns but %d values", len(columns), len(vals))}
		}
		row := Row(arena[:ncols:ncols])
		arena = arena[ncols:]
		for i, idx := range colIdxs {
			// Column kinds are resolved once per batch, so the common case —
			// the transformer emits exact types — is a tag compare instead of
			// a Coerce call per value.
			if v := vals[i]; v.Kind == kinds[i] {
				row[idx] = v
				continue
			}
			v, err := Coerce(vals[i], t.schema.Columns[idx].Type)
			if err != nil {
				return built, &ConstraintError{Kind: KindType, Table: t.schema.Name,
					Column: columns[i], Detail: err.Error()}
			}
			row[idx] = v
		}
		built = append(built, row)
	}
	return built, nil
}

// canonicalKind returns the value kind Coerce normalizes column type t to.
func canonicalKind(t ColType) ValueKind {
	switch t {
	case TypeInt:
		return KindInt
	case TypeFloat:
		return KindFloat
	case TypeString:
		return KindString
	case TypeTime:
		return KindTime
	case TypeBool:
		return KindBool
	default:
		return KindNull
	}
}

// batchYieldRows is how many rows the batch-apply loop stores under one lock
// hold between looks at the table's waiting-reader count: the longest a
// queued reader waits behind a batch, and the run length PERFORMANCE.md's
// "Chunk-boundary visibility" table was measured at.
const batchYieldRows = 16

// insertBatchLocked validates and stores the built rows under the table's
// write lock, deferring secondary-index maintenance to sorted bulk passes over
// the applied prefix.  It returns the number of rows applied and the first
// constraint violation (nil when every row applied).
//
// With no reader waiting the whole batch is one run: one lock hold, one undo
// range, one log record.  When a reader queues on the table (Table.rlock) the
// run in progress closes at its next batchYieldRows boundary, the table lock
// and every parent lock are released, the processor is yielded, and the rest
// of the batch continues as a new run (DBStats.BatchYields counts these).
// Either way rows are applied in order with identical first-failure
// semantics; readers can only observe whole runs (the write lock covers each
// one), and the batch-level epoch/pending accounting in insertBatch is
// unchanged.  Each run records its own undo range: ids are only guaranteed
// contiguous within a run, because another writer may interleave between lock
// holds.
func (t *Table) insertBatchLocked(db *DB, txn *Txn, built []Row, rep *OpReport) (inserted int, err error) {
	for {
		n, runErr := t.applyBatchChunk(db, txn, built[inserted:], rep)
		inserted += n
		if runErr != nil || inserted == len(built) {
			return inserted, runErr
		}
		// The run stopped for a waiting reader.  The table lock is free here:
		// hand the processor to whoever is queued behind this batch before
		// taking the lock again.
		db.counters.batchYields.Add(1)
		runtime.Gosched()
	}
}

// applyBatchChunk applies a contiguous run of built rows under a single
// write-lock hold: all of them, or — when a reader is waiting on the table —
// a whole multiple of batchYieldRows, leaving the rest to the caller.  It is
// the only code that stores a transaction's rows (replay stores recovered ones
// through replayOneLocked), so the order a row's constraints are checked in —
// foreign keys, NOT NULL and CHECK, a NULL primary key, then the keys — is
// decided here alone.
//
// Locking: the table's own write lock and a read lock on every distinct
// foreign-key parent are taken once for the whole run (a self-referential
// parent reuses the held write lock, and thereby sees parent rows stored
// earlier in this same batch, exactly as a loop of one-row inserts would).
// Parent locks nest inside child locks along foreign-key edges only, and the
// FK graph is acyclic, so the nested acquisition cannot deadlock.  A yield
// releases parent locks together with the table lock — keeping a parent read
// lock across a re-acquisition of the child lock would invert the nesting
// order against a concurrent batch and could deadlock.
func (t *Table) applyBatchChunk(db *DB, txn *Txn, built []Row, rep *OpReport) (inserted int, err error) {
	sc := txn.sc

	t.mu.Lock()
	defer t.mu.Unlock()
	parents := t.lockParentsForBatch(db, sc)
	defer runlockAll(parents)

	ids := sc.batchIDs(len(built))
	var firstErr error
	for i, row := range built {
		if i > 0 && i%batchYieldRows == 0 && t.waitingReaders.Load() != 0 {
			break
		}
		if err := db.checkForeignKeys(sc, t, row, rep); err != nil {
			firstErr = err
			break
		}
		checks, err := t.checkRow(row)
		rep.ConstraintChecks += checks
		if err != nil {
			firstErr = err
			break
		}

		rep.ConstraintChecks++
		nullPK := false
		for _, c := range t.pkCols {
			if row[c].IsNull() {
				nullPK = true
				break
			}
		}
		if nullPK {
			firstErr = &ConstraintError{Kind: KindNotNull, Table: t.schema.Name,
				Column: t.schema.PrimaryKey[0], Detail: "NULL in primary key"}
			break
		}
		if firstErr = t.checkKeys(sc, row, rep); firstErr != nil {
			break
		}

		// All constraints satisfied: store the row.  Index maintenance is
		// deferred to the bulk pass below; the hash indexes must be updated
		// here so later rows of this batch observe earlier ones (intra-batch
		// duplicate detection and self-referential foreign keys).
		id := t.nextRow
		t.nextRow++
		loc, newPage, rb := t.heap.append(row)
		t.rows.put(id, loc)
		t.putKeys(row, id)

		if rep.RowsInserted == 0 {
			rep.FirstPage = int(loc.page)
		}
		rep.LastPage = int(loc.page)
		rep.RowsInserted++
		rep.RowBytes += rb
		rep.PagesDirtied++
		if newPage {
			rep.FreshPages++
		}
		ids = append(ids, id)
	}

	// One undo record covers the whole contiguous id run applied under this
	// lock hold (ids are allocated under the held lock, so the run is
	// contiguous).
	if len(ids) > 0 {
		if dev := db.wal.dev.Load(); dev != nil {
			// Durable record(s) appended while the id run is still protected,
			// so records for the same table land in the log in id order; the
			// device splits a run whose encoding would exceed the record limit.
			// A failed device refuses them: the rows are stored and in the undo
			// log, the caller gets the device's error in place of a constraint
			// violation and must roll back.
			if err := dev.logInsert(sc, t.tid, txn.id, ids[0], built[:len(ids)]); err != nil {
				firstErr = err
			}
		}
		txn.recordInsertRange(t.schema.Name, ids[0], int64(len(ids)))
		rep.UndoRecords++
	}

	// Sorted bulk merge into every maintained secondary index, covering
	// exactly the applied prefix (rollback's deleteRow relies on index
	// entries existing for every row in the undo log, so this runs even
	// after a mid-batch failure).  Suspended (deferred, mid-load) indexes are
	// skipped entirely — that is the deferred policy's whole saving.
	for _, ix := range t.liveList {
		t.bulkIndexInsert(sc, ix, built[:len(ids)], ids, rep)
	}
	return len(ids), firstErr
}

// bulkIndexInsert maintains one secondary index for a batch: it encodes the
// batch's keys into the pooled scratch arena, sorts the encoded bytes
// (tie-broken by row id, reproducing per-row insertion order under
// duplicates), and feeds them to the leaf-aware sequential B-tree pass.
// Catalog batches frequently arrive already ordered on the indexed attribute
// (htmid and id columns grow with arrival order), so a linear sortedness
// check pays for itself before the n·log n sort.
func (t *Table) bulkIndexInsert(sc *scratch, ix *Index, rows []Row, ids []int64, rep *OpReport) {
	if len(rows) == 0 {
		return
	}
	if ix.int64Keyed && t.bulkIndexInsertInt64(sc, ix, rows, ids, rep) {
		return
	}
	// Keys are encoded once here and never re-inspected: the sortedness
	// check, the sort and every tree comparison below are single memcmps.
	// Growing the arena may reallocate it, leaving earlier kv keys pointing
	// into the retired backing array — which stays intact and is only read
	// until the tree copies stored keys into its nodes.
	sc.karena = sc.karena[:0]
	sc.kvs = sc.kvs[:0]
	sorted := true
	for ri := range rows {
		row := rows[ri]
		start := len(sc.karena)
		for _, c := range ix.colIdxs {
			sc.karena = appendOrderedValue(sc.karena, row[c])
			rep.IndexEntryBytes += ValueSize(row[c])
		}
		rep.IndexEntryBytes += 8 // row id pointer
		key := sc.karena[start:len(sc.karena):len(sc.karena)]
		if sorted && ri > 0 && bytes.Compare(sc.kvs[ri-1].key, key) > 0 {
			sorted = false
		}
		sc.kvs = append(sc.kvs, idxKV{key: key, id: ids[ri]})
	}
	if !sorted {
		// Equal keys need no reordering: ids ascend with row order already.
		slices.SortFunc(sc.kvs, cmpKV)
	}
	si := sortedInserter{t: ix.tree}
	for i := range sc.kvs {
		si.insert(sc.kvs[i].key, sc.kvs[i].id)
	}
	ix.chargeInserts(rep, si.st)
}

// chargeInserts adds one index's share of a batch to the report.
func (ix *Index) chargeInserts(rep *OpReport, st InsertStats) {
	rep.IndexNodesVisited += st.NodesVisited
	rep.IndexSplits += st.Splits
	rep.IndexFloatColNodeVisits += st.NodesVisited * ix.floatCols
	rep.IndexIntColNodeVisits += st.NodesVisited * ix.otherCols
}

// bulkIndexInsertInt64 is bulkIndexInsert for single-column integer-kinded
// indexes with no NULL keys in the batch: the keys are extracted as raw
// int64s, sorted with the specialized pair sort (no comparator calls), and
// re-encoded into a small stack buffer as they stream into the tree.  It
// reports false — having done nothing — when a NULL key means the generic
// path must handle the batch.
func (t *Table) bulkIndexInsertInt64(sc *scratch, ix *Index, rows []Row, ids []int64, rep *OpReport) bool {
	c := ix.colIdxs[0]
	if cap(sc.sortK) < len(rows) {
		sc.sortK = make([]int64, 0, len(rows))
		sc.sortID = make([]int64, 0, len(rows))
	}
	ks := sc.sortK[:0]
	vs := sc.sortID[:0]
	sorted := true
	for ri := range rows {
		v := rows[ri][c]
		if v.Kind == KindNull {
			return false
		}
		if sorted && ri > 0 && ks[ri-1] > v.I {
			sorted = false
		}
		ks = append(ks, v.I)
		vs = append(vs, ids[ri])
	}
	sc.sortK, sc.sortID = ks, vs
	if !sorted {
		// Equal keys need no reordering: ids ascend with row order already.
		sortInt64Pairs(ks, vs)
	}
	// Entry volume is uniform for a payload-in-I kind.
	rep.IndexEntryBytes += len(rows) * (ValueSize(Value{Kind: ix.keyKind}) + 8)

	// Stream the sorted keys into the tree, re-encoding each into a reused
	// stack buffer; the inserter copies stored keys into the tree's nodes.
	var kb [10]byte
	si := sortedInserter{t: ix.tree}
	for i := range ks {
		si.insert(appendOrderedValue(kb[:0], Value{Kind: ix.keyKind, I: ks[i]}), vs[i])
	}
	ix.chargeInserts(rep, si.st)
	return true
}

// lockParentsForBatch read-locks every distinct foreign-key parent of the
// table except the table itself (whose write lock the caller already holds)
// and returns the locked set for runlockAll.  The slice is pooled on the
// transaction scratch.
func (t *Table) lockParentsForBatch(db *DB, sc *scratch) []*Table {
	parents := sc.parents[:0]
	for _, fk := range t.schema.ForeignKeys {
		p := db.tables[fk.RefTable]
		if p == nil || p == t {
			continue
		}
		dup := false
		for _, q := range parents {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			p.mu.RLock()
			parents = append(parents, p)
		}
	}
	sc.parents = parents[:0]
	return parents
}

// runlockAll releases the read locks taken by lockParentsForBatch.
func runlockAll(parents []*Table) {
	for _, p := range parents {
		p.mu.RUnlock()
	}
}
