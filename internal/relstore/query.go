package relstore

import (
	"fmt"
	"math"
)

// The query layer is intentionally small: the repository exists primarily to
// be loaded, but the paper's repository also "act[s] as a query engine to
// support scientific research" (§4.5.1).  These helpers support the examples,
// post-load validation and the integration tests.

// TableEpoch returns the commit epoch of the named table (0 for an unknown
// table).  See Table.CommitEpoch.
func (db *DB) TableEpoch(table string) int64 {
	t, ok := db.tables[table]
	if !ok {
		return 0
	}
	return t.CommitEpoch()
}

// ReadStamp returns the named table's commit epoch together with whether the
// table is clean: no rows from in-flight transactions are currently visible.
// A result computed between two identical clean stamps is a consistent view
// of the committed state at that epoch.
func (db *DB) ReadStamp(table string) (epoch int64, clean bool) {
	t, ok := db.tables[table]
	if !ok {
		return 0, false
	}
	// Order matters: load pendingRows before the epoch.  Commit bumps the
	// epoch before draining pendingRows, so reading pending first can only
	// misreport a table as dirty (pending observed just before a commit
	// settles), never as clean at a stale epoch.
	pending := t.UncommittedRows()
	return t.CommitEpoch(), pending == 0
}

// SnapshotRead runs fn (a read-only operation over the named table) and
// reports whether it observed a stable committed snapshot: the commit epoch
// did not advance while fn ran and no uncommitted rows were visible at either
// end.  The returned epoch identifies the snapshot; a result cache stores it
// with the result and invalidates the entry once the table's epoch moves on.
//
// The engine stores rows at insert time, so a plain read concurrent with a
// writer can see uncommitted data — that is fine for a one-shot answer but
// must never be memoized.  SnapshotRead is the read entry point that makes
// the distinction checkable.
func (db *DB) SnapshotRead(table string, fn func() error) (epoch int64, stable bool, err error) {
	e1, clean1 := db.ReadStamp(table)
	if err := fn(); err != nil {
		return e1, false, err
	}
	e2, clean2 := db.ReadStamp(table)
	return e2, clean1 && clean2 && e1 == e2, nil
}

// Count returns the number of live rows in the named table.
func (db *DB) Count(table string) (int64, error) {
	t, ok := db.tables[table]
	if !ok {
		return 0, ErrNoSuchTable
	}
	return t.RowCount(), nil
}

// Scan visits every live row of the table in heap order, passing a copy of
// each row to visit; visit returns false to stop.  The table's read lock is
// held for the duration of the scan, so the visitor must not call write
// operations on the same table.
func (db *DB) Scan(table string, visit func(Row) bool) error {
	return db.ScanRef(table, func(v RowView) bool { return visit(v.Row()) })
}

// ScanRef is Scan without the per-row copy: visit receives a view of the
// stored row (see RowView for its lifetime rule).  It exists for read-only
// consumers on hot paths (query decoding).  Like Scan, it holds the table's
// read lock while the visitor runs.
func (db *DB) ScanRef(table string, visit func(RowView) bool) error {
	t, ok := db.tables[table]
	if !ok {
		return ErrNoSuchTable
	}
	t.rlock()
	defer t.mu.RUnlock()
	t.heap.scan(visit)
	return nil
}

// LookupByPK returns the row whose primary key equals key, or nil.
func (db *DB) LookupByPK(table string, key []Value) (Row, error) {
	var row Row
	_, err := db.LookupByPKRef(table, key, func(v RowView) { row = v.Row() })
	return row, err
}

// LookupByPKRef is LookupByPK without the row copy: when a row with the given
// primary key exists, visit receives a view of it under the table's read
// lock and found is true.
func (db *DB) LookupByPKRef(table string, key []Value, visit func(RowView)) (found bool, err error) {
	t, ok := db.tables[table]
	if !ok {
		return false, ErrNoSuchTable
	}
	t.rlock()
	defer t.mu.RUnlock()
	id, ok := t.pk.lookup(key)
	if !ok {
		return false, nil
	}
	v, ok := t.viewLocked(id)
	if ok {
		visit(v)
	}
	return ok, nil
}

// SelectEqualIndexed returns rows whose indexed columns equal key, using the
// named secondary index; it also reports how many B-tree nodes were visited.
func (db *DB) SelectEqualIndexed(table, index string, key []Value) ([]Row, int, error) {
	t, ok := db.tables[table]
	if !ok {
		return nil, 0, ErrNoSuchTable
	}
	ix := t.Index(index)
	if ix == nil {
		return nil, 0, ErrNoSuchIndex
	}
	if !ix.Ready() {
		return nil, 0, ErrIndexNotReady
	}
	sc := db.scratchPool.Get().(*scratch)
	t.rlock()
	defer t.mu.RUnlock()
	ids, visited := ix.tree.Search(sc.ordKey(key))
	db.scratchPool.Put(sc)
	out := make([]Row, 0, len(ids))
	for _, id := range ids {
		if v, ok := t.viewLocked(id); ok {
			out = append(out, v.Row())
		}
	}
	return out, visited, nil
}

// RangeIndexed returns rows whose indexed key lies in [from, to] using the
// named secondary index, up to limit rows (limit <= 0 means no limit).
func (db *DB) RangeIndexed(table, index string, from, to []Value, limit int) ([]Row, error) {
	var out []Row
	err := db.RangeIndexedRef(table, index, from, to, func(v RowView) bool {
		out = append(out, v.Row())
		return limit <= 0 || len(out) < limit
	})
	return out, err
}

// RangeIndexedRef is RangeIndexed without the row copies: visit receives a
// view of each row whose indexed key lies in [from, to], in index order, under
// the table's read lock; it returns false to stop.
func (db *DB) RangeIndexedRef(table, index string, from, to []Value, visit func(RowView) bool) error {
	t, ok := db.tables[table]
	if !ok {
		return ErrNoSuchTable
	}
	ix := t.Index(index)
	if ix == nil {
		return ErrNoSuchIndex
	}
	if !ix.Ready() {
		return ErrIndexNotReady
	}
	// Encode both bounds into one pooled buffer and slice it afterwards, so
	// growth between the two appends cannot invalidate the first bound.  A
	// nil []Value bound stays a nil byte bound (unbounded).
	sc := db.scratchPool.Get().(*scratch)
	defer db.scratchPool.Put(sc)
	sc.ord = sc.ord[:0]
	if from != nil {
		sc.ord = AppendOrderedKey(sc.ord, from)
	}
	fl := len(sc.ord)
	if to != nil {
		sc.ord = AppendOrderedKey(sc.ord, to)
	}
	var fromB, toB []byte
	if from != nil {
		fromB = sc.ord[:fl]
	}
	if to != nil {
		toB = sc.ord[fl:]
	}
	t.rlock()
	defer t.mu.RUnlock()
	ix.tree.AscendRange(fromB, toB, func(_ []byte, ids []int64) bool {
		for _, id := range ids {
			if v, ok := t.viewLocked(id); ok && !visit(v) {
				return false
			}
		}
		return true
	})
	return nil
}

// AggregateResult summarizes a numeric column.
type AggregateResult struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Mean  float64
}

// Aggregate computes count/sum/min/max/mean of a numeric column, skipping
// NULLs.
func (db *DB) Aggregate(table, column string) (AggregateResult, error) {
	t, ok := db.tables[table]
	if !ok {
		return AggregateResult{}, ErrNoSuchTable
	}
	idx := t.schema.ColumnIndex(column)
	if idx < 0 {
		return AggregateResult{}, fmt.Errorf("relstore: table %q has no column %q", table, column)
	}
	res := AggregateResult{Min: math.Inf(1), Max: math.Inf(-1)}
	t.rlock()
	defer t.mu.RUnlock()
	t.heap.scan(func(r RowView) bool {
		var f float64
		switch v := r.val(idx); v.Kind {
		case KindInt:
			f = float64(v.I)
		case KindFloat:
			f = v.F
		default:
			return true
		}
		res.Count++
		res.Sum += f
		if f < res.Min {
			res.Min = f
		}
		if f > res.Max {
			res.Max = f
		}
		return true
	})
	if res.Count > 0 {
		res.Mean = res.Sum / float64(res.Count)
	} else {
		res.Min, res.Max = 0, 0
	}
	return res, nil
}

// VerifyIntegrity checks every foreign key of every live row and returns the
// number of orphaned rows found (0 means the repository is referentially
// consistent).  The integration tests run this after every load.
//
// It is a post-load verification: run it after writers have finished.  It
// holds each scanned table's read lock and, taken once for the scan as the
// insert path takes them for a run (lockParentsForBatch), its parents' read
// locks.  That is safe for the acyclic (parent-before-child) catalog schema
// but could deadlock against concurrent verifiers and writers if a schema
// contained a foreign-key cycle across tables.
func (db *DB) VerifyIntegrity() (orphans int64, err error) {
	var sc scratch
	for _, name := range db.schema.TableNames() {
		t := db.tables[name]
		ts := t.schema
		if len(ts.ForeignKeys) == 0 {
			continue
		}
		// Only the foreign-key columns of each stored row are read out, into
		// one reused row; the others stay NULL and are never looked at.
		row := make(Row, len(ts.Columns))
		t.rlock()
		parents := t.lockParentsForBatch(db, &sc)
		t.heap.scan(func(v RowView) bool {
			for _, cols := range t.fkColIdxs {
				for _, c := range cols {
					row[c] = v.val(c)
				}
			}
			var rep OpReport
			if e := db.checkForeignKeys(&sc, t, row, &rep); e != nil {
				orphans++
			}
			return true
		})
		runlockAll(parents)
		t.mu.RUnlock()
	}
	return orphans, nil
}

// VerifyPrimaryKeys checks every table's primary-key and unique indexes
// against the heap: each live row's key must look up to that row's own id
// (so no key is missing, stale or held by two rows) and each index must hold
// exactly one key per live row.  Tests and skyperf run it on every loaded,
// rolled-back and recovered database.
func (db *DB) VerifyPrimaryKeys() error {
	var sc scratch
	for _, name := range db.schema.TableNames() {
		t := db.tables[name]
		var bad error
		t.rlock()
		keys := append([]*keyIndex{t.pk}, t.uniques...)
		t.scanRowsByID(func(id int64, v RowView) {
			for _, k := range keys {
				if bad != nil {
					return
				}
				key := sc.keyOfView(v, k.cols)
				switch got, ok := k.lookup(key); {
				case !ok:
					bad = fmt.Errorf("relstore: key %s of table %q row %d missing from index %q", EncodeKey(key), name, id, k.name)
				case got != id:
					bad = fmt.Errorf("relstore: key %s of table %q row %d is held by row %d in index %q", EncodeKey(key), name, id, got, k.name)
				}
			}
		})
		for _, k := range keys {
			if bad == nil && int64(k.len()) != t.heap.rowCount {
				bad = fmt.Errorf("relstore: table %q has %d rows but index %q holds %d keys", name, t.heap.rowCount, k.name, k.len())
			}
		}
		t.mu.RUnlock()
		if bad != nil {
			return bad
		}
	}
	return nil
}
