package relstore

import (
	"bytes"
	"slices"
)

// This file implements the load lifecycle around deferred index maintenance,
// the engine-level form of the paper's Figure 8 tuning: drop secondary
// indexes while loading, rebuild them in bulk afterwards.
//
//	db.BeginLoad()          // suspend every deferred-policy index
//	... bulk ingest ...     // inserts skip suspended indexes entirely
//	rep, err := db.Seal()   // rebuild each suspended index from the heap
//
// Ownership rules (enforced by documentation, checked where cheap):
//
//   - BeginLoad must be called with no transaction in flight that has already
//     inserted rows: rows indexed before suspension and rolled back after it
//     would leave stale index entries behind, because rollback skips
//     suspended indexes.
//   - Seal is called once, by the load coordinator, after every loader
//     transaction has committed or rolled back.  It takes each table's write
//     lock for the duration of that table's rebuilds, so concurrent readers
//     block per table and writers queue; it never observes a torn index.
//   - Between BeginLoad and Seal a suspended index reports Ready() == false
//     and is missing every row loaded since the phase opened; query planners
//     must fall back to a scan (internal/queries does).
//
// Seal rebuilds from the live heap only, so a batch rolled back mid-load
// leaves the sealed index identical to one maintained immediately over the
// surviving rows (see TestSealAfterRollback).

// IndexBuildReport describes the bulk rebuild of one index by Seal.
type IndexBuildReport struct {
	Table string
	Index string
	// Rows is the number of (key, row) pairs streamed into the build.
	Rows int
	// DistinctKeys is the number of distinct keys stored.
	DistinctKeys int
	// NodesBuilt is the number of B-tree nodes constructed.
	NodesBuilt int
	// Height is the height of the finished tree.
	Height int
	// EntryBytes is the index-entry volume written (same accounting as
	// OpReport.IndexEntryBytes).
	EntryBytes int
	// IntCols and FloatCols are the index's integer-kinded and float key
	// column counts, the cost classes the DES model charges per node (the
	// same classes that price immediate maintenance, so virtual-time
	// comparisons of the two policies answer the same question).
	IntCols   int
	FloatCols int
}

// SealReport aggregates the work performed by one Seal call.
type SealReport struct {
	// Indexes reports each rebuilt index, ordered by table then index name.
	Indexes []IndexBuildReport
	// RowsStreamed, NodesBuilt and EntryBytes are totals over Indexes.
	RowsStreamed int
	NodesBuilt   int
	EntryBytes   int
}

// Sealed reports whether the call rebuilt anything.
func (r SealReport) Sealed() bool { return len(r.Indexes) > 0 }

// BeginLoad opens a load phase: every index whose policy is IndexDeferred is
// suspended, so subsequent inserts skip it, until Seal rebuilds it.  Indexes
// with the immediate policy are unaffected.  It returns ErrLoadPhaseActive
// if a load phase is already open.
func (db *DB) BeginLoad() error {
	if !db.loading.CompareAndSwap(false, true) {
		return ErrLoadPhaseActive
	}
	for _, name := range db.schema.TableNames() {
		t := db.tables[name]
		t.mu.Lock()
		changed := false
		for _, ix := range t.indexList {
			if ix.policy == IndexDeferred && !ix.suspended.Load() {
				ix.suspended.Store(true)
				changed = true
			}
		}
		if changed {
			t.rebuildIndexList()
		}
		t.mu.Unlock()
	}
	return nil
}

// InLoadPhase reports whether a load phase is open (BeginLoad called, Seal
// not yet).
func (db *DB) InLoadPhase() bool { return db.loading.Load() }

// Seal closes the load phase: every suspended index is rebuilt from the live
// heap rows in one presorted bulk pass (BTree.buildFromKVs) and normal
// maintenance resumes.  Tables are processed in schema name order, each under
// its write lock.  Seal is idempotent — with no load phase open and nothing
// suspended it returns an empty report.
func (db *DB) Seal() (SealReport, error) {
	// The load-phase flag drops before any table lock is taken.  Order
	// matters for a concurrent CreateIndexWith(..., IndexDeferred): its
	// mid-load check runs under the table lock, so once this store is
	// visible a new deferred index backfills immediately instead of
	// starting suspended — were the flag cleared after the per-table
	// sweeps, an index created on an already-swept table would stay
	// suspended forever with no later Seal to rebuild it.  An index that
	// instead wins its table's lock before the sweep starts suspended and
	// the sweep rebuilds it; either way nothing is left un-ready.
	db.loading.Store(false)
	var rep SealReport
	for _, name := range db.schema.TableNames() {
		db.tables[name].sealIndexes(&rep)
	}
	for i := range rep.Indexes {
		rep.RowsStreamed += rep.Indexes[i].Rows
		rep.NodesBuilt += rep.Indexes[i].NodesBuilt
		rep.EntryBytes += rep.Indexes[i].EntryBytes
	}
	return rep, nil
}

// sealIndexes rebuilds every suspended index of the table under one
// write-lock hold.
func (t *Table) sealIndexes(rep *SealReport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var suspended []*Index
	for _, ix := range t.indexList {
		if ix.suspended.Load() {
			suspended = append(suspended, ix)
		}
	}
	if len(suspended) == 0 {
		return
	}
	for _, ix := range suspended {
		rep.Indexes = append(rep.Indexes, t.rebuildIndexLocked(ix))
		ix.suspended.Store(false)
	}
	t.rebuildIndexList()
}

// rebuildIndexLocked replaces the index's tree with one bulk-built from the
// table's live (key, row id) pairs, sorted by (encoded key, id); the pairs and
// the flat arena their keys point into are garbage once the nodes hold their
// own copies.  t.mu must be write-held.
func (t *Table) rebuildIndexLocked(ix *Index) IndexBuildReport {
	rep := IndexBuildReport{
		Table: t.schema.Name, Index: ix.Name,
		IntCols: ix.otherCols, FloatCols: ix.floatCols,
	}
	kvs, ok := []idxKV(nil), false
	if ix.int64Keyed {
		kvs, ok = t.sortedInt64KVs(ix, &rep)
	}
	if !ok {
		kvs = t.sortedKVs(ix, &rep)
	}
	ix.tree = NewBTree(t.btreeDegree)
	st := ix.tree.buildFromKVs(kvs)
	rep.Rows, rep.DistinctKeys, rep.NodesBuilt, rep.Height = st.Rows, st.Entries, st.NodesBuilt, st.Height
	return rep
}

// sortedKVs encodes every live row's index key into one flat arena and sorts
// the pairs — a memcmp-driven sort, which is why the float-surrogate sort the
// []Value layout needed is gone.
func (t *Table) sortedKVs(ix *Index, rep *IndexBuildReport) []idxKV {
	n := int(t.heap.rowCount)
	karena := make([]byte, 0, n*len(ix.colIdxs)*9) // exact for numeric kinds; strings grow it
	kvs := make([]idxKV, 0, n)
	sorted := true
	t.scanRowsByID(func(id int64, r RowView) {
		start := len(karena)
		for _, c := range ix.colIdxs {
			v := r.val(c)
			karena = appendOrderedValue(karena, v)
			rep.EntryBytes += valueSizeRef(&v)
		}
		rep.EntryBytes += 8 // row id pointer
		key := karena[start:len(karena):len(karena)]
		if sorted && len(kvs) > 0 && bytes.Compare(kvs[len(kvs)-1].key, key) > 0 {
			sorted = false
		}
		kvs = append(kvs, idxKV{key: key, id: id})
	})
	if !sorted {
		// Heap order is insertion order, so ids ascend within equal keys and
		// the id tie-break reproduces per-row insertion order.
		slices.SortFunc(kvs, cmpKV)
	}
	return kvs
}

// sortedInt64KVs is sortedKVs for single-column integer-kinded indexes (the
// htmid shape) with no NULL keys, mirroring the batch path's
// bulkIndexInsertInt64: raw int64 extraction, the specialized pair sort with
// no comparator, and the keys encoded once they are in order.  It reports
// false when a NULL key means the generic path must handle the rebuild.
func (t *Table) sortedInt64KVs(ix *Index, rep *IndexBuildReport) ([]idxKV, bool) {
	c := ix.colIdxs[0]
	n := int(t.heap.rowCount)
	ks := make([]int64, 0, n)
	vs := make([]int64, 0, n)
	sorted := true
	null := false
	t.scanRowsByID(func(id int64, r RowView) {
		if null || r.IsNull(c) {
			null = true
			return
		}
		k := r.Int(c)
		if sorted && len(ks) > 0 && ks[len(ks)-1] > k {
			sorted = false
		}
		ks = append(ks, k)
		vs = append(vs, id)
	})
	if null {
		return nil, false
	}
	if !sorted {
		// Row-id order is insertion order, so ids ascend within equal keys.
		sortInt64Pairs(ks, vs)
	}
	rep.EntryBytes += len(ks) * (ValueSize(Value{Kind: ix.keyKind}) + 8)
	karena := make([]byte, 0, len(ks)*9)
	kvs := make([]idxKV, len(ks))
	for i := range ks {
		start := len(karena)
		karena = appendOrderedValue(karena, Value{Kind: ix.keyKind, I: ks[i]})
		kvs[i] = idxKV{key: karena[start:], id: vs[i]}
	}
	return kvs, true
}
