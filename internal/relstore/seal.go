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
// heap rows in one presorted bulk pass (BTree.BuildFromSorted) and normal
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

// scanRowsByID visits every live row in row-id order; t.mu must be held.
// The row directory is indexed by id, so index builds and the checkpoint read
// (id, row) pairs with two array lookups per row — ids stay right across the
// gaps rollbacks leave, which heap scan positions do not.
func (t *Table) scanRowsByID(visit func(id int64, r RowView)) {
	for id, loc := range t.rows.locs {
		if r, ok := t.heap.view(loc); ok {
			visit(int64(id), r)
		}
	}
}

// rebuildIndexLocked collects the table's live (key, row id) pairs for the
// index, encodes the keys into one flat arena, sorts the pairs by (encoded
// key, id) — a memcmp-driven sort, which is why the float-surrogate sort the
// []Value layout needed is gone — and replaces the index's tree with a fresh
// bulk-built one that retains the arena; t.mu must be write-held.
// Single-column integer-kinded indexes (the htmid shape) take a raw-int64
// fast path mirroring the batch path's bulkIndexInsertInt64: extract
// payloads, pair-sort without a comparator, build directly.
func (t *Table) rebuildIndexLocked(ix *Index) IndexBuildReport {
	rep := IndexBuildReport{
		Table: t.schema.Name, Index: ix.Name,
		IntCols: ix.otherCols, FloatCols: ix.floatCols,
	}
	if ix.int64Keyed && t.rebuildIndexInt64Locked(ix, &rep) {
		return rep
	}
	k := len(ix.colIdxs)
	n := int(t.heap.rowCount)
	karena := make([]byte, 0, n*k*9) // exact for numeric kinds; strings grow it
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
	tree := NewBTree(t.btreeDegree)
	st := tree.buildFromKVs(kvs, cap(karena))
	ix.tree = tree
	rep.Rows = st.Rows
	rep.DistinctKeys = st.Entries
	rep.NodesBuilt = st.NodesBuilt
	rep.Height = st.Height
	return rep
}

// rebuildIndexInt64Locked is rebuildIndexLocked for single-column
// integer-kinded indexes with no NULL keys: raw int64 extraction, the
// specialized pair sort, and a direct bulk build of one-element keys carved
// from a flat arena.  It reports false — having done nothing — when a NULL
// key means the generic path must handle the rebuild.
func (t *Table) rebuildIndexInt64Locked(ix *Index, rep *IndexBuildReport) bool {
	c := ix.colIdxs[0]
	n := int(t.heap.rowCount)
	ks := make([]int64, 0, n)
	vs := make([]int64, 0, n)
	sorted := true
	null := false
	t.scanRowsByID(func(id int64, r RowView) {
		if null {
			return
		}
		if r.IsNull(c) {
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
		return false
	}
	if !sorted {
		// Row-id order is insertion order, so ids ascend within equal keys.
		sortInt64Pairs(ks, vs)
	}
	rep.EntryBytes += len(ks) * (ValueSize(Value{Kind: ix.keyKind}) + 8)

	// Build entries straight from the raw keys: adjacent duplicates merge on
	// an int64 compare, encoded keys are carved from one flat byte arena, and
	// the initial one-id slices are full-cap sub-slices of a second arena.
	karena := make([]byte, 0, len(ks)*9)
	idArena := make([]int64, 0, len(ks))
	entries := make([]btreeEntry, 0, len(ks))
	var prev int64
	for i := range ks {
		if n := len(entries); n > 0 && prev == ks[i] {
			entries[n-1].rowIDs = append(entries[n-1].rowIDs, vs[i])
			continue
		}
		prev = ks[i]
		start := len(karena)
		karena = appendOrderedValue(karena, Value{Kind: ix.keyKind, I: ks[i]})
		idArena = append(idArena, vs[i])
		entries = append(entries, btreeEntry{
			key:    karena[start:len(karena):len(karena)],
			rowIDs: idArena[len(idArena)-1 : len(idArena) : len(idArena)],
		})
	}
	tree := NewBTree(t.btreeDegree)
	st := tree.buildFromEntries(entries, len(ks))
	tree.keyArena = karena
	tree.idArena = idArena
	tree.keyBytes = len(karena)
	tree.arenaBytes = cap(karena)
	ix.tree = tree
	rep.Rows = st.Rows
	rep.DistinctKeys = st.Entries
	rep.NodesBuilt = st.NodesBuilt
	rep.Height = st.Height
	return true
}

// buildFromKVs is BuildFromSorted over idxKV pairs (the seal path's layout).
// Unlike the exported entry point it does not clone keys: rebuildIndexLocked
// encodes into a fresh key arena per rebuild and never reuses it, so the tree
// may retain the kv key slices directly; arenaCap is that arena's capacity,
// recorded for the ArenaBytes accounting.  Initial row-id slices are carved
// full (len == cap) from one arena, so later appends reallocate instead of
// overwriting a neighbour.
func (t *BTree) buildFromKVs(kvs []idxKV, arenaCap int) BuildStats {
	idArena := make([]int64, 0, len(kvs))
	entries := make([]btreeEntry, 0, len(kvs))
	keyBytes := 0
	for i := range kvs {
		if n := len(entries); n > 0 && bytes.Equal(entries[n-1].key, kvs[i].key) {
			entries[n-1].rowIDs = append(entries[n-1].rowIDs, kvs[i].id)
			continue
		}
		keyBytes += len(kvs[i].key)
		idArena = append(idArena, kvs[i].id)
		entries = append(entries, btreeEntry{key: kvs[i].key,
			rowIDs: idArena[len(idArena)-1 : len(idArena) : len(idArena)]})
	}
	t.keyArena = nil
	t.idArena = idArena
	t.keyBytes = keyBytes
	t.arenaBytes = arenaCap
	return t.buildFromEntries(entries, len(kvs))
}
