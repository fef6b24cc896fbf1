package relstore

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Index is a secondary index over one or more columns of a table.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool

	tree    *BTree
	colIdxs []int
	// floatCols and otherCols count the float-typed and non-float-typed
	// indexed columns.  They are classified once at creation so the cost
	// attribution in chargeInserts does not re-inspect the schema for every
	// batch.
	floatCols int
	otherCols int
	// int64Keyed marks a single-column index whose non-NULL comparisons
	// reduce to the Value.I payload (integer, timestamp or boolean column) —
	// the htmid index shape — so the bulk paths can sort raw int64 pairs
	// instead of calling a comparator; keyKind is the column's value kind for
	// re-encoding the keys after that sort.  Float-leading indexes need no
	// special comparator anymore: encoded keys compare with one bytes.Compare
	// regardless of column kinds.
	int64Keyed bool
	keyKind    ValueKind

	// policy is the index's maintenance policy (see IndexPolicy).  suspended
	// marks a deferred-policy index whose maintenance is currently paused by
	// an open load phase: insert and rollback paths skip it and Seal rebuilds
	// it from the heap.  It is an atomic because query-side readers check
	// Ready without taking the table lock.
	policy    IndexPolicy
	suspended atomic.Bool
}

// Tree exposes the underlying B-tree (read-only use by tests and tools).  A
// load writes the tree, and Seal replaces it, under the table's write lock, so
// beside either read StatsSnapshot instead.
func (ix *Index) Tree() *BTree { return ix.tree }

// Policy returns the index's maintenance policy.
func (ix *Index) Policy() IndexPolicy { return ix.policy }

// Ready reports whether the index is complete and safe to answer queries
// from.  It is false for a deferred-policy index between BeginLoad and Seal,
// when the index is missing the rows loaded so far; query planners should
// fall back to a scan while it is false.
func (ix *Index) Ready() bool { return !ix.suspended.Load() }

// rowDir maps row ids to heap locations.  Row ids and heap slots both advance
// by one per append, whoever appends, so the directory is runs of consecutive
// ids in consecutive slots of one page, sorted by first id: a load opens one
// run per page, and only replay of a log whose records for a table are out
// of id order (see replayOneLocked) opens one mid-slice.  A run keeps
// rolled-back ids: the heap's rollback mark is the only tombstone, and a
// covered id is spent.
type rowDir struct{ runs []idRun }

// idRun says row id first+k is stored at (page, slot+k) for every k < n.
type idRun struct {
	first, n, page, slot uint32
}

// put records that row id, which no run covers, is stored at loc.
func (d *rowDir) put(id int64, loc rowLoc) {
	i, _, _ := d.find(id)
	if i >= 0 {
		if r := &d.runs[i]; int64(r.first)+int64(r.n) == id && r.page == loc.page && r.slot+r.n == loc.slot {
			r.n++
			return
		}
	}
	d.runs = slices.Insert(d.runs, i+1, idRun{first: uint32(id), n: 1, page: loc.page, slot: loc.slot})
}

// find returns the position of the last run starting at or below id (-1 when
// there is none), whether that run covers id, and how many runs it tried.  The
// first try scales id's place in the directory's id span onto its runs —
// right at once when they are equally long, as a load's nearly are — and each
// next one steps from the run just tried by that run's own length; past three
// tries every other one halves what is left, whatever the lengths.  It sits
// under every index candidate and key-index tag match: a binary search alone
// reads 75 ns where the scaled try reads 5 (PERFORMANCE.md).
func (d *rowDir) find(id int64) (at int, covered bool, tries int) {
	lo, hi := 0, len(d.runs)-1
	if hi < 0 || id < int64(d.runs[0].first) {
		return -1, false, 0
	}
	try, first := hi, uint64(d.runs[0].first)
	if off, span := uint64(id)-first, uint64(d.runs[hi].first)+uint64(d.runs[hi].n)-first; off < span {
		try = int(off * uint64(hi+1) / span)
	}
	for lo < hi {
		i := min(max(try, lo), hi)
		if tries++; tries > 3 && tries%2 == 0 {
			i = lo + (hi-lo+1)/2
		}
		switch r := &d.runs[i]; {
		case id < int64(r.first):
			hi, try = i-1, i-1-int((r.first-1-uint32(id))/r.n)
		case i < hi && id >= int64(d.runs[i+1].first):
			lo, try = i+1, i+int((uint32(id)-r.first)/r.n)
		default:
			lo, hi = i, i
		}
	}
	return lo, id-int64(d.runs[lo].first) < int64(d.runs[lo].n), tries
}

// get returns the location row id was stored at; the slot may since be dead.
func (d *rowDir) get(id int64) (rowLoc, bool) {
	i, ok, _ := d.find(id)
	if !ok {
		return rowLoc{}, false
	}
	return rowLoc{page: d.runs[i].page, slot: d.runs[i].slot + uint32(id) - d.runs[i].first}, true
}

// scanRowsByID visits every live row in row-id order; t.mu must be held.
// Index builds and the checkpoint read (id, row) pairs off the runs: ids stay
// right across the gaps rollbacks leave, which heap scan positions do not.
func (t *Table) scanRowsByID(visit func(id int64, r RowView)) {
	for _, run := range t.rows.runs {
		for k := uint32(0); k < run.n; k++ {
			if r, ok := t.heap.view(rowLoc{page: run.page, slot: run.slot + k}); ok {
				visit(int64(run.first)+int64(k), r)
			}
		}
	}
}

// Table is the runtime state of one table: schema, heap storage, primary-key
// hash index, unique-constraint hash indexes and secondary B-tree indexes.
// Rows, the row directory and the hash indexes hold no pointers, so the
// collector's work does not grow with the rows loaded.
//
// Concurrency: mu guards all mutable state (heap, row map, hash indexes,
// B-trees, index list, pre-population counters).  Writers (applyBatchChunk,
// deleteRow, createIndex, dropIndex, prePopulate) take the write lock; the
// exported read accessors take the read lock through rlock, which lets a
// batch see that a reader is queued behind it.  Key/encoding scratch buffers
// are NOT table state — they travel with the transaction (see scratch.go) so
// concurrent writers on different goroutines never share them.
type Table struct {
	schema *TableSchema

	// tid is the table's stable numeric id (schema declaration order),
	// assigned by DB.open; durable WAL records identify tables by it.
	tid uint32

	mu sync.RWMutex
	// waitingReaders counts the readers currently blocked in rlock behind a
	// writer.  The batch-apply loop polls it to decide whether to yield the
	// table mid-batch (see insertBatchLocked).
	waitingReaders atomic.Int32

	heap    *heapStore
	rows    rowDir
	nextRow int64

	pkCols []int
	pk     *keyIndex

	// fkColIdxs[i] holds the resolved column positions of schema.ForeignKeys[i],
	// and checkCols[i] that of schema.Checks[i].Column (-1 when the check names
	// none), so the per-row probes index the row directly instead of
	// re-resolving column names through the schema map.
	fkColIdxs [][]int
	checkCols []int

	uniques []*keyIndex

	indexes map[string]*Index
	// indexList is the name-sorted snapshot of indexes, rebuilt eagerly on
	// create/drop so readers and the insert path never mutate it in place.
	// liveList is the subset currently maintained on insert/rollback: it
	// excludes suspended (deferred, mid-load) indexes and is rebuilt together
	// with indexList on create/drop/suspend/seal.
	indexList []*Index
	liveList  []*Index

	btreeDegree int
	// loading points at the owning DB's load-phase flag, read when an index
	// is created mid-load (a deferred index created then starts suspended).
	loading *atomic.Bool

	// prePopulatedBytes models rows that "already exist" in the table from
	// earlier loading sessions without materializing them (Figure 9 sweeps
	// the database size from 50 to 300 GB).
	prePopulatedBytes int64
	prePopulatedRows  int64

	// epoch counts committed (and rolled-back) transactions that touched this
	// table.  Result caches key their entries to the epoch observed while
	// computing a result: a bump invalidates every cached result for the
	// table.  Rollbacks bump too, because the engine stores rows at insert
	// time — rows of a rolled-back transaction were transiently visible to
	// readers, so any result computed meanwhile must not be served again.
	epoch atomic.Int64

	// pendingRows counts rows inserted by transactions that have not yet
	// committed or rolled back.  A reader that observes pendingRows == 0
	// before and after a scan, with an unchanged epoch, has seen a pure
	// committed snapshot (see DB.SnapshotRead).
	pendingRows atomic.Int64
}

func newTable(schema *TableSchema, btreeDegree int, loading *atomic.Bool) (*Table, error) {
	t := &Table{
		schema:      schema,
		heap:        newHeapStore(schema.Columns),
		indexes:     make(map[string]*Index),
		indexList:   []*Index{},
		btreeDegree: btreeDegree,
		loading:     loading,
	}
	for _, c := range schema.PrimaryKey {
		idx := schema.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("relstore: table %q: primary key column %q missing", schema.Name, c)
		}
		t.pkCols = append(t.pkCols, idx)
	}
	t.pk = newKeyIndex(t, "pk_"+schema.Name, t.pkCols)
	for _, fk := range schema.ForeignKeys {
		cols := make([]int, len(fk.Columns))
		for i, c := range fk.Columns {
			idx := schema.ColumnIndex(c)
			if idx < 0 {
				return nil, fmt.Errorf("relstore: table %q: foreign key column %q missing", schema.Name, c)
			}
			cols[i] = idx
		}
		t.fkColIdxs = append(t.fkColIdxs, cols)
	}
	for _, ck := range schema.Checks {
		idx := -1
		if ck.Column != "" {
			if idx = schema.ColumnIndex(ck.Column); idx < 0 {
				return nil, fmt.Errorf("relstore: table %q: check column %q missing", schema.Name, ck.Column)
			}
		}
		t.checkCols = append(t.checkCols, idx)
	}
	for _, u := range schema.Uniques {
		var cols []int
		for _, c := range u.Columns {
			idx := schema.ColumnIndex(c)
			if idx < 0 {
				return nil, fmt.Errorf("relstore: table %q: unique column %q missing", schema.Name, c)
			}
			cols = append(cols, idx)
		}
		t.uniques = append(t.uniques, newKeyIndex(t, u.Name, cols))
	}
	return t, nil
}

// rlock takes the table's read lock on behalf of a reader the batch-apply
// path should yield to: when a writer holds (or is queued for) the lock, the
// wait is counted in waitingReaders.  The uncontended side is one TryRLock.
// A loader probing a foreign-key parent takes mu.RLock directly instead — it
// is not a reader to yield to.
func (t *Table) rlock() {
	if t.mu.TryRLock() {
		return
	}
	t.waitingReaders.Add(1)
	t.mu.RLock()
	t.waitingReaders.Add(-1)
}

// Schema returns the table's schema.
func (t *Table) Schema() *TableSchema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// RowCount returns the number of live rows physically stored.
func (t *Table) RowCount() int64 {
	t.rlock()
	defer t.mu.RUnlock()
	return t.heap.rowCount
}

// LogicalRowCount returns stored plus pre-populated rows.
func (t *Table) LogicalRowCount() int64 {
	t.rlock()
	defer t.mu.RUnlock()
	return t.heap.rowCount + t.prePopulatedRows
}

// LogicalByteSize returns stored plus pre-populated bytes.
func (t *Table) LogicalByteSize() int64 {
	t.rlock()
	defer t.mu.RUnlock()
	return t.heap.bytes + t.prePopulatedBytes
}

// stat returns the table's TableStat.
func (t *Table) stat() TableStat {
	t.rlock()
	defer t.mu.RUnlock()
	keys := t.pk.residentBytes()
	for _, u := range t.uniques {
		keys += u.residentBytes()
	}
	dir := int64(cap(t.rows.runs)) * int64(unsafe.Sizeof(idRun{}))
	return TableStat{Name: t.schema.Name, Rows: t.heap.rowCount, NominalBytes: t.heap.bytes,
		ResidentBytes: t.heap.residentBytes() + dir + keys, KeyIndexBytes: keys,
		RowDirBytes: dir, RowDirRuns: len(t.rows.runs)}
}

// appendIndexStats appends the IndexStat of each of the table's indexes, in
// name order.  The trees are read under the table lock: loaders write their
// counters, and Seal replaces them, under its write side.
func (t *Table) appendIndexStats(out []IndexStat) []IndexStat {
	t.rlock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexList {
		out = append(out, IndexStat{Table: ix.Table, Name: ix.Name, Unique: ix.Unique, Ready: ix.Ready(),
			KeyBytes: int64(ix.tree.KeyBytes()), ArenaBytes: int64(ix.tree.ArenaBytes()),
			ResidentBytes: ix.tree.ResidentBytes()})
	}
	return out
}

// PageCount returns the number of heap pages allocated.
func (t *Table) PageCount() int {
	t.rlock()
	defer t.mu.RUnlock()
	return t.heap.pageCount()
}

// Indexes returns the table's secondary indexes sorted by name.  The slice is
// an immutable snapshot rebuilt on create/drop; callers must not mutate it.
func (t *Table) Indexes() []*Index {
	t.rlock()
	defer t.mu.RUnlock()
	return t.indexList
}

// rebuildIndexList refreshes the sorted snapshots (all indexes and the
// currently maintained subset); t.mu must be write-held.
func (t *Table) rebuildIndexList() {
	out := make([]*Index, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	t.indexList = out
	live := make([]*Index, 0, len(out))
	for _, ix := range out {
		if !ix.suspended.Load() {
			live = append(live, ix)
		}
	}
	t.liveList = live
}

// CommitEpoch returns the table's commit epoch: the number of transactions
// that touched the table and have since committed or rolled back.  Any change
// to the epoch means previously computed query results over the table may be
// stale.
func (t *Table) CommitEpoch() int64 { return t.epoch.Load() }

// UncommittedRows returns the number of rows currently visible in the table
// that belong to transactions still in flight.  When it is zero the stored
// rows are exactly the committed state of the current epoch.
func (t *Table) UncommittedRows() int64 { return t.pendingRows.Load() }

// Index returns the named index or nil.
func (t *Table) Index(name string) *Index {
	t.rlock()
	defer t.mu.RUnlock()
	return t.indexes[name]
}

// checkRow validates NOT NULL and CHECK constraints, returning the number of
// constraint evaluations performed.
func (t *Table) checkRow(row Row) (int, error) {
	checks := 0
	for i, c := range t.schema.Columns {
		if !c.Nullable {
			checks++
			if row[i].IsNull() {
				return checks, &ConstraintError{Kind: KindNotNull, Table: t.schema.Name, Column: c.Name}
			}
		}
	}
	for ci := range t.schema.Checks {
		ck := &t.schema.Checks[ci]
		checks++
		if idx := t.checkCols[ci]; idx >= 0 {
			v := row[idx]
			if !v.IsNull() && (ck.Min != nil || ck.Max != nil) {
				var f float64
				switch v.Kind {
				case KindInt:
					f = float64(v.I)
				case KindFloat:
					f = v.F
				default:
					return checks, &ConstraintError{Kind: KindCheck, Table: t.schema.Name,
						Constraint: ck.Name, Column: ck.Column, Detail: "non-numeric value for range check"}
				}
				if ck.Min != nil && f < *ck.Min {
					return checks, &ConstraintError{Kind: KindCheck, Table: t.schema.Name,
						Constraint: ck.Name, Column: ck.Column,
						Detail: fmt.Sprintf("value %v below minimum %v", f, *ck.Min)}
				}
				if ck.Max != nil && f > *ck.Max {
					return checks, &ConstraintError{Kind: KindCheck, Table: t.schema.Name,
						Constraint: ck.Name, Column: ck.Column,
						Detail: fmt.Sprintf("value %v above maximum %v", f, *ck.Max)}
				}
			}
		}
		if ck.Fn != nil && !ck.Fn(row) {
			return checks, &ConstraintError{Kind: KindCheck, Table: t.schema.Name, Constraint: ck.Name}
		}
	}
	return checks, nil
}

// dupKeyError is the violation for a key already present in the primary-key
// or a unique index.
func (t *Table) dupKeyError(sc *scratch, kind ConstraintKind, k *keyIndex, row Row) error {
	return &ConstraintError{Kind: kind, Table: t.schema.Name, Constraint: k.name,
		Detail: "duplicate key " + EncodeKey(sc.keyOf(row, k.cols))}
}

// checkKeys probes the primary-key and unique indexes for the built row's
// keys and checks that the next row id fits them; t.mu must be held.
func (t *Table) checkKeys(sc *scratch, row Row, rep *OpReport) error {
	if t.pk.has(row) {
		return t.dupKeyError(sc, KindPrimaryKey, t.pk, row)
	}
	for _, u := range t.uniques {
		rep.ConstraintChecks++
		if u.has(row) {
			return t.dupKeyError(sc, KindUnique, u, row)
		}
	}
	return t.checkRowID(t.nextRow)
}

// putKeys enters a row already in the heap and the row directory into the
// primary-key and unique indexes.
func (t *Table) putKeys(row Row, id int64) {
	t.pk.put(row, id)
	for _, u := range t.uniques {
		u.put(row, id)
	}
}

// deleteRow removes a previously inserted row (transaction rollback only).
func (t *Table) deleteRow(sc *scratch, id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	loc, ok := t.rows.get(id)
	if !ok {
		return
	}
	row, ok := t.heap.view(loc)
	if !ok {
		return
	}
	t.pk.remove(sc.keyOfView(row, t.pkCols), id)
	for _, u := range t.uniques {
		u.remove(sc.keyOfView(row, u.cols), id)
	}
	// Suspended indexes hold no entries for rows inserted during the load
	// phase, so rollback skips them; Seal later rebuilds from the surviving
	// heap rows only.  The encode reuses the scratch buffer and Delete only
	// tombstones the entry — the key's bytes stay in its node — so a rollback
	// neither allocates per index nor moves key bytes.
	for _, ix := range t.liveList {
		ix.tree.Delete(sc.ordKey(sc.keyOfView(row, ix.colIdxs)), id)
	}
	t.heap.markDeleted(loc)
}

// lookupPK returns whether a row with the given primary-key values exists.
// The caller must hold t.mu (read or write).
func (t *Table) lookupPK(key []Value) bool {
	_, ok := t.pk.lookup(key)
	return ok
}

// viewLocked returns the stored row with the given id; ok is false when the
// id is not live.  The caller must hold t.mu and must not use the view past
// the lock.
func (t *Table) viewLocked(id int64) (RowView, bool) {
	loc, ok := t.rows.get(id)
	if !ok {
		return RowView{}, false
	}
	return t.heap.view(loc)
}

// createIndex builds a secondary index over the named columns, populating it
// from existing rows.  It returns the populated index.  A deferred-policy
// index created while a load phase is open starts suspended with an empty
// tree: Seal populates it, so the backfill pass is skipped.
func (t *Table) createIndex(name string, columns []string, unique bool, policy IndexPolicy) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.indexes[name]; exists {
		return nil, ErrIndexExists
	}
	ix := &Index{Name: name, Table: t.schema.Name, Columns: columns, Unique: unique,
		policy: policy, tree: NewBTree(t.btreeDegree)}
	for _, c := range columns {
		idx := t.schema.ColumnIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("relstore: index %q references column %q: %w", name, c, ErrNoSuchColumn)
		}
		ix.colIdxs = append(ix.colIdxs, idx)
		if t.schema.Columns[idx].Type == TypeFloat {
			ix.floatCols++
		} else {
			ix.otherCols++
		}
	}
	switch t.schema.Columns[ix.colIdxs[0]].Type {
	case TypeInt:
		ix.int64Keyed, ix.keyKind = len(ix.colIdxs) == 1, KindInt
	case TypeTime:
		ix.int64Keyed, ix.keyKind = len(ix.colIdxs) == 1, KindTime
	case TypeBool:
		ix.int64Keyed, ix.keyKind = len(ix.colIdxs) == 1, KindBool
	}
	if policy == IndexDeferred && t.loading != nil && t.loading.Load() {
		// Mid-load creation of a deferred index: no backfill, Seal builds it.
		ix.suspended.Store(true)
	} else if t.heap.rowCount > 0 {
		// Backfill is the bulk build Seal uses: (id, row) pairs straight off
		// the row directory, sorted once, leaves packed left to right.
		t.rebuildIndexLocked(ix)
	}
	t.indexes[name] = ix
	t.rebuildIndexList()
	return ix, nil
}

// dropIndex removes the named index.
func (t *Table) dropIndex(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[name]; !ok {
		return ErrNoSuchIndex
	}
	delete(t.indexes, name)
	t.rebuildIndexList()
	return nil
}

// prePopulate marks the table as already containing rows/bytes loaded in
// earlier sessions without materializing them.
func (t *Table) prePopulate(rows, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prePopulatedRows += rows
	t.prePopulatedBytes += bytes
}
