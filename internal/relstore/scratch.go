package relstore

import "bytes"

// scratch holds the reusable buffers of the insert hot path: column
// resolution, row staging, composite-key extraction, B-tree key encoding and
// foreign-key probes.  With real concurrent writers (the exec.Realtime
// scheduler) a buffer shared per table would be a data race, so each
// transaction owns a scratch for the goroutine driving it.  Scratches are
// pooled on the DB so the zero-allocation property of the row path survives
// across transactions.
//
// Ownership rule: a scratch is used only by the goroutine that owns the
// transaction holding it.  Buffers returned by its methods are valid until
// the next call of the same method; consumers must encode or copy them first
// (BTree.Insert clones stored keys).
type scratch struct {
	key []Value
	ord []byte
	fk  []Value

	// Insert buffers (Txn.InsertBatch, and Txn.Insert as a one-row batch).
	// colIdxs and kinds hold the call's column list resolved against the
	// schema; rows stages the built rows, carved out of arena, and ids the row
	// ids assigned to the applied prefix; kvs collects one secondary index's
	// (key, row id) pairs for the sorted bulk merge, with karena as the flat
	// encoded-key arena the kv key slices point into, so a batch costs O(1)
	// scratch allocations per index rather than O(rows).  All are reset per
	// call (per index for the sort buffers); nothing stored in the engine
	// aliases them — the heap packs rows into its own pages and the B-tree
	// copies stored keys into its own nodes.
	colIdxs []int
	kinds   []ValueKind
	rows    []Row
	arena   []Value
	ids     []int64
	kvs     []idxKV
	karena  []byte
	sortK   []int64
	sortID  []int64

	// parents is the foreign-key parent lock set of one run
	// (Table.lockParentsForBatch).
	parents []*Table

	// wal is where this transaction's durable log records are encoded before
	// the device's append lock is taken (walDevice.logInsert/logMarker):
	// payloads laid end to end, walEnds[i] the end of the i-th.  The device
	// copies them into its buffer under the lock, so the bytes are dead once
	// the append returns.
	wal     []byte
	walEnds []int
}

// idxKV pairs one encoded secondary-index key with the row id it points at
// for the per-batch sort.  Keys sort ascending, tie-broken by row id: ids are
// assigned in row order, so the tie-break reproduces the row-id order
// one-key-at-a-time insertion produces under duplicate keys without needing a
// stable sort.
type idxKV struct {
	key []byte
	id  int64
}

// cmpKV is the idxKV comparator.  The key is an AppendOrderedKey encoding, so
// one bytes.Compare resolves the whole composite ordering; the float- and
// int-leading comparator specializations the []Value layout needed are gone
// because a memcmp is already the fast path.
func cmpKV(a, b idxKV) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	}
	return 0
}

// columnBufs returns the n-entry column-position and value-kind buffers.
func (sc *scratch) columnBufs(n int) ([]int, []ValueKind) {
	if cap(sc.colIdxs) < n {
		sc.colIdxs = make([]int, n)
		sc.kinds = make([]ValueKind, n)
	}
	return sc.colIdxs[:n], sc.kinds[:n]
}

// batchRows returns an empty row-staging buffer with capacity for n rows.
func (sc *scratch) batchRows(n int) []Row {
	if cap(sc.rows) < n {
		sc.rows = make([]Row, 0, n)
	}
	return sc.rows[:0]
}

// batchIDs returns an empty row-id buffer with capacity for n ids.
func (sc *scratch) batchIDs(n int) []int64 {
	if cap(sc.ids) < n {
		sc.ids = make([]int64, 0, n)
	}
	return sc.ids[:0]
}

// batchArena returns an n-value arena for the built rows of a batch, all
// NULL.
func (sc *scratch) batchArena(n int) []Value {
	if cap(sc.arena) < n {
		sc.arena = make([]Value, n)
	}
	vals := sc.arena[:n]
	clear(vals)
	return vals
}

func (sc *scratch) keyBuf(n int) []Value {
	if cap(sc.key) < n {
		sc.key = make([]Value, n)
	}
	return sc.key[:n]
}

// keyOf fills the key buffer with the key columns of row.
func (sc *scratch) keyOf(row Row, cols []int) []Value {
	key := sc.keyBuf(len(cols))
	for i, c := range cols {
		key[i] = row[c]
	}
	return key
}

// keyOfView is keyOf over a stored row.  String components alias the page
// bytes (RowView.val), so the key must be consumed before the table lock is
// released.
func (sc *scratch) keyOfView(v RowView, cols []int) []Value {
	key := sc.keyBuf(len(cols))
	for i, c := range cols {
		key[i] = v.val(c)
	}
	return key
}

// ordKey encodes key with the order-preserving B-tree encoding into the
// reusable ordered-key buffer.  The result is valid until the next ordKey
// call on this scratch; the B-tree copies stored keys into its own nodes, so
// passing the shared buffer to Insert/Delete/Search is safe.
func (sc *scratch) ordKey(key []Value) []byte {
	sc.ord = AppendOrderedKey(sc.ord[:0], key)
	return sc.ord
}

// fkKey returns an n-element buffer for a foreign-key probe.
func (sc *scratch) fkKey(n int) []Value {
	if cap(sc.fk) < n {
		sc.fk = make([]Value, n)
	}
	return sc.fk[:n]
}
