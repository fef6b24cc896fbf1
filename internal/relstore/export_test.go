package relstore

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

// withBTreeDegree opens the database with B-trees of the given minimum degree
// instead of the btreeDegree constant, so a few keys build a deep tree.
func withBTreeDegree(degree int) Option {
	return func(o *openConfig) { o.btreeDegree = degree }
}

// Test-only views of the key indexes for the external guard test
// (keyindex_guard_test.go), which needs internal/catalog and so cannot live
// in this package.

// KeyRunBytes is what one key run holds.
const KeyRunBytes = int64(unsafe.Sizeof(keyRun{}))

// KeyIndexGeometry describes the runs and tag tables of a table's primary-key
// and unique indexes.
type KeyIndexGeometry struct {
	// Keys are held in all, Tagged of them in Slots tag slots, the rest in
	// Runs runs with room for RunCap.
	Keys, Tagged, Slots, Runs, RunCap int
	// DisplacementSum and DisplacementMax are over every key in a tag slot:
	// how many slots past its home a key sits, i.e. the slots a probe for it
	// skips.
	DisplacementSum, DisplacementMax int
}

// KeyIndexGeometry sums the geometry of the table's key indexes.
func (t *Table) KeyIndexGeometry() KeyIndexGeometry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var g KeyIndexGeometry
	for _, k := range append([]*keyIndex{t.pk}, t.uniques...) {
		g.Keys += k.len()
		g.Tagged += k.n
		g.Slots += len(k.slots)
		g.Runs += len(k.runs)
		g.RunCap += cap(k.runs)
		for i, s := range k.slots {
			if s.ref != 0 {
				d := k.fromHome(i)
				g.DisplacementSum += d
				g.DisplacementMax = max(g.DisplacementMax, d)
			}
		}
	}
	return g
}

// fromHome is how many probe steps slot i's entry sits past its home.
func (k *keyIndex) fromHome(i int) int {
	return (i - k.home(k.slots[i].tag) + len(k.slots)) % len(k.slots)
}

// AbsentKeyRowCompares probes the primary-key index with a key it does not
// hold and returns how many stored rows the probe would have to read: the
// occupied slots on its tag-table run whose tag equals the key's.
func (t *Table) AbsentKeyRowCompares(key []Value) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k := t.pk
	if _, ok := k.lookup(key); ok {
		panic("relstore: AbsentKeyRowCompares given a present key")
	}
	if k.n == 0 {
		return 0
	}
	tag, n := k.hash(key, k.seq), 0
	for i := k.home(tag); k.slots[i].ref != 0; i = k.next(i) {
		if k.slots[i].tag == tag {
			n++
		}
	}
	return n
}

// keyIndexNamed returns the table's primary-key or unique index of that name.
func (t *Table) keyIndexNamed(name string) *keyIndex {
	for _, k := range append([]*keyIndex{t.pk}, t.uniques...) {
		if k.name == name {
			return k
		}
	}
	panic("relstore: no key index " + name)
}

// KeyIndexInRuns returns how many keys the named key index holds and how many
// of them its runs hold.
func (t *Table) KeyIndexInRuns(name string) (keys, inRuns int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k := t.keyIndexNamed(name)
	return k.len(), k.inRuns
}

// PresentKeyReadsNoRow reports whether the named key index ("" for the
// primary key) finds a key it holds, at the right row id, with the row
// directory taken away: a probe that reads a stored row cannot, since no row
// can be reached.
func (t *Table) PresentKeyReadsNoRow(index string, key []Value) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := t.pk
	if index != "" {
		k = t.keyIndexNamed(index)
	}
	want, ok := k.lookup(key)
	if !ok {
		panic("relstore: PresentKeyReadsNoRow given an absent key")
	}
	rows := t.rows
	t.rows = rowDir{}
	got, ok := k.lookup(key)
	t.rows = rows
	return ok && got == want
}

// RowDirGeometry describes a table's row directory: its runs and the runs it
// has room for, the rows whose slots are live, and how many runs find tries
// to place those rows' ids.
type RowDirGeometry struct {
	Runs, RunCap, LiveRows, Probes int
}

// RowDirGeometry walks every live row id of the table.
func (t *Table) RowDirGeometry() RowDirGeometry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	g := RowDirGeometry{Runs: len(t.rows.runs), RunCap: cap(t.rows.runs)}
	t.scanRowsByID(func(id int64, _ RowView) {
		_, ok, tries := t.rows.find(id)
		if !ok {
			panic("relstore: scanRowsByID visited an id no run covers")
		}
		g.LiveRows++
		g.Probes += tries
	})
	return g
}

// Keys returns a copy of all encoded keys in order.
func (t *BTree) Keys() [][]byte {
	var out [][]byte
	t.AscendRange(nil, nil, func(key []byte, _ []int64) bool {
		out = append(out, bytes.Clone(key))
		return true
	})
	return out
}

// PageGeometry describes a table's heap pages, walked one by one.
type PageGeometry struct {
	Pages, ClosedPages, ClosedRows int
	// ClosedBytes is what the closed pages hold: data and slot directories at
	// their capacity, and the layouts of those that carry their own.
	ClosedBytes int64
	// WithOffs counts the pages, open or closed, that keep a slot directory;
	// OwnLayouts the closed pages that carry a layout of their own, and
	// LayoutBytes what those layouts hold.
	WithOffs, OwnLayouts int
	LayoutBytes          int64
	// HeapBytes is the heap's share of TableStat.ResidentBytes: the closed
	// pages, the open page's write buffers and the page headers.
	HeapBytes int64
}

// CheckPageStreams holds every closed narrow page of the table to
// checkStreams: no stream wider than its page's non-NULL values need, and
// NULL bits only in a column with a NULL on the page.
func (t *Table) CheckPageStreams(tb testing.TB) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range t.heap.pages {
		if p := &t.heap.pages[i]; !p.lay.wide() {
			checkStreams(tb, p)
		}
	}
}

// PageGeometry walks the table's heap pages.
func (t *Table) PageGeometry() PageGeometry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := t.heap
	g := PageGeometry{Pages: len(h.pages)}
	for i := range h.pages {
		p := &h.pages[i]
		if p.offs != nil {
			g.WithOffs++
		}
		if i == len(h.pages)-1 {
			break
		}
		g.ClosedPages++
		g.ClosedRows += p.rows()
		g.ClosedBytes += p.dataBytes() + 4*int64(cap(p.offs))
		if p.lay != h.lay {
			g.OwnLayouts++
			g.LayoutBytes += int64(unsafe.Sizeof(rowLayout{})) + int64(cap(p.lay.cols))*int64(unsafe.Sizeof(colSlot{}))
		}
	}
	g.ClosedBytes += g.LayoutBytes
	g.HeapBytes = g.ClosedBytes + int64(cap(h.wdata)) + 4*int64(cap(h.woffs)) + int64(cap(h.pages))*int64(unsafe.Sizeof(page{}))
	return g
}

// NodeCount returns the number of allocated nodes.
func (t *BTree) NodeCount() int { return t.nodes }

// InsertSorted adds the (keys[i], rowIDs[i]) pairs, sorted ascending by
// (key, rowID), in one sortedInserter pass, as a batch maintains an index,
// and returns the aggregated insert statistics (NewKey is left false).
func (t *BTree) InsertSorted(keys [][]byte, rowIDs []int64) InsertStats {
	si := sortedInserter{t: t}
	for pos := range keys {
		si.insert(keys[pos], rowIDs[pos])
	}
	return si.st
}

// BuildFromSorted is buildFromKVs, as Seal rebuilds an index, over the
// (keys[i], rowIDs[i]) pairs sorted ascending by (key, rowID).
func (t *BTree) BuildFromSorted(keys [][]byte, rowIDs []int64) BuildStats {
	kvs := make([]idxKV, len(keys))
	for i := range keys {
		kvs[i] = idxKV{key: keys[i], id: rowIDs[i]}
	}
	return t.buildFromKVs(kvs)
}

// CheckInvariants verifies B-tree structural invariants: key ordering within
// and across nodes, node fill bounds, capacities within 2*degree-1 entries
// (2*degree children) and side slots covering the slot capacity, uniform leaf depth,
// well-formed stored keys (every key must be a valid AppendOrderedKey
// encoding), the packed layout (end offsets monotone and covering the key
// bytes, side slots parallel to the entries, a tombstone holding no ids) and
// the counters behind KeyBytes, ArenaBytes and ResidentBytes, which must equal
// the capacities a walk of the nodes sums.  It returns a
// descriptive error when an invariant is violated.  Used by property tests.
func (t *BTree) CheckInvariants() error {
	leafDepth := 0
	acct := btreeCounts{size: t.size, splits: t.splits, height: t.height}
	maxE := 2*t.degree - 1
	var walk func(n *btreeNode, depth int, min, max []byte) error
	walk = func(n *btreeNode, depth int, min, max []byte) error {
		acct.nodes++
		acct.nodeBytes += nodeHeaderSize + cap(n.slots)*slotSize + cap(n.children)*childSize
		acct.arenaBytes += cap(n.keys)
		acct.dupBytes += cap(n.more) * sideSlotSize
		if n != t.root && len(n.slots) < t.degree-1 || cap(n.slots) > maxE {
			return fmt.Errorf("node at depth %d has %d entries in %d slots, want [%d,%d]", depth, len(n.slots), cap(n.slots), t.degree-1, maxE)
		}
		if n.more != nil && (len(n.more) != len(n.slots) || cap(n.more) < cap(n.slots) || cap(n.more) > maxE) {
			return fmt.Errorf("node at depth %d has %d of %d side slots for %d of %d slots", depth, len(n.more), cap(n.more), len(n.slots), cap(n.slots))
		}
		for i := range n.slots {
			acct.dupBytes += cap(n.rest(i)) * 4
			if n.slots[i].id == noRowID && len(n.rest(i)) > 0 {
				return fmt.Errorf("tombstone at depth %d holds ids %v", depth, n.rest(i))
			}
			if n.start(i) > int(n.slots[i].end) || int(n.slots[i].end) > len(n.keys) {
				return fmt.Errorf("offsets not monotone at depth %d entry %d", depth, i)
			}
			k := n.key(i)
			if _, err := DecodeOrderedKey(k); err != nil {
				return fmt.Errorf("malformed stored key %x at depth %d: %v", k, depth, err)
			}
			acct.keyBytes += len(k)
			if i > 0 && bytes.Compare(n.key(i-1), k) >= 0 {
				return fmt.Errorf("entries out of order at depth %d", depth)
			}
			if min != nil && bytes.Compare(k, min) <= 0 || max != nil && bytes.Compare(k, max) >= 0 {
				return fmt.Errorf("entry outside its subtree's bounds at depth %d", depth)
			}
		}
		if n.start(len(n.slots)) != len(n.keys) {
			return fmt.Errorf("node at depth %d: offsets end at %d of %d key bytes", depth, n.start(len(n.slots)), len(n.keys))
		}
		if n.leaf() {
			if leafDepth != 0 && leafDepth != depth {
				return fmt.Errorf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
			return nil
		}
		if len(n.children) != len(n.slots)+1 || cap(n.children) > maxE+1 {
			return fmt.Errorf("internal node at depth %d has %d of %d children for %d entries", depth, len(n.children), cap(n.children), len(n.slots))
		}
		for i, c := range n.children {
			lo, hi := min, max
			if i > 0 {
				lo = n.key(i - 1)
			}
			if i < len(n.slots) {
				hi = n.key(i)
			}
			if err := walk(c, depth+1, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if acct != t.btreeCounts {
		return fmt.Errorf("accounting drift: the walk found %+v, the counters say %+v", acct, t.btreeCounts)
	}
	if t.spareSlots.bytes != t.spareSlots.held() || t.spareKeys.bytes != t.spareKeys.held() || t.spareMore.bytes != t.spareMore.held() {
		return fmt.Errorf("spare accounting drift: %d, %d and %d bytes counted, %d, %d and %d held", t.spareSlots.bytes, t.spareKeys.bytes,
			t.spareMore.bytes, t.spareSlots.held(), t.spareKeys.held(), t.spareMore.held())
	}
	return nil
}

// DecodeOrderedKey is the strict inverse of EncodeOrderedKey: it parses enc
// as a sequence of order-encoded values and returns them.  The decoder is
// canonical — it accepts exactly the byte strings AppendOrderedKey can
// produce, so a successful decode re-encodes to the identical bytes.
// Truncated values, unknown tags, non-canonical string escapes, NaN float bit
// patterns and a -0.0 encoding (the encoder canonicalizes -0.0 to +0.0) are
// all rejected with an error wrapping ErrBadOrderedKey.
//
// Decoding is off the hot path by design: the B-tree compares and stores
// encoded keys without ever decoding, and only consumers that need column
// values back (test dumps, invariant checks, debugging) pay for a decode.
func DecodeOrderedKey(enc []byte) ([]Value, error) {
	var out []Value
	for len(enc) > 0 {
		v, rest, err := decodeOrderedValue(enc)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		enc = rest
	}
	return out, nil
}

// Splits returns the cumulative number of node splits performed.
func (t *BTree) Splits() int { return t.splits }

// Height returns the current tree height (1 for a lone root leaf).
func (t *BTree) Height() int { return t.height }

// Search returns a copy of the row ids stored under key (nil if absent) and
// the number of nodes visited.
func (t *BTree) Search(key []byte) ([]int64, int) {
	n, i, visited, found := t.locate(key)
	if !found {
		return nil, visited
	}
	return n.appendIDs([]int64{}, i), visited
}
