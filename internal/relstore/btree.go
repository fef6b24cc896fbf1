package relstore

import (
	"bytes"
	"fmt"
)

// BTree is an in-memory B-tree mapping order-preserving encoded keys to row
// ids.  It backs secondary indexes; the engine counts node visits and splits
// per insert so that the cost model can charge index-maintenance time, which
// is what makes the paper's Figure 8 (effect of attribute indices) reproducible:
// the single-integer index stays shallow and cheap while the composite
// three-float index is wider, splits more often and grows with data size.
//
// Keys are the AppendOrderedKey encoding of the indexed column values, so
// every comparison on the descent path is a single bytes.Compare instead of
// the per-element kind switch of CompareKeys.  The tree owns the bytes it
// stores: new entries' keys are copied into per-tree arena chunks (one
// allocation per chunk, not per key), so callers may pass reusable encode
// buffers.  Callers that need column values back decode with DecodeOrderedKey;
// the hot paths never do.
type BTree struct {
	degree int
	root   *btreeNode
	size   int
	nodes  int
	splits int
	height int

	// keyArena is the current key-copy chunk; stored keys are full-cap
	// sub-slices of retired and current chunks.  idArena backs the initial
	// one-element row-id slice of each new entry.  keyBytes sums the lengths
	// of stored keys and arenaBytes the capacities of all key chunks ever
	// allocated (retired chunks stay reachable through the keys carved from
	// them), so the two together report footprint and arena overhead.
	keyArena   []byte
	idArena    []int64
	keyBytes   int
	arenaBytes int
}

type btreeEntry struct {
	key    []byte
	rowIDs []int64
}

type btreeNode struct {
	entries  []btreeEntry
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// Key-arena chunk sizing: chunks double from 256 B up to 64 KiB, so small
// trees stay small while bulk-loaded trees amortize one allocation across
// thousands of keys.
const (
	btreeKeyChunkMin = 1 << 8
	btreeKeyChunkMax = 1 << 16
)

// NewBTree creates a B-tree with the given minimum degree (every node except
// the root holds between degree-1 and 2*degree-1 entries).  Degrees below 2
// are raised to 2.
func NewBTree(degree int) *BTree {
	if degree < 2 {
		degree = 2
	}
	return &BTree{
		degree: degree,
		root:   &btreeNode{},
		nodes:  1,
		height: 1,
	}
}

// Len returns the number of distinct keys stored.
func (t *BTree) Len() int { return t.size }

// NodeCount returns the number of allocated nodes.
func (t *BTree) NodeCount() int { return t.nodes }

// Splits returns the cumulative number of node splits performed.
func (t *BTree) Splits() int { return t.splits }

// Height returns the current tree height (1 for a lone root leaf).
func (t *BTree) Height() int { return t.height }

// KeyBytes returns the total length of the stored encoded keys, including
// tombstoned entries (rollback leaves keys in place).
func (t *BTree) KeyBytes() int { return t.keyBytes }

// ArenaBytes returns the total capacity reserved by the tree's key arena
// chunks.  ArenaBytes - KeyBytes is the arena overhead: chunk headroom plus
// bytes occupied by duplicate-key copies the bulk-build paths skip over.
func (t *BTree) ArenaBytes() int { return t.arenaBytes }

// copyKey copies key into the tree's arena and returns the stored sub-slice.
// Sub-slices are full (len == cap), so appending to one reallocates instead of
// overwriting a neighbour.
func (t *BTree) copyKey(key []byte) []byte {
	if cap(t.keyArena)-len(t.keyArena) < len(key) {
		n := cap(t.keyArena) * 2
		if n < btreeKeyChunkMin {
			n = btreeKeyChunkMin
		}
		if n > btreeKeyChunkMax {
			n = btreeKeyChunkMax
		}
		if n < len(key) {
			n = len(key)
		}
		t.keyArena = make([]byte, 0, n)
		t.arenaBytes += n
	}
	start := len(t.keyArena)
	t.keyArena = append(t.keyArena, key...)
	t.keyBytes += len(key)
	return t.keyArena[start:len(t.keyArena):len(t.keyArena)]
}

// idSlice returns a one-element row-id slice carved from the id arena.
func (t *BTree) idSlice(id int64) []int64 {
	if len(t.idArena) == cap(t.idArena) {
		n := cap(t.idArena) * 2
		if n < 64 {
			n = 64
		}
		if n > 8192 {
			n = 8192
		}
		t.idArena = make([]int64, 0, n)
	}
	t.idArena = append(t.idArena, id)
	return t.idArena[len(t.idArena)-1 : len(t.idArena) : len(t.idArena)]
}

// InsertStats reports the physical work performed by one Insert call.
type InsertStats struct {
	NodesVisited int
	Splits       int
	NewKey       bool
}

// Insert adds rowID under key (an AppendOrderedKey encoding).  Duplicate keys
// accumulate row ids (non-unique index semantics); unique enforcement is done
// by the table layer before the index is touched.
//
// The tree copies the key into its arena when it stores a new entry, so
// callers may pass a reusable scratch buffer: inserts under an existing key
// never copy, and new keys cost an amortized fraction of one chunk allocation.
//
// It is a one-key sorted pass: the same proactive-split descent InsertSorted
// falls back to, so the two cannot drift.
func (t *BTree) Insert(key []byte, rowID int64) InsertStats {
	before := t.size
	si := sortedInserter{t: t}
	si.descendInsert(key, rowID)
	si.st.NewKey = t.size > before
	return si.st
}

func (t *BTree) splitChild(parent *btreeNode, i int) {
	t.splits++
	child := parent.children[i]
	mid := t.degree - 1
	right := &btreeNode{}
	t.nodes++
	right.entries = append(right.entries, child.entries[mid+1:]...)
	median := child.entries[mid]
	child.entries = child.entries[:mid]
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
	parent.entries = append(parent.entries, btreeEntry{})
	copy(parent.entries[i+1:], parent.entries[i:])
	parent.entries[i] = median
}

// find returns the index of the first entry >= key and whether it equals key.
func (n *btreeNode) find(key []byte) (int, bool) {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.entries[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.entries) && bytes.Equal(n.entries[lo].key, key) {
		return lo, true
	}
	return lo, false
}

// InsertSorted adds the (keys[i], rowIDs[i]) pairs, which the caller
// guarantees to be sorted ascending by (key, rowID), and returns the
// aggregated insert statistics (NewKey is meaningless for a group insert and
// left false).
//
// The pass is leaf-aware: each root-to-leaf descent remembers the leaf it
// landed in and the tightest ancestor separator bounding that leaf from
// above.  While subsequent keys stay below that separator and the leaf has
// room, they are placed with a single node visit instead of a fresh descent —
// for in-order key runs (the common case during a bulk load, where batch keys
// are collected and sorted first) index maintenance degrades from
// O(height) comparisons per row to amortized O(1) node visits per row.
// Runs of equal keys short-circuit even earlier: the row id is appended to
// the entry stored by the previous iteration without touching the leaf
// search.  Keys that fall outside the cached window fall back to the normal
// proactive-split descent, so the result is identical to calling Insert once
// per pair (up to B-tree shape, which depends on insertion order).
func (t *BTree) InsertSorted(keys [][]byte, rowIDs []int64) InsertStats {
	si := sortedInserter{t: t}
	for pos := range keys {
		si.insert(keys[pos], rowIDs[pos])
	}
	return si.st
}

// insertSortedKVs is InsertSorted over the batch path's pooled kv pairs.
func (t *BTree) insertSortedKVs(kvs []idxKV) InsertStats {
	si := sortedInserter{t: t}
	for i := range kvs {
		si.insert(kvs[i].key, kvs[i].id)
	}
	return si.st
}

// sortedInserter carries the state of one InsertSorted pass: the cached leaf
// window and the previously inserted entry for equal-key runs.  New entries'
// stored keys and row-id slices come from the tree's arenas.
type sortedInserter struct {
	t  *BTree
	st InsertStats

	leaf  *btreeNode // cached leaf of the previous descent (nil = no cache)
	upper []byte     // exclusive ancestor bound on keys the leaf may accept (nil = +inf)
	last  *btreeNode // node holding the previously inserted entry
	lasti int
}

// insert places one (key, id) pair, which must not sort below the previous
// pair of this pass.
func (si *sortedInserter) insert(key []byte, id int64) {
	// Equal-key run: append to the entry the previous iteration stored.
	if si.last != nil && bytes.Equal(key, si.last.entries[si.lasti].key) {
		si.last.entries[si.lasti].rowIDs = append(si.last.entries[si.lasti].rowIDs, id)
		si.st.NodesVisited++
		return
	}
	// In-window key: place it in the cached leaf without a descent.  The
	// strict < keeps keys equal to the ancestor separator on the descent
	// path, where they find the separator entry itself.
	if si.leaf != nil && len(si.leaf.entries) < 2*si.t.degree-1 && (si.upper == nil || bytes.Compare(key, si.upper) < 0) {
		leaf := si.leaf
		var i int
		var found bool
		if si.last == leaf && si.lasti+1 < len(leaf.entries) {
			// Sequential hint: a sorted stream's next key usually lands
			// right after the previous position (key > entries[lasti] is
			// guaranteed — an equal key took the run branch above).
			if c := bytes.Compare(key, leaf.entries[si.lasti+1].key); c < 0 {
				i, found = si.lasti+1, false
			} else if c == 0 {
				i, found = si.lasti+1, true
			} else {
				i, found = leaf.find(key)
			}
		} else if si.last == leaf {
			// Previous entry is the leaf's last: the new, larger key appends.
			i, found = len(leaf.entries), false
		} else {
			i, found = leaf.find(key)
		}
		si.st.NodesVisited++
		if found {
			leaf.entries[i].rowIDs = append(leaf.entries[i].rowIDs, id)
		} else {
			leaf.entries = append(leaf.entries, btreeEntry{})
			copy(leaf.entries[i+1:], leaf.entries[i:])
			leaf.entries[i] = btreeEntry{key: si.t.copyKey(key), rowIDs: si.t.idSlice(id)}
			si.t.size++
		}
		si.last, si.lasti = leaf, i
		return
	}
	si.descendInsert(key, id)
}

// descendInsert performs one proactive-split root-to-leaf insert of (key, id)
// and refreshes the cached window: the leaf the entry landed in and its
// tightest ancestor upper bound (no leaf window when the key matched an
// internal-node entry), plus the entry itself for equal-key runs.
func (si *sortedInserter) descendInsert(key []byte, id int64) {
	t := si.t
	if len(t.root.entries) == 2*t.degree-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.nodes++
		t.height++
		t.splitChild(t.root, 0)
		si.st.Splits++
	}
	n := t.root
	var ub []byte
	for {
		si.st.NodesVisited++
		i, found := n.find(key)
		if found {
			n.entries[i].rowIDs = append(n.entries[i].rowIDs, id)
			if n.leaf() {
				si.leaf, si.upper = n, ub
			} else {
				si.leaf, si.upper = nil, nil
			}
			si.last, si.lasti = n, i
			return
		}
		if n.leaf() {
			n.entries = append(n.entries, btreeEntry{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = btreeEntry{key: t.copyKey(key), rowIDs: t.idSlice(id)}
			t.size++
			si.leaf, si.upper = n, ub
			si.last, si.lasti = n, i
			return
		}
		if len(n.children[i].entries) == 2*t.degree-1 {
			t.splitChild(n, i)
			si.st.Splits++
			if c := bytes.Compare(key, n.entries[i].key); c == 0 {
				n.entries[i].rowIDs = append(n.entries[i].rowIDs, id)
				si.leaf, si.upper = nil, nil
				si.last, si.lasti = n, i
				return
			} else if c > 0 {
				i++
			}
		}
		if i < len(n.entries) {
			ub = n.entries[i].key
		}
		n = n.children[i]
	}
}

// BuildStats reports the work performed by one BuildFromSorted call.
type BuildStats struct {
	// Rows is the number of (key, rowID) pairs consumed.
	Rows int
	// Entries is the number of distinct keys stored.
	Entries int
	// NodesBuilt is the number of B-tree nodes constructed.
	NodesBuilt int
	// Height is the height of the finished tree.
	Height int
}

// BuildFromSorted replaces the tree's contents with the (keys[i], rowIDs[i])
// pairs, which the caller guarantees to be sorted ascending by (key, rowID).
// Duplicate keys must be adjacent; their row ids accumulate into one entry in
// input order, exactly as repeated Insert calls would leave them.
//
// The construction is the cheapest possible for a B-tree: leaves are packed
// left to right from the sorted stream, separators are promoted to build each
// internal level the same way, and no key comparison happens beyond the
// adjacent-duplicate check — there is no per-row root-to-leaf descent at all,
// which is what makes an end-of-load bulk rebuild (DB.Seal) cheaper than even
// the leaf-aware InsertSorted path.  Nodes are packed full (2*degree-1
// entries) except the rightmost node of each level, which keeps at least
// degree-1 entries by borrowing from its left neighbour's share; the result
// always satisfies CheckInvariants.
func (t *BTree) BuildFromSorted(keys [][]byte, rowIDs []int64) BuildStats {
	// Stored keys and initial row-id slices are carved from two fresh arenas
	// (one allocation each) instead of two allocations per entry; id
	// sub-slices are full (len == cap), so a later append to an entry's
	// rowIDs reallocates instead of overwriting a neighbour.
	total := 0
	for i := range keys {
		total += len(keys[i])
	}
	arena := make([]byte, 0, total)
	idArena := make([]int64, 0, len(rowIDs))
	entries := make([]btreeEntry, 0, len(keys))
	for i := range keys {
		if n := len(entries); n > 0 && bytes.Equal(entries[n-1].key, keys[i]) {
			entries[n-1].rowIDs = append(entries[n-1].rowIDs, rowIDs[i])
			continue
		}
		start := len(arena)
		arena = append(arena, keys[i]...)
		idArena = append(idArena, rowIDs[i])
		entries = append(entries, btreeEntry{
			key:    arena[start:len(arena):len(arena)],
			rowIDs: idArena[len(idArena)-1 : len(idArena) : len(idArena)],
		})
	}
	t.keyArena = arena
	t.idArena = idArena
	t.keyBytes = len(arena)
	t.arenaBytes = cap(arena)
	return t.buildFromEntries(entries, len(keys))
}

// buildFromEntries assembles the tree bottom-up from merged, sorted entries.
// Callers own key storage and must set keyBytes/arenaBytes accordingly.
func (t *BTree) buildFromEntries(entries []btreeEntry, rows int) BuildStats {
	t.root = &btreeNode{}
	t.nodes = 1
	t.height = 1
	t.splits = 0
	t.size = len(entries)
	st := BuildStats{Rows: rows, Entries: len(entries)}
	if len(entries) == 0 {
		st.NodesBuilt, st.Height = 1, 1
		return st
	}
	level := entries
	var children []*btreeNode // nil while building the leaf level
	nodesBuilt := 0
	height := 0
	for {
		height++
		nodes, seps := t.chunkLevel(level, children)
		nodesBuilt += len(nodes)
		if len(seps) == 0 {
			t.root = nodes[0]
			break
		}
		level, children = seps, nodes
	}
	t.nodes = nodesBuilt
	t.height = height
	st.NodesBuilt, st.Height = nodesBuilt, height
	return st
}

// chunkLevel packs one level's entries into nodes of at most 2*degree-1
// entries, promoting one separator entry between consecutive nodes.  children
// (nil for the leaf level) are distributed in order, one more per node than
// its entry count.  The greedy fill shrinks the second-to-last node's take so
// the final node never drops below degree-1 entries.
func (t *BTree) chunkLevel(entries []btreeEntry, children []*btreeNode) (nodes []*btreeNode, seps []btreeEntry) {
	maxE := 2*t.degree - 1
	minE := t.degree - 1
	n := len(entries)
	nodeOf := func(es []btreeEntry, ch []*btreeNode) *btreeNode {
		node := &btreeNode{entries: make([]btreeEntry, len(es))}
		copy(node.entries, es)
		if ch != nil {
			node.children = make([]*btreeNode, len(ch))
			copy(node.children, ch)
		}
		return node
	}
	if n <= maxE {
		return []*btreeNode{nodeOf(entries, children)}, nil
	}
	i, ci := 0, 0
	for {
		remaining := n - i
		if remaining <= maxE {
			var ch []*btreeNode
			if children != nil {
				ch = children[ci:]
			}
			nodes = append(nodes, nodeOf(entries[i:], ch))
			return nodes, seps
		}
		take := maxE
		if remaining-take-1 < minE {
			take = remaining - 1 - minE
		}
		var ch []*btreeNode
		if children != nil {
			ch = children[ci : ci+take+1]
		}
		nodes = append(nodes, nodeOf(entries[i:i+take], ch))
		seps = append(seps, entries[i+take])
		i += take + 1
		ci += take + 1
	}
}

// Search returns the row ids stored under key (nil if absent) and the number
// of nodes visited.
func (t *BTree) Search(key []byte) ([]int64, int) {
	n := t.root
	visited := 0
	for {
		visited++
		i, found := n.find(key)
		if found {
			return n.entries[i].rowIDs, visited
		}
		if n.leaf() {
			return nil, visited
		}
		n = n.children[i]
	}
}

// Delete removes rowID from the ids stored under key.  When the last id for a
// key is removed the key remains as a tombstone (empty id list); the loading
// workload is insert-only, so full B-tree deletion/rebalancing is not needed —
// tombstones only arise from transaction rollback undo.  The tombstoned key
// stays in the tree's arena: a later re-insert of the same key appends to the
// existing entry without re-copying it, so an insert/rollback/insert cycle
// neither leaks nor duplicates arena bytes.
func (t *BTree) Delete(key []byte, rowID int64) bool {
	n := t.root
	for {
		i, found := n.find(key)
		if found {
			ids := n.entries[i].rowIDs
			for j, id := range ids {
				if id == rowID {
					n.entries[i].rowIDs = append(ids[:j], ids[j+1:]...)
					return true
				}
			}
			return false
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// AscendRange visits every (key, rowIDs) pair with from <= key <= to in key
// order; a nil bound is unbounded.  Bounds are AppendOrderedKey encodings;
// because the encoding is order-preserving and orders a prefix before its
// extensions exactly as CompareKeys does, range semantics match the former
// []Value bounds.  The visitor receives the stored encoded key (valid for the
// life of the tree; decode with DecodeOrderedKey if values are needed) and
// returns false to stop early.
func (t *BTree) AscendRange(from, to []byte, visit func(key []byte, rowIDs []int64) bool) {
	t.ascend(t.root, from, to, visit)
}

func (t *BTree) ascend(n *btreeNode, from, to []byte, visit func([]byte, []int64) bool) bool {
	start := 0
	if from != nil {
		start, _ = n.find(from)
	}
	for i := start; i <= len(n.entries); i++ {
		if !n.leaf() {
			if !t.ascend(n.children[i], from, to, visit) {
				return false
			}
		}
		if i == len(n.entries) {
			break
		}
		e := n.entries[i]
		if to != nil && bytes.Compare(e.key, to) > 0 {
			return false
		}
		if len(e.rowIDs) > 0 {
			if !visit(e.key, e.rowIDs) {
				return false
			}
		}
		// After the first subtree the lower bound no longer prunes.
		from = nil
	}
	return true
}

// Keys returns all encoded keys in order; intended for tests and small
// indexes.
func (t *BTree) Keys() [][]byte {
	var out [][]byte
	t.AscendRange(nil, nil, func(key []byte, _ []int64) bool {
		out = append(out, key)
		return true
	})
	return out
}

// CheckInvariants verifies B-tree structural invariants: key ordering within
// and across nodes, node fill bounds, uniform leaf depth, well-formed stored
// keys (every key must be a valid AppendOrderedKey encoding) and arena
// accounting (KeyBytes equals the summed stored key lengths and never exceeds
// ArenaBytes plus externally owned build arenas).  It returns a descriptive
// error when an invariant is violated.  Used by property tests.
func (t *BTree) CheckInvariants() error {
	depths := map[int]bool{}
	keyBytes := 0
	var walk func(n *btreeNode, depth int, min, max []byte) error
	walk = func(n *btreeNode, depth int, min, max []byte) error {
		if n != t.root {
			if len(n.entries) < t.degree-1 || len(n.entries) > 2*t.degree-1 {
				return fmt.Errorf("node at depth %d has %d entries, want [%d,%d]", depth, len(n.entries), t.degree-1, 2*t.degree-1)
			}
		}
		for i := 0; i < len(n.entries); i++ {
			k := n.entries[i].key
			if _, err := DecodeOrderedKey(k); err != nil {
				return fmt.Errorf("malformed stored key %x at depth %d: %v", k, depth, err)
			}
			keyBytes += len(k)
			if i > 0 && bytes.Compare(n.entries[i-1].key, k) >= 0 {
				return fmt.Errorf("entries out of order at depth %d", depth)
			}
			if min != nil && bytes.Compare(k, min) <= 0 {
				return fmt.Errorf("entry below subtree lower bound at depth %d", depth)
			}
			if max != nil && bytes.Compare(k, max) >= 0 {
				return fmt.Errorf("entry above subtree upper bound at depth %d", depth)
			}
		}
		if n.leaf() {
			depths[depth] = true
			return nil
		}
		if len(n.children) != len(n.entries)+1 {
			return fmt.Errorf("internal node at depth %d has %d children for %d entries", depth, len(n.children), len(n.entries))
		}
		for i, c := range n.children {
			var lo, hi []byte
			if i > 0 {
				lo = n.entries[i-1].key
			} else {
				lo = min
			}
			if i < len(n.entries) {
				hi = n.entries[i].key
			} else {
				hi = max
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
	if len(depths) > 1 {
		return fmt.Errorf("leaves at multiple depths: %v", depths)
	}
	if keyBytes != t.keyBytes {
		return fmt.Errorf("KeyBytes accounting drift: stored %d bytes, counter says %d", keyBytes, t.keyBytes)
	}
	if t.keyBytes > t.arenaBytes {
		return fmt.Errorf("KeyBytes %d exceeds ArenaBytes %d", t.keyBytes, t.arenaBytes)
	}
	return nil
}
