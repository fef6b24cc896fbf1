package relstore

// The B-tree as it was before its nodes were packed (commit 5dcf283), kept
// verbatim apart from the type names as the oracle of
// TestBTreeMatchesParent; ROADMAP 6(a): it lives until the next re-anchor.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// parentBTree is an in-memory B-tree mapping order-preserving encoded keys to row
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
type parentBTree struct {
	degree int
	root   *parentNode
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

type parentEntry struct {
	key    []byte
	rowIDs []int64
}

type parentNode struct {
	entries  []parentEntry
	children []*parentNode // nil for leaves
}

func (n *parentNode) leaf() bool { return len(n.children) == 0 }

// Key-arena chunk sizing: chunks double from 256 B up to 64 KiB, so small
// trees stay small while bulk-loaded trees amortize one allocation across
// thousands of keys.
const (
	parentKeyChunkMin = 1 << 8
	parentKeyChunkMax = 1 << 16
)

// newParentBTree creates a B-tree with the given minimum degree (every node except
// the root holds between degree-1 and 2*degree-1 entries).  Degrees below 2
// are raised to 2.
func newParentBTree(degree int) *parentBTree {
	if degree < 2 {
		degree = 2
	}
	return &parentBTree{
		degree: degree,
		root:   &parentNode{},
		nodes:  1,
		height: 1,
	}
}

// Len returns the number of distinct keys stored.
func (t *parentBTree) Len() int { return t.size }

// NodeCount returns the number of allocated nodes.
func (t *parentBTree) NodeCount() int { return t.nodes }

// Splits returns the cumulative number of node splits performed.
func (t *parentBTree) Splits() int { return t.splits }

// Height returns the current tree height (1 for a lone root leaf).
func (t *parentBTree) Height() int { return t.height }

// KeyBytes returns the total length of the stored encoded keys, including
// tombstoned entries (rollback leaves keys in place).
func (t *parentBTree) KeyBytes() int { return t.keyBytes }

// ArenaBytes returns the total capacity reserved by the tree's key arena
// chunks.  ArenaBytes - KeyBytes is the arena overhead: chunk headroom plus
// bytes occupied by duplicate-key copies the bulk-build paths skip over.
func (t *parentBTree) ArenaBytes() int { return t.arenaBytes }

// copyKey copies key into the tree's arena and returns the stored sub-slice.
// Sub-slices are full (len == cap), so appending to one reallocates instead of
// overwriting a neighbour.
func (t *parentBTree) copyKey(key []byte) []byte {
	if cap(t.keyArena)-len(t.keyArena) < len(key) {
		n := cap(t.keyArena) * 2
		if n < parentKeyChunkMin {
			n = parentKeyChunkMin
		}
		if n > parentKeyChunkMax {
			n = parentKeyChunkMax
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
func (t *parentBTree) idSlice(id int64) []int64 {
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
func (t *parentBTree) Insert(key []byte, rowID int64) InsertStats {
	before := t.size
	si := parentSortedInserter{t: t}
	si.descendInsert(key, rowID)
	si.st.NewKey = t.size > before
	return si.st
}

func (t *parentBTree) splitChild(parent *parentNode, i int) {
	t.splits++
	child := parent.children[i]
	mid := t.degree - 1
	right := &parentNode{}
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
	parent.entries = append(parent.entries, parentEntry{})
	copy(parent.entries[i+1:], parent.entries[i:])
	parent.entries[i] = median
}

// find returns the index of the first entry >= key and whether it equals key.
func (n *parentNode) find(key []byte) (int, bool) {
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
func (t *parentBTree) InsertSorted(keys [][]byte, rowIDs []int64) InsertStats {
	si := parentSortedInserter{t: t}
	for pos := range keys {
		si.insert(keys[pos], rowIDs[pos])
	}
	return si.st
}

// parentSortedInserter carries the state of one InsertSorted pass: the cached leaf
// window and the previously inserted entry for equal-key runs.  New entries'
// stored keys and row-id slices come from the tree's arenas.
type parentSortedInserter struct {
	t  *parentBTree
	st InsertStats

	leaf  *parentNode // cached leaf of the previous descent (nil = no cache)
	upper []byte      // exclusive ancestor bound on keys the leaf may accept (nil = +inf)
	last  *parentNode // node holding the previously inserted entry
	lasti int
}

// insert places one (key, id) pair, which must not sort below the previous
// pair of this pass.
func (si *parentSortedInserter) insert(key []byte, id int64) {
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
			leaf.entries = append(leaf.entries, parentEntry{})
			copy(leaf.entries[i+1:], leaf.entries[i:])
			leaf.entries[i] = parentEntry{key: si.t.copyKey(key), rowIDs: si.t.idSlice(id)}
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
func (si *parentSortedInserter) descendInsert(key []byte, id int64) {
	t := si.t
	if len(t.root.entries) == 2*t.degree-1 {
		old := t.root
		t.root = &parentNode{children: []*parentNode{old}}
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
			n.entries = append(n.entries, parentEntry{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = parentEntry{key: t.copyKey(key), rowIDs: t.idSlice(id)}
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
func (t *parentBTree) BuildFromSorted(keys [][]byte, rowIDs []int64) BuildStats {
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
	entries := make([]parentEntry, 0, len(keys))
	for i := range keys {
		if n := len(entries); n > 0 && bytes.Equal(entries[n-1].key, keys[i]) {
			entries[n-1].rowIDs = append(entries[n-1].rowIDs, rowIDs[i])
			continue
		}
		start := len(arena)
		arena = append(arena, keys[i]...)
		idArena = append(idArena, rowIDs[i])
		entries = append(entries, parentEntry{
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
func (t *parentBTree) buildFromEntries(entries []parentEntry, rows int) BuildStats {
	t.root = &parentNode{}
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
	var children []*parentNode // nil while building the leaf level
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
func (t *parentBTree) chunkLevel(entries []parentEntry, children []*parentNode) (nodes []*parentNode, seps []parentEntry) {
	maxE := 2*t.degree - 1
	minE := t.degree - 1
	n := len(entries)
	nodeOf := func(es []parentEntry, ch []*parentNode) *parentNode {
		node := &parentNode{entries: make([]parentEntry, len(es))}
		copy(node.entries, es)
		if ch != nil {
			node.children = make([]*parentNode, len(ch))
			copy(node.children, ch)
		}
		return node
	}
	if n <= maxE {
		return []*parentNode{nodeOf(entries, children)}, nil
	}
	i, ci := 0, 0
	for {
		remaining := n - i
		if remaining <= maxE {
			var ch []*parentNode
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
		var ch []*parentNode
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
func (t *parentBTree) Search(key []byte) ([]int64, int) {
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
func (t *parentBTree) Delete(key []byte, rowID int64) bool {
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
func (t *parentBTree) AscendRange(from, to []byte, visit func(key []byte, rowIDs []int64) bool) {
	t.ascend(t.root, from, to, visit)
}

func (t *parentBTree) ascend(n *parentNode, from, to []byte, visit func([]byte, []int64) bool) bool {
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

// ascender is the iteration surface the old and the new tree share.
type ascender interface {
	AscendRange(from, to []byte, visit func(key []byte, rowIDs []int64) bool)
}

// dumpRange renders the (key, ids) pairs a tree visits in [from, to].
func dumpRange(tr ascender, from, to []byte) string {
	var b strings.Builder
	tr.AscendRange(from, to, func(key []byte, ids []int64) bool {
		fmt.Fprintf(&b, "%x %v\n", key, ids)
		return true
	})
	return b.String()
}

// TestBTreeMatchesParent drives the pointer-graph tree and the packed one
// with one fixed-seed op stream — single inserts, sorted batches, deletes,
// re-inserts, searches, bounded ranges and bulk rebuilds, over integer,
// composite and string keys with many duplicates — and requires the same
// InsertStats from every call, the same BuildStats from every rebuild and the
// same Height, NodeCount, Splits, Len, KeyBytes and iteration throughout: the
// packed tree is the old algorithm over different bytes.
func TestBTreeMatchesParent(t *testing.T) {
	for _, degree := range []int{2, 3, 32} {
		rng := rand.New(rand.NewSource(int64(degree)))
		randKey := func() []byte {
			switch rng.Intn(4) {
			case 0:
				return EncodeOrderedKey([]Value{Float(float64(rng.Intn(40))), Float(rng.Float64()), Float(float64(rng.Intn(3)))})
			case 1:
				return EncodeOrderedKey([]Value{Str(strings.Repeat("k", rng.Intn(40))), Null})
			}
			return intKey(rng.Int63n(300))
		}
		old, pk := newParentBTree(degree), NewBTree(degree)
		type pair struct {
			key []byte
			id  int64
		}
		var live []pair
		var nextID int64
		const ops = 2000
		for op := 0; op < ops; op++ {
			what := fmt.Sprintf("degree %d op %d", degree, op)
			switch c := rng.Intn(100); {
			case c < 50:
				p := pair{randKey(), nextID}
				nextID++
				live = append(live, p)
				if a, b := old.Insert(p.key, p.id), pk.Insert(p.key, p.id); a != b {
					t.Fatalf("%s: Insert stats %+v, parent %+v", what, b, a)
				}
			case c < 70:
				n := 1 + rng.Intn(60)
				keys, ids := make([][]byte, n), make([]int64, n)
				for i := range keys {
					keys[i], ids[i] = randKey(), nextID
					nextID++
				}
				sortKVs(keys, ids)
				for i := range keys {
					live = append(live, pair{keys[i], ids[i]})
				}
				if a, b := old.InsertSorted(keys, ids), pk.InsertSorted(keys, ids); a != b {
					t.Fatalf("%s: InsertSorted stats %+v, parent %+v", what, b, a)
				}
			case c < 85 && len(live) > 0:
				i := rng.Intn(len(live))
				p := live[i]
				if rng.Intn(4) > 0 {
					live = append(live[:i], live[i+1:]...)
				} else {
					p.id += 1 << 20 // never stored
				}
				if a, b := old.Delete(p.key, p.id), pk.Delete(p.key, p.id); a != b {
					t.Fatalf("%s: Delete = %v, parent %v", what, b, a)
				}
			case c < 90:
				k := randKey()
				a, av := old.Search(k)
				b, bv := pk.Search(k)
				if av != bv || (a == nil) != (b == nil) || fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("%s: Search = %v (%d visited), parent %v (%d)", what, b, bv, a, av)
				}
			case c < 98:
				from, to := randKey(), randKey()
				if bytes.Compare(from, to) > 0 {
					from, to = to, from
				}
				if a, b := dumpRange(old, from, to), dumpRange(pk, from, to); a != b {
					t.Fatalf("%s: range diverges:\n--- packed ---\n%s--- parent ---\n%s", what, b, a)
				}
			default:
				keys, ids := make([][]byte, len(live)), make([]int64, len(live))
				for i, p := range live {
					keys[i], ids[i] = p.key, p.id
				}
				sortKVs(keys, ids)
				if a, b := old.BuildFromSorted(keys, ids), pk.BuildFromSorted(keys, ids); a != b {
					t.Fatalf("%s: BuildStats %+v, parent %+v", what, b, a)
				}
			}
			if old.Len() != pk.Len() || old.Height() != pk.Height() || old.NodeCount() != pk.NodeCount() ||
				old.Splits() != pk.Splits() || old.KeyBytes() != pk.KeyBytes() {
				t.Fatalf("%s: Len/Height/NodeCount/Splits/KeyBytes %d/%d/%d/%d/%d, parent %d/%d/%d/%d/%d", what,
					pk.Len(), pk.Height(), pk.NodeCount(), pk.Splits(), pk.KeyBytes(),
					old.Len(), old.Height(), old.NodeCount(), old.Splits(), old.KeyBytes())
			}
			if op%50 == 0 || op == ops-1 {
				if err := pk.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if a, b := dumpRange(old, nil, nil), dumpRange(pk, nil, nil); a != b {
					t.Fatalf("%s: iteration diverges:\n--- packed ---\n%s--- parent ---\n%s", what, b, a)
				}
			}
		}
	}
}
