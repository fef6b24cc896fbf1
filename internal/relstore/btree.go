package relstore

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"unsafe"
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
// stores — every node keeps its keys packed in its own byte slice — so callers
// may pass reusable encode buffers.  Callers that need column values back
// decode with DecodeOrderedKey; the hot paths never do.
type BTree struct {
	degree int
	root   *btreeNode
	size   int
	nodes  int
	splits int
	height int

	// keyLen is the longest key stored so far.  A node's key bytes are
	// reserved once, at (2*degree-1)*keyLen: exact for numeric columns (9
	// bytes each), a floor that append-growth tops up for strings.
	keyLen int
	// keyBytes sums the lengths of stored keys, arenaBytes the capacities of
	// the nodes' key slices and dupBytes what the duplicate-id side slots
	// hold; with nodes and internals (the nodes that carry children) they give
	// ResidentBytes without a walk.
	keyBytes   int
	arenaBytes int
	dupBytes   int
	internals  int
}

// btreeNode is one node at rest: no pointer per entry.  Entry i's key is
// keys[slots[i-1].end:slots[i].end] and its row ids are slots[i].id followed
// by more[i].  An end offset per entry rather than a fixed stride, because a
// NULL encodes to one byte and a string to any number, and one layout serves
// every index; the offset costs four bytes and a 16-bit one would cap a node
// at 64 KiB of keys.
type btreeNode struct {
	keys  []byte
	slots []btreeSlot
	// more holds the ids after the first of entries stored under duplicate
	// keys, parallel to slots; nil while no entry of the node has needed one.
	more     [][]uint32
	children []*btreeNode // nil for leaves
}

// btreeSlot is the fixed part of an entry.  Row ids fit 32 bits because
// Table.checkRowID refuses an insert past maxKeyRowID; id is noRowID for a
// tombstone (every id deleted, key kept).
type btreeSlot struct {
	end uint32
	id  uint32
}

const noRowID = math.MaxUint32

// rowID32 narrows a row id the table layer has already range-checked.
func rowID32(id int64) uint32 {
	if id < 0 || id > maxKeyRowID {
		panic(fmt.Sprintf("relstore: row id %d outside the B-tree's range", id))
	}
	return uint32(id)
}

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// start returns the offset in keys at which entry i's key begins.
func (n *btreeNode) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(n.slots[i-1].end)
}

// key returns entry i's key; it aliases the node and moves with the next
// insert into it.
func (n *btreeNode) key(i int) []byte { return n.keys[n.start(i):n.slots[i].end] }

// rest returns entry i's ids after the first.
func (n *btreeNode) rest(i int) []uint32 {
	if n.more == nil {
		return nil
	}
	return n.more[i]
}

// appendIDs appends entry i's row ids to dst in insertion order.
func (n *btreeNode) appendIDs(dst []int64, i int) []int64 {
	if n.slots[i].id == noRowID {
		return dst
	}
	dst = append(dst, int64(n.slots[i].id))
	for _, id := range n.rest(i) {
		dst = append(dst, int64(id))
	}
	return dst
}

// NewBTree creates a B-tree with the given minimum degree (every node except
// the root holds between degree-1 and 2*degree-1 entries).  Degrees below 2
// are raised to 2.
func NewBTree(degree int) *BTree {
	if degree < 2 {
		degree = 2
	}
	t := &BTree{degree: degree, height: 1}
	t.root = t.newNode(false)
	return t
}

// newNode allocates a node with its slots (and children) at full capacity;
// its key bytes are reserved by the first insert into it.
func (t *BTree) newNode(internal bool) *btreeNode {
	n := &btreeNode{slots: make([]btreeSlot, 0, 2*t.degree-1)}
	if internal {
		n.children = make([]*btreeNode, 0, 2*t.degree)
		t.internals++
	}
	t.nodes++
	return n
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

// ArenaBytes returns the bytes the nodes reserve for keys.  ArenaBytes -
// KeyBytes is the room nodes below capacity keep for later inserts.
func (t *BTree) ArenaBytes() int { return t.arenaBytes }

// ResidentBytes returns the memory the tree holds, counted where it is held:
// node headers, slot and child arrays at their allocated capacity, reserved
// key bytes and the duplicate-id side slots.
func (t *BTree) ResidentBytes() int64 {
	perNode := int(unsafe.Sizeof(btreeNode{})) + (2*t.degree-1)*int(unsafe.Sizeof(btreeSlot{}))
	perInternal := 2 * t.degree * int(unsafe.Sizeof((*btreeNode)(nil)))
	return int64(t.nodes*perNode + t.internals*perInternal + t.arenaBytes + t.dupBytes)
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
// The tree copies the key into the leaf when it stores a new entry, so callers
// may pass a reusable scratch buffer; inserts under an existing key never copy.
//
// It is a one-key sorted pass: the same proactive-split descent InsertSorted
// falls back to, so the two cannot drift.
func (t *BTree) Insert(key []byte, rowID int64) InsertStats {
	before := t.size
	si := sortedInserter{t: t}
	si.descendInsert(key, rowID32(rowID))
	si.st.NewKey = t.size > before
	return si.st
}

// reserve makes room for extra more key bytes in n.
func (t *BTree) reserve(n *btreeNode, extra int) {
	need := len(n.keys) + extra
	if need <= cap(n.keys) {
		return
	}
	grown := make([]byte, len(n.keys), max(need, 2*cap(n.keys), (2*t.degree-1)*t.keyLen))
	copy(grown, n.keys)
	t.arenaBytes += cap(grown) - cap(n.keys)
	n.keys = grown
}

// insertAt opens entry i of n for (key, id): one move of the key bytes behind
// it and one pass over the slots behind it.  The caller guarantees room.
func (t *BTree) insertAt(n *btreeNode, i int, key []byte, id uint32) {
	t.reserve(n, len(key))
	at, old, kl := n.start(i), len(n.keys), uint32(len(key))
	n.keys = n.keys[:old+len(key)]
	copy(n.keys[at+len(key):], n.keys[at:old])
	copy(n.keys[at:], key)
	n.slots = n.slots[:len(n.slots)+1]
	for j := len(n.slots) - 1; j > i; j-- {
		s := n.slots[j-1]
		n.slots[j] = btreeSlot{end: s.end + kl, id: s.id}
	}
	n.slots[i] = btreeSlot{end: uint32(at) + kl, id: id}
	if n.more != nil {
		n.more = n.more[:len(n.slots)]
		copy(n.more[i+1:], n.more[i:])
		n.more[i] = nil
	}
}

// addEntry stores a key the tree does not hold yet as entry i of n.
func (t *BTree) addEntry(n *btreeNode, i int, key []byte, id uint32) {
	t.keyLen = max(t.keyLen, len(key))
	t.insertAt(n, i, key, id)
	t.keyBytes += len(key)
	t.size++
}

// setMore installs entry i's duplicate-id list, creating the node's side slot
// on first use.
func (t *BTree) setMore(n *btreeNode, i int, ids []uint32) {
	if n.more == nil {
		n.more = make([][]uint32, len(n.slots), cap(n.slots))
		t.dupBytes += cap(n.more) * int(unsafe.Sizeof([]uint32(nil)))
	}
	n.more[i] = ids
}

// addID appends id to entry i's row ids; a tombstone comes back to life.
func (t *BTree) addID(n *btreeNode, i int, id uint32) {
	if n.slots[i].id == noRowID {
		n.slots[i].id = id
		return
	}
	ids := n.rest(i)
	t.dupBytes -= cap(ids) * 4
	ids = append(ids, id)
	t.dupBytes += cap(ids) * 4
	t.setMore(n, i, ids)
}

func (t *BTree) splitChild(parent *btreeNode, i int) {
	t.splits++
	child := parent.children[i]
	mid := t.degree - 1
	right := t.newNode(!child.leaf())
	cut := child.slots[mid].end
	t.reserve(right, len(child.keys)-int(cut))
	right.keys = append(right.keys, child.keys[cut:]...)
	right.slots = right.slots[:len(child.slots)-mid-1]
	for j, s := range child.slots[mid+1:] {
		right.slots[j] = btreeSlot{end: s.end - cut, id: s.id}
		if ids := child.rest(mid + 1 + j); ids != nil {
			t.setMore(right, j, ids)
		}
	}
	t.insertAt(parent, i, child.key(mid), child.slots[mid].id)
	if ids := child.rest(mid); ids != nil {
		t.setMore(parent, i, ids) // an emptied list moves too: dupBytes counts its capacity
	}
	if child.more != nil {
		clear(child.more[mid:])
		child.more = child.more[:mid]
	}
	child.keys = child.keys[:child.start(mid)]
	child.slots = child.slots[:mid]
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

// find returns the index of the first entry >= key and whether it equals key.
func (n *btreeNode) find(key []byte) (int, bool) {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.slots) && bytes.Equal(n.key(lo), key) {
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
// are collected and sorted first) index maintenance drops from O(height)
// comparisons per row to amortized O(1) node visits per row.  A run of equal
// keys appends to the entry the previous iteration stored without a leaf
// search, and a key outside the cached window takes the normal proactive-split
// descent, so the result is what one Insert per pair would leave.
func (t *BTree) InsertSorted(keys [][]byte, rowIDs []int64) InsertStats {
	si := sortedInserter{t: t}
	for pos := range keys {
		si.insert(keys[pos], rowIDs[pos])
	}
	return si.st
}

// sortedInserter carries the state of one InsertSorted pass: the cached leaf
// window and the previously inserted entry for equal-key runs.  upper aliases
// an ancestor's key bytes, which stay put while the window is valid: in-window
// inserts touch only the leaf, and every descent refreshes the window.
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
func (si *sortedInserter) insert(key []byte, rowID int64) {
	id := rowID32(rowID)
	// Equal-key run: append to the entry the previous iteration stored.
	if si.last != nil && bytes.Equal(key, si.last.key(si.lasti)) {
		si.t.addID(si.last, si.lasti, id)
		si.st.NodesVisited++
		return
	}
	// In-window key: place it in the cached leaf without a descent.  The
	// strict < keeps keys equal to the ancestor separator on the descent
	// path, where they find the separator entry itself.
	if si.leaf != nil && len(si.leaf.slots) < 2*si.t.degree-1 && (si.upper == nil || bytes.Compare(key, si.upper) < 0) {
		leaf := si.leaf
		var i int
		var found bool
		if si.last == leaf && si.lasti+1 < len(leaf.slots) {
			// Sequential hint: a sorted stream's next key usually lands
			// right after the previous position (key > entry lasti is
			// guaranteed — an equal key took the run branch above).
			if c := bytes.Compare(key, leaf.key(si.lasti+1)); c < 0 {
				i, found = si.lasti+1, false
			} else if c == 0 {
				i, found = si.lasti+1, true
			} else {
				i, found = leaf.find(key)
			}
		} else if si.last == leaf {
			// Previous entry is the leaf's last: the new, larger key appends.
			i, found = len(leaf.slots), false
		} else {
			i, found = leaf.find(key)
		}
		si.st.NodesVisited++
		if found {
			si.t.addID(leaf, i, id)
		} else {
			si.t.addEntry(leaf, i, key, id)
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
func (si *sortedInserter) descendInsert(key []byte, id uint32) {
	t := si.t
	if len(t.root.slots) == 2*t.degree-1 {
		old := t.root
		t.root = t.newNode(true)
		t.root.children = append(t.root.children, old)
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
			t.addID(n, i, id)
			if n.leaf() {
				si.leaf, si.upper = n, ub
			} else {
				si.leaf, si.upper = nil, nil
			}
			si.last, si.lasti = n, i
			return
		}
		if n.leaf() {
			t.addEntry(n, i, key, id)
			si.leaf, si.upper = n, ub
			si.last, si.lasti = n, i
			return
		}
		if len(n.children[i].slots) == 2*t.degree-1 {
			t.splitChild(n, i)
			si.st.Splits++
			if c := bytes.Compare(key, n.key(i)); c == 0 {
				t.addID(n, i, id)
				si.leaf, si.upper = nil, nil
				si.last, si.lasti = n, i
				return
			} else if c > 0 {
				i++
			}
		}
		if i < len(n.slots) {
			ub = n.key(i)
		}
		n = n.children[i]
	}
}

// BuildStats reports the work performed by one bulk build.
type BuildStats struct {
	Rows       int // (key, rowID) pairs consumed
	Entries    int // distinct keys stored
	NodesBuilt int // B-tree nodes constructed
	Height     int // height of the finished tree
}

// BuildFromSorted replaces the tree's contents with the (keys[i], rowIDs[i])
// pairs, which the caller guarantees to be sorted ascending by (key, rowID).
// Duplicate keys must be adjacent; their row ids accumulate into one entry in
// input order, exactly as repeated Insert calls would leave them.
func (t *BTree) BuildFromSorted(keys [][]byte, rowIDs []int64) BuildStats {
	kvs := make([]idxKV, len(keys))
	for i := range keys {
		kvs[i] = idxKV{key: keys[i], id: rowIDs[i]}
	}
	return t.buildFromKVs(kvs)
}

// buildFromKVs is BuildFromSorted over kv pairs, packed straight into the
// nodes of a fresh tree.  The construction is the cheapest possible for a
// B-tree: leaves fill left to right, the entry that arrives when a node is
// full is promoted as the separator into the level above, which fills the same
// way, and no key comparison happens beyond the adjacent-duplicate check —
// there is no per-row root-to-leaf descent at all, which is what makes an
// end-of-load bulk rebuild (DB.Seal) cheaper than even the leaf-aware
// InsertSorted path.  Nodes are packed full (2*degree-1 entries) except the
// rightmost node of each level, which keeps at least degree-1 entries by
// borrowing from its left neighbour's share; the result always satisfies
// CheckInvariants.
func (t *BTree) buildFromKVs(kvs []idxKV) BuildStats {
	*t = BTree{degree: t.degree}
	maxE, minE := 2*t.degree-1, t.degree-1
	// levels are the build's cursors, leaves first: the node being filled,
	// the entries it still takes, and the entries of the level not yet placed
	// in it or promoted out of it.  A level of n entries makes
	// ceil((n+1)/(maxE+1)) nodes with one separator between each pair, and
	// the separators are the level above.
	type level struct {
		node       *btreeNode
		room, left int
	}
	var levels []level
	distinct := 0
	for i := range kvs {
		if i == 0 || !bytes.Equal(kvs[i-1].key, kvs[i].key) {
			distinct++
		}
	}
	for n := distinct; ; n = (n+1+maxE)/(maxE+1) - 1 {
		levels = append(levels, level{left: n})
		if n <= maxE {
			break
		}
	}
	// start opens a level's next node under the current node of the level
	// above and sizes its share: greedy, shrunk for the second-to-last node so
	// the final node never drops below minE entries.
	start := func(l int) {
		lv := &levels[l]
		lv.node = t.newNode(l > 0)
		if l+1 < len(levels) {
			parent := levels[l+1].node
			parent.children = append(parent.children, lv.node)
		}
		lv.room = min(lv.left, maxE)
		if lv.left > maxE && lv.left-maxE-1 < minE {
			lv.room = lv.left - 1 - minE
		}
	}
	for l := len(levels) - 1; l >= 0; l-- {
		start(l)
	}
	t.root, t.height = levels[len(levels)-1].node, len(levels)
	var last *btreeNode // holds the previous pair's entry, as its last
	for i := range kvs {
		id := rowID32(kvs[i].id)
		if i > 0 && bytes.Equal(kvs[i-1].key, kvs[i].key) {
			t.addID(last, len(last.slots)-1, id)
			continue
		}
		// The entry lands in the lowest level whose node has room; for every
		// full level below, it is the separator after that level's node.
		l := 0
		for levels[l].room == 0 {
			l++
		}
		for j := 0; j <= l; j++ {
			levels[j].left--
		}
		last = levels[l].node
		t.addEntry(last, len(last.slots), kvs[i].key, id)
		levels[l].room--
		for j := l - 1; j >= 0; j-- {
			start(j)
		}
	}
	return BuildStats{Rows: len(kvs), Entries: t.size, NodesBuilt: t.nodes, Height: t.height}
}

// locate descends to the entry stored under key, counting the nodes visited.
func (t *BTree) locate(key []byte) (n *btreeNode, i, visited int, found bool) {
	for n = t.root; ; n = n.children[i] {
		visited++
		if i, found = n.find(key); found || n.leaf() {
			return n, i, visited, found
		}
	}
}

// Search returns a copy of the row ids stored under key (nil if absent) and
// the number of nodes visited.
func (t *BTree) Search(key []byte) ([]int64, int) {
	n, i, visited, found := t.locate(key)
	if !found {
		return nil, visited
	}
	return n.appendIDs([]int64{}, i), visited
}

// Delete removes rowID from the ids stored under key.  When the last id for a
// key is removed the key remains as a tombstone (no ids): the loading workload
// is insert-only and tombstones only arise from transaction rollback undo, so
// there is no B-tree deletion or rebalancing.  A later re-insert of the key
// revives the entry without re-copying it, so an insert/rollback/insert cycle
// neither leaks nor duplicates key bytes.
func (t *BTree) Delete(key []byte, rowID int64) bool {
	n, i, _, found := t.locate(key)
	return found && n.removeID(i, rowID)
}

// removeID deletes rowID from entry i's ids, keeping the others in order and
// the side list's capacity.
func (n *btreeNode) removeID(i int, rowID int64) bool {
	s, ids, j := &n.slots[i], n.rest(i), 0
	switch {
	case s.id == noRowID:
		return false
	case int64(s.id) != rowID:
		if j = slices.IndexFunc(ids, func(id uint32) bool { return int64(id) == rowID }); j < 0 {
			return false
		}
	case len(ids) == 0:
		s.id = noRowID
		return true
	default:
		s.id = ids[0] // the next id moves up
	}
	n.more[i] = slices.Delete(ids, j, j+1)
	return true
}

// AscendRange visits every (key, rowIDs) pair with from <= key <= to in key
// order; a nil bound is unbounded.  Bounds are AppendOrderedKey encodings;
// because the encoding is order-preserving and orders a prefix before its
// extensions exactly as CompareKeys does, range semantics match the former
// []Value bounds.  The visitor receives the stored encoded key (decode with
// DecodeOrderedKey if values are needed) and the entry's ids; both are valid
// only inside the call, like a RowView — the key aliases the node and the ids
// a buffer the walk reuses.  It returns false to stop early.
func (t *BTree) AscendRange(from, to []byte, visit func(key []byte, rowIDs []int64) bool) {
	var ids []int64
	t.root.ascend(from, to, &ids, visit)
}

func (n *btreeNode) ascend(from, to []byte, ids *[]int64, visit func([]byte, []int64) bool) bool {
	start := 0
	if from != nil {
		start, _ = n.find(from)
	}
	for i := start; i <= len(n.slots); i++ {
		if !n.leaf() && !n.children[i].ascend(from, to, ids, visit) {
			return false
		}
		if i == len(n.slots) {
			break
		}
		key := n.key(i)
		if to != nil && bytes.Compare(key, to) > 0 {
			return false
		}
		if *ids = n.appendIDs((*ids)[:0], i); len(*ids) > 0 && !visit(key, *ids) {
			return false
		}
		// After the first subtree the lower bound no longer prunes.
		from = nil
	}
	return true
}

// CheckInvariants verifies B-tree structural invariants: key ordering within
// and across nodes, node fill bounds and capacity, uniform leaf depth,
// well-formed stored keys (every key must be a valid AppendOrderedKey
// encoding), the packed layout (end offsets monotone and covering the key
// bytes, side slots parallel to the entries, a tombstone holding no ids) and
// the counters behind KeyBytes, ArenaBytes and ResidentBytes.  It returns a
// descriptive error when an invariant is violated.  Used by property tests.
func (t *BTree) CheckInvariants() error {
	leafDepth := 0
	acct := BTree{degree: t.degree, root: t.root, size: t.size, splits: t.splits, height: t.height, keyLen: t.keyLen}
	var walk func(n *btreeNode, depth int, min, max []byte) error
	walk = func(n *btreeNode, depth int, min, max []byte) error {
		acct.nodes++
		acct.arenaBytes += cap(n.keys)
		if n != t.root && len(n.slots) < t.degree-1 || cap(n.slots) != 2*t.degree-1 {
			return fmt.Errorf("node at depth %d has %d entries in %d slots, want [%d,%d]", depth, len(n.slots), cap(n.slots), t.degree-1, 2*t.degree-1)
		}
		if n.more != nil {
			if len(n.more) != len(n.slots) {
				return fmt.Errorf("node at depth %d has %d side slots for %d entries", depth, len(n.more), len(n.slots))
			}
			acct.dupBytes += cap(n.more) * int(unsafe.Sizeof([]uint32(nil)))
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
		acct.internals++
		if len(n.children) != len(n.slots)+1 || cap(n.children) != 2*t.degree {
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
	if acct != *t {
		return fmt.Errorf("accounting drift: the walk found %+v, the counters say %+v", acct, *t)
	}
	return nil
}
