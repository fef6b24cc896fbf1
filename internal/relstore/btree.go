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
// may pass reusable encode buffers.  Nothing outside the tests decodes a
// stored key back into values (decodeOrderedValue reads one value of a WAL
// row); the hot paths never do.
type BTree struct {
	degree int
	root   *btreeNode
	btreeCounts

	// Arrays nodes outgrew or split out of, for the next node that grows
	// into their capacity.
	spareSlots spares[btreeSlot]
	spareKeys  spares[byte]
	spareMore  spares[[]uint32]
}

// btreeCounts are the tree's counters; the tests' CheckInvariants
// recomputes them from a walk.
type btreeCounts struct {
	size   int
	nodes  int
	splits int
	height int

	// keyBytes sums the lengths of stored keys.  nodeBytes sums the node
	// headers and the capacities of their slot and child arrays, arenaBytes
	// the capacities of their key bytes and dupBytes what the duplicate-id
	// side slots and lists hold: with the spares they give ResidentBytes
	// without a walk.
	keyBytes   int
	nodeBytes  int
	arenaBytes int
	dupBytes   int
}

// btreeNode is one node at rest: no pointer per entry.  Entry i's key is
// keys[slots[i-1].end:slots[i].end] and its row ids are slots[i].id followed
// by more[i].  An end offset per entry rather than a fixed stride, because a
// NULL encodes to one byte and a string to any number, and one layout serves
// every index; the offset costs four bytes and a 16-bit one would cap a node
// at 64 KiB of keys.  Every array is sized to the entries the node holds, not
// to the 2*degree-1 it may come to hold: grow adds room a few entries at a
// time and a split gives each half arrays of its own size.
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
	t := &BTree{degree: degree, btreeCounts: btreeCounts{height: 1}}
	t.root = t.newNode()
	return t
}

// What the accounting multiplies capacities by.
const (
	nodeHeaderSize = int(unsafe.Sizeof(btreeNode{}))
	slotSize       = int(unsafe.Sizeof(btreeSlot{}))
	childSize      = int(unsafe.Sizeof((*btreeNode)(nil)))
	sideSlotSize   = int(unsafe.Sizeof([]uint32(nil)))
)

// newNode allocates an empty node; its arrays are sized by whoever fills it.
func (t *BTree) newNode() *btreeNode {
	t.nodes++
	t.nodeBytes += nodeHeaderSize
	return &btreeNode{}
}

// count adds (sign 1) or takes back (sign -1) the capacities of n's slot,
// child, key and side-slot arrays in the tree's totals.
func (t *BTree) count(n *btreeNode, sign int) {
	t.nodeBytes += sign * (cap(n.slots)*slotSize + cap(n.children)*childSize)
	t.arenaBytes += sign * cap(n.keys)
	t.dupBytes += sign * cap(n.more) * sideSlotSize
}

// spares keeps arrays that nodes outgrew or split out of.  Random inserts
// take every node through the same capacities, so a growing tree keeps
// asking for arrays like the ones it just gave up: holding a few of each
// kind turns most growth steps into a copy, where each would otherwise
// allocate and leave the old array to the collector.  Only small arrays are
// kept (never a long key's), and ResidentBytes counts them (not the list
// that holds them, a few hundred bytes).
type spares[E any] struct {
	free  [][]E
	bytes int // the capacity held, in bytes
	next  int // the spare give replaces next once free is full
}

const (
	maxSpares     = 32      // arrays kept of each kind,
	nodesPerSpare = 32      // and no more than one per nodesPerSpare nodes
	maxSpareBytes = 4 << 10 // the largest array kept
)

// keep returns how many spares of each kind the tree may hold.
func (t *BTree) keep() int { return min(maxSpares, t.nodes/nodesPerSpare) }

// take returns an empty array with room for n elements: a spare holding no
// more than an eighth over n, else a new one.
func (p *spares[E]) take(n int) []E {
	for i, s := range p.free {
		if c := cap(s); c >= n && c <= n+n/8 {
			last := len(p.free) - 1
			p.free[i], p.free[last] = p.free[last], nil
			p.free = p.free[:last]
			p.bytes -= c * elemSize(s)
			return s
		}
	}
	return make([]E, 0, n)
}

// give keeps s, cleared, as a spare if it is small enough; once p holds keep
// of them, in place of one of them, round robin.
func (p *spares[E]) give(s []E, keep int) {
	b := cap(s) * elemSize(s)
	if b == 0 || b > maxSpareBytes || keep == 0 {
		return
	}
	s = s[:0]
	clear(s[:cap(s)])
	if len(p.free) < keep {
		p.free = append(p.free, s)
	} else {
		p.next %= len(p.free)
		p.bytes -= cap(p.free[p.next]) * elemSize(s)
		p.free[p.next] = s
		p.next++
	}
	p.bytes += b
}

// held sums the spares' capacities in bytes; it is p.bytes by a walk.
func (p *spares[E]) held() int {
	b := 0
	for _, s := range p.free {
		b += cap(s) * elemSize(s)
	}
	return b
}

func elemSize[E any]([]E) int {
	var e E
	return int(unsafe.Sizeof(e))
}

// Len returns the number of distinct keys stored.
func (t *BTree) Len() int { return t.size }

// KeyBytes returns the total length of the stored encoded keys, including
// tombstoned entries (rollback leaves keys in place).
func (t *BTree) KeyBytes() int { return t.keyBytes }

// ArenaBytes returns the bytes the nodes reserve for keys.  ArenaBytes -
// KeyBytes is the room nodes keep for their next few inserts.
func (t *BTree) ArenaBytes() int { return t.arenaBytes }

// ResidentBytes returns the memory the tree holds, counted where it is held:
// node headers, slot and child arrays at their capacity, reserved key bytes,
// the duplicate-id side slots and the spare arrays.
func (t *BTree) ResidentBytes() int64 {
	return int64(t.nodeBytes + t.arenaBytes + t.dupBytes + t.spareSlots.bytes + t.spareKeys.bytes + t.spareMore.bytes)
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
// It is a one-key sorted pass: the same proactive-split descent a
// sortedInserter falls back to, so the two cannot drift.
func (t *BTree) Insert(key []byte, rowID int64) InsertStats {
	before := t.size
	si := sortedInserter{t: t}
	si.descendInsert(key, rowID32(rowID))
	si.st.NewKey = t.size > before
	return si.st
}

// grow gives n room for one more entry of kl key bytes.  A node is sized to
// the entries it holds: its slots grow by an eighth (doubling while it holds
// fewer than degree-1, as only the root ever does), or straight to
// 2*degree-1 when filling says a sorted stream is appending to it, and its
// key bytes to what its slot capacity holds at its mean key length, so one
// long key costs the node that stores it and no other.
func (t *BTree) grow(n *btreeNode, kl int, filling bool) {
	t.count(n, -1)
	if e, maxE := len(n.slots), 2*t.degree-1; e == cap(n.slots) {
		c := e + max(1, e/8)
		if filling {
			c = maxE
		} else if e < t.degree-1 {
			c = max(1, 2*e)
		}
		slots, more := n.slots, n.more
		n.slots = append(t.spareSlots.take(min(c, maxE)), slots...)
		t.spareSlots.give(slots, t.keep())
		if more != nil {
			n.more = append(t.spareMore.take(cap(n.slots)), more...)
			t.spareMore.give(more, t.keep())
		}
	}
	if need := len(n.keys) + kl; need > cap(n.keys) {
		keys := n.keys
		n.keys = append(t.spareKeys.take(need*cap(n.slots)/(len(n.slots)+1)), keys...)
		t.spareKeys.give(keys, t.keep())
	}
	t.count(n, 1)
}

// insertAt opens entry i of n for (key, id): one move of the key bytes behind
// it and one pass over the slots behind it, after growing the node if it is
// out of room.  The caller guarantees n holds fewer than 2*degree-1 entries.
func (t *BTree) insertAt(n *btreeNode, i int, key []byte, id uint32, filling bool) {
	if len(n.slots) == cap(n.slots) || len(n.keys)+len(key) > cap(n.keys) {
		t.grow(n, len(key), filling)
	}
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
func (t *BTree) addEntry(n *btreeNode, i int, key []byte, id uint32, filling bool) {
	t.insertAt(n, i, key, id, filling)
	t.keyBytes += len(key)
	t.size++
}

// setMore installs entry i's duplicate-id list, creating the node's side
// slots on first use with the capacity of its slots, which they keep.
func (t *BTree) setMore(n *btreeNode, i int, ids []uint32) {
	if n.more == nil {
		n.more = t.spareMore.take(cap(n.slots))[:len(n.slots)]
		t.dupBytes += cap(n.more) * sideSlotSize
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

// front moves s[from:] to the front of s's array and clears what it vacates.
func front[E any](s []E, from int) []E {
	k := copy(s, s[from:])
	clear(s[k:])
	return s[:k]
}

// splitChild splits the full child i of parent around its middle entry,
// which moves up into parent.  Both halves get arrays sized to the entries
// they keep and the child's go to the spares, except when appending (the
// key that caused the split sorts at or after every key of the child: a
// sorted stream): then the upper half, which the stream fills next, keeps the
// child's full arrays and the parent takes the separator as a filling
// insert.
func (t *BTree) splitChild(parent *btreeNode, i int, appending bool) {
	t.splits++
	child := parent.children[i]
	mid := t.degree - 1
	t.insertAt(parent, i, child.key(mid), child.slots[mid].id, appending)
	if ids := child.rest(mid); ids != nil {
		t.setMore(parent, i, ids) // an emptied list moves too: dupBytes counts its capacity
	}
	if len(parent.children) == cap(parent.children) {
		t.count(parent, -1)
		parent.children = append(make([]*btreeNode, 0, cap(parent.slots)+1), parent.children...)
		t.count(parent, 1)
	}
	right := t.newNode()
	parent.children = parent.children[:len(parent.children)+1]
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right

	t.count(child, -1)
	old := *child
	e, cut, low := len(old.slots), old.slots[mid].end, old.start(mid)
	*child = btreeNode{
		slots: append(t.spareSlots.take(mid), old.slots[:mid]...),
		keys:  append(t.spareKeys.take(low), old.keys[:low]...),
	}
	if appending {
		right.slots, right.keys = front(old.slots, mid+1), front(old.keys, int(cut))
	} else {
		right.slots = append(t.spareSlots.take(e-mid-1), old.slots[mid+1:]...)
		right.keys = append(t.spareKeys.take(len(old.keys)-int(cut)), old.keys[cut:]...)
		t.spareSlots.give(old.slots, t.keep())
		t.spareKeys.give(old.keys, t.keep())
	}
	for j := range right.slots {
		right.slots[j].end -= cut
	}
	if old.more != nil {
		hasList := func(ids []uint32) bool { return ids != nil }
		if slices.ContainsFunc(old.more[:mid], hasList) {
			child.more = append(t.spareMore.take(cap(child.slots)), old.more[:mid]...)
		}
		switch {
		case !slices.ContainsFunc(old.more[mid+1:], hasList):
			t.spareMore.give(old.more, t.keep())
		case appending:
			right.more = front(old.more, mid+1)
		default:
			right.more = append(t.spareMore.take(cap(right.slots)), old.more[mid+1:]...)
			t.spareMore.give(old.more, t.keep())
		}
	}
	if !old.leaf() {
		child.children = append(make([]*btreeNode, 0, mid+1), old.children[:mid+1]...)
		if appending {
			right.children = front(old.children, mid+1)
		} else {
			right.children = append(make([]*btreeNode, 0, e-mid), old.children[mid+1:]...)
		}
	}
	t.count(child, 1)
	t.count(right, 1)
}

// sortsAfter reports whether key sorts at or after every key n holds: the
// mark of a sorted stream reaching n's end.
func (n *btreeNode) sortsAfter(key []byte) bool {
	return bytes.Compare(key, n.key(len(n.slots)-1)) >= 0
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

// sortedInserter carries the state of one sorted insert pass over (key, row
// id) pairs ascending by (key, rowID): the cached leaf window and the
// previously inserted entry for equal-key runs.
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
// descent, so the result is what one Insert per pair would leave.  upper aliases
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
		var found, filling bool
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
			// Previous entry is the leaf's last: the new, larger key
			// appends, and the stream is filling the leaf.
			i, found, filling = len(leaf.slots), false, true
		} else {
			i, found = leaf.find(key)
		}
		si.st.NodesVisited++
		if found {
			si.t.addID(leaf, i, id)
		} else {
			si.t.addEntry(leaf, i, key, id, filling)
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
		t.root = t.newNode()
		t.root.children = append(make([]*btreeNode, 0, 2), old)
		t.nodeBytes += cap(t.root.children) * childSize
		t.height++
		t.splitChild(t.root, 0, old.sortsAfter(key))
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
			t.addEntry(n, i, key, id, false)
			si.leaf, si.upper = n, ub
			si.last, si.lasti = n, i
			return
		}
		if c := n.children[i]; len(c.slots) == 2*t.degree-1 {
			t.splitChild(n, i, c.sortsAfter(key))
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

// buildFromKVs replaces the tree's contents with the kv pairs, which the
// caller guarantees to be sorted ascending by (key, id), packed straight into
// the nodes of a fresh tree.  Duplicate keys must be adjacent; their row ids
// accumulate into one entry in input order, exactly as repeated Insert calls
// would leave them.  The construction is the cheapest possible for a
// B-tree: leaves fill left to right, the entry that arrives when a node is
// full is promoted as the separator into the level above, which fills the same
// way, and no key comparison happens beyond the adjacent-duplicate check —
// there is no per-row root-to-leaf descent at all, which is what makes an
// end-of-load bulk rebuild (DB.Seal) cheaper than even the leaf-aware
// sortedInserter.  Nodes are packed full (2*degree-1 entries) except the
// rightmost node of each level, which keeps at least degree-1 entries by
// borrowing from its left neighbour's share; the result always satisfies
// the tests' CheckInvariants.
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
	// the final node never drops below minE entries.  The node's slots (and
	// children) are allocated once for that share, and its key bytes by its
	// first entry, for the share at that entry's length.
	start := func(l int) {
		lv := &levels[l]
		lv.node = t.newNode()
		if l+1 < len(levels) {
			parent := levels[l+1].node
			parent.children = append(parent.children, lv.node)
		}
		lv.room = min(lv.left, maxE)
		if lv.left > maxE && lv.left-maxE-1 < minE {
			lv.room = lv.left - 1 - minE
		}
		lv.node.slots = make([]btreeSlot, 0, lv.room)
		if l > 0 {
			lv.node.children = make([]*btreeNode, 0, lv.room+1)
		}
		t.count(lv.node, 1)
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
		t.addEntry(last, len(last.slots), kvs[i].key, id, false)
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
// []Value bounds.  The visitor receives the stored encoded key and the
// entry's ids; both are valid only inside the call, like a RowView — the key
// aliases the node and the ids a buffer the walk reuses.  It returns false to
// stop early.
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
