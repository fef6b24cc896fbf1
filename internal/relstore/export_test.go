package relstore

import (
	"bytes"
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
