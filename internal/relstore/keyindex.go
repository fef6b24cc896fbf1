package relstore

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// keyIndex is the index behind a primary key or a unique constraint: key ->
// row id.  It stores no key a row already holds, in two representations.
//
// Runs, for a key of one integer column: keys arriving in step with their row
// ids — key+1 at row id+1, as a file's ascending ids load — extend a run
// {key, id, n} saying keys key..key+n-1 are rows id..id+n-1, 16 bytes for the
// whole run.  Runs are sorted by key and disjoint, every key they cover is
// live, and a probe they answer reads no stored row; an absent key reads none
// either while the tag table is empty.
//
// The tag table, for every other key: one open-addressing, linear-probing
// table of pointer-free 8-byte slots — a 32-bit hash tag and the row id.  A
// probe hashes the key columns with a fixed integer mix, walks the occupied
// run from the tag's home slot, and on a tag match settles equality by
// reading the stored row's key columns in place (rowDir -> heapStore.view ->
// RowView).  A tag match alone never answers a probe.  Probe runs are kept in
// tag order: an absent key's probe ends at the first higher tag, no key sits
// far from its home, and growth copies in slot order.
//
// Equality is exact and typed, column by column: NULL equals NULL (a key like
// any other for unique constraints over nullable columns; primary keys reject
// it before probing), integers, timestamps and booleans by payload, floats by
// bits with all NaNs equal, strings by bytes.  A probe key of the wrong arity
// or kind matches nothing.
//
// All methods require the owning table's lock: readers only read runs and
// slots under RLock, growth and shifts happen under the write lock.  A row
// must be in the heap and the row directory before put enters it and still
// there when remove takes it out.
type keyIndex struct {
	t *Table
	// name is the constraint's name, for violation and verification errors.
	name string
	// cols are the key columns' positions in a row; seq, 0..len(cols)-1, is
	// where the same values sit in a probe key.
	cols, seq []int
	// ints is set when the key is one integer column; its integer keys may
	// then be held in runs, inRuns of them.
	ints   bool
	runs   []keyRun
	inRuns int
	// slots is at most 3/4 full, so a run always ends at an empty slot.  It
	// grows by a quarter: load in [0.60, 0.75], 10.7 to 13.4 bytes a key.  n
	// counts the keys it holds.
	slots []keySlot
	n     int
}

// keyRun says key+k is the key of row id+k for every k < n.
type keyRun struct {
	key   int64
	id, n uint32
}

// maxRunsMoved is the most runs an insert may move to open a run: a key whose
// run would open below more goes to the tag table, so no order of inserts
// costs more than that per key.
const maxRunsMoved = 256

// keySlot is one table entry.  ref is the row id plus one, zero marking the
// slot empty.
type keySlot struct {
	tag, ref uint32
}

// home is the slot a tag's probe starts at: the tag scaled onto the table, so
// it never falls as the tag rises.
func (k *keyIndex) home(tag uint32) int { return int(uint64(tag) * uint64(len(k.slots)) >> 32) }

// after reports whether the entry of tag e in slot i sorts after a key of tag
// whose home is h.  An entry below its home was carried round the table's end
// and sorts before every entry that was not; otherwise the tags decide, and
// only when they cannot is e's home computed.
func (k *keyIndex) after(e uint32, i int, tag uint32, h int) bool {
	if higher := e > tag; higher == (i < h) {
		return higher
	}
	return k.home(e) <= i
}

// next is the slot a probe visits after i.
func (k *keyIndex) next(i int) int {
	if i++; i == len(k.slots) {
		return 0
	}
	return i
}

// maxKeyRowID is the largest row id a slot can hold.
const maxKeyRowID = math.MaxUint32 - 1

// checkRowID fails an insert whose row id does not fit a key-index slot.
func (t *Table) checkRowID(id int64) error {
	if id > maxKeyRowID {
		return fmt.Errorf("relstore: table %q is full: row id %d exceeds the key index's %d", t.schema.Name, id, int64(maxKeyRowID))
	}
	return nil
}

func newKeyIndex(t *Table, name string, cols []int) *keyIndex {
	k := &keyIndex{t: t, name: name, cols: cols, seq: make([]int, len(cols)),
		ints: len(cols) == 1 && t.schema.Columns[cols[0]].Type == TypeInt}
	for i := range k.seq {
		k.seq[i] = i
	}
	return k
}

// hash returns the tag of the key whose i-th column value is vals[at[i]]: at
// is cols for a row and seq for a probe key.
func (k *keyIndex) hash(vals []Value, at []int) uint32 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, i := range at {
		v := &vals[i]
		var x uint64
		switch v.Kind {
		case KindNull:
			x = 0x2545f4914f6cdd1d
		case KindFloat:
			x = math.Float64bits(v.F)
			if v.F != v.F {
				x = math.Float64bits(math.NaN())
			}
		case KindString:
			x = 14695981039346656037 // FNV-1a
			for j := 0; j < len(v.S); j++ {
				x = (x ^ uint64(v.S[j])) * 1099511628211
			}
		default:
			x = uint64(v.I)
		}
		h = (h ^ x) * 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return uint32(h * 0xc4ceb9fe1a85ec53 >> 32)
}

// sameKeyValue is key-column equality.
func sameKeyValue(a, b *Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNull:
		return true
	case KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (a.F != a.F && b.F != b.F)
	case KindString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// intKey returns the key whose only column value is vals[at[0]] (at as for
// hash) and whether runs may hold it.
func (k *keyIndex) intKey(vals []Value, at []int) (int64, bool) {
	v := &vals[at[0]]
	return v.I, k.ints && v.Kind == KindInt
}

// find returns the row id stored under the key (values as for hash): from a
// run when one covers it, else from the tag table.
func (k *keyIndex) find(vals []Value, at []int) (int64, bool) {
	if x, ok := k.intKey(vals, at); ok {
		if i, covered, _ := findRun(k.runs, x); covered {
			return int64(k.runs[i].id) + (x - k.runs[i].key), true
		}
	}
	if i := k.slot(vals, at); i >= 0 {
		return int64(k.slots[i].ref) - 1, true
	}
	return 0, false
}

// slot returns the position of the slot whose row holds the key (values as
// for hash), or -1.
func (k *keyIndex) slot(vals []Value, at []int) int {
	if k.n == 0 {
		return -1
	}
	tag := k.hash(vals, at)
probe:
	for h, i := k.home(tag), k.home(tag); ; i = k.next(i) {
		s := k.slots[i]
		if s.ref == 0 || k.after(s.tag, i, tag, h) {
			return -1
		}
		if s.tag != tag {
			continue
		}
		row, ok := k.t.viewLocked(int64(s.ref) - 1)
		if !ok {
			continue
		}
		for j, c := range k.cols {
			if stored := row.val(c); !sameKeyValue(&stored, &vals[at[j]]) {
				continue probe
			}
		}
		return i
	}
}

// has reports whether the built row's key is present.
func (k *keyIndex) has(row Row) bool {
	_, ok := k.find(row, k.cols)
	return ok
}

// lookup returns the row id stored under the key values.
func (k *keyIndex) lookup(key []Value) (int64, bool) {
	if len(key) != len(k.cols) {
		return 0, false
	}
	return k.find(key, k.seq)
}

// put stores id under the built row's key, which must be absent.
func (k *keyIndex) put(row Row, id int64) {
	if x, ok := k.intKey(row, k.cols); ok && k.putRun(x, id) {
		return
	}
	k.reserve(k.n + 1)
	k.place(keySlot{tag: k.hash(row, k.cols), ref: uint32(id + 1)})
	k.n++
}

// putRun enters the absent key x of row id into the runs and reports whether
// it did.  The run ending just below x takes it when id is that run's next
// row id.  Failing that, a run opens with x-1 and x when row id-1 holds x-1 —
// which is then in the tag table and leaves it — so a run never opens for one
// key alone, and only where at most maxRunsMoved runs sit above it.
func (k *keyIndex) putRun(x, id int64) bool {
	at, _, _ := findRun(k.runs, x)
	if at >= 0 {
		if r := &k.runs[at]; x-r.key == int64(r.n) && int64(r.id)+int64(r.n) == id {
			r.n++
			k.inRuns++
			return true
		}
	}
	if k.n == 0 || x == math.MinInt64 || len(k.runs)-at-1 > maxRunsMoved {
		return false
	}
	if prev, ok := k.t.viewLocked(id - 1); !ok {
		return false
	} else if v := prev.val(k.cols[0]); v.Kind != KindInt || v.I != x-1 {
		return false
	}
	below := [1]Value{Int(x - 1)}
	k.unslot(below[:], id-1)
	k.runs = slices.Insert(k.runs, at+1, keyRun{key: x - 1, id: uint32(id - 1), n: 2})
	k.inRuns += 2
	return true
}

// place puts s where its tag sorts on the run from its home and moves the
// rest of the run up one slot.
func (k *keyIndex) place(s keySlot) {
	h, i := k.home(s.tag), k.home(s.tag)
	for k.slots[i].ref != 0 && !k.after(k.slots[i].tag, i, s.tag, h) {
		i = k.next(i)
	}
	for ; s.ref != 0; i = k.next(i) {
		k.slots[i], s = s, k.slots[i]
	}
}

// reserve grows the table to hold n keys from the slots' tags alone: by a
// quarter when a put fills it, to exactly the 3/4 load when a loader that
// knows its row count (the checkpoint load) calls it up front.  From the first
// entry not carried round the old end they are in tag order, so each goes to
// its new home or right behind the last; what the new end carries round probes.
func (k *keyIndex) reserve(n int) {
	size := len(k.slots)
	if n*4 <= size*3 {
		return
	}
	old, w, at := k.slots, 0, 0
	for w < size && old[w].ref != 0 && k.home(old[w].tag) > w {
		w++
	}
	k.slots = make([]keySlot, max(8, (size*5+3)/4, (n*4+2)/3))
	for _, part := range [2][]keySlot{old[w:], old[:w]} {
		for _, s := range part {
			if s.ref == 0 {
				continue
			}
			if at = max(at, k.home(s.tag)); at == len(k.slots) {
				k.place(s)
			} else {
				k.slots[at] = s
				at++
			}
		}
	}
}

// remove deletes the entry of stored row id, whose key values are key.  A run
// loses the key from its end or its start, or splits round it.  A tag slot is
// found by id and the gap closed by moving the run behind it back one slot,
// up to the first entry at its home, so the table never holds tombstones.
func (k *keyIndex) remove(key []Value, id int64) {
	if x, ok := k.intKey(key, k.seq); ok {
		if i, covered, _ := findRun(k.runs, x); covered {
			r := &k.runs[i]
			switch off := uint32(x - r.key); {
			case r.n == 1:
				k.runs = slices.Delete(k.runs, i, i+1)
			case off == r.n-1:
				r.n--
			case off == 0:
				r.key, r.id, r.n = r.key+1, r.id+1, r.n-1
			default:
				tail := keyRun{key: x + 1, id: r.id + off + 1, n: r.n - off - 1}
				r.n = off
				k.runs = slices.Insert(k.runs, i+1, tail)
			}
			k.inRuns--
			return
		}
	}
	k.unslot(key, id)
}

// unslot deletes the tag-table entry of row id, whose key values are key.
func (k *keyIndex) unslot(key []Value, id int64) {
	if k.n == 0 {
		return
	}
	i := k.home(k.hash(key, k.seq))
	for k.slots[i].ref != uint32(id+1) {
		if k.slots[i].ref == 0 {
			return
		}
		i = k.next(i)
	}
	for j := k.next(i); k.slots[j].ref != 0 && k.home(k.slots[j].tag) != j; i, j = j, k.next(j) {
		k.slots[i] = k.slots[j]
	}
	k.slots[i] = keySlot{}
	k.n--
}

// len returns the number of keys held.
func (k *keyIndex) len() int { return k.n + k.inRuns }

// residentBytes is the memory the index holds: its runs and its slots.
func (k *keyIndex) residentBytes() int64 {
	return int64(cap(k.runs))*int64(unsafe.Sizeof(keyRun{})) + int64(cap(k.slots))*8
}
