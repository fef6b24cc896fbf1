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
// Runs, for a key of one or two integer columns: keys arriving in step with
// their row ids extend a run {lead, key, id, n, m} saying row id+k holds the
// key (lead + k/m, key + k%m) for k < n, 32 bytes for the whole run.  With
// m = 0 the lead stays fixed: key+1 at row id+1, as a file's ascending ids
// load; a one-column key has no lead (0) and always m = 0.  A two-column run
// learns m the first time its key wraps to (lead+1, key) at the next row id,
// so four fingers to each object in turn are one run.  Runs are sorted in pair
// order (lead, then key) and disjoint there: no run starts inside another's
// span, from its first key to its last, holes of a stride included.  Every
// key they cover is live, and a probe they answer reads no stored row; an
// absent key reads none either while the tag table is empty.
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
	// ints is set when the key is one or two integer columns; its integer
	// keys may then be held in runs, inRuns of them.
	ints   bool
	runs   []keyRun
	inRuns int
	// slots is at most 3/4 full, so a run always ends at an empty slot.  It
	// grows by a quarter: load in [0.60, 0.75], 10.7 to 13.4 bytes a key.  n
	// counts the keys it holds.
	slots []keySlot
	n     int
}

// keyRun says row id+k holds the key (lead + k/m, key + k%m) for every k < n;
// m = 0 keeps the lead fixed, so the key is (lead, key+k).
type keyRun struct {
	lead, key int64
	id, n, m  uint32
}

// at returns the key of row id+k.
func (r *keyRun) at(k uint32) (lead, key int64) {
	if r.m == 0 {
		return r.lead, r.key + int64(k)
	}
	return r.lead + int64(k/r.m), r.key + int64(k%r.m)
}

// offset returns k such that row id+k holds the key (lead, x) and whether the
// run covers that key.
func (r *keyRun) offset(lead, x int64) (uint32, bool) {
	if lead < r.lead || x < r.key {
		return 0, false
	}
	dl, dk := uint64(lead)-uint64(r.lead), uint64(x)-uint64(r.key)
	if r.m == 0 {
		return uint32(dk), dl == 0 && dk < uint64(r.n)
	}
	if dk >= uint64(r.m) || dl > uint64(r.n/r.m) {
		return 0, false
	}
	k := dl*uint64(r.m) + dk
	return uint32(k), k < uint64(r.n)
}

// covering returns the position of the run that holds the key (lead, x) and
// the key's offset in it, or -1.
func (k *keyIndex) covering(lead, x int64) (int, uint32) {
	if i, _ := findRun(k.runs, lead, x); i >= 0 {
		if off, ok := k.runs[i].offset(lead, x); ok {
			return i, off
		}
	}
	return -1, 0
}

// pairLess is pair order: lead, then key.
func pairLess(al, ak, bl, bk int64) bool { return al < bl || al == bl && ak < bk }

// maxRunsMoved is the most runs an insert may move to open a run: a key whose
// run would open below more goes to the tag table, so no order of inserts
// costs more than that per key.
const maxRunsMoved = 256

// runOpen is how many keys in step a run opens with.  A run costs 32 bytes
// and a tag slot 10.7 to 13.4, so a run of three costs a key no more than a
// slot does, whatever the order of inserts.
const runOpen = 3

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
	k := &keyIndex{t: t, name: name, cols: cols, seq: make([]int, len(cols)), ints: len(cols) <= 2}
	for i := range k.seq {
		k.seq[i] = i
		k.ints = k.ints && t.schema.Columns[cols[i]].Type == TypeInt
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

// runKey returns the key whose column values are vals[at[i]] (at as for hash)
// in pair order — a one-column key has lead 0 — and whether runs may hold it.
func (k *keyIndex) runKey(vals []Value, at []int) (lead, x int64, ok bool) {
	if !k.ints {
		return 0, 0, false
	}
	for _, i := range at {
		if vals[i].Kind != KindInt {
			return 0, 0, false
		}
		lead, x = x, vals[i].I
	}
	return lead, x, true
}

// find returns the row id stored under the key (values as for hash): from a
// run when one covers it, else from the tag table.
func (k *keyIndex) find(vals []Value, at []int) (int64, bool) {
	if lead, x, ok := k.runKey(vals, at); ok {
		if i, off := k.covering(lead, x); i >= 0 {
			return int64(k.runs[i].id) + int64(off), true
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
	if lead, x, ok := k.runKey(row, k.cols); ok && k.putRun(lead, x, id) {
		return
	}
	k.reserve(k.n + 1)
	k.place(keySlot{tag: k.hash(row, k.cols), ref: uint32(id + 1)})
	k.n++
}

// putRun enters the absent key (lead, x) of row id into the runs and reports
// whether it did.  The last run starting below the key takes it when id is
// that run's next row id and the key its next key — or, for a run with its
// lead still fixed, the wrap (lead+1, first key), which sets m.  Failing
// that, a run opens with the runOpen keys (lead, x-runOpen+1) … (lead, x) when
// the rows before id hold the others — which are then in the tag table and
// leave it — and only where no run's span reaches them and at most
// maxRunsMoved runs sit above it.
func (k *keyIndex) putRun(lead, x, id int64) bool {
	at, _ := findRun(k.runs, lead, x)
	if at >= 0 {
		if r := &k.runs[at]; int64(r.id)+int64(r.n) == id {
			if r.m == 0 && lead > r.lead && lead-1 == r.lead && x == r.key {
				r.m = r.n
			}
			if l, y := r.at(r.n); l == lead && y == x {
				r.n++
				k.inRuns++
				return true
			}
		}
	}
	const back = runOpen - 1
	if k.n < back || x < math.MinInt64+back || len(k.runs)-at-1 > maxRunsMoved {
		return false
	}
	if at >= 0 {
		if l, y := k.runs[at].at(k.runs[at].n - 1); !pairLess(l, y, lead, x-back) {
			return false
		}
	}
	below := [2]Value{Int(lead)}
	key := below[2-len(k.cols):]
	for d := int64(1); d <= back; d++ {
		prev, ok := k.t.viewLocked(id - d)
		if !ok {
			return false
		}
		below[1] = Int(x - d)
		for j, c := range k.cols {
			if v := prev.val(c); v.Kind != KindInt || v.I != key[j].I {
				return false
			}
		}
	}
	for d := int64(1); d <= back; d++ {
		below[1] = Int(x - d)
		k.unslot(key, id-d)
	}
	k.runs = slices.Insert(k.runs, at+1, keyRun{lead: lead, key: x - back, id: uint32(id - back), n: runOpen})
	k.inRuns += runOpen
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
// keeps what lies before the key and gives what lies after it back as one run
// when that starts a stride, else as the rest of the key's stride with its
// lead fixed and the strides after it.  A tag slot is found by id and the gap
// closed by moving the run behind it back one slot, up to the first entry at
// its home, so the table never holds tombstones.
func (k *keyIndex) remove(key []Value, id int64) {
	if lead, x, ok := k.runKey(key, k.seq); ok {
		if i, j := k.covering(lead, x); i >= 0 {
			r := k.runs[i]
			var buf [3]keyRun
			parts := buf[:0]
			if head := r; j > 0 {
				head.n = j
				parts = append(parts, head)
			}
			for s := j + 1; s < r.n; {
				e, m := r.n, r.m
				if m > 0 && s%m != 0 {
					e, m = min(r.n, s-s%m+m), 0
				}
				l, y := r.at(s)
				parts = append(parts, keyRun{lead: l, key: y, id: r.id + s, n: e - s, m: m})
				s = e
			}
			k.runs = slices.Replace(k.runs, i, i+1, parts...)
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
