package relstore

import "bytes"

// Test-only views of the key indexes for the external guard test
// (keyindex_guard_test.go), which needs internal/catalog and so cannot live
// in this package.

// KeyIndexGeometry describes the probe runs of a table's primary-key and
// unique indexes, computed from the slot tags.
type KeyIndexGeometry struct {
	Keys, Slots int
	// DisplacementSum and DisplacementMax are over every stored key: how many
	// slots past its home a key sits, i.e. the slots a probe for it skips.
	DisplacementSum, DisplacementMax int
}

// KeyIndexGeometry sums the geometry of the table's key indexes.
func (t *Table) KeyIndexGeometry() KeyIndexGeometry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var g KeyIndexGeometry
	for _, k := range append([]*keyIndex{t.pk}, t.uniques...) {
		g.Keys += k.len()
		g.Slots += len(k.slots)
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
// occupied slots on its run whose tag equals the key's.
func (t *Table) AbsentKeyRowCompares(key []Value) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k := t.pk
	if _, ok := k.lookup(key); ok {
		panic("relstore: AbsentKeyRowCompares given a present key")
	}
	if len(k.slots) == 0 {
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
