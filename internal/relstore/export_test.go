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
		mask := len(k.slots) - 1
		for i, s := range k.slots {
			if s.ref != 0 {
				d := (i - int(s.tag)) & mask
				g.DisplacementSum += d
				g.DisplacementMax = max(g.DisplacementMax, d)
			}
		}
	}
	return g
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
	tag, mask, n := k.hash(key, k.seq), len(k.slots)-1, 0
	for i := int(tag) & mask; k.slots[i].ref != 0; i = (i + 1) & mask {
		if k.slots[i].tag == tag {
			n++
		}
	}
	return n
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
