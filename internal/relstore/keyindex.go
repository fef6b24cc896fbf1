package relstore

// keyIndex is the hash index behind a primary key or a unique constraint:
// key -> row id.  It has two representations, chosen once from the schema:
//
//   - a single integer or timestamp column that cannot hold NULL (every
//     primary key and foreign-key target of the catalog schema) is keyed by
//     the value's int64 payload: no text encoding, no string hash, and no
//     pointers in the map's buckets for the collector to follow;
//   - anything else — composite keys, string, float and boolean keys, unique
//     constraints over nullable columns — is keyed by the AppendKey encoding.
//
// All methods require the owning table's lock.
type keyIndex struct {
	cols []int
	// kind is the key column's value kind in the integer representation and
	// KindNull in the encoded one.
	kind ValueKind
	ints map[int64]int64
	strs map[string]int64
	// strBytes sums the key text the encoded representation holds.
	strBytes int64
	// encSlot is the index's position among its table's encoded keys (primary
	// key first): where InsertBatch's interned encodings keep its key.
	encSlot int
}

// newKeyIndex builds the index over the given column positions.  notNull
// states that NULL never reaches the index in any key column (primary keys
// reject it before probing; a unique constraint needs NOT NULL columns).
func newKeyIndex(schema *TableSchema, cols []int, notNull bool) *keyIndex {
	kind := KindNull
	if len(cols) == 1 && notNull {
		switch schema.Columns[cols[0]].Type {
		case TypeInt:
			kind = KindInt
		case TypeTime:
			kind = KindTime
		}
	}
	return makeKeyIndex(cols, kind)
}

func makeKeyIndex(cols []int, kind ValueKind) *keyIndex {
	k := &keyIndex{cols: cols, kind: kind}
	if kind != KindNull {
		k.ints = make(map[int64]int64)
	} else {
		k.strs = make(map[string]int64)
	}
	return k
}

// emptyLike returns an empty index of the same shape.
func (k *keyIndex) emptyLike() *keyIndex { return makeKeyIndex(k.cols, k.kind) }

// encoded reports whether keys are looked up by their AppendKey encoding; the
// batch path interns those encodings once per batch.
func (k *keyIndex) encoded() bool { return k.strs != nil }

// lookup returns the row id stored under the key values.  A key of the wrong
// arity or kind matches nothing, as its encoding would not.
func (k *keyIndex) lookup(sc *scratch, key []Value) (int64, bool) {
	if k.ints != nil {
		if len(key) != 1 || key[0].Kind != k.kind {
			return 0, false
		}
		id, ok := k.ints[key[0].I]
		return id, ok
	}
	id, ok := k.strs[string(sc.encodeKey(key))]
	return id, ok
}

// encOf returns the key encoding of a built row in the form has and put take
// it: a string of its own in the encoded representation (the one allocation a
// stored encoded key costs), "" in the integer one.
func (k *keyIndex) encOf(sc *scratch, row Row) string {
	if k.ints != nil {
		return ""
	}
	return string(sc.encodeKey(sc.keyOf(row, k.cols)))
}

// has reports whether the row's key is present.  row is a built row (values
// coerced, key columns not NULL in the integer representation); enc is its
// key encoding (encOf, or InsertBatch's interned one), read only by the
// encoded representation.
func (k *keyIndex) has(row Row, enc string) bool {
	if k.ints != nil {
		_, ok := k.ints[row[k.cols[0]].I]
		return ok
	}
	_, ok := k.strs[enc]
	return ok
}

// put stores id under the row's key, which must be absent; arguments as for
// has.
func (k *keyIndex) put(row Row, enc string, id int64) {
	if k.ints != nil {
		k.ints[row[k.cols[0]].I] = id
		return
	}
	k.strs[enc] = id
	k.strBytes += int64(len(enc))
}

// remove deletes the entry of a stored row.
func (k *keyIndex) remove(sc *scratch, v RowView) {
	if k.ints != nil {
		delete(k.ints, v.Int(k.cols[0]))
		return
	}
	enc := sc.encodeKey(sc.keyOfView(v, k.cols))
	if _, ok := k.strs[string(enc)]; ok {
		delete(k.strs, string(enc))
		k.strBytes -= int64(len(enc))
	}
}

// len returns the number of keys held.
func (k *keyIndex) len() int { return len(k.ints) + len(k.strs) }

// Entry sizes for the resident-bytes accounting: a map slot's key and value
// plus its control byte.
const (
	intKeyEntryBytes = 8 + 8 + 1
	strKeyEntryBytes = 16 + 8 + 1
)

// residentBytes is the memory of the entries held: slots at their size, and
// the key text behind encoded slots.  The map's load-factor slack is not
// visible from outside the runtime and is not counted.
func (k *keyIndex) residentBytes() int64 {
	if k.ints != nil {
		return int64(len(k.ints)) * intKeyEntryBytes
	}
	return int64(len(k.strs))*strKeyEntryBytes + k.strBytes
}
