package relstore

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// btreeOracle is the specification FuzzBTreeOps holds the tree to: the
// entries as a sorted slice, each with its ids in insertion order.  An entry
// whose ids were all deleted stays, as the tree's tombstone does.
type btreeOracle []oracleEntry

type oracleEntry struct {
	key []byte
	ids []int64
}

func (o btreeOracle) find(key []byte) (int, bool) {
	i := sort.Search(len(o), func(i int) bool { return bytes.Compare(o[i].key, key) >= 0 })
	return i, i < len(o) && bytes.Equal(o[i].key, key)
}

func (o *btreeOracle) insert(key []byte, id int64) {
	i, found := o.find(key)
	if !found {
		*o = slices.Insert(*o, i, oracleEntry{key: key})
	}
	(*o)[i].ids = append((*o)[i].ids, id)
}

func (o btreeOracle) delete(key []byte, id int64) bool {
	i, found := o.find(key)
	if !found {
		return false
	}
	j := slices.Index(o[i].ids, id)
	if j < 0 {
		return false
	}
	o[i].ids = slices.Delete(o[i].ids, j, j+1)
	return true
}

// dump renders the live entries of [from, to] the way dumpRange renders a
// tree's.
func (o btreeOracle) dump(from, to []byte) string {
	var b strings.Builder
	for _, e := range o {
		if (from == nil || bytes.Compare(e.key, from) >= 0) && (to == nil || bytes.Compare(e.key, to) <= 0) && len(e.ids) > 0 {
			fmt.Fprintf(&b, "%x %v\n", e.key, e.ids)
		}
	}
	return b.String()
}

// fuzzKey maps one input byte to a key from a domain small enough to repeat:
// integers, three-float composites and strings of several lengths.
func fuzzKey(b byte) []byte {
	switch {
	case b < 128:
		return intKey(int64(b % 48))
	case b < 200:
		return EncodeOrderedKey([]Value{Float(float64(b % 5)), Float(float64(b%7) / 4), Float(float64(b % 3))})
	}
	return EncodeOrderedKey([]Value{Str(strings.Repeat("s", int(b%7)))})
}

// FuzzBTreeOps drives a tree of degree 2, 3 or 32 (first byte) with a
// fuzzer-chosen stream of inserts, sorted-batch inserts, deletes, re-inserts
// after a delete, point searches, bounded ranges and bulk rebuilds, checking
// CheckInvariants, Len and the answer after every operation and the whole
// iteration at the end against the sorted-slice oracle.
func FuzzBTreeOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tr := NewBTree([]int{2, 3, 32}[int(data[0])%3])
		var want btreeOracle
		var nextID int64
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for data = data[1:]; len(data) > 0; {
			switch op := next() % 7; op {
			case 0:
				k := fuzzKey(next())
				_, known := want.find(k)
				if st := tr.Insert(k, nextID); st.NewKey == known || st.NodesVisited < 1 {
					t.Fatalf("Insert(%x) of a key known=%v reports %+v", k, known, st)
				}
				want.insert(k, nextID)
				nextID++
			case 1:
				n := 1 + int(next()%24)
				keys, ids := make([][]byte, n), make([]int64, n)
				for i := range keys {
					keys[i], ids[i] = fuzzKey(next()), nextID
					nextID++
				}
				sortKVs(keys, ids)
				tr.InsertSorted(keys, ids)
				for i := range keys {
					want.insert(keys[i], ids[i])
				}
			case 2, 3:
				// Delete one id of a key (or one it does not hold); op 3 then
				// inserts under the same key again, reviving a tombstone when
				// that was its last id.
				k, pick := fuzzKey(next()), int(next())
				id := int64(pick) + 1<<30
				if i, found := want.find(k); found && len(want[i].ids) > 0 && pick%4 > 0 {
					id = want[i].ids[pick%len(want[i].ids)]
				}
				if got, w := tr.Delete(k, id), want.delete(k, id); got != w {
					t.Fatalf("Delete(%x, %d) = %v, oracle %v", k, id, got, w)
				}
				if op == 3 {
					if st := tr.Insert(k, nextID); st.NewKey {
						_, known := want.find(k)
						if known {
							t.Fatalf("re-insert under %x reported a new key", k)
						}
					}
					want.insert(k, nextID)
					nextID++
				}
			case 4:
				k := fuzzKey(next())
				got, _ := tr.Search(k)
				i, found := want.find(k)
				if (got != nil) != found || (found && !slices.Equal(got, want[i].ids)) {
					t.Fatalf("Search(%x) = %v, oracle has it %v", k, got, found)
				}
			case 5:
				from, to := fuzzKey(next()), fuzzKey(next())
				if got, w := dumpRange(tr, from, to), want.dump(from, to); got != w {
					t.Fatalf("range [%x, %x]:\n%s--- oracle ---\n%s", from, to, got, w)
				}
			case 6:
				// A rebuild keeps live pairs only: tombstones go.
				want = slices.DeleteFunc(want, func(e oracleEntry) bool { return len(e.ids) == 0 })
				var keys [][]byte
				var ids []int64
				for _, e := range want {
					for _, id := range e.ids {
						keys, ids = append(keys, e.key), append(ids, id)
					}
				}
				if st := tr.BuildFromSorted(keys, ids); st.Rows != len(keys) || st.Entries != len(want) ||
					st.NodesBuilt != tr.NodeCount() || st.Height != tr.Height() {
					t.Fatalf("rebuild of %d pairs under %d keys reports %+v", len(keys), len(want), st)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(want) {
				t.Fatalf("Len = %d, oracle holds %d keys", tr.Len(), len(want))
			}
		}
		if got, w := dumpRange(tr, nil, nil), want.dump(nil, nil); got != w {
			t.Fatalf("iteration:\n%s--- oracle ---\n%s", got, w)
		}
	})
}
