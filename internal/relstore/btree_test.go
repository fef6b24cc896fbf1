package relstore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// intKey encodes a one-integer composite key the way the table layer does.
func intKey(v int64) []byte { return EncodeOrderedKey([]Value{Int(v)}) }

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree(3)
	for i := int64(0); i < 200; i++ {
		bt.Insert(intKey(i*7%201), i)
	}
	if bt.Len() != 200 {
		t.Fatalf("Len = %d, want 200", bt.Len())
	}
	for i := int64(0); i < 200; i++ {
		ids, _ := bt.Search(intKey(i * 7 % 201))
		if len(ids) != 1 || ids[0] != i {
			t.Fatalf("Search(%d) = %v, want [%d]", i*7%201, ids, i)
		}
	}
	if ids, _ := bt.Search(intKey(9999)); ids != nil {
		t.Fatalf("Search(missing) = %v, want nil", ids)
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

func TestBTreeDuplicateKeysAccumulate(t *testing.T) {
	bt := NewBTree(4)
	for i := int64(0); i < 10; i++ {
		st := bt.Insert(intKey(5), i)
		if i > 0 && st.NewKey {
			t.Fatal("duplicate key reported as new")
		}
	}
	ids, _ := bt.Search(intKey(5))
	if len(ids) != 10 {
		t.Fatalf("expected 10 row ids, got %d", len(ids))
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", bt.Len())
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree(3)
	for i := int64(0); i < 50; i++ {
		bt.Insert(intKey(i), i)
	}
	if !bt.Delete(intKey(10), 10) {
		t.Fatal("Delete existing failed")
	}
	if bt.Delete(intKey(10), 10) {
		t.Fatal("Delete twice should fail")
	}
	if bt.Delete(intKey(999), 1) {
		t.Fatal("Delete missing key should fail")
	}
	ids, _ := bt.Search(intKey(10))
	if len(ids) != 0 {
		t.Fatalf("deleted key still has ids: %v", ids)
	}
}

// TestBTreeLongKeyDoesNotInflateNodes stores one 64 KiB key and then 20,000
// short ones in random order at degree 32.  A node's key bytes are sized to
// the keys it holds, so the long key costs about its own length and no
// other node: the tree holds no more than it does without the long key plus
// one and a half times that key.  (While every new node reserved
// 2*degree-1 times the longest key ever stored, this tree held 1.9 GB: 93 KB
// per entry.)
func TestBTreeLongKeyDoesNotInflateNodes(t *testing.T) {
	const (
		shortKeys       = 20_000
		perEntryCeiling = 28 // 24.6 measured, 3.3 of it the long key itself
	)
	long := EncodeOrderedKey([]Value{Str(strings.Repeat("x", 64<<10))})
	load := func(withLong bool) *BTree {
		tr := NewBTree(32)
		if withLong {
			tr.Insert(long, 0)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 1; i <= shortKeys; i++ {
			tr.Insert(intKey(rng.Int63n(1<<40)), int64(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	with, without := load(true), load(false)
	perEntry := float64(with.ResidentBytes()) / float64(with.Len())
	extra := with.ResidentBytes() - without.ResidentBytes()
	t.Logf("%d entries: %d resident bytes (%.1f per entry), %d more than without the %d-byte key",
		with.Len(), with.ResidentBytes(), perEntry, extra, len(long))
	if perEntry > perEntryCeiling {
		t.Errorf("%.1f resident bytes per entry, ceiling %d", perEntry, perEntryCeiling)
	}
	if extra > int64(len(long))*3/2 {
		t.Errorf("the long key costs %d resident bytes, more than 1.5 times its %d", extra, len(long))
	}
}

func TestBTreeHeightGrows(t *testing.T) {
	bt := NewBTree(2)
	h1 := bt.Height()
	for i := int64(0); i < 1000; i++ {
		bt.Insert(intKey(i), i)
	}
	if bt.Height() <= h1 {
		t.Fatalf("height did not grow: %d", bt.Height())
	}
	if bt.Splits() == 0 {
		t.Fatal("expected splits")
	}
	if bt.NodeCount() < 10 {
		t.Fatalf("node count = %d, want many", bt.NodeCount())
	}
}

func TestBTreeAscendRange(t *testing.T) {
	bt := NewBTree(3)
	for i := int64(0); i < 100; i++ {
		bt.Insert(intKey(i), i)
	}
	var got []int64
	bt.AscendRange(intKey(10), intKey(20), func(key []byte, ids []int64) bool {
		vals, err := DecodeOrderedKey(key)
		if err != nil {
			t.Fatalf("stored key %x does not decode: %v", key, err)
		}
		got = append(got, vals[0].Int())
		return true
	})
	if len(got) != 11 {
		t.Fatalf("range [10,20] returned %d keys: %v", len(got), got)
	}
	for i, v := range got {
		if v != int64(10+i) {
			t.Fatalf("range out of order: %v", got)
		}
	}
	// Early stop.
	count := 0
	bt.AscendRange(nil, nil, func([]byte, []int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBTreeKeysSorted(t *testing.T) {
	bt := NewBTree(5)
	rng := rand.New(rand.NewSource(3))
	seen := map[int64]bool{}
	for i := 0; i < 500; i++ {
		v := rng.Int63n(10000)
		seen[v] = true
		bt.Insert(intKey(v), int64(i))
	}
	keys := bt.Keys()
	if len(keys) != len(seen) {
		t.Fatalf("Keys returned %d, want %d", len(keys), len(seen))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatal("keys not strictly increasing")
		}
	}
}

func TestBTreeCompositeKeys(t *testing.T) {
	enc := func(vals ...Value) []byte { return EncodeOrderedKey(vals) }
	bt := NewBTree(3)
	bt.Insert(enc(Float(1.5), Float(2.5), Str("a")), 1)
	bt.Insert(enc(Float(1.5), Float(2.5), Str("b")), 2)
	bt.Insert(enc(Float(1.5), Float(1.0), Str("z")), 3)
	ids, _ := bt.Search(enc(Float(1.5), Float(2.5), Str("a")))
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("composite search = %v", ids)
	}
	keys := bt.Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys returned %d keys", len(keys))
	}
	first, err := DecodeOrderedKey(keys[0])
	if err != nil {
		t.Fatalf("decode first key: %v", err)
	}
	if first[1].Float() != 1.0 {
		t.Fatalf("composite ordering wrong: %v", first)
	}
}

// TestBTreeInvariantsProperty inserts random keys and validates structural
// invariants and retrievability.
func TestBTreeInvariantsProperty(t *testing.T) {
	f := func(seed int64, degree uint8, n uint16) bool {
		d := int(degree%6) + 2
		count := int(n%800) + 1
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree(d)
		inserted := map[int64][]int64{}
		for i := 0; i < count; i++ {
			k := rng.Int63n(500)
			bt.Insert(intKey(k), int64(i))
			inserted[k] = append(inserted[k], int64(i))
		}
		if err := bt.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if bt.Len() != len(inserted) {
			return false
		}
		for k, want := range inserted {
			ids, _ := bt.Search(intKey(k))
			if len(ids) != len(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeMinimumDegreeRaised(t *testing.T) {
	bt := NewBTree(0)
	for i := int64(0); i < 100; i++ {
		bt.Insert(intKey(i), i)
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// dumpRange renders the (key, ids) pairs a tree visits in [from, to].
func dumpRange(tr *BTree, from, to []byte) string {
	var b strings.Builder
	tr.AscendRange(from, to, func(key []byte, ids []int64) bool {
		fmt.Fprintf(&b, "%x %v\n", key, ids)
		return true
	})
	return b.String()
}

// TestBTreeMatchesParent drives the packed tree with one fixed-seed op stream
// per degree — single inserts, sorted batches, deletes, searches, bounded
// ranges and bulk rebuilds over integer, composite and string keys with many
// duplicates — and folds every observable into one digest: each call's
// InsertStats, BuildStats, Delete and Search result (with nodes visited), each
// range dump, Len/Height/NodeCount/Splits/KeyBytes after every op and the full
// iteration every 50 ops.  The digests were recorded while the same stream
// checked the tree call by call against the pointer-graph B-tree it replaced
// (commit 5dcf283), so they hold the packed tree to that algorithm.
func TestBTreeMatchesParent(t *testing.T) {
	want := map[int]uint64{2: 0x91b754ece8136c1c, 3: 0x9ce2e6538e13f8a3, 32: 0x2f2b68cec47e0d59}
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
		tr, h := NewBTree(degree), fnv.New64a()
		type pair struct {
			key []byte
			id  int64
		}
		var live []pair
		var nextID int64
		const ops = 2000
		for op := 0; op < ops; op++ {
			fmt.Fprintf(h, "%d ", op)
			switch c := rng.Intn(100); {
			case c < 50:
				p := pair{randKey(), nextID}
				nextID++
				live = append(live, p)
				fmt.Fprintf(h, "insert %+v", tr.Insert(p.key, p.id))
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
				fmt.Fprintf(h, "sorted %+v", tr.InsertSorted(keys, ids))
			case c < 85 && len(live) > 0:
				i := rng.Intn(len(live))
				p := live[i]
				if rng.Intn(4) > 0 {
					live = append(live[:i], live[i+1:]...)
				} else {
					p.id += 1 << 20 // never stored
				}
				fmt.Fprintf(h, "delete %v", tr.Delete(p.key, p.id))
			case c < 90:
				ids, visited := tr.Search(randKey())
				fmt.Fprintf(h, "search %v nil=%v visited=%d", ids, ids == nil, visited)
			case c < 98:
				from, to := randKey(), randKey()
				if bytes.Compare(from, to) > 0 {
					from, to = to, from
				}
				fmt.Fprintf(h, "range\n%s", dumpRange(tr, from, to))
			default:
				keys, ids := make([][]byte, len(live)), make([]int64, len(live))
				for i, p := range live {
					keys[i], ids[i] = p.key, p.id
				}
				sortKVs(keys, ids)
				fmt.Fprintf(h, "build %+v", tr.BuildFromSorted(keys, ids))
			}
			fmt.Fprintf(h, " len=%d height=%d nodes=%d splits=%d keyBytes=%d\n",
				tr.Len(), tr.Height(), tr.NodeCount(), tr.Splits(), tr.KeyBytes())
			if op%50 == 0 || op == ops-1 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("degree %d op %d: %v", degree, op, err)
				}
				fmt.Fprintf(h, "iteration\n%s", dumpRange(tr, nil, nil))
			}
		}
		if got := h.Sum64(); got != want[degree] {
			t.Errorf("degree %d: op-stream digest %#x, want %#x", degree, got, want[degree])
		}
	}
}
