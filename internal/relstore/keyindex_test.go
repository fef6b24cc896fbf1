package relstore

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The key index is tested against an oracle that does store keys: a
// map[string]int64 over EncodeKey, the representation the index replaced.  A
// stream of operations drives both and every answer must agree.  The oracle's
// encoding has one known flaw — it joins columns with an unescaped 0x1f, so
// two distinct composite string keys can encode alike — which the harness's
// string pool avoids and TestCompositeStringKeysDoNotCollide pins.

// keyOracleShapes are the key shapes the stream runs over, as column
// positions in keyOracleSchema's table.
var keyOracleShapes = []struct {
	name string
	cols []int
}{
	{"single-int", []int{0}},
	{"two-int", []int{0, 1}},
	{"int+string", []int{1, 2}},
	{"nullable-unique", []int{3}},
	{"float", []int{4}},
}

func keyOracleTable(t testing.TB) *Table {
	t.Helper()
	tbl, err := newTable(keyOracleSchema(t).Table("t"), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// keyOracleSchema is one table "t" of integer, string and nullable columns
// with an integer primary key.
func keyOracleSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(&TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "a", Type: TypeInt},
			{Name: "b", Type: TypeInt},
			{Name: "s", Type: TypeString},
			{Name: "n", Type: TypeInt, Nullable: true},
			{Name: "f", Type: TypeFloat, Nullable: true},
		},
		PrimaryKey: []string{"a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// keyOracleFloats are the float keys the stream draws from besides a grid:
// NULL, both zeros, two NaNs of different payload (one key, as 'g' renders
// them), infinities.
var keyOracleFloats = []Value{
	Null, Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()),
	Float(math.Float64frombits(0x7ff8000000000123)), Float(math.Inf(1)), Float(math.Inf(-1)),
}

// opStream hands a byte string out as small integers; exhausted, it yields
// zeros and reports done.
type opStream struct {
	data []byte
	pos  int
}

func (o *opStream) done() bool { return o.pos >= len(o.data) }

func (o *opStream) next(n int) int {
	if o.pos+2 > len(o.data) {
		o.pos = len(o.data)
		return 0
	}
	v := int(o.data[o.pos]) | int(o.data[o.pos+1])<<8
	o.pos += 2
	return v % n
}

// row draws a row over small domains, so keys repeat.
func (o *opStream) row() Row {
	row := Row{Int(int64(o.next(3000))), Int(int64(o.next(7))), Str(strings.Repeat("k", o.next(4)) + string(rune('a'+o.next(5)))), Null, Null}
	if n := o.next(600); n > 0 {
		row[3] = Int(int64(n))
	}
	if f := o.next(400); f < len(keyOracleFloats) {
		row[4] = keyOracleFloats[f]
	} else {
		row[4] = Float(float64(f) / 4)
	}
	return row
}

// runKeyIndexOps drives one key index over cols and its oracle with the
// operations data spells: check-then-insert, lookup (of present, absent,
// wrong-arity and wrong-kind keys), and removal of a stored row the way
// rollback does it.  It fails the test on the first disagreement and returns
// the index as the stream left it.
func runKeyIndexOps(t testing.TB, cols []int, data []byte) *keyIndex {
	tbl := keyOracleTable(t)
	k := newKeyIndex(tbl, "k", cols)
	oracle := map[string]int64{}
	var live []int64
	var sc scratch
	o := &opStream{data: data}
	for !o.done() {
		switch op := o.next(8); {
		case op < 4: // has, then put when absent
			row := o.row()
			enc := EncodeKey(sc.keyOf(row, cols))
			_, want := oracle[enc]
			if got := k.has(row); got != want {
				t.Fatalf("has(%q) = %v, oracle says %v", enc, got, want)
			}
			if want {
				continue
			}
			id := tbl.nextRow
			tbl.nextRow++
			loc, _, _ := tbl.heap.append(row)
			tbl.rows.put(id, loc)
			k.put(row, id)
			oracle[enc] = id
			live = append(live, id)
		case op < 6: // lookup
			key := append([]Value(nil), sc.keyOf(o.row(), cols)...)
			switch o.next(8) {
			case 0:
				key = append(key, Int(1))
			case 1:
				key = key[:len(key)-1]
			case 2:
				key[0] = Bool(true)
			}
			wantID, want := oracle[EncodeKey(key)]
			if id, ok := k.lookup(key); ok != want || (ok && id != wantID) {
				t.Fatalf("lookup(%q) = %d, %v; oracle says %d, %v", EncodeKey(key), id, ok, wantID, want)
			}
		case len(live) > 0: // remove
			i := o.next(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			loc, _ := tbl.rows.get(id)
			v, ok := tbl.heap.view(loc)
			if !ok {
				t.Fatalf("live row %d has no view", id)
			}
			key := sc.keyOfView(v, cols)
			delete(oracle, EncodeKey(key))
			k.remove(key, id)
			tbl.heap.markDeleted(loc)
		}
		if k.len() != len(oracle) {
			t.Fatalf("index holds %d keys, oracle %d", k.len(), len(oracle))
		}
	}

	// Every stored row's key finds its own id.
	for _, id := range live {
		loc, _ := tbl.rows.get(id)
		v, _ := tbl.heap.view(loc)
		if got, ok := k.lookup(sc.keyOfView(v, cols)); !ok || got != id {
			t.Fatalf("row %d's key looks up to %d, %v", id, got, ok)
		}
	}
	checkKeyRuns(t, k, oracle)

	// The tag table is well formed: at most 3/4 full, as many occupied slots
	// as keys outside the runs, no empty slot between an entry and its home,
	// and every probe run in tag order — an entry sits no further from home
	// than one past the entry before it, and exactly that far (the same home)
	// only behind a tag no higher than its own.
	occupied := 0
	for i, s := range k.slots {
		if s.ref == 0 {
			continue
		}
		occupied++
		for j := k.home(s.tag); j != i; j = k.next(j) {
			if k.slots[j].ref == 0 {
				t.Fatalf("slot %d (home %d) is cut off by the empty slot %d", i, k.home(s.tag), j)
			}
		}
		if p := (i + len(k.slots) - 1) % len(k.slots); k.slots[p].ref != 0 {
			d, dp := k.fromHome(i), k.fromHome(p)
			if d > dp+1 || (d == dp+1 && k.slots[p].tag > s.tag) {
				t.Fatalf("slot %d (tag %#x, %d from home) is out of order behind tag %#x, %d from home", i, s.tag, d, k.slots[p].tag, dp)
			}
		}
	}
	if occupied != k.n || k.n*4 > len(k.slots)*3 {
		t.Fatalf("%d occupied slots of %d for %d keys", occupied, len(k.slots), k.n)
	}
	return k
}

// checkKeyRuns checks the runs of k against the oracle of every key k holds:
// only a key index of one or two integer columns has runs, a one-column
// key's with lead 0 and m 0; none is empty; they are sorted in pair order and
// disjoint there, each ending before the next starts; they cover as many keys
// as the index says; and every key they cover is the key of the live row the
// run maps it to, which the oracle holds at that id.
func checkKeyRuns(t testing.TB, k *keyIndex, oracle map[string]int64) {
	t.Helper()
	if !k.ints && len(k.runs) > 0 {
		t.Fatalf("a %d-column key index that is not all integers holds %d runs", len(k.cols), len(k.runs))
	}
	covered := 0
	for i, r := range k.runs {
		if r.n == 0 || len(k.cols) == 1 && (r.lead != 0 || r.m != 0) {
			t.Fatalf("run %d %+v is empty or has a lead in a one-column key", i, r)
		}
		if i > 0 {
			p := &k.runs[i-1]
			if el, ek := p.at(p.n - 1); !pairLess(el, ek, r.lead, r.key) {
				t.Fatalf("run %d %+v does not start after run %d %+v ends", i, r, i-1, *p)
			}
		}
		for j := uint32(0); j < r.n; j++ {
			lead, x := r.at(j)
			key, id := []Value{Int(lead), Int(x)}[2-len(k.cols):], int64(r.id+j)
			v, ok := k.t.viewLocked(id)
			for c, col := range k.cols {
				if stored := v.val(col); !ok || stored != key[c] {
					t.Fatalf("run %+v maps key %v to row %d, which is live %v with %v in column %d", r, key, id, ok, stored, col)
				}
			}
			if got, ok := oracle[EncodeKey(key)]; !ok || got != id {
				t.Fatalf("run %+v maps key %v to row %d; oracle says %d, %v", r, key, id, got, ok)
			}
		}
		covered += int(r.n)
	}
	if covered != k.inRuns {
		t.Fatalf("runs cover %d keys, index counts %d", covered, k.inRuns)
	}
}

// tagShape is the two-int shape as the tag-table tests use it: keys (a, 0),
// of which no run ever holds one, since a run opens with (a, b-1) and (a, b).
var tagShape = []int{0, 1}

// keyIndexWrapOps spells an operation stream for the two-int shape that
// stores the n keys (a, 0) of the stream's domain whose tags are highest —
// their homes are the last slots of a table of any size, so their probe run
// crosses the table's end at every size the growth takes it through — and then
// removes half of them, the backward shift working across the end.
func keyIndexWrapOps(t testing.TB, n int) []byte {
	k := newKeyIndex(keyOracleTable(t), "k", tagShape)
	keys := make([]int, 3000)
	for i := range keys {
		keys[i] = i
	}
	tag := func(a int) uint32 { return k.hash([]Value{Int(int64(a)), Int(0)}, k.seq) }
	slices.SortFunc(keys, func(a, b int) int { return cmp.Compare(tag(b), tag(a)) })
	var w opSpeller
	for _, a := range keys[:n] {
		w.put(a)
	}
	for live := n; live > n/2; live-- {
		w.removeAt(0) // remove the first live row; the last takes its place
	}
	return w.data
}

// opSpeller writes operation streams for runKeyIndexOps and keeps the
// harness's list of live keys, so that a removal can name a key.
type opSpeller struct {
	data []byte
	live []int
}

func (w *opSpeller) emit(vs ...int) {
	for _, v := range vs {
		w.data = append(w.data, byte(v), byte(v>>8))
	}
}

// put is a has-then-put of row (a, 0, "a", NULL, NULL), a key not yet held.
func (w *opSpeller) put(keys ...int) {
	for _, a := range keys {
		w.emit(0, a, 0, 0, 0, 0, 0)
		w.live = append(w.live, a)
	}
}

// lookup looks key a up, unaltered.
func (w *opSpeller) lookup(a int) { w.emit(4, a, 0, 0, 0, 0, 0, 7) }

// removeAt removes the i-th live row as the harness does: the last live row
// takes its place.
func (w *opSpeller) removeAt(i int) {
	w.emit(7, i)
	w.live[i] = w.live[len(w.live)-1]
	w.live = w.live[:len(w.live)-1]
}

// remove removes the row of key a.
func (w *opSpeller) remove(a int) { w.removeAt(slices.Index(w.live, a)) }

// pair is a has-then-put of row (a, b, "a", NULL, NULL), a key of the two-int
// shape not yet held; the harness's live list names it a<<3 | b.
func (w *opSpeller) pair(a, b int) {
	w.emit(0, a, b, 0, 0, 0, 0)
	w.live = append(w.live, a<<3|b)
}

// pairs puts (a, from..to) for every a in [first, last].
func (w *opSpeller) pairs(first, last, from, to int) {
	for a := first; a <= last; a++ {
		for b := from; b <= to; b++ {
			w.pair(a, b)
		}
	}
}

// rejectPair puts (a, b), which is held: the harness finds it present and
// stores nothing, as a load rejects a duplicate row without spending an id.
func (w *opSpeller) rejectPair(a, b int) { w.emit(0, a, b, 0, 0, 0, 0) }

// lookupPair looks (a, b) up, unaltered.
func (w *opSpeller) lookupPair(a, b int) { w.emit(4, a, b, 0, 0, 0, 0, 7) }

// removePair removes the row of key (a, b).
func (w *opSpeller) removePair(a, b int) { w.remove(a<<3 | b) }

// keyRunSeeds are the checked-in FuzzKeyIndexOps streams over the single-int
// shape (runs-*) and the two-int shape (pairs-*) that take runs through their
// cases.
func keyRunSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	add := func(name string, spell func(w *opSpeller)) {
		var w opSpeller
		spell(&w)
		shape := byte(0) // single-int
		if strings.HasPrefix(name, "pairs-") {
			shape = 1 // two-int
		}
		seeds[name] = append([]byte{shape}, w.data...)
	}
	ascending := func(from, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + i
		}
		return out
	}
	add("runs-two-streams", func(w *opSpeller) {
		for i := 0; i < 12; i++ { // two writers' batches of 5, interleaved
			w.put(ascending(100+5*i, 5)...)
			w.put(ascending(2000+5*i, 5)...)
		}
		for i := 0; i < 10; i++ { // and of one key each
			w.put(500+i, 2500+i)
		}
		w.lookup(104)
		w.lookup(2059)
		w.lookup(160)
	})
	add("runs-rollback-end-middle", func(w *opSpeller) {
		w.put(ascending(10, 20)...)
		w.put(ascending(40, 20)...)
		w.remove(29) // a run's end
		w.remove(28)
		w.remove(45) // a run's middle
		w.remove(40) // the start of what is left
		w.lookup(44)
		w.lookup(46)
		w.put(29, 28, 45, 40) // back, out of step
		w.put(ascending(60, 5)...)
		w.remove(62)
		w.put(62, 65, 66)
	})
	add("runs-reinsert-after-rollback", func(w *opSpeller) {
		w.put(ascending(300, 30)...)
		for a := 329; a >= 315; a-- { // rollback removes newest first
			w.remove(a)
		}
		w.put(ascending(315, 15)...)
		w.put(ascending(330, 10)...)
	})
	add("runs-descending", func(w *opSpeller) {
		for a := 2999; a >= 2600; a-- {
			w.put(a)
		}
		for a := 1998; a >= 1000; a -= 3 { // triples in step, each below the last
			w.put(a, a+1, a+2)
		}
	})
	add("runs-random", func(w *opSpeller) {
		rng := rand.New(rand.NewSource(36))
		for _, a := range rng.Perm(3000)[:600] {
			w.put(a)
		}
		for i := 0; i < 100; i++ {
			w.removeAt(rng.Intn(len(w.live)))
		}
	})
	add("pairs-strides", func(w *opSpeller) { // a different m in each run
		w.pairs(10, 30, 1, 4)
		w.pairs(100, 110, 0, 6)
		w.pairs(200, 210, 2, 4)
		for _, k := range [][2]int{{12, 5}, {12, 0}, {31, 1}, {105, 6}, {110, 0}, {111, 0}, {205, 1}, {210, 3}} {
			w.lookupPair(k[0], k[1])
		}
	})
	add("pairs-mid-stride", func(w *opSpeller) { // runs that start inside a stride
		w.pairs(10, 10, 3, 4)
		w.pairs(11, 20, 1, 4)
		w.pairs(40, 40, 2, 6)
		w.pairs(41, 45, 0, 6)
		w.lookupPair(10, 2)
		w.lookupPair(10, 1)
		w.lookupPair(40, 1)
	})
	add("pairs-rejected-gaps", func(w *opSpeller) { // keys that never arrive, or arrive twice
		w.pairs(40, 44, 1, 4)
		w.pair(45, 1) // (45, 2) rejected before it had an id
		w.pairs(45, 45, 3, 4)
		w.pairs(46, 49, 1, 4)
		w.pairs(50, 50, 1, 2)
		w.rejectPair(49, 3) // a duplicate between two keys in step
		w.pairs(50, 50, 3, 4)
		w.pairs(51, 52, 1, 4)
		w.pair(53, 1) // stored and rolled back: its id is spent
		w.removePair(53, 1)
		w.pairs(53, 55, 1, 4)
		w.lookupPair(45, 2)
		w.lookupPair(53, 1)
	})
	add("pairs-interleave", func(w *opSpeller) { // spans that would take in a neighbour
		w.pairs(20, 20, 5, 6) // opened first, above where the next run goes
		w.pairs(10, 14, 1, 4)
		w.pair(11, 5) // in the span's holes
		w.pair(11, 6)
		w.pair(10, 0) // below its start
		w.pair(14, 5) // just past its end, behind a key a run holds
		w.pair(14, 6)
		w.pairs(18, 20, 1, 4) // runs up to (20, 5) and stops
		w.pairs(21, 22, 1, 4)
		for _, k := range [][2]int{{11, 5}, {14, 6}, {20, 4}, {20, 5}, {21, 1}, {19, 5}} {
			w.lookupPair(k[0], k[1])
		}
	})
	add("pairs-rollback", func(w *opSpeller) { // a prefix, a middle and a suffix
		w.pairs(30, 39, 1, 4)
		w.removePair(39, 4) // suffix
		w.removePair(39, 3)
		w.removePair(30, 1) // prefix: the rest of its stride is a run of its own
		w.removePair(34, 2) // middle, inside a stride
		w.removePair(36, 1) // middle, at a stride's start
		w.removePair(30, 2) // the start of a piece
		for _, k := range [][2]int{{30, 1}, {30, 3}, {34, 1}, {34, 2}, {34, 3}, {36, 1}, {36, 2}, {39, 2}, {39, 3}} {
			w.lookupPair(k[0], k[1])
		}
		w.pair(34, 2) // back, out of step
		w.pairs(39, 39, 3, 4)
		w.pairs(40, 41, 1, 4)
		for _, k := range [][2]int{{33, 4}, {34, 4}, {35, 1}} { // a whole piece and the run after it
			w.removePair(k[0], k[1])
		}
	})
	return seeds
}

var writeKeyIndexSeeds = flag.Bool("write-keyindex-seeds", false, "rewrite FuzzKeyIndexOps's seed corpus")

// TestWriteKeyIndexSeeds rewrites testdata/fuzz/FuzzKeyIndexOps from
// keyIndexWrapOps and keyRunSeeds; run it with -write-keyindex-seeds after
// changing either or the harness's stream layout.
func TestWriteKeyIndexSeeds(t *testing.T) {
	if !*writeKeyIndexSeeds {
		t.Skip("run with -write-keyindex-seeds to rewrite the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzKeyIndexOps")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := keyRunSeeds()
	for _, n := range []int{7, 20, 52, 300} {
		seeds[fmt.Sprintf("wrap-end-%d-keys", n)] = append([]byte{1}, keyIndexWrapOps(t, n)...) // shape 1: two-int
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKeyRunSeeds: every run seed but the random order leaves runs behind, so
// the corpus keeps exercising them; the random order leaves none.
func TestKeyRunSeeds(t *testing.T) {
	for name, data := range keyRunSeeds() {
		k := runKeyIndexOps(t, keyOracleShapes[data[0]].cols, data[1:])
		t.Logf("%s: %d keys, %d in %d runs, %d in tag slots", name, k.len(), k.inRuns, len(k.runs), k.n)
		if (len(k.runs) == 0) != (name == "runs-random") {
			t.Errorf("%s: %d runs, %d keys in tag slots", name, len(k.runs), k.n)
		}
	}
}

// TestKeyIndexWrapsAcrossEnd: at sizes that are no power of two, a probe run
// that crosses the table's end still finds, places and shifts back every key.
func TestKeyIndexWrapsAcrossEnd(t *testing.T) {
	for _, n := range []int{7, 20, 52, 300} {
		k := runKeyIndexOps(t, tagShape, keyIndexWrapOps(t, n))
		size := len(k.slots)
		if k.len() != n-(n+1)/2 || size&(size-1) == 0 {
			t.Fatalf("%d keys stored: %d left in %d slots", n, k.len(), size)
		}
		wrapped := 0
		for i, s := range k.slots {
			if s.ref != 0 && i < k.home(s.tag) {
				wrapped++
			}
		}
		if wrapped == 0 {
			t.Fatalf("%d keys in %d slots: no probe run crosses the end", k.len(), size)
		}
	}
}

// TestKeyIndexCapacity: grown one key at a time the table holds between 10.6
// and 13.4 bytes a key at every count from 64 up, never the 21 a doubling
// table holds just after it doubles; a reserve lands inside the same band and
// the keys it was told of then fit without another growth.
func TestKeyIndexCapacity(t *testing.T) {
	const lo, hi = 10.6, 13.4
	band := func(n, slots int) bool {
		per := float64(slots) * 8 / float64(n)
		return per >= lo && per <= hi
	}
	k := newKeyIndex(keyOracleTable(t), "k", tagShape)
	for n := 1; n <= 100_000; n++ {
		k.put(Row{Int(int64(n)), Int(0)}, int64(n))
		if n >= 64 && !band(n, len(k.slots)) {
			t.Fatalf("%d keys in %d slots: outside [%.1f, %.1f] bytes a key", n, len(k.slots), lo, hi)
		}
	}
	for n := 64; n <= 100_000; n += 1 + n/64 {
		r := newKeyIndex(keyOracleTable(t), "k", tagShape)
		r.reserve(n)
		size := len(r.slots)
		if !band(n, size) || size != (4*n+2)/3 {
			t.Fatalf("reserve(%d) made %d slots", n, size)
		}
		r.n = n - 1 // the table as the n-th put finds it
		r.put(Row{Int(0), Int(0)}, 0)
		if len(r.slots) != size {
			t.Fatalf("reserve(%d) made %d slots and the %d-th key grew them to %d", n, size, n, len(r.slots))
		}
	}
}

// TestKeyIndexMatchesOracle runs a seeded operation stream, long enough to
// take the larger key domains through several growth steps, over every shape.
func TestKeyIndexMatchesOracle(t *testing.T) {
	for i, shape := range keyOracleShapes {
		t.Run(shape.name, func(t *testing.T) {
			data := make([]byte, 1<<17)
			rand.New(rand.NewSource(int64(2005 + i))).Read(data)
			runKeyIndexOps(t, shape.cols, data)
		})
	}
}

// TestKeyIndexReserve: a loader that states its row count up front (the
// checkpoint load does) never rehashes.
func TestKeyIndexReserve(t *testing.T) {
	tbl := keyOracleTable(t)
	k := newKeyIndex(tbl, "k", tagShape)
	k.reserve(1000)
	first, size := &k.slots[0], len(k.slots)
	for i := int64(0); i < 1000; i++ {
		row := Row{Int(i), Int(0), Str(""), Null, Null}
		loc, _, _ := tbl.heap.append(row)
		tbl.rows.put(i, loc)
		k.put(row, i)
	}
	if &k.slots[0] != first || len(k.slots) != size || size != 1334 {
		t.Fatalf("1000 keys after reserve(1000): %d slots (was %d), moved %v", len(k.slots), size, &k.slots[0] != first)
	}
	if id, ok := k.lookup([]Value{Int(999), Int(0)}); !ok || id != 999 {
		t.Fatalf("lookup(999, 0) = %d, %v", id, ok)
	}
}

// TestKeyRunOrders feeds 200k keys in orders that are not in step with their
// row ids — single-int keys random, descending, stride 2, in step only in
// pairs (ascending and descending), too few for a run to open; two-int keys
// random, and each lead's stride descending — and keys in step in triples
// each opened below every run before it, single-int and as strides of two-int
// keys whose leads descend; single-int triples ascending with gaps between,
// the most runs an order can open; and two-int keys in step whose stride
// changes every 1000 leads.  Whatever the order, the index holds at most 16
// bytes a key, no insert moves more than maxRunsMoved runs, and every stored
// key and a sample of absent ones — in the holes of a stride too — answer as
// a map does.
func TestKeyRunOrders(t *testing.T) {
	const n = 200_000
	type key struct{ a, b int64 }
	orders := map[string]func(i int) key{
		"random":                func(i int) key { return key{int64(n - 1 - i), 0} }, // permuted below
		"descending":            func(i int) key { return key{int64(n - 1 - i), 0} },
		"stride-2":              func(i int) key { return key{int64(2 * i), 0} },
		"descending-pairs":      func(i int) key { return key{int64(n - 2 - i&^1 + i&1), 0} },
		"ascending-pairs":       func(i int) key { return key{int64(3*(i/2) + i%2), 0} },
		"descending-triples":    func(i int) key { return key{int64(n - 3 - 3*(i/3) + i%3), 0} },
		"ascending-triples":     func(i int) key { return key{int64(4*(i/3) + i%3), 0} },
		"pairs-random":          func(i int) key { return key{int64(i / 4), int64(i%4 + 1)} }, // permuted below
		"pairs-key-descending":  func(i int) key { return key{int64(i / 4), int64(4 - i%4)} },
		"pairs-lead-descending": func(i int) key { return key{int64(n/4 - i/4), int64(i%4 + 1)} },
		"pairs-changing-stride": func(i int) key {
			// Leads 0..999 have keys 0..1, leads 1000..1999 keys 0..2, and so on
			// up to 0..6, then round again.
			for lead, block := int64(0), 0; ; block++ {
				m := 2 + block%6
				if i < 1000*m {
					return key{lead + int64(i/m), int64(i % m)}
				}
				i, lead = i-1000*m, lead+1000
			}
		},
	}
	for name, keyAt := range orders {
		t.Run(name, func(t *testing.T) {
			keys := make([]key, n)
			for i := range keys {
				keys[i] = keyAt(i)
			}
			if strings.HasSuffix(name, "random") {
				rand.New(rand.NewSource(36)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			cols, pairs := []int{0}, strings.HasPrefix(name, "pairs-")
			if pairs {
				cols = []int{0, 1}
			}
			probe := func(x key) []Value { return []Value{Int(x.a), Int(x.b)}[:len(cols)] }
			tbl := keyOracleTable(t)
			k := newKeyIndex(tbl, "k", cols)
			oracle := make(map[key]int64, n)
			mostMoved := 0
			for id, x := range keys {
				row := Row{Int(x.a), Int(x.b), Str(""), Null, Null}
				if k.has(row) {
					t.Fatalf("key %v present before it was put", x)
				}
				loc, _, _ := tbl.heap.append(row)
				tbl.rows.put(int64(id), loc)
				runs := len(k.runs)
				k.put(row, int64(id))
				if len(k.runs) > runs {
					lead, y, _ := k.runKey(row, k.cols)
					at, _ := findRun(k.runs, lead, y)
					mostMoved = max(mostMoved, len(k.runs)-1-at)
				}
				oracle[x] = int64(id)
			}
			perKey := float64(k.residentBytes()) / n
			t.Logf("%d keys: %d in %d runs, %d in %d tag slots; %.2f bytes a key, at most %d runs moved by an insert",
				n, k.inRuns, len(k.runs), k.n, len(k.slots), perKey, mostMoved)
			if perKey > 16 || mostMoved > maxRunsMoved {
				t.Errorf("%.2f bytes a key (ceiling 16), %d runs moved by one insert (ceiling %d)", perKey, mostMoved, maxRunsMoved)
			}
			if k.len() != n {
				t.Fatalf("index holds %d keys, want %d", k.len(), n)
			}
			for x, want := range oracle {
				if id, ok := k.lookup(probe(x)); !ok || id != want {
					t.Fatalf("lookup(%v) = %d, %v; want %d", x, id, ok, want)
				}
			}
			absent := []key{{-1, 0}, {2*n + 1, 0}, {2*n - 1, 0}, {1 << 40, 0}, {math.MinInt64, 0}, {math.MaxInt64, 0}}
			if pairs {
				absent = []key{{0, -1}, {7, 0}, {7, 5}, {1500, 3}, {n, 7}, {-1, 1}, {math.MaxInt64, 1}, {math.MinInt64, math.MaxInt64}, {1, math.MinInt64}}
			}
			for _, x := range absent {
				if _, present := oracle[x]; present {
					continue
				}
				if id, ok := k.lookup(probe(x)); ok {
					t.Fatalf("absent key %v looks up to %d", x, id)
				}
			}
		})
	}
}

// FuzzKeyIndexOps is the same harness over fuzzer-chosen operation streams;
// the first byte picks the key shape.  The checked-in corpus
// (testdata/fuzz/FuzzKeyIndexOps, TestWriteKeyIndexSeeds) adds
// keyIndexWrapOps streams — clusters across the table's end at sizes that are
// no power of two — and keyRunSeeds' streams through the runs' cases, over
// keys of one integer column and of two.
func FuzzKeyIndexOps(f *testing.F) {
	seed := make([]byte, 512)
	for i := range keyOracleShapes {
		rand.New(rand.NewSource(int64(i))).Read(seed)
		seed[0] = byte(i)
		f.Add(append([]byte(nil), seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runKeyIndexOps(t, keyOracleShapes[int(data[0])%len(keyOracleShapes)].cols, data[1:])
	})
}

// TestKeyShapesRollbackAndLookup runs the rollback, lookup and duplicate
// cases of the insert path once per primary-key shape: one-row inserts and
// multi-row batches agree, a rolled-back key can be inserted again, and the
// re-derived primary-key index matches the heap throughout.
func TestKeyShapesRollbackAndLookup(t *testing.T) {
	cols := []string{"object_id", "frame_id", "mag"}
	obj := func(id, frame int64) []Value { return []Value{Int(id), Int(frame), Float(20)} }
	for _, shape := range keyShapes {
		t.Run(shape.name, func(t *testing.T) {
			db := batchPropertyDBOn(t, keyShapeSchema(t, shape.name))
			tbl := db.Table("objects")
			// The key of (id, frame) as LookupByPK takes it in this shape.
			key := func(id, frame int64) []Value {
				switch shape.name {
				case "composite":
					return []Value{Int(id), Int(frame)}
				case "string":
					v, _ := coerce(Int(id), TypeString)
					return []Value{v}
				}
				return []Value{Int(id)}
			}
			verify := func(rows int) {
				t.Helper()
				if err := db.VerifyPrimaryKeys(); err != nil {
					t.Fatal(err)
				}
				if n := tbl.RowCount(); n != int64(rows) || tbl.pk.len() != rows {
					t.Fatalf("%d rows, %d keys, want %d of each", n, tbl.pk.len(), rows)
				}
			}

			// Committed rows through both paths.
			txn, _ := db.Begin()
			if _, err := txn.Insert("objects", cols, obj(1, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.InsertBatch("objects", cols, [][]Value{obj(2, 2), obj(3, 3)}); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			verify(3)

			// Duplicates: against a committed row through Insert, and inside
			// one multi-row batch — with the same violation.
			txn, _ = db.Begin()
			_, rowErr := txn.Insert("objects", cols, obj(2, 2))
			br, batchErr := txn.InsertBatch("objects", cols, [][]Value{obj(10, 1), obj(11, 1), obj(10, 1), obj(12, 1)})
			if br.RowsInserted != 2 || br.FailedIndex != 2 {
				t.Fatalf("intra-batch duplicate: inserted %d, failed at %d, want 2 and 2", br.RowsInserted, br.FailedIndex)
			}
			for _, err := range []error{rowErr, batchErr} {
				if k, _ := ViolationKind(err); k != KindPrimaryKey || !strings.Contains(err.Error(), "duplicate key ") {
					t.Fatalf("duplicate key reported as %v", err)
				}
			}

			// NULL in the primary key is rejected on both paths, in the key's
			// first column and (composite) its second.
			nullRows := [][]Value{{Null, Int(1), Float(20)}}
			if shape.name == "composite" {
				nullRows = append(nullRows, []Value{Int(50), Null, Float(20)})
			}
			for _, row := range nullRows {
				_, rowErr := txn.Insert("objects", cols, row)
				_, batchErr := txn.InsertBatch("objects", cols, [][]Value{row})
				for _, err := range []error{rowErr, batchErr} {
					if k, _ := ViolationKind(err); k != KindNotNull {
						t.Fatalf("NULL primary key %v reported as %v", row, err)
					}
				}
			}
			verify(5)

			// Rollback removes the uncommitted keys and only those.
			if err := txn.Rollback(); err != nil {
				t.Fatal(err)
			}
			verify(3)
			for id := int64(1); id <= 3; id++ {
				if row, err := db.LookupByPK("objects", key(id, id)); err != nil || row == nil || row[1].I != id {
					t.Fatalf("LookupByPK(%d) after rollback: row %v err %v", id, row, err)
				}
			}
			for _, k := range [][]Value{key(10, 1), key(11, 1), {Null}, {Float(1)}, {Int(1), Int(1), Int(1)}} {
				if row, err := db.LookupByPK("objects", k); err != nil || row != nil {
					t.Fatalf("LookupByPK(%v): row %v err %v, want no row", k, row, err)
				}
			}

			// The rolled-back keys are free again.
			txn, _ = db.Begin()
			if _, err := txn.InsertBatch("objects", cols, [][]Value{obj(10, 1), obj(11, 1)}); err != nil {
				t.Fatalf("reinsert after rollback: %v", err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			verify(5)
		})
	}
}

// TestUniqueOverNullableColumn: in a unique constraint over a nullable
// integer column NULL is a key like any other — two NULLs collide, as they
// always have in this engine.
func TestUniqueOverNullableColumn(t *testing.T) {
	schema, err := NewSchema(&TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "serial", Type: TypeInt, Nullable: true},
			{Name: "tag", Type: TypeInt},
		},
		PrimaryKey: []string{"id"},
		Uniques: []UniqueConstraint{
			{Name: "uq_serial", Columns: []string{"serial"}},
			{Name: "uq_tag", Columns: []string{"tag"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(schema)
	tbl := db.Table("t")
	cols := []string{"id", "serial", "tag"}
	txn, _ := db.Begin()
	const accepted ConstraintKind = -1
	for _, c := range []struct {
		row  []Value
		want ConstraintKind
	}{
		{[]Value{Int(1), Int(7), Int(100)}, accepted},
		{[]Value{Int(2), Null, Int(101)}, accepted},
		{[]Value{Int(3), Int(7), Int(102)}, KindUnique}, // uq_serial
		{[]Value{Int(4), Null, Int(103)}, KindUnique},   // uq_serial: NULL collides
		{[]Value{Int(5), Int(8), Int(100)}, KindUnique}, // uq_tag
		{[]Value{Int(6), Int(9), Null}, KindNotNull},    // tag is NOT NULL
		{[]Value{Int(7), Int(10), Int(104)}, accepted},
	} {
		_, rowErr := txn.Insert("t", cols, c.row)
		if c.want == accepted {
			if rowErr != nil {
				t.Fatalf("Insert %v: %v", c.row, rowErr)
			}
			continue
		}
		if k, ok := ViolationKind(rowErr); !ok || k != c.want {
			t.Fatalf("Insert %v: %v, want a %s violation", c.row, rowErr, c.want)
		}
		// The batch path rejects the same row the same way.
		_, batchErr := txn.InsertBatch("t", cols, [][]Value{c.row})
		if batchErr == nil || batchErr.Error() != rowErr.Error() {
			t.Fatalf("InsertBatch %v: %v, Insert said %v", c.row, batchErr, rowErr)
		}
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tbl.pk.len() != 0 || tbl.uniques[0].len() != 0 || tbl.uniques[1].len() != 0 {
		t.Fatalf("rollback left keys behind: pk %d uq_serial %d uq_tag %d",
			tbl.pk.len(), tbl.uniques[0].len(), tbl.uniques[1].len())
	}
}

// TestCompositeStringKeysDoNotCollide: ("a\x1fsb","c") and ("a","b\x1fsc")
// are distinct keys.  The stored AppendKey encodings, which join columns with
// an unescaped 0x1f, made them one key and rejected the second row; the row
// comparison keeps them apart, in the primary key and in a unique
// constraint, row by row and in one batch.
func TestCompositeStringKeysDoNotCollide(t *testing.T) {
	schema, err := NewSchema(&TableSchema{
		Name: "t",
		Columns: []Column{
			{Name: "p", Type: TypeString}, {Name: "q", Type: TypeString},
			{Name: "u", Type: TypeString}, {Name: "v", Type: TypeString},
		},
		PrimaryKey: []string{"p", "q"},
		Uniques:    []UniqueConstraint{{Name: "uq_uv", Columns: []string{"u", "v"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"p", "q", "u", "v"}
	x, y := []Value{Str("a\x1fsb"), Str("c")}, []Value{Str("a"), Str("b\x1fsc")}
	if EncodeKey(x) != EncodeKey(y) {
		t.Fatal("the pair no longer encodes alike; pick another")
	}
	rows := [][]Value{
		{x[0], x[1], Str("1"), Str("1")},
		{y[0], y[1], Str("2"), Str("2")}, // primary keys encode alike
		{Str("3"), Str("3"), x[0], x[1]},
		{Str("4"), Str("4"), y[0], y[1]}, // unique keys encode alike
	}
	for _, batch := range []bool{false, true} {
		db := MustOpen(schema)
		txn, _ := db.Begin()
		if batch {
			if _, err := txn.InsertBatch("t", cols, rows); err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
		} else {
			for _, row := range rows {
				if _, err := txn.Insert("t", cols, row); err != nil {
					t.Fatalf("Insert %v: %v", row, err)
				}
			}
		}
		// A true duplicate of either is still one, reported as before.
		for i, dup := range [][]Value{
			{y[0], y[1], Str("5"), Str("5")},
			{Str("6"), Str("6"), y[0], y[1]},
		} {
			_, rowErr := txn.Insert("t", cols, dup)
			_, batchErr := txn.InsertBatch("t", cols, [][]Value{dup})
			want := []ConstraintKind{KindPrimaryKey, KindUnique}[i]
			for _, err := range []error{rowErr, batchErr} {
				if k, _ := ViolationKind(err); k != want || !strings.HasSuffix(err.Error(), "duplicate key "+EncodeKey(y)) {
					t.Fatalf("duplicate %v reported as %v", dup, err)
				}
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.VerifyPrimaryKeys(); err != nil {
			t.Fatal(err)
		}
		for _, key := range [][]Value{x, y} {
			if row, err := db.LookupByPK("t", key); err != nil || row == nil || row[0] != key[0] || row[1] != key[1] {
				t.Fatalf("LookupByPK(%q): row %v err %v", EncodeKey(key), row, err)
			}
		}
	}
}

// TestVerifyPrimaryKeysCoversUniques corrupts a unique index three ways — an
// entry dropped, an entry pointing at another row, a stale entry left behind
// — and expects VerifyPrimaryKeys to name the index each time.
func TestVerifyPrimaryKeysCoversUniques(t *testing.T) {
	load := func() (*DB, *keyIndex) {
		db := fingersDB(t, 25)
		txn, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		row := make([]Value, len(fingerCols))
		for i := int64(0); i < 100; i++ {
			fingerRow(row, i, 4)
			if _, err := txn.Insert("fingers", fingerCols, row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		tbl := db.Table("fingers")
		if err := db.VerifyPrimaryKeys(); err != nil {
			t.Fatal(err)
		}
		return db, tbl.uniques[0]
	}
	slotOf := func(k *keyIndex, id int64) *keySlot {
		for i := range k.slots {
			if k.slots[i].ref == uint32(id+1) {
				return &k.slots[i]
			}
		}
		t.Fatalf("row %d has no slot", id)
		return nil
	}
	for name, corrupt := range map[string]func(db *DB, k *keyIndex){
		"dropped": func(db *DB, k *keyIndex) {
			v, _ := k.t.viewLocked(7)
			var sc scratch
			k.remove(sc.keyOfView(v, k.cols), 7)
		},
		"misdirected": func(db *DB, k *keyIndex) { slotOf(k, 7).ref = 9 + 1 },
		"stale": func(db *DB, k *keyIndex) {
			k.put(Row{Int(1000), Int(1000), Float(1000)}, 7)
		},
	} {
		db, k := load()
		corrupt(db, k)
		if err := db.VerifyPrimaryKeys(); err == nil || !strings.Contains(err.Error(), k.name) {
			t.Errorf("%s unique entry: VerifyPrimaryKeys = %v, want an error naming %q", name, err, k.name)
		}
	}
}

// TestRowIDBeyondKeySlot: a table whose next row id does not fit a slot's 32
// bits refuses the insert on every path and stores nothing; it never wraps.
func TestRowIDBeyondKeySlot(t *testing.T) {
	db := batchPropertyDB(t)
	tbl := db.Table("frames")
	rows := tbl.RowCount()
	tbl.nextRow = maxKeyRowID + 1
	cols, row := []string{"frame_id", "exposure"}, []Value{Int(100), Float(1)}
	txn, _ := db.Begin()
	_, rowErr := txn.Insert("frames", cols, row)
	br, batchErr := txn.InsertBatch("frames", cols, [][]Value{row})
	for _, err := range []error{rowErr, batchErr} {
		if err == nil || !strings.Contains(err.Error(), `table "frames" is full`) {
			t.Fatalf("insert at row id %d: %v, want a table-full error", tbl.nextRow, err)
		}
	}
	var sc scratch
	if err := tbl.replayContiguous(&sc, maxKeyRowID+1, []Row{row}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("replay at row id %d: %v, want ErrWALCorrupt", int64(maxKeyRowID+1), err)
	}
	if br.RowsInserted != 0 || tbl.RowCount() != rows || tbl.pk.len() != int(rows) {
		t.Fatalf("a refused insert stored something: %d rows, %d keys, want %d", tbl.RowCount(), tbl.pk.len(), rows)
	}
	tbl.nextRow = rows
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyRunsTwoWriters: two writers load ascending key streams into two
// tables at once, a batch per table per transaction, and one of them rolls
// back every third transaction and loads its keys again.  Table t's primary
// key is one integer column; table c's unique key is two, (lead, key) with
// four keys to a lead, as fingers to an object.  The writers' batches
// interleave in the row ids, so each batch is a run of its own — the shape a
// catalog night loads in — and the runs, cut by the rollbacks, agree with the
// heap.  CI runs it under -race three times.
func TestKeyRunsTwoWriters(t *testing.T) {
	const batches, batch = 60, 40
	composite := &TableSchema{
		Name:       "c",
		Columns:    []Column{{Name: "id", Type: TypeInt}, {Name: "lead", Type: TypeInt}, {Name: "key", Type: TypeInt}},
		PrimaryKey: []string{"id"},
		Uniques:    []UniqueConstraint{{Name: "uq_c", Columns: []string{"lead", "key"}}},
	}
	schema, err := NewSchema(keyOracleSchema(t).Table("t"), composite)
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(schema)
	cols, ccols := []string{"a", "b", "s", "n", "f"}, []string{"id", "lead", "key"}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := int64(w) * 1_000_000
			for i := 0; i < batches && errs[w] == nil; i++ {
				rows, crows := make([][]Value, batch), make([][]Value, batch)
				for j := range rows {
					rows[j] = []Value{Int(next), Int(int64(w)), Str("x"), Null, Null}
					crows[j] = []Value{Int(next), Int(next / 4), Int(next % 4)}
					next++
				}
				txn, err := db.Begin()
				if err == nil {
					_, err = txn.InsertBatch("t", cols, rows)
				}
				if err == nil {
					_, err = txn.InsertBatch("c", ccols, crows)
				}
				switch {
				case err != nil:
				case w == 1 && i%3 == 2:
					err = txn.Rollback()
					next -= batch
				default:
					_, err = txn.Commit()
				}
				errs[w] = err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyPrimaryKeys(); err != nil {
		t.Fatal(err)
	}
	want := (2*batches - batches/3) * batch
	for _, name := range []string{"t", "c"} {
		tbl := db.Table(name)
		tbl.mu.RLock()
		k := append([]*keyIndex{tbl.pk}, tbl.uniques...)[len(tbl.uniques)]
		var sc scratch
		oracle := map[string]int64{}
		tbl.scanRowsByID(func(id int64, v RowView) { oracle[EncodeKey(sc.keyOfView(v, k.cols))] = id })
		checkKeyRuns(t, k, oracle)
		inRuns, runs := k.inRuns, len(k.runs)
		tbl.mu.RUnlock()
		if len(oracle) != want || inRuns != want {
			t.Fatalf("%s: %d rows, %d of them in runs, want %d", name, len(oracle), inRuns, want)
		}
		if runs > 2*batches {
			t.Fatalf("%s: %d batches of %d keys left %d runs", name, 2*batches, batch, runs)
		}
	}
}
