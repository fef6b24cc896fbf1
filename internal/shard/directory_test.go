package shard

import (
	"math/rand"
	"reflect"
	"testing"
)

func buildDirectory(entries []dirEntry) *directory {
	d := new(directory).clone()
	for _, e := range entries {
		d.add(e.id, e.shard)
	}
	return d
}

type dirEntry struct {
	id    int64
	shard int
}

func TestDirectoryRuns(t *testing.T) {
	cases := []struct {
		name string
		in   []dirEntry
		runs []dirRun
		odd  map[int64]int32
	}{
		{"ascending ids of one shard are one run",
			[]dirEntry{{10, 0}, {11, 0}, {12, 0}},
			[]dirRun{{10, 12, 0}}, map[int64]int32{}},
		{"a shard change or a gap starts a run",
			[]dirEntry{{10, 0}, {11, 1}, {12, 1}, {20, 1}},
			[]dirRun{{10, 10, 0}, {11, 12, 1}, {20, 20, 1}}, map[int64]int32{}},
		{"ids below the highest go to the side map",
			[]dirEntry{{10, 0}, {14, 0}, {12, 0}, {5, 2}},
			[]dirRun{{10, 10, 0}, {14, 14, 0}}, map[int64]int32{12: 0, 5: 2}},
		{"the same id for the same shard again records nothing",
			[]dirEntry{{10, 0}, {11, 0}, {12, 0}, {11, 0}, {12, 0}},
			[]dirRun{{10, 12, 0}}, map[int64]int32{}},
		{"a second shard marks one id, keeping the first",
			[]dirEntry{{10, 1}, {11, 1}, {12, 1}, {11, 2}, {11, 0}, {7, 2}, {7, 0}},
			[]dirRun{{10, 12, 1}}, map[int64]int32{11: ^1, 7: ^2}},
	}
	for _, c := range cases {
		d := buildDirectory(c.in)
		if !reflect.DeepEqual(d.runs, c.runs) || !reflect.DeepEqual(d.odd, c.odd) {
			t.Errorf("%s:\n got %v %v\nwant %v %v", c.name, d.runs, d.odd, c.runs, c.odd)
		}
	}
}

// TestDirectoryAgainstMap feeds random id streams — ascending stretches,
// files out of order, duplicated ids, across clones — to the directory and to
// a map, and requires the same first shard and the same "routed to exactly
// one shard" verdict for every id, inside and outside the stream, with the
// runs sorted and disjoint.
func TestDirectoryAgainstMap(t *testing.T) {
	type seen struct {
		first    int
		conflict bool
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := new(directory).clone()
		want := map[int64]*seen{}
		for file := 0; file < 6; file++ {
			id := int64(rng.Intn(300))
			for i := 0; i < 80; i++ {
				switch rng.Intn(10) {
				case 0:
					id = int64(rng.Intn(300))
				case 1:
				default:
					id++
				}
				shard := rng.Intn(3)
				if rng.Intn(4) > 0 {
					shard = int(id/7) % 3
				}
				d.add(id, shard)
				if s, ok := want[id]; !ok {
					want[id] = &seen{first: shard}
				} else if s.first != shard {
					s.conflict = true
				}
			}
			if file%2 == 0 {
				d = d.clone()
			}
		}
		for id := int64(-2); id < 400; id++ {
			w, known := want[id]
			first, ok := d.first(id)
			if ok != known || (known && first != w.first) {
				t.Fatalf("seed %d id %d: first = %d,%v, want %+v (known %v)", seed, id, first, ok, w, known)
			}
			owner, ok := d.owner(id)
			if ok != (known && !w.conflict) || (ok && owner != w.first) {
				t.Fatalf("seed %d id %d: owner = %d,%v, want %+v (known %v)", seed, id, owner, ok, w, known)
			}
		}
		for i, r := range d.runs {
			if r.lo > r.hi {
				t.Fatalf("seed %d: empty run %+v", seed, r)
			}
			if i == 0 {
				continue
			}
			prev := d.runs[i-1]
			if r.lo <= prev.hi {
				t.Fatalf("seed %d: runs %+v and %+v overlap or are out of order", seed, prev, r)
			}
		}
	}
}
