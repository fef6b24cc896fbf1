package shard

import "sort"

// directory is the coordinator's object id → owning shard map, a by-product
// of routing a night.  Ids are sequential per file and a file goes to one or
// two shards, so ids that arrive in ascending order are stored as runs; the
// rest (a file out of id order, a duplicated id) go to a side map.  It is a
// routing cache, never the authority for "not found": a lookup it cannot
// place on exactly one shard broadcasts.  A load extends a private clone and
// publishes it whole (Coordinator.dir); a published one is never written.
type directory struct {
	runs []dirRun
	// odd holds the ids that were not above every run when they arrived:
	// their shard, or ^(first shard) once recorded for two different shards.
	odd map[int64]int32
}

// dirRun says every object id in [lo, hi] was routed to shard.
type dirRun struct {
	lo, hi int64
	shard  int32
}

func (d *directory) clone() *directory {
	c := &directory{runs: append([]dirRun(nil), d.runs...), odd: make(map[int64]int32, len(d.odd))}
	for id, s := range d.odd {
		c.odd[id] = s
	}
	return c
}

// add records that object id was routed to shard.
func (d *directory) add(id int64, shard int) {
	n := len(d.runs)
	switch {
	case n > 0 && id <= d.runs[n-1].hi:
		if first, ok := d.first(id); !ok {
			d.odd[id] = int32(shard)
		} else if first != shard {
			d.odd[id] = ^int32(first)
		}
	case n > 0 && id == d.runs[n-1].hi+1 && d.runs[n-1].shard == int32(shard):
		d.runs[n-1].hi = id
	default:
		d.runs = append(d.runs, dirRun{id, id, int32(shard)})
	}
}

// first returns the shard the first record of id was routed to — the object
// row a single node would have kept, which child rows follow.
func (d *directory) first(id int64) (shard int, ok bool) {
	s, ok := d.odd[id]
	if !ok {
		i := sort.Search(len(d.runs), func(i int) bool { return d.runs[i].hi >= id })
		if i == len(d.runs) || d.runs[i].lo > id {
			return 0, false
		}
		s = d.runs[i].shard
	}
	if s < 0 {
		s = ^s
	}
	return int(s), true
}

// owner returns the one shard id was routed to; ok is false for an unknown
// id and for one recorded for two shards.
func (d *directory) owner(id int64) (shard int, ok bool) {
	if d.odd[id] < 0 {
		return 0, false
	}
	return d.first(id)
}
