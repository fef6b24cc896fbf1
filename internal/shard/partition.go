// Package shard is the distributed layer: a coordinator that partitions the
// sky across agents by HTM trixel range, routes each record of a catalog file
// to the agent that loads it, and serves queries by scattering to only the
// owning shards and merge-gathering sorted results.
//
// Ownership rules (see PERFORMANCE.md "Shard ownership rules"): the
// partition map is immutable after construction; each agent is the single
// owner of its relstore.DB (the coordinator never reads rows directly, only
// wire messages, and keeps of a loaded night only the object directory);
// gather buffers live per-request on the coordinator worker.
package shard

import (
	"fmt"
	"slices"
	"sort"

	"skyloader/internal/catalog"
	"skyloader/internal/htm"
)

// PartitionMap divides the full depth-20 trixel id space into contiguous,
// non-overlapping shard ranges that exactly tile the sky.  bounds has one
// entry per shard plus a sentinel: shard i owns [bounds[i], bounds[i+1]-1].
type PartitionMap struct {
	bounds []int64
}

// fullRange returns the depth-DefaultDepth id range of the whole sphere
// (descendants of the eight root faces 8..15).
func fullRange() htm.Range {
	return htm.Range{Lo: 8, Hi: 15}.DescendantRange(htm.DefaultDepth)
}

// NewUniformPartition splits the sky into n equal-width id ranges.
func NewUniformPartition(n int) (*PartitionMap, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: partition needs at least one shard, got %d", n)
	}
	full := fullRange()
	width := full.Trixels()
	bounds := make([]int64, n+1)
	for i := 0; i < n; i++ {
		bounds[i] = full.Lo + int64(i)*(width/int64(n)) + min(int64(i), width%int64(n))
	}
	bounds[n] = full.Hi + 1
	return &PartitionMap{bounds: bounds}, nil
}

// PartitionFromFiles builds a partition whose boundaries follow the HTM
// footprints of the catalog files: the footprint-centre trixel of each file
// is a split candidate, and boundaries are placed so each shard receives a
// comparable share of file centres.  The result still exactly tiles the full
// id space — footprints only move boundaries, they never punch holes — so
// routing stays total for queries outside any footprint.
func PartitionFromFiles(files []*catalog.File, n int) (*PartitionMap, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: partition needs at least one shard, got %d", n)
	}
	centers := make([]int64, 0, len(files))
	for _, f := range files {
		centers = append(centers, fileCenterTrixel(f))
	}
	slices.Sort(centers)
	centers = slices.Compact(centers)
	if len(centers) < n {
		// Too few distinct footprints to guide every boundary; fall back
		// to the uniform tiling.
		return NewUniformPartition(n)
	}
	full := fullRange()
	bounds := make([]int64, n+1)
	bounds[0] = full.Lo
	bounds[n] = full.Hi + 1
	prev := full.Lo
	for i := 1; i < n; i++ {
		cut := centers[i*len(centers)/n]
		if cut <= prev {
			cut = prev + 1
		}
		if cut > full.Hi {
			cut = full.Hi
		}
		bounds[i] = cut
		prev = cut
	}
	// Degenerate clustering can still collapse cuts; repair monotonicity.
	for i := 1; i < n; i++ {
		if bounds[i] <= bounds[i-1] {
			bounds[i] = bounds[i-1] + 1
		}
	}
	if bounds[n] <= bounds[n-1] {
		return NewUniformPartition(n)
	}
	return &PartitionMap{bounds: bounds}, nil
}

// Shards returns the number of shards.
func (pm *PartitionMap) Shards() int { return len(pm.bounds) - 1 }

// Range returns the depth-20 id range owned by shard i.
func (pm *PartitionMap) Range(i int) htm.Range {
	return htm.Range{Lo: pm.bounds[i], Hi: pm.bounds[i+1] - 1}
}

// Owner returns the shard owning a depth-20 trixel id.  Ids outside the
// sphere's id space clamp to the nearest shard so every row has a home.
func (pm *PartitionMap) Owner(id int64) int {
	n := pm.Shards()
	if id < pm.bounds[0] {
		return 0
	}
	if id >= pm.bounds[n] {
		return n - 1
	}
	// The owner is the first shard whose upper boundary lies above id.
	return sort.Search(n, func(i int) bool { return pm.bounds[i+1] > id })
}

// RouteCover intersects a cone cover (expressed at coverDepth) with each
// shard's range and returns, per shard, the depth-DefaultDepth ranges that
// shard must probe.  The union across shards of the returned ranges is
// exactly the cover expanded to DefaultDepth — the routing-oracle property
// the tests assert — because shard ranges tile the id space.
func (pm *PartitionMap) RouteCover(cover []htm.Range, coverDepth int) [][]htm.Range {
	out := make([][]htm.Range, pm.Shards())
	levels := htm.DefaultDepth - coverDepth
	for _, cr := range cover {
		expanded := cr.DescendantRange(levels)
		lo := pm.Owner(expanded.Lo)
		hi := pm.Owner(expanded.Hi)
		for s := lo; s <= hi; s++ {
			if isect, ok := expanded.Intersect(pm.Range(s)); ok {
				out[s] = append(out[s], isect)
			}
		}
	}
	return out
}

// ConeTargets returns the shard indices whose ranges overlap the cone's
// cover — the scatter set for a cone query.
func (pm *PartitionMap) ConeTargets(raDeg, decDeg, radiusDeg float64) ([]int, error) {
	depth := htm.CoverDepth(radiusDeg)
	cover, err := htm.ConeCover(raDeg, decDeg, radiusDeg, depth)
	if err != nil {
		return nil, err
	}
	routed := pm.RouteCover(cover, depth)
	targets := make([]int, 0, len(routed))
	for s, rs := range routed {
		if len(rs) > 0 {
			targets = append(targets, s)
		}
	}
	return targets, nil
}

// fileCenterTrixel returns the depth-20 trixel at the centre of a file's
// nominal footprint (the generator spreads rows ~2.3 deg in RA and ~0.85 deg
// in Dec from the base corner).  Used for partition balancing and as the
// file's home shard for rows whose position cannot be resolved.
func fileCenterTrixel(f *catalog.File) int64 {
	ra := wrapRA(f.RABase + 1.15)
	dec := clampDec(f.DecBase + 0.425)
	return htm.MustLookup(ra, dec, htm.DefaultDepth)
}

func wrapRA(ra float64) float64 {
	for ra >= 360 {
		ra -= 360
	}
	for ra < 0 {
		ra += 360
	}
	return ra
}

func clampDec(dec float64) float64 {
	if dec > 90 {
		return 90
	}
	if dec < -90 {
		return -90
	}
	return dec
}
