package gen

import (
	"math"
	"math/rand"

	"skyloader/internal/queries"
)

// Query-class shares of every trace: cone, object lookup, frame, histogram.
const (
	shareCone   = 0.45
	shareLookup = 0.45
	shareFrame  = 0.08
	// the remaining 0.02 are magnitude histograms
)

// HotDistinct is the size of the hot trace's query set; it fits the serving
// layer's 1,024-entry result cache, so after one pass every request hits.
const HotDistinct = 512

// hotZipfS is the popularity skew of the hot trace.
const hotZipfS = 1.2

// targetConeObjects is the object count the middle cone radius aims for; the
// radius mix {r/2, r, 2r} then returns about a quarter, one and four times it.
const targetConeObjects = 60

// classAt gives the query class at index i of a query set.  The pattern is a
// fixed low-discrepancy sequence against the class shares, not a random
// draw, so the class of every popularity rank — and with it the cost mix of
// the trace — is the same for every seed; the seed only picks the targets.
func classAt(i int) string {
	u := math.Mod(float64(i+1)*0.6180339887498949, 1)
	switch {
	case u < shareCone:
		return queries.ClassCone
	case u < shareCone+shareLookup:
		return queries.ClassLookup
	case u < shareCone+shareLookup+shareFrame:
		return queries.ClassFrame
	default:
		return queries.ClassHistogram
	}
}

// distinctQueries builds n queries that are pairwise distinct as long as the
// night has enough objects and frames (a pool that runs out starts over):
// lookups and cone centres walk independent shuffles of the sampled objects,
// frames walk a shuffle of the frame ids, and every histogram has its own
// bin width.
func distinctQueries(night *Night, rng *rand.Rand, n int) []queries.Query {
	var objects []Object
	var frames []int64
	var total int
	for _, f := range night.Files {
		objects = append(objects, f.Objects...)
		frames = append(frames, f.Frames...)
		total += f.ObjectsTotal
	}
	if len(objects) == 0 || len(frames) == 0 {
		return nil
	}
	lookupOrder := rng.Perm(len(objects))
	coneOrder := rng.Perm(len(objects))
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })

	// The middle radius is sized from the night's own object density, so a
	// quick (small) night and a full one both return tens of objects.
	density := float64(total) / (float64(len(night.Files)) * footprintDeg2)
	r0 := math.Sqrt(targetConeObjects / (math.Pi * density))
	radii := [3]float64{round4(r0 / 2), round4(r0), round4(2 * r0)}

	out := make([]queries.Query, 0, n)
	var lookups, cones, frameQs, hists int
	for i := 0; i < n; i++ {
		switch classAt(i) {
		case queries.ClassCone:
			o := objects[coneOrder[cones%len(coneOrder)]]
			cones++
			out = append(out, queries.Cone{RA: o.RA, Dec: o.Dec, RadiusDeg: radii[rng.Intn(len(radii))]})
		case queries.ClassLookup:
			out = append(out, queries.ObjectLookup{ObjectID: objects[lookupOrder[lookups%len(lookupOrder)]].ID})
			lookups++
		case queries.ClassFrame:
			out = append(out, queries.FrameObjects{FrameID: frames[frameQs%len(frames)]})
			frameQs++
		default:
			out = append(out, queries.MagHistogram{BinWidth: round4(0.1 + 0.0001*float64(hists))})
			hists++
		}
	}
	return out
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// ColdTrace returns n requests with no query repeated, drawn uniformly over
// the night's objects and frames: every request misses the result cache.
func ColdTrace(night *Night, seed int64, n int) []queries.Query {
	return distinctQueries(night, rand.New(rand.NewSource(seed)), n)
}

// HotTrace returns n requests drawn Zipf(1.2) over HotDistinct distinct
// queries.  Distinct is the query set itself, most popular first; one pass
// over it warms the cache.
func HotTrace(night *Night, seed int64, n int) (trace, distinct []queries.Query) {
	rng := rand.New(rand.NewSource(seed))
	distinct = distinctQueries(night, rng, HotDistinct)
	if len(distinct) == 0 {
		return nil, nil
	}
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(distinct)-1))
	trace = make([]queries.Query, n)
	for i := range trace {
		trace[i] = distinct[zipf.Uint64()]
	}
	return trace, distinct
}
